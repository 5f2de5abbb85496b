import math

import numpy as np
import pytest

from lccsim import gates, qcore
from lccsim.lcc import run_lcc
from lccsim.qcore import InvalidInputError, SX, SZ, basis_state


class TestBaseGates:
    def test_a_definition(self):
        want = np.array([[1 - 1j, 0], [0, -1 - 1j]]) / math.sqrt(2)
        assert np.array_equal(gates.gate("A"), want)

    def test_b_definition(self):
        want = np.array([[0, 1 + 1j], [1 - 1j, 0]]) / math.sqrt(2)
        assert np.array_equal(gates.gate("B"), want)

    def test_a_b_unitary(self):
        for name in ("A", "B"):
            m = gates.gate(name)
            assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12


class TestCombinations:
    def test_registry_consistency(self):
        for name in gates.COMBINATIONS:
            spec = gates.combination_spec(name)
            assert np.abs(spec.combination() - gates.gate(name)).max() < 1e-12

    def test_coefficients_normalized(self):
        for name in gates.COMBINATIONS:
            coeffs, _ = gates.COMBINATIONS[name]
            assert abs(sum(abs(c) ** 2 for c in coeffs) - 1.0) < 1e-12

    def test_pinned_decimal_values(self):
        c1, _ = gates.COMBINATIONS["U1"]
        assert abs(c1[0] - 0.9239) < 1e-4 and abs(c1[1] - 0.3827) < 1e-4
        c2, _ = gates.COMBINATIONS["U2"]
        assert abs(c2[0] - 0.7071) < 1e-4 and abs(c2[1] - 0.7071) < 1e-4
        c12, parts12 = gates.COMBINATIONS["U12"]
        assert parts12 == ("X", "Z")
        assert abs(c12[1] - 0.7071j) < 1e-4

    def test_u12_matrix(self):
        want = (SX + 1j * SZ) / math.sqrt(2)
        assert np.abs(gates.gate("U12") - want).max() < 1e-12

    def test_unitarity_flags(self):
        for name in gates.COMBINATIONS:
            unitary = qcore.is_unitary(gates.gate(name), atol=1e-9)
            assert unitary == (name != "U12")

    def test_single_term_entries(self):
        assert np.abs(gates.gate("U4") - gates.gate("A")).max() < 1e-12
        assert np.abs(gates.gate("U6") - gates.gate("B")).max() < 1e-12

    def test_all_run_through_circuit(self):
        psi = basis_state((2,), (0,))
        for name in gates.COMBINATIONS:
            res = run_lcc(gates.combination_spec(name), psi)
            want = gates.gate(name) @ psi.data
            want = want / np.linalg.norm(want)
            overlap = abs(np.vdot(want, res.output_state.data))
            assert overlap > 1 - 1e-10, name

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            gates.gate("U99")
        with pytest.raises(InvalidInputError):
            gates.combination_spec("H")  # base gate without a combination

    @pytest.mark.parametrize("name", sorted(gates.COMBINATIONS))
    def test_spec_is_built_once_and_read_only(self, name):
        spec = gates.combination_spec(name)
        assert gates.combination_spec(name) is spec
        for array in (spec.coefficients, spec.gates, spec.circuit_matrix):
            assert not array.flags.writeable
