import hashlib
import math

import numpy as np
import pytest

from lccsim import gates, qcore
from lccsim.lcc import run_lcc
from lccsim.qcore import (InvalidInputError, SX, SZ, UnknownNameError,
                          basis_state)

# sha256 over every `gate(name)` matrix, then every `combination_spec(name)`'s
# coefficients, gates and circuit matrix, in name order, as recorded when
# U4 and U6 were one-term rows that `combination_spec` padded with a
# zero identity term
REGISTRY_DIGEST = "3d75bbaad0dd2a7d4dd213d39fc9935a7a895f79369ed0cb0788765e337c9030"


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

    @pytest.mark.parametrize("lookup, name", [
        (gates.gate, "U99"), (gates.combination_spec, "U99"),
        (gates.combination_spec, "H")])
    def test_a_miss_is_one_unknown_name_error(self, lookup, name):
        with pytest.raises(UnknownNameError) as info:
            lookup(name)
        assert str(info.value) == f"unknown operation {name!r}"

    @pytest.mark.parametrize("lookup", [gates.gate, gates.combination_spec])
    def test_a_long_miss_echoes_a_bounded_name(self, lookup):
        with pytest.raises(UnknownNameError) as info:
            lookup("U" * 100_000)
        assert str(info.value).startswith("unknown operation 'UUU")
        assert len(str(info.value)) <= 60

    def test_every_row_has_two_terms(self):
        for coeffs, parts in gates.COMBINATIONS.values():
            assert len(coeffs) == len(parts) == 2
        assert gates.COMBINATIONS["U4"] == ((1.0, 0.0), ("A", "I"))
        assert gates.COMBINATIONS["U6"] == ((1.0, 0.0), ("B", "I"))

    def test_registry_bytes_pinned(self):
        digest = hashlib.sha256()
        for name in sorted(gates.GATES):
            digest.update(name.encode())
            digest.update(gates.gate(name).tobytes())
        for name in sorted(gates.COMBINATIONS):
            spec = gates.combination_spec(name)
            for array in (spec.coefficients, spec.gates, spec.circuit_matrix):
                digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == REGISTRY_DIGEST

    @pytest.mark.parametrize("name", sorted(gates.COMBINATIONS))
    def test_spec_is_built_once_and_read_only(self, name):
        spec = gates.combination_spec(name)
        assert gates.combination_spec(name) is spec
        for array in (spec.coefficients, spec.gates, spec.circuit_matrix):
            assert not array.flags.writeable
