import math

import numpy as np
import pytest

from conftest import random_statevector
from lccsim.qcore import (DimensionMismatchError, HADAMARD, ID2,
                          InvalidInputError, SX, SY, SZ,
                          QuantumState, apply_to_subsystems, basis_state,
                          format_matrix, haar_random_unitary,
                          measure_postselect, parse_matrix,
                          phase_aligned_distance, statevector, tensor)


def bell_state():
    st = tensor(basis_state((2,), (0,)), basis_state((2,), (0,)))
    st = apply_to_subsystems(st, HADAMARD, [0])
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    return apply_to_subsystems(st, cnot, [0, 1])


class TestKron:
    def test_pauli_products(self):
        assert np.allclose(SX @ SY, 1j * SZ)
        assert np.allclose(SY @ SZ, 1j * SX)
        assert np.allclose(SZ @ SX, 1j * SY)
        assert np.allclose(SX @ SY, -(SY @ SX))


class TestApplyToSubsystems:
    def test_x_on_qubit1_big_endian(self):
        st = basis_state((2, 2), (0, 0))
        out = apply_to_subsystems(st, SX, [1])
        assert np.allclose(out.data, basis_state((2, 2), (0, 1)).data)

    def test_bell_preparation(self):
        want = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(bell_state().data, want)

    def test_unitary_roundtrip(self):
        rng = np.random.default_rng(1)
        u = haar_random_unitary(4, rng)
        st = statevector(np.array([0.5, 0.5, 0.5, 0.5]), dims=(2, 2))
        back = apply_to_subsystems(apply_to_subsystems(st, u, [0, 1]),
                                   u.conj().T, [0, 1])
        assert np.abs(back.data - st.data).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        st = statevector(random_statevector(8, rng), dims=(2, 2, 2))
        u = haar_random_unitary(4, rng)
        out = apply_to_subsystems(st, u, [0, 2])
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_duplicate_target_rejected(self):
        st = basis_state((2, 2), (0, 0))
        with pytest.raises((InvalidInputError, DimensionMismatchError)):
            apply_to_subsystems(st, np.eye(4), [0, 0])


def dense_embed(op, dims, targets):
    """Reference: full-register matrix acting as ``op`` on ``targets``."""
    dims, targets = tuple(dims), tuple(targets)
    rest = [i for i in range(len(dims)) if i not in targets]
    full = np.kron(op, np.eye(int(np.prod([dims[r] for r in rest], dtype=int))))
    perm = list(targets) + rest
    tdims = [dims[p] for p in perm]
    full = full.reshape(tdims + tdims)
    inv = np.argsort(perm)
    full = full.transpose(list(inv) + [len(perm) + i for i in inv])
    total = int(np.prod(dims))
    return full.reshape(total, total)


class TestApplyMatchesDenseEmbed:
    CASES = [((2, 3, 2), [1]), ((2, 3, 2), [2, 0]), ((2, 3, 2), [0, 2]),
             ((2, 3, 2), [2, 1, 0]), ((3, 2, 2, 2), [3, 1]), ((4,), [0]),
             ((2, 3), [1, 0])]

    @pytest.mark.parametrize("dims, targets", CASES)
    def test_statevector(self, dims, targets):
        rng = np.random.default_rng(sum(dims) + len(targets))
        total = int(np.prod(dims))
        st = statevector(rng.normal(size=total) + 1j * rng.normal(size=total),
                         dims=dims)
        dt = int(np.prod([dims[t] for t in targets]))
        op = rng.normal(size=(dt, dt)) + 1j * rng.normal(size=(dt, dt))
        out = apply_to_subsystems(st, op, targets)
        assert out.dims == st.dims
        want = dense_embed(op, dims, targets) @ st.data
        assert np.abs(out.data - want).max() < 1e-12

    def test_wrong_operator_shape_rejected(self):
        st = basis_state((2, 3), (0, 0))
        with pytest.raises(DimensionMismatchError):
            apply_to_subsystems(st, np.eye(2), [1])

    def test_out_of_range_target_rejected(self):
        st = basis_state((2, 3), (0, 0))
        with pytest.raises(DimensionMismatchError):
            apply_to_subsystems(st, np.eye(2), [2])

    def test_duplicate_target_is_invalid_input(self):
        st = basis_state((2, 2), (0, 0))
        with pytest.raises(InvalidInputError):
            apply_to_subsystems(st, np.eye(4), [1, 1])


class TestMeasurePostselect:
    def test_plus_state(self):
        st = statevector(np.array([1, 1]) / math.sqrt(2))
        out = measure_postselect(st, [0], (0,))
        assert abs(out.probability - 0.5) < 1e-12

    def test_orthogonal_outcome(self):
        out = measure_postselect(basis_state((2,), (0,)), [0], (1,))
        assert out.probability == 0.0
        assert out.empty

    def test_probability_is_preprojection_norm(self):
        rng = np.random.default_rng(3)
        st = statevector(random_statevector(4, rng), dims=(2, 2))
        total = sum(measure_postselect(st, [0], (x,)).probability
                    for x in range(2))
        assert abs(total - 1.0) < 1e-12

    def test_invalid_label(self):
        with pytest.raises(InvalidInputError):
            measure_postselect(basis_state((2,), (0,)), [0], (2,))


class TestHaarRandomUnitary:
    def test_scalar(self):
        u = haar_random_unitary(1, np.random.default_rng(5))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitary(self):
        for seed in (0, 1, 2):
            u = haar_random_unitary(4, np.random.default_rng(seed))
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_deterministic_and_seed_sensitive(self):
        a = haar_random_unitary(4, np.random.default_rng(7))
        b = haar_random_unitary(4, np.random.default_rng(7))
        c = haar_random_unitary(4, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert np.linalg.norm(a - c) > 1e-6

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidInputError):
            haar_random_unitary(0, np.random.default_rng(0))


class TestPhaseAlignedDistance:
    def test_pure_phase(self):
        u = haar_random_unitary(4, np.random.default_rng(9))
        assert phase_aligned_distance(u, np.exp(1j * math.pi / 3) * u) < 1e-12

    def test_identity_vs_x(self):
        # fine phase scan oracle gives min distance 2
        grid = np.linspace(0, 2 * math.pi, 20001)
        oracle = min(np.linalg.norm(ID2 - np.exp(1j * p) * SX) for p in grid)
        assert phase_aligned_distance(ID2, SX) == pytest.approx(oracle, abs=1e-6)
        assert phase_aligned_distance(ID2, SX) == pytest.approx(2.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        a = haar_random_unitary(2, rng)
        b = haar_random_unitary(2, rng)
        assert phase_aligned_distance(a, b) == pytest.approx(
            phase_aligned_distance(b, a))


class TestStateValidation:
    def test_dims_must_match(self):
        with pytest.raises((InvalidInputError, DimensionMismatchError)):
            statevector(np.ones(3), dims=(2, 2))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            statevector(np.array([np.nan, 0.0]))

    def test_negative_dims_rejected(self):
        # prod(-2, -1) = 2 would otherwise match the data's length
        with pytest.raises(DimensionMismatchError):
            QuantumState((-2, -1), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            QuantumState((2, -1, 0), np.zeros(0))

    def test_zero_length_state_allowed(self):
        st = statevector([])
        assert (st.dims, st.total_dim, st.data.shape) == ((0,), 0, (0,))


class TestFileFormat:
    def test_matrix_roundtrip(self):
        u = haar_random_unitary(4, np.random.default_rng(13))
        assert np.abs(parse_matrix(format_matrix(u)) - u).max() < 1e-12

    def test_malformed_rejected(self):
        with pytest.raises((InvalidInputError, ValueError)):
            parse_matrix("1+2j nope\n")
