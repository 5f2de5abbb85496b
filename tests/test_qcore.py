import math

import numpy as np
import pytest

from conftest import random_statevector
from lccsim.qcore import (DimensionMismatchError, HADAMARD, ID2,
                          InvalidInputError, SX, SY, SZ,
                          QuantumState, allclose_atol, apply_to_subsystems,
                          basis_state, format_matrix, haar_random_unitary,
                          is_unitary,
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

    # a branch probability of 1e400 (or nan, for 1e200 (1 + i)) would
    # leave a zero remainder
    @pytest.mark.parametrize("amplitudes", [
        [1e200, 1e200], [1e200 + 1e200j, 0.0]])
    def test_overflowing_probability_is_invalid_input(self, amplitudes):
        with pytest.raises(InvalidInputError, match="overflows"):
            measure_postselect(statevector(amplitudes), [0], (0,))


class TestTensor:
    def test_no_states_is_invalid_input(self):
        with pytest.raises(InvalidInputError):
            tensor()


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


class TestIsUnitary:
    def test_honours_its_atol(self):
        # U^dagger U is 2e-6 from I on the diagonal
        defect = np.diag([1 + 1e-6, 1, 1, 1])
        assert not is_unitary(defect, atol=1e-9)
        assert is_unitary(defect, atol=1e-5)


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

    def test_huge_finite_amplitudes_accepted(self):
        # the squared norm overflows; every amplitude is still finite
        amplitudes = [1e200, -1e200j, 1e200 + 1e200j, 0.0]
        assert np.array_equal(statevector(amplitudes).data, amplitudes)

    @pytest.mark.parametrize("scale", [0.5, 1e200])
    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, complex(0.0, math.nan),
        complex(0.0, math.inf), complex(0.0, -math.inf)])
    def test_any_non_finite_part_rejected(self, bad, index, scale):
        data = np.full(4, scale, dtype=complex)
        data[index] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            QuantumState((4,), data)

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


# every library precondition of qcore: (call, exception, message fragment)
PRECONDITIONS = {
    "matrix-ndim": (lambda: phase_aligned_distance(np.ones(3), np.ones(3)),
                    InvalidInputError, "expected a matrix, got ndim=1"),
    "matrix-non-finite": (
        lambda: phase_aligned_distance([[math.nan]], [[1.0]]),
        InvalidInputError, "non-finite entries"),
    "basis-label-count": (lambda: basis_state((2, 2), (0,)),
                          DimensionMismatchError, "one label per subsystem"),
    "basis-label-range": (lambda: basis_state((2,), (2,)),
                          InvalidInputError, "label 2 invalid for dimension 2"),
    "postselect-label-count": (
        lambda: measure_postselect(bell_state(), [0, 1], (0,)),
        InvalidInputError, "one outcome label per target"),
    "distance-shapes": (
        lambda: phase_aligned_distance(np.eye(2), np.eye(3)),
        DimensionMismatchError, "shapes differ"),
    "parse-no-rows": (lambda: parse_matrix("# comment only\n\n"),
                      InvalidInputError, "no matrix rows"),
    "parse-ragged": (lambda: parse_matrix("1 0\n0\n"),
                     InvalidInputError, "ragged matrix rows"),
    # a fractional dimension or index is refused, never truncated
    "state-fractional-dims": (lambda: QuantumState((2.5,), [1, 0]),
                              InvalidInputError,
                              r"dims must be integers, got \(2.5,\)"),
    "basis-fractional-dims": (lambda: basis_state((2.9,), (1.7,)),
                              InvalidInputError,
                              "dimension must be an integer, got 2.9"),
    "basis-fractional-label": (lambda: basis_state((2,), (1.7,)),
                               InvalidInputError,
                               "label must be an integer, got 1.7"),
    "postselect-fractional-target": (
        lambda: measure_postselect(basis_state((2, 2), (0, 1)), [0.9], [0.2]),
        InvalidInputError, "target must be an integer, got 0.9"),
    "postselect-fractional-outcome": (
        lambda: measure_postselect(basis_state((2, 2), (0, 1)), [0], [0.2]),
        InvalidInputError, "outcome label must be an integer, got 0.2"),
    # measure_postselect keeps apply_to_subsystems's target rule
    "postselect-target-range": (
        lambda: measure_postselect(basis_state((2, 2), (0, 1)), [2], [0]),
        DimensionMismatchError, "target 2 out of range for 2 subsystems"),
    "postselect-negative-target": (
        lambda: measure_postselect(basis_state((2, 2), (0, 1)), [-1], [0]),
        DimensionMismatchError, "target -1 out of range for 2 subsystems"),
    "postselect-duplicate-target": (
        lambda: measure_postselect(basis_state((2, 2), (0, 1)), [0, 0],
                                   (0, 1)),
        InvalidInputError, r"duplicate target index in \(0, 0\)"),
    "apply-fractional-target": (
        lambda: apply_to_subsystems(bell_state(), SX, [0.5]),
        InvalidInputError, "target must be an integer, got 0.5"),
    "haar-fractional-dim": (
        lambda: haar_random_unitary(2.5, np.random.default_rng(0)),
        InvalidInputError, "dim must be an integer, got 2.5"),
}


@pytest.mark.parametrize("name", sorted(PRECONDITIONS))
def test_precondition_raises(name):
    call, error, fragment = PRECONDITIONS[name]
    with pytest.raises(error, match=fragment):
        call()


def test_non_square_matrix_is_not_unitary():
    assert is_unitary(np.eye(2, 3)) is False


@pytest.mark.parametrize("m", [1.0, np.ones(1), np.ones(4)])
def test_non_matrix_is_not_unitary(m):
    assert is_unitary(m) is False


def _reference_is_unitary(m, atol):
    """The unitarity rule as np.allclose(rtol=0) decides it."""
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        return np.allclose(m.conj().T @ m, np.eye(m.shape[0]), rtol=0.0,
                           atol=atol)


# (matrix, verdict at ATOL_STRUCT)
UNITARY_VERDICTS = {
    "identity-3": (np.eye(3), True),
    "haar-4": (haar_random_unitary(4, np.random.default_rng(11)), True),
    "hadamard": (HADAMARD, True),
    # m^+ m = diag((1 + e)^2, 1), off by 2e from I
    "inside-threshold": (np.diag([1 + 0.4e-12, 1.0]), True),
    "outside-threshold": (np.diag([1 + 0.6e-12, 1.0]), False),
    "scaled": (2.0 * np.eye(2), False),
    "nan": (np.full((2, 2), np.nan), False),
    "nan-entry": (np.array([[1.0, np.nan], [0.0, 1.0]]), False),
    "inf": (np.diag([np.inf, 1.0]), False),
    "minus-inf": (np.array([[-np.inf, 0.0], [0.0, 1.0]]), False),
    "overflowing": (1e200 * np.eye(2), False),
    "empty": (np.zeros((0, 0)), True),
    "non-square": (np.eye(2, 3), False),
    "wide-empty": (np.zeros((0, 2)), False),
}


@pytest.mark.parametrize("name", sorted(UNITARY_VERDICTS))
@pytest.mark.parametrize("atol", [1e-12, 1e-10, 1e-5])
def test_unitary_verdict_matches_allclose(name, atol):
    m, verdict = UNITARY_VERDICTS[name]
    got = is_unitary(m, atol=atol)
    assert type(got) is bool
    assert got == _reference_is_unitary(m, atol)
    if atol == 1e-12:
        assert got is verdict


@pytest.mark.parametrize("x, y", [
    (np.array([np.inf, 1.0]), np.array([np.inf, 1.0])),
    (np.array([np.inf, 1.0]), np.array([-np.inf, 1.0])),
    (np.array([np.inf]), np.array([1e308])),
    (np.array([np.nan]), np.array([np.nan])),
    (np.array([0.0, 1.0]), np.array([1e-9, 1.0])),
    (np.array([0.0, 1.0]), np.array([1.1e-9, 1.0])),
    (np.array([complex(0.0, np.inf)]), np.array([complex(0.0, np.inf)])),
    (np.zeros(0), np.zeros(0)),
])
def test_allclose_atol_matches_allclose(x, y):
    assert allclose_atol(x, y, 1e-9) == np.allclose(x, y, rtol=0.0, atol=1e-9)
