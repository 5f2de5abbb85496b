import math

import numpy as np
import pytest

from lccsim import qcore
from lccsim.qcore import (DimensionMismatchError, HADAMARD, ID2,
                          InvalidInputError, PAULIS, SX, SY, SZ,
                          QuantumState, apply_to_subsystems, basis_state,
                          format_matrix, haar_random_unitary,
                          measure_postselect, parse_matrix,
                          partial_trace, phase_aligned_distance,
                          state_fidelity, statevector, tensor)


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
        st = statevector((rng.normal(size=8) + 1j * rng.normal(size=8)),
                         dims=(2, 2, 2)).normalized()
        u = haar_random_unitary(4, rng)
        out = apply_to_subsystems(st, u, [0, 2])
        assert abs(out.norm - 1.0) < 1e-12

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

    @pytest.mark.parametrize("dims, targets", CASES)
    def test_density(self, dims, targets):
        rng = np.random.default_rng(100 + sum(dims) + len(targets))
        total = int(np.prod(dims))
        a = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        rho = QuantumState("density", dims, a @ a.conj().T / np.trace(a @ a.conj().T))
        dt = int(np.prod([dims[t] for t in targets]))
        op = haar_random_unitary(dt, rng)
        out = apply_to_subsystems(rho, op, targets)
        full = dense_embed(op, dims, targets)
        want = full @ rho.data @ full.conj().T
        assert np.abs(out.data - want).max() < 1e-12

    def test_density_agrees_with_statevector(self):
        rng = np.random.default_rng(7)
        st = statevector(rng.normal(size=12) + 1j * rng.normal(size=12),
                         dims=(2, 3, 2)).normalized()
        op = haar_random_unitary(4, rng)
        via_rho = apply_to_subsystems(st.to_density(), op, [2, 0])
        via_psi = apply_to_subsystems(st, op, [2, 0]).to_density()
        assert np.abs(via_rho.data - via_psi.data).max() < 1e-12

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
            apply_to_subsystems(st.to_density(), np.eye(4), [1, 1])


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
        st = statevector(rng.normal(size=4) + 1j * rng.normal(size=4),
                         dims=(2, 2)).normalized()
        total = sum(measure_postselect(st, [0], (x,)).probability
                    for x in range(2))
        assert abs(total - 1.0) < 1e-12

    def test_invalid_label(self):
        with pytest.raises(InvalidInputError):
            measure_postselect(basis_state((2,), (0,)), [0], (2,))


class TestStateFidelity:
    def test_same(self):
        z = basis_state((2,), (0,))
        assert state_fidelity(z, z) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert state_fidelity(basis_state((2,), (0,)),
                              basis_state((2,), (1,))) == pytest.approx(0.0)

    def test_maximally_mixed(self):
        mixed = QuantumState("density", (2,), np.eye(2) / 2)
        assert state_fidelity(basis_state((2,), (0,)),
                              mixed) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = statevector(rng.normal(size=2) + 1j * rng.normal(size=2)).normalized()
        rho = QuantumState("density", (2,), np.array([[0.7, 0.1], [0.1, 0.3]],
                                                     dtype=complex))
        assert state_fidelity(a, rho) == pytest.approx(state_fidelity(rho, a))


def _random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _mixed_pairs():
    """(label, a, b, fidelity) with the fidelity of the float64 inputs
    computed at 60 significant digits (mpmath, eigendecompositions)."""
    rng = np.random.default_rng(2026)
    pairs = [(f"full-rank d={d}", _random_density(d, rng), _random_density(d, rng))
             for d in (2, 3, 4)]
    # exact zeros outside overlapping supports of rank 2 and rank 3
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = _random_density(2, rng)
    b = np.zeros((4, 4), dtype=complex)
    b[1:, 1:] = _random_density(3, rng)
    pairs.append(("rank-deficient", a, b))
    # every entry of |v><v| is exact, so the input has rank exactly one
    v = np.array([0.5, 0.5, 0.5j, 0.5])
    pairs.append(("pure", np.outer(v, v.conj()), _random_density(4, rng)))
    pairs.append(("maximally mixed", np.eye(4) / 4, np.eye(4) / 4))
    want = (0.7897689842908995, 0.5122089214041297, 0.7532150104250888,
            0.1209205182828867, 0.29844284751137873, 1.0)
    return [(*pair, f) for pair, f in zip(pairs, want)]


class TestMixedFidelity:
    @pytest.mark.parametrize("label, a, b, want", _mixed_pairs(),
                             ids=[p[0] for p in _mixed_pairs()])
    def test_pinned(self, label, a, b, want):
        d = a.shape[0]
        sa, sb = QuantumState("density", (d,), a), QuantumState("density", (d,), b)
        assert abs(state_fidelity(sa, sb) - want) < 1e-10
        assert abs(state_fidelity(sb, sa) - want) < 1e-10


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


class TestPartialTrace:
    def test_bell_reduced(self):
        rho = partial_trace(bell_state(), keep=[0])
        assert np.abs(rho.data - np.eye(2) / 2).max() < 1e-12

    def test_keep_everything(self):
        st = bell_state()
        rho = partial_trace(st, keep=[0, 1])
        assert np.abs(rho.data - st.to_density().data).max() < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(11)
        st = statevector(rng.normal(size=8) + 1j * rng.normal(size=8),
                         dims=(2, 2, 2)).normalized()
        one_shot = partial_trace(st, keep=[0])
        two_step = partial_trace(partial_trace(st, keep=[0, 1]), keep=[0])
        assert np.abs(one_shot.data - two_step.data).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(12)
        st = statevector(rng.normal(size=4) + 1j * rng.normal(size=4),
                         dims=(2, 2)).normalized()
        rho = partial_trace(st, keep=[1])
        assert abs(np.trace(rho.data).real - 1.0) < 1e-12


class TestStateValidation:
    def test_density_must_be_hermitian(self):
        with pytest.raises(InvalidInputError):
            QuantumState("density", (2,), np.array([[1, 1], [0, 0]],
                                                   dtype=complex))

    def test_dims_must_match(self):
        with pytest.raises((InvalidInputError, DimensionMismatchError)):
            statevector(np.ones(3), dims=(2, 2))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            statevector(np.array([np.nan, 0.0]))


class TestFileFormat:
    def test_matrix_roundtrip(self):
        u = haar_random_unitary(4, np.random.default_rng(13))
        assert np.abs(parse_matrix(format_matrix(u)) - u).max() < 1e-12

    def test_malformed_rejected(self):
        with pytest.raises((InvalidInputError, ValueError)):
            parse_matrix("1+2j nope\n")
