import math

import numpy as np
import pytest

from conftest import random_statevector
from lccsim.kak import (DecompositionError, KakDecomposition, MAGIC,
                        MAGIC_DAG, _EIGH_DIRECTIONS, alphas_from_core, alphas_from_k, kak_decompose,
                        lcu_spec_from_kak, simultaneous_svd)
from lccsim.lcc import run_lcc
from lccsim.qcore import (HADAMARD, ID2, InvalidInputError, PAULIS, SX, SY, SZ,
                          haar_random_unitary, pauli_coefficients,
                          phase_aligned_distance,
                          statevector, vector_phase_distance)

CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
NAMED_GATES = {
    "I": np.eye(4, dtype=complex),
    "CNOT": CNOT,
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "iSWAP": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0],
                       [0, 0, 0, 1]]),
}
EPSILONS = (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def _perturbed(u, eps, rng):
    """exp(i eps H) u with H a random Hermitian of unit spectral norm."""
    if eps == 0.0:
        return u
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, q = np.linalg.eigh((h + h.conj().T) / 2)
    w = w / np.abs(w).max()
    return (q * np.exp(1j * eps * w)) @ q.conj().T @ u


def _random_so4(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def _round_trip_residual(u):
    return phase_aligned_distance(kak_decompose(u).reconstruct(), u)


def su2_normalized(u):
    """u over the principal square root of its determinant, in SU(2)."""
    return u / np.sqrt(np.linalg.det(u))


class TestPauliDecompose:
    """Single-qubit gates expanded over {I, X, Y, Z} by ``pauli_coefficients``."""

    def test_identity(self):
        alphas = pauli_coefficients(ID2)
        assert np.abs(alphas - np.array([1, 0, 0, 0])).max() < 1e-12

    def test_su2_hadamard(self):
        alphas = pauli_coefficients(su2_normalized(1j * HADAMARD))
        want = np.array([0, 1j / math.sqrt(2), 0, 1j / math.sqrt(2)])
        assert np.abs(alphas - want).max() < 1e-10

    def test_structure_and_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = haar_random_unitary(2, rng)
            alphas = pauli_coefficients(su2_normalized(u))
            assert abs(np.abs(alphas ** 2).sum() - 1.0) < 1e-12
            # SU(2) part: alpha_0 real, others purely imaginary
            assert abs(alphas[0].imag) < 1e-9
            assert np.abs(alphas[1:].real).max() < 1e-9
            combination = np.einsum("m,mab->ab", alphas, np.array(PAULIS))
            assert phase_aligned_distance(combination, u) < 1e-10

    def test_relaxed_expansion_of_non_unitary(self):
        target = (SX + 1j * SZ) / math.sqrt(2)
        alphas = pauli_coefficients(target)
        want = np.array([0, 1 / math.sqrt(2), 0, 1j / math.sqrt(2)])
        assert np.abs(alphas - want).max() < 1e-12
        assert abs(np.sum(np.abs(alphas) ** 2) - 1.0) < 1e-12
        with pytest.raises(InvalidInputError):
            pauli_coefficients(np.eye(4))


class TestKakDecompose:
    def test_identity(self):
        dec = kak_decompose(np.eye(4, dtype=complex))
        assert np.abs(np.array(dec.k_vector)).max() < 1e-12
        assert np.abs(dec.alphas - np.array([1, 0, 0, 0])).max() < 1e-10
        for local in (dec.u1, dec.v1, dec.u2, dec.v2):
            assert phase_aligned_distance(local, ID2) < 1e-9

    def test_cnot_two_terms(self):
        dec = kak_decompose(CNOT)
        mags = np.sort(np.abs(dec.alphas))[::-1]
        assert np.abs(mags - np.array([1 / math.sqrt(2), 1 / math.sqrt(2),
                                       0, 0])).max() < 1e-10
        assert phase_aligned_distance(dec.reconstruct(), CNOT) < 1e-9

    def test_round_trip_haar(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = haar_random_unitary(4, rng)
            dec = kak_decompose(u)
            assert phase_aligned_distance(dec.reconstruct(), u) < 1e-9

    def test_near_degenerate(self):
        xx = np.kron(SX, SX)
        for eps in (1e-3, 1e-6):
            u = (math.cos(eps) * np.eye(4) + 1j * math.sin(eps) * xx)
            dec = kak_decompose(u)
            assert phase_aligned_distance(dec.reconstruct(), u) < 1e-9

    def test_alpha_formula_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = haar_random_unitary(4, rng)
            dec = kak_decompose(u)
            from_k = alphas_from_k(dec.k_vector)
            from_trace = alphas_from_core(dec.nonlocal_core())
            assert np.abs(from_k - from_trace).max() < 1e-10

    def test_nonlocal_core_matches_exponential(self):
        # reference: exp(-iH) from an eigendecomposition of the Hermitian
        # generator H = k1 XX + k2 YY + k3 ZZ
        xx, yy, zz = (np.kron(p, p) for p in (SX, SY, SZ))
        rng = np.random.default_rng(13)
        for k in rng.uniform(-2 * math.pi, 2 * math.pi, size=(200, 3)):
            w, v = np.linalg.eigh(k[0] * xx + k[1] * yy + k[2] * zz)
            want = (v * np.exp(-1j * w)) @ v.conj().T
            dec = KakDecomposition(ID2, ID2, ID2, ID2, tuple(k), alphas_from_k(k))
            assert np.abs(dec.nonlocal_core() - want).max() < 1e-12

    def test_locals_unitary(self):
        dec = kak_decompose(haar_random_unitary(4, np.random.default_rng(4)))
        for local in (dec.u1, dec.v1, dec.u2, dec.v2):
            assert np.abs(local.conj().T @ local - ID2).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises((InvalidInputError, DecompositionError)):
            kak_decompose(np.ones((4, 4), dtype=complex))


class TestKakRobustness:
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_perturbed_product_gates(self, eps):
        rng = np.random.default_rng(20)
        for _ in range(32):
            u = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            assert _round_trip_residual(_perturbed(u, eps, rng)) <= 1e-12

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("name", sorted(NAMED_GATES))
    def test_perturbed_named_gates(self, name, eps):
        rng = np.random.default_rng(21)
        for _ in range(4):
            u = _perturbed(NAMED_GATES[name], eps, rng)
            assert _round_trip_residual(u) <= 1e-12

    @staticmethod
    def _spoiled_directions(phases, rng):
        """Gate MAGIC O1 diag(e^(i phases/2)) O2 MAGIC^dagger, and how many
        eigh directions merge two distinct eigenvalues of its M = U'^T U'."""
        core = _random_so4(rng) * np.exp(0.5j * np.asarray(phases))
        o2 = _random_so4(rng)
        u = MAGIC @ core @ o2 @ MAGIC_DAG
        m = (core @ o2).T @ (core @ o2)
        spoiled = 0
        for c, s in _EIGH_DIRECTIONS:
            w = np.linalg.eigvalsh(c * m.real + s * m.imag)
            spoiled += bool(np.diff(w).min() < 1e-9)
        return u, spoiled

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_direction_coincidence(self, j):
        # one eigenphase pair sums to 2 t_j, the other to -2 t_j
        c, s = _EIGH_DIRECTIONS[j]
        t = math.atan2(s, c)
        rng = np.random.default_rng(22 + j)
        for _ in range(10):
            dp, dq = rng.uniform(0.2, 1.0, size=2)
            u, spoiled = self._spoiled_directions(
                [t + dp, t - dp, -t + dq, -t - dq], rng)
            assert spoiled >= 1
            assert _round_trip_residual(u) <= 1e-12

    def test_six_spoiled_directions(self):
        # pairs (0, k) sum to 2 t_0, 2 t_1, 2 t_2 and the phases sum to
        # zero; the other three pairs then spoil three more directions,
        # leaving exactly one that separates M's eigenvalues
        t = [math.atan2(s, c) for c, s in _EIGH_DIRECTIONS[:3]]
        p0 = sum(t)
        phases = [p0] + [2 * tk - p0 for tk in t]
        rng = np.random.default_rng(25)
        for _ in range(10):
            u, spoiled = self._spoiled_directions(phases, rng)
            assert spoiled == 6
            assert _round_trip_residual(u) <= 1e-12

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(26)
        inputs = [haar_random_unitary(4, rng), CNOT,
                  _perturbed(np.kron(haar_random_unitary(2, rng),
                                     haar_random_unitary(2, rng)), 1e-8, rng)]
        for u in inputs:
            first, second = kak_decompose(u), kak_decompose(u)
            for name in ("u1", "v1", "u2", "v2", "alphas"):
                assert (getattr(first, name).tobytes()
                        == getattr(second, name).tobytes())
            assert first.k_vector == second.k_vector
            assert first.global_phase == second.global_phase


class TestSimultaneousSvd:
    def test_pure_real_orthogonal(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w = simultaneous_svd(q, np.zeros((4, 4)))
        l, r, d_r, d_i = w.left, w.right, w.d_real, w.d_imag
        assert np.abs(l.T @ q @ r - d_r).max() < 1e-10
        assert np.abs(d_i).max() < 1e-10

    def test_magic_image_of_identity(self):
        u_prime = MAGIC.conj().T @ np.eye(4) @ MAGIC
        w = simultaneous_svd(u_prime.real, u_prime.imag)
        l, r, d_r, d_i = w.left, w.right, w.d_real, w.d_imag
        assert np.abs(np.abs(np.diag(d_r)) - 1.0).max() < 1e-10
        assert np.abs(d_i).max() < 1e-10

    def test_random_su4_relations(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = haar_random_unitary(4, rng)
            u = u / np.linalg.det(u) ** 0.25
            u_prime = MAGIC.conj().T @ u @ MAGIC
            w = simultaneous_svd(u_prime.real, u_prime.imag)
            l, r, d_r, d_i = w.left, w.right, w.d_real, w.d_imag
            for mat, diag in ((u_prime.real, d_r), (u_prime.imag, d_i)):
                res = l.T @ mat @ r - diag
                assert np.abs(res).max() < 1e-10
                assert np.abs(diag - np.diag(np.diag(diag))).max() == 0.0
            assert abs(np.linalg.det(l) - 1.0) < 1e-10
            assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_precondition_asserted(self):
        rng = np.random.default_rng(7)
        with pytest.raises((InvalidInputError, DecompositionError)):
            simultaneous_svd(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))


class TestLcuSpecFromKak:
    def test_identity(self):
        spec = lcu_spec_from_kak(kak_decompose(np.eye(4, dtype=complex)))
        assert np.abs(spec.combination() - np.eye(4)).max() < 1e-9

    def test_cnot_two_effective_terms(self):
        spec = lcu_spec_from_kak(kak_decompose(CNOT))
        assert np.sum(np.abs(spec.coefficients) > 1e-10) == 2
        assert phase_aligned_distance(spec.combination(), CNOT) < 1e-9

    def test_normalized(self):
        rng = np.random.default_rng(8)
        spec = lcu_spec_from_kak(kak_decompose(haar_random_unitary(4, rng)))
        total = sum(abs(c) ** 2 for c in spec.coefficients)
        assert abs(total - 1.0) < 1e-10

    def test_end_to_end_circuit(self):
        rng = np.random.default_rng(9)
        u = haar_random_unitary(4, rng)
        spec = lcu_spec_from_kak(kak_decompose(u))
        for _ in range(20):
            psi = random_statevector(4, rng)
            res = run_lcc(spec, statevector(psi))
            want = u @ psi
            assert vector_phase_distance(res.output_state.data,
                                         want / np.linalg.norm(want)) < 1e-9
            assert abs(res.success_probability - 0.25) < 1e-12
