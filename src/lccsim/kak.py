"""Linear decomposition of two-qubit unitaries.

A two-qubit unitary factors as (U1 x V1) UD (U2 x V2) with the nonlocal
core UD = exp(-i(k1 XX + k2 YY + k3 ZZ)).  In the magic basis the local
factors become real orthogonal matrices L, R and the core a diagonal D,
so U' = L D R^T; R diagonalizes the symmetric unitary M = U'^T U' =
R D^2 R^T (Kraus and Cirac, PRA 63, 062309, 2001).  Expanding UD over
{II, XX, YY, ZZ} yields the four-term linear combination driven by the
lcc module.

No Weyl-chamber canonicalization is applied: the k-vector is whatever
the eigendecomposition produces, and only exact recombination is
promised.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .lcc import LinearCombinationSpec
from .qcore import SX, SY, SZ, InvalidInputError, is_unitary

# Fixed magic-basis matrix: maps the Bell-like basis so that SU(2)xSU(2)
# conjugates into SO(4).
MAGIC = np.array([[1, 0, 0, 1j],
                  [0, 1j, 1, 0],
                  [0, 1j, -1, 0],
                  [1, 0, 0, -1j]], dtype=complex) / math.sqrt(2)
MAGIC_DAG = MAGIC.conj().T

_XX = np.kron(SX, SX)
_YY = np.kron(SY, SY)
_ZZ = np.kron(SZ, SZ)
# Diagonal sign patterns of XX, YY, ZZ in the magic basis (all three are
# diagonal there); rows of the 4x4 solve below.
_DIAG_SIGNS = np.column_stack([
    np.ones(4),
    np.real(np.diag(MAGIC_DAG @ _XX @ MAGIC)),
    np.real(np.diag(MAGIC_DAG @ _YY @ MAGIC)),
    np.real(np.diag(MAGIC_DAG @ _ZZ @ MAGIC)),
])
# (cos t, sin t) for seven evenly spread directions t in [0, pi), tried in
# order by simultaneous_svd; at most six of them can fail on one input.
# The half-step offset keeps t = 0 out: it merges every conjugate pair
# e^(+-i p) of M's spectrum, as CNOT's (-i, -i, i, i) has.
_EIGH_DIRECTIONS = tuple((math.cos(t), math.sin(t))
                         for t in (math.pi * (j + 0.5) / 7 for j in range(7)))


class DecompositionError(RuntimeError):
    """A factorization did not diagonalize or did not recombine to its input."""


@dataclass(frozen=True, eq=False)
class KakDecomposition:
    """(U1 x V1) UD (U2 x V2) record with the UD expansion coefficients."""

    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray
    k_vector: tuple[float, float, float]
    alphas: np.ndarray
    global_phase: float = 0.0

    def nonlocal_core(self) -> np.ndarray:
        """exp(-i(k1 XX + k2 YY + k3 ZZ)), exponentiated in the magic basis.

        XX, YY and ZZ are MAGIC diag(signs) MAGIC^dagger, so the core is
        diagonal there.  This is independent of ``alphas_from_k``, which
        the expansion is checked against.
        """
        phases = np.exp(-1j * (_DIAG_SIGNS[:, 1:] @ np.asarray(self.k_vector)))
        return (MAGIC * phases) @ MAGIC_DAG

    def core_combination(self) -> np.ndarray:
        a = self.alphas
        return (a[0] * np.eye(4) + a[1] * _XX + a[2] * _YY + a[3] * _ZZ)

    def reconstruct(self) -> np.ndarray:
        left = np.kron(self.u1, self.v1)
        right = np.kron(self.u2, self.v2)
        return cmath.exp(1j * self.global_phase) * (
            left @ self.core_combination() @ right)


@dataclass(frozen=True, eq=False)
class MagicBasisWork:
    """Real orthogonal L, R and the diagonals L^T A R, L^T B R."""

    left: np.ndarray
    right: np.ndarray
    d_real: np.ndarray
    d_imag: np.ndarray


def simultaneous_svd(u_real: np.ndarray, u_imag: np.ndarray) -> MagicBasisWork:
    """Orthogonal L, R with L^T A R and L^T B R diagonal, for A + iB unitary.

    Preconditions (consequences of unitarity) are asserted: A B^T must be
    symmetric and A^T A + B^T B = I.  M = U^T U is then symmetric and
    unitary, so Re M and Im M commute and share a real orthonormal
    eigenbasis R, found by one ``eigh`` of cos(t) Re M + sin(t) Im M; L is
    U R (R^T M R)^(-1/2).  A direction t merges two distinct eigenvalues
    e^(i p), e^(i q) of M exactly when p + q = 2t (mod 2 pi), and M's six
    eigenvalue pairs can spoil at most six directions, so one of the seven
    in ``_EIGH_DIRECTIONS`` always separates them.  Failure is reported,
    never silent.
    """
    a = np.real(np.asarray(u_real, dtype=float))
    b = np.real(np.asarray(u_imag, dtype=float))
    if a.shape != (4, 4) or b.shape != (4, 4):
        raise InvalidInputError("expected real 4x4 matrices")
    if not np.allclose(a @ b.T, (a @ b.T).T, atol=1e-9):
        raise InvalidInputError("A B^T is not symmetric: input not a unitary image")
    if not np.allclose(a.T @ a + b.T @ b, np.eye(4), atol=1e-9):
        raise InvalidInputError("A^T A + B^T B != I: input not a unitary image")
    u = a + 1j * b
    m = u.T @ u
    for c, s in _EIGH_DIRECTIONS:
        _, right = np.linalg.eigh(c * m.real + s * m.imag)
        d2 = right.T @ m @ right
        if np.abs(d2 - np.diag(np.diag(d2))).max() <= 1e-12:
            break
    left = ((u @ right) / np.sqrt(np.diag(d2))).real
    dr = left.T @ a @ right
    di = left.T @ b @ right
    residual = max(np.abs(dr - np.diag(np.diag(dr))).max(),
                   np.abs(di - np.diag(np.diag(di))).max())
    if residual > 1e-8:
        raise DecompositionError(
            f"simultaneous diagonalization residual {residual:.3e}")

    # canonicalize: det L = det R = +1 via paired column flips; if the
    # parity disagrees, one single-sided flip negates a diagonal entry
    # (preferring the smallest D_R entry so D_R stays nonnegative where
    # the parity permits)
    if np.linalg.det(left) < 0:
        left[:, 3] *= -1.0
        right[:, 3] *= -1.0
    if np.linalg.det(right) < 0:
        j = int(np.argmin(np.abs(np.diag(left.T @ a @ right))))
        right[:, j] *= -1.0
    dr = left.T @ a @ right
    di = left.T @ b @ right
    return MagicBasisWork(left, right, np.diag(np.diag(dr)),
                          np.diag(np.diag(di)))


def _factor_tensor_product(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a 4x4 unitary known to be u (x) v into unitary 2x2 factors."""
    r = p.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    uu, ss, vvh = np.linalg.svd(r)
    if ss[1] > 1e-6:
        raise DecompositionError("local factor is not a tensor product")
    u = uu[:, 0].reshape(2, 2)
    v = (ss[0] * vvh[0, :]).reshape(2, 2)
    # rank-1 factorization fixes u v only up to a scalar; rescale each to
    # unitary while keeping the product fixed
    scale = math.sqrt(2.0) / np.linalg.norm(u)
    u = u * scale
    v = v / scale
    return u, v


def kak_decompose(u: np.ndarray) -> KakDecomposition:
    """Cartan factorization of a 4x4 unitary with the four-term expansion."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not is_unitary(u, atol=1e-9):
        raise InvalidInputError("kak_decompose requires a 4x4 unitary")
    det = np.linalg.det(u)
    phase = cmath.exp(1j * cmath.phase(det) / 4.0)
    us = u / phase

    up = MAGIC_DAG @ us @ MAGIC
    work = simultaneous_svd(np.real(up), np.imag(up))
    d = np.diag(work.d_real) + 1j * np.diag(work.d_imag)

    # diagonal phases are -(k0 + k . signs); solve the exact 4x4 system
    theta = np.angle(d)
    k0, k1, k2, k3 = np.linalg.solve(_DIAG_SIGNS, -theta)

    left_pair = MAGIC @ work.left @ MAGIC_DAG
    right_pair = MAGIC @ work.right.T @ MAGIC_DAG
    u1, v1 = _factor_tensor_product(left_pair)
    u2, v2 = _factor_tensor_product(right_pair)

    alphas = alphas_from_k((k1, k2, k3))
    global_phase = cmath.phase(phase) - k0
    dec = KakDecomposition(u1, v1, u2, v2, (float(k1), float(k2), float(k3)),
                           alphas, float(global_phase))
    if qcore.phase_aligned_distance(dec.reconstruct(), u) > qcore.ATOL_ROUNDTRIP:
        raise DecompositionError("two-qubit decomposition failed to close")
    return dec


def alphas_from_k(k_vector) -> np.ndarray:
    """Expansion of exp(-i(k1 XX + k2 YY + k3 ZZ)) over {II, XX, YY, ZZ}."""
    c1, c2, c3 = (math.cos(k) for k in k_vector)
    s1, s2, s3 = (math.sin(k) for k in k_vector)
    return np.array([
        c1 * c2 * c3 - 1j * s1 * s2 * s3,
        c1 * s2 * s3 - 1j * s1 * c2 * c3,
        s1 * c2 * s3 - 1j * c1 * s2 * c3,
        s1 * s2 * c3 - 1j * c1 * c2 * s3,
    ])


def alphas_from_core(core: np.ndarray) -> np.ndarray:
    """Trace projection of a two-qubit core onto {II, XX, YY, ZZ}."""
    ops = (np.eye(4, dtype=complex), _XX, _YY, _ZZ)
    return np.array([np.trace(op @ core) / 4.0 for op in ops])


def lcu_spec_from_kak(dec: KakDecomposition) -> LinearCombinationSpec:
    """Four-term spec with gates (U1 s_i U2) x (V1 s_i V2), coefficients alpha_i.

    The spec's combination equals the decomposed unitary up to the
    recorded global phase.
    """
    phase = cmath.exp(1j * dec.global_phase)
    gates = tuple(
        np.kron(dec.u1 @ s @ dec.u2, dec.v1 @ s @ dec.v2) * phase
        for s in qcore.PAULIS)
    return LinearCombinationSpec(dec.alphas, gates)
