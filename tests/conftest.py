import math

import numpy as np

from lccsim.lcc import LinearCombinationSpec
from lccsim.qcore import ID2, SZ, InvalidInputError, haar_random_unitary, is_unitary


def random_unitary_combination_spec(n: int, d: int,
                                    rng: np.random.Generator
                                    ) -> LinearCombinationSpec:
    """Random n-term spec whose terms are unitary AND whose combination is
    unitary, so the circuit's 1/n success probability holds exactly.

    Built as a product of k = log2(n) unitary factors, each of the form
    V (cos(t) I + i sin(t) H) W with H Hermitian unitary; expanding the
    product yields 2^k unitary terms with normalized coefficients.
    """
    k = n.bit_length() - 1
    factors = []
    for _ in range(k):
        v = haar_random_unitary(d, rng)
        w = haar_random_unitary(d, rng)
        q = haar_random_unitary(d, rng)
        signs = np.where(rng.random(d) < 0.5, 1.0, -1.0)
        signs[0] = 1.0
        signs[-1] = -1.0  # keep H generic (never proportional to I)
        h = (q * signs) @ q.conj().T
        theta = rng.uniform(0.15, math.pi / 2 - 0.15)
        factors.append((v, w, h, theta))
    coeffs = []
    gates = []
    for j in range(n):
        c = complex(1.0)
        g = np.eye(d, dtype=complex)
        for i in range(k):
            v, w, h, theta = factors[i]
            bit = (j >> (k - 1 - i)) & 1
            mid = h if bit else np.eye(d)
            c *= (1j * math.sin(theta)) if bit else math.cos(theta)
            g = g @ (v @ mid @ w)
        coeffs.append(c)
        gates.append(g)
    return LinearCombinationSpec(tuple(coeffs), tuple(gates))


def random_statevector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def cu_linear_spec(u: np.ndarray) -> LinearCombinationSpec:
    """Two-term spec implementing controlled-U on (qubit (x) target).

    CU = (I+Z)/2 (x) I + (I-Z)/2 (x) U; each operator term is rescaled by
    sqrt(2) and paired with coefficient 1/sqrt(2) so the coefficient
    normalization holds.  The terms are not unitary (projector-valued).
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, atol=1e-10):
        raise InvalidInputError("controlled-U decomposition requires unitary U")
    p0 = (ID2 + SZ) / math.sqrt(2)
    p1 = (ID2 - SZ) / math.sqrt(2)
    v0 = np.kron(p0, np.eye(u.shape[0], dtype=complex))
    v1 = np.kron(p1, u)
    inv_sqrt2 = 1.0 / math.sqrt(2)
    return LinearCombinationSpec(np.array([inv_sqrt2, inv_sqrt2]), (v0, v1))
