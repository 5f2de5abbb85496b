"""Named single-qubit operations and their two-term linear combinations.

The registry covers the standard Paulis plus the demonstration set
U1..U12 built from the pair

    A = diag((1 - i), (-1 - i)) / sqrt(2)
    B = antidiag((1 + i), (1 - i)) / sqrt(2)

with combination coefficients (cos(2t), sin(2t)) swept over multiples of
pi/8, along with four extra operations combining Paulis.  U12 is the
deliberately non-unitary member, (X + iZ)/sqrt(2).  Coefficients are
stored in closed form so normalization holds to machine precision.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lcc import LinearCombinationSpec
from .qcore import HADAMARD, ID2, SX, SY, SZ, InvalidInputError

A_GATE = np.array([[1 - 1j, 0], [0, -1 - 1j]], dtype=complex) / math.sqrt(2)
B_GATE = np.array([[0, 1 + 1j], [1 - 1j, 0]], dtype=complex) / math.sqrt(2)

_C8, _S8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
_R2 = 1.0 / math.sqrt(2)

# name -> (coefficients, component gate names)
COMBINATIONS: dict[str, tuple[tuple[complex, ...], tuple[str, ...]]] = {
    "U1": ((_C8, _S8), ("A", "B")),
    "U2": ((_R2, _R2), ("A", "B")),
    "U3": ((-_S8, _C8), ("A", "B")),
    "U4": ((1.0,), ("A",)),
    "U5": ((_S8, _C8), ("A", "B")),
    "U6": ((1.0,), ("B",)),
    "U7": ((-_R2, _R2), ("A", "B")),
    "U8": ((-_C8, _S8), ("A", "B")),
    "U9": ((_R2, _R2 * 1j), ("I", "Z")),
    "U10": ((_R2, -_R2 * 1j), ("I", "Z")),
    "U11": ((_R2, _R2), ("X", "Z")),
    "U12": ((_R2, _R2 * 1j), ("X", "Z")),
}

_BASE: dict[str, np.ndarray] = {
    "I": ID2,
    "X": SX,
    "Y": SY,
    "Z": SZ,
    "H": HADAMARD,
    "A": A_GATE,
    "B": B_GATE,
}


def _combination_matrix(name: str) -> np.ndarray:
    coeffs, parts = COMBINATIONS[name]
    return sum(c * _BASE[p] for c, p in zip(coeffs, parts))


GATES: dict[str, np.ndarray] = dict(_BASE)
GATES.update({name: _combination_matrix(name) for name in COMBINATIONS})


def gate(name: str) -> np.ndarray:
    """Look up a named operation's matrix (a copy)."""
    try:
        return GATES[name].copy()
    except KeyError:
        raise InvalidInputError(f"unknown operation name {name!r}") from None


@functools.cache
def combination_spec(name: str) -> LinearCombinationSpec:
    """Two-term (or padded) linear-combination spec realizing a named
    operation on the extended circuit.

    Single-term entries (U4, U6) are padded with a zero-coefficient
    identity, so every named operation runs on the same circuit: one
    control qubit and two terms.  A spec is frozen and its arrays are
    read-only, so each name's spec is built once per process and shared.
    """
    if name not in COMBINATIONS:
        raise InvalidInputError(f"no combination registered for {name!r}")
    coeffs, parts = COMBINATIONS[name]
    gates = [gate(p) for p in parts]
    if len(coeffs) == 1:
        coeffs = (coeffs[0], 0.0)
        gates.append(ID2.copy())
    return LinearCombinationSpec(tuple(coeffs), tuple(gates))
