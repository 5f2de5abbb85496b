"""Named single-qubit operations and their two-term linear combinations.

The registry covers the standard Paulis plus the demonstration set
U1..U12 built from the pair

    A = diag((1 - i), (-1 - i)) / sqrt(2)
    B = antidiag((1 + i), (1 - i)) / sqrt(2)

with combination coefficients (cos(2t), sin(2t)) swept over multiples of
pi/8, along with four extra operations combining Paulis.  U12 is the
deliberately non-unitary member, (X + iZ)/sqrt(2).  Every registry row
has two terms: U4 = A and U6 = B carry a zero-coefficient identity as
their second term, so every named operation runs on the same circuit.
Coefficients are stored in closed form so normalization holds to
machine precision.

This module is the one judge of operation names: ``gate`` and
``combination_spec`` refuse a name they do not hold with
``UnknownNameError``, worded ``unknown operation 'NAME'`` with the name
shortened by ``reprlib.repr`` to about 30 characters.
"""

from __future__ import annotations

import functools
import math
import reprlib

import numpy as np

from .lcc import LinearCombinationSpec
from .qcore import HADAMARD, ID2, SX, SY, SZ, UnknownNameError

A_GATE = np.array([[1 - 1j, 0], [0, -1 - 1j]], dtype=complex) / math.sqrt(2)
B_GATE = np.array([[0, 1 + 1j], [1 - 1j, 0]], dtype=complex) / math.sqrt(2)

_C8, _S8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
_R2 = 1.0 / math.sqrt(2)

# name -> (two coefficients, two component gate names)
COMBINATIONS: dict[str, tuple[tuple[complex, complex], tuple[str, str]]] = {
    "U1": ((_C8, _S8), ("A", "B")),
    "U2": ((_R2, _R2), ("A", "B")),
    "U3": ((-_S8, _C8), ("A", "B")),
    "U4": ((1.0, 0.0), ("A", "I")),
    "U5": ((_S8, _C8), ("A", "B")),
    "U6": ((1.0, 0.0), ("B", "I")),
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


def _unknown(name) -> UnknownNameError:
    return UnknownNameError(f"unknown operation {reprlib.repr(name)}")


def gate(name: str) -> np.ndarray:
    """Look up a named operation's matrix (a copy)."""
    try:
        return GATES[name].copy()
    except KeyError:
        raise _unknown(name) from None


@functools.cache
def combination_spec(name: str) -> LinearCombinationSpec:
    """Two-term linear-combination spec realizing a named operation on
    the extended circuit: one control qubit and two terms, read from the
    registry row (U4 and U6 with their zero identity term).

    A spec is frozen and its arrays are read-only copies, so each name's
    spec is built once per process and shared.
    """
    try:
        coeffs, parts = COMBINATIONS[name]
    except KeyError:
        raise _unknown(name) from None
    return LinearCombinationSpec(coeffs, tuple(_BASE[p] for p in parts))
