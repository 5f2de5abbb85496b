"""Exact complex linear algebra and quantum-state foundations.

Dense, small-register simulation: everything is a numpy complex array,
subsystem 0 is the leftmost (most significant) tensor factor, and all
basis labels are big-endian.  Structural checks use ATOL_STRUCT, round
trips ATOL_ROUNDTRIP; statistical assertions elsewhere use 3-sigma.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass, field

import numpy as np

# Centralized tolerances: structural identities, decomposition round trips.
ATOL_STRUCT = 1e-12
ATOL_ROUNDTRIP = 1e-9

# Pauli matrices and common single-qubit gates.
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULIS = (ID2, SX, SY, SZ)


class DimensionMismatchError(ValueError):
    """Operator/state/register dimensions are incompatible."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition."""


class UnknownNameError(InvalidInputError):
    """Input names an operation that no registry holds."""


def integer(value, name: str) -> int:
    """``value`` as an int by Python's own index rule (``operator.index``):
    ints, numpy integers and bools pass; a float, a string or None is
    refused in a message that leads with ``name``.  Ranges are the
    caller's."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(
            f"{name} must be an integer, got {reprlib.repr(value)}") from None


def real(value, name: str) -> float:
    """``value`` as a float when it is a ``numbers.Real`` (a bool or an
    int counts); a string, None or a complex is refused in a message
    that leads with ``name``.  nan passes: every range check that
    follows fails on it."""
    if not isinstance(value, numbers.Real):
        raise InvalidInputError(
            f"{name} must be a real number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer such as 10**400
        raise InvalidInputError(
            f"{name} must lie within float range, got {reprlib.repr(value)}"
        ) from None


def array(value, name: str) -> np.ndarray:
    """``value`` as a complex ndarray when numpy reads it as a regular
    array of numbers (dtype kind bool, integer, float or complex; a 0-d
    number counts); a string, None, an object or a ragged list is
    refused in a message that leads with ``name``.  A complex ndarray
    comes back as it is, uncopied.  Shapes and finiteness are the
    caller's."""
    try:
        out = np.asarray(value)
    except ValueError:  # ragged
        out = None
    if out is None or out.dtype.kind not in "biufc":
        raise InvalidInputError(f"{name} must be an array of numbers, "
                                f"got {reprlib.repr(value)}")
    return out.astype(complex, copy=False)


def _as_matrix(a, name: str) -> np.ndarray:
    m = array(a, name)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def allclose_atol(x: np.ndarray, y: np.ndarray, atol: float) -> bool:
    """``np.allclose(x, y, rtol=0.0, atol=atol)`` for equal shapes.

    Entries match when |x - y| <= atol or when they are equal, which
    covers equal infinities; nan matches nothing.  One max of the gaps
    decides every case where that max passes; the entrywise rule runs
    only when it does not, as for a nan gap from equal infinities.
    """
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
        return bool(gap.max(initial=0.0) <= atol
                    or ((gap <= atol) | (x == y)).all())


def is_unitary(m: np.ndarray, atol: float = ATOL_STRUCT) -> bool:
    atol = real(atol, "atol")
    m = array(m, "m")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    # entries too large to square overflow: not unitary, and no warning
    with np.errstate(over="ignore", invalid="ignore"):
        return allclose_atol(m.conj().T @ m, np.eye(m.shape[0]), atol)


def pauli_coefficients(op) -> np.ndarray:
    """Coefficients c with op = sum_m c_m PAULIS[m], for any finite 2x2
    operator."""
    op = array(op, "op")
    if op.shape != (2, 2):
        raise InvalidInputError("pauli expansion needs a 2x2 operator")
    if not np.isfinite(op).all():
        raise InvalidInputError("op has non-finite entries")
    return np.array([np.trace(p @ op) / 2.0 for p in PAULIS])


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A statevector over a tensor-product register.

    ``dims`` lists the subsystem dimensions left to right, none negative;
    ``data`` is a finite complex vector of length prod(dims).
    """

    # the only kind; kept because perfbench/tracing.py reads ``state.kind``
    kind = "statevector"
    dims: tuple[int, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the `integer` rule over every entry, in one pass with no Python
        # call per dimension (a run of `lcc.run_lcc` builds one state)
        try:
            dims = tuple(map(operator.index, self.dims))
        except TypeError:
            raise InvalidInputError(f"dims must be integers, got "
                                    f"{reprlib.repr(self.dims)}") from None
        if dims and min(dims) < 0:
            raise DimensionMismatchError(f"negative dimension in dims {dims}")
        total = math.prod(dims)
        data = self.data
        # no call for the complex ndarray that every run passes
        if not (type(data) is np.ndarray and data.dtype == complex):
            data = array(data, "data")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)
        # a finite squared norm bounds every amplitude; only a norm that is
        # not finite (huge finite amplitudes, or an inf or nan) needs the
        # elementwise check.  vdot raises no floating-point warning.
        if (not math.isfinite(np.vdot(data, data).real)
                and not np.isfinite(data).all()):
            raise InvalidInputError("state has non-finite amplitudes")
        if data.shape != (total,):
            raise DimensionMismatchError(
                f"statevector length {data.shape} != prod(dims)={total}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


def statevector(amplitudes, dims=None) -> QuantumState:
    amplitudes = array(amplitudes, "amplitudes")
    if dims is None:
        dims = amplitudes.shape[:1]
    return QuantumState(tuple(dims), amplitudes)


def basis_state(dims, labels) -> QuantumState:
    """Computational basis state |labels> over subsystems of sizes dims."""
    dims = tuple(integer(d, "dimension") for d in dims)
    labels = tuple(integer(x, "label") for x in labels)
    if len(labels) != len(dims):
        raise DimensionMismatchError("one label per subsystem required")
    idx = 0
    for d, x in zip(dims, labels):
        if not 0 <= x < d:
            raise InvalidInputError(f"label {x} invalid for dimension {d}")
        idx = idx * d + x
    v = np.zeros(math.prod(dims), dtype=complex)
    v[idx] = 1.0
    return QuantumState(dims, v)


def tensor(*states: QuantumState) -> QuantumState:
    """Tensor product of one or more states."""
    if not states:
        raise InvalidInputError("tensor product of no states")
    out = states[0].data
    for s in states[1:]:
        out = np.kron(out, s.data)
    return QuantumState(sum((s.dims for s in states), ()), out)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a postselected measurement on some subsystems.

    ``probability`` is the squared norm of the projected branch before
    renormalization.  ``remainder`` is the renormalized state on the
    unmeasured subsystems, or None when the branch has zero probability
    (``empty`` is then True).
    """

    probability: float
    remainder: QuantumState | None

    @property
    def empty(self) -> bool:
        return self.remainder is None


def _contract(op: np.ndarray, tens: np.ndarray, axes) -> np.ndarray:
    """Contract the input legs of the 2m-legged ``op`` into ``axes`` of ``tens``."""
    m = len(axes)
    out = np.tensordot(op, tens, axes=(list(range(m, 2 * m)), list(axes)))
    # tensordot puts the output legs first; move them back into place
    return np.moveaxis(out, list(range(m)), list(axes))


def _targets(targets, dims) -> tuple[int, ...]:
    """The one target rule: each target an integer (`integer`), none
    repeated, and each an index into ``dims`` (no negative wrap)."""
    targets = tuple(integer(t, "target") for t in targets)
    n = len(dims)
    if len(set(targets)) != len(targets):
        raise InvalidInputError(f"duplicate target index in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise DimensionMismatchError(f"target {t} out of range for {n} subsystems")
    return targets


def apply_to_subsystems(state: QuantumState, op, targets) -> QuantumState:
    """Apply ``op`` to the listed subsystems, identity on the rest.

    The operator is contracted into the reshaped state, so the cost and
    memory scale with the state, never with a full-register matrix.
    """
    op = _as_matrix(op, "op")
    dims = state.dims
    targets = _targets(targets, dims)
    tdims = [dims[t] for t in targets]
    dt = math.prod(tdims)
    if op.shape != (dt, dt):
        raise DimensionMismatchError(
            f"operator shape {op.shape} != target dimension {dt}")
    out = _contract(op.reshape(tdims + tdims), state.data.reshape(dims), targets)
    return QuantumState(dims, out.reshape(-1))


def measure_postselect(state: QuantumState, targets, outcome) -> MeasurementOutcome:
    """Project ``targets`` onto computational-basis ``outcome``.

    Returns the branch probability and the renormalized remainder on the
    unmeasured subsystems.  A zero-probability branch is reported with
    probability 0 and an empty remainder, not an error; a probability
    that overflows is invalid input.  Targets follow `apply_to_subsystems`'s
    rule: integers, none repeated, each in range.
    """
    dims = state.dims
    targets = _targets(targets, dims)
    outcome = tuple(integer(x, "outcome label") for x in outcome)
    if len(targets) != len(outcome):
        raise InvalidInputError("one outcome label per target required")
    for t, x in zip(targets, outcome):
        if not 0 <= x < dims[t]:
            raise InvalidInputError(f"label {x} invalid for subsystem {t} (dim {dims[t]})")
    rest = [i for i in range(len(dims)) if i not in targets]
    rest_dims = tuple(dims[r] for r in rest) or (1,)
    sel = [slice(None)] * len(dims)
    for t, x in zip(targets, outcome):
        sel[t] = x
    branch = state.data.reshape(dims)[tuple(sel)].reshape(-1)
    p = float(np.vdot(branch, branch).real)
    if not math.isfinite(p):
        raise InvalidInputError(
            "the branch probability overflows: the amplitudes are too large")
    if p <= 0.0:
        return MeasurementOutcome(0.0, None)
    rem = QuantumState(rest_dims, branch / math.sqrt(p))
    return MeasurementOutcome(p, rem)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    dim = integer(dim, "dim")
    if dim < 1:
        raise InvalidInputError("dimension must be >= 1")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def phase_aligned_distance(a, b) -> float:
    """min over phi of ||a - e^{i phi} b||_F; zero iff equal up to global phase."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    # the minimizing phase is -arg tr(a^+ b); evaluating the residual
    # elementwise (rather than via the norms) keeps full precision when
    # the matrices are nearly phase-equal
    overlap = np.vdot(a, b)
    phi = 0.0 if overlap == 0 else -cmath.phase(overlap)
    return float(np.linalg.norm(a - cmath.exp(1j * phi) * b))


def vector_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-aligned Euclidean distance between two vectors."""
    return phase_aligned_distance(array(a, "a").reshape(-1, 1),
                                  array(b, "b").reshape(-1, 1))


# -- matrix literal file format ---------------------------------------------
#
# UTF-8 text, one row per line, entries as python complex literals
# (``re+imj``) separated by whitespace; lines starting with ``#`` are
# comments.

def format_matrix(m: np.ndarray) -> str:
    m = np.atleast_2d(array(m, "m"))
    lines = []
    for row in m:
        lines.append(" ".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([complex(tok) for tok in line.split()])
    if not rows:
        raise InvalidInputError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidInputError("ragged matrix rows")
    return np.array(rows, dtype=complex)
