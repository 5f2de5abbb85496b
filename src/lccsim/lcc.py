"""Linear-combination circuits: build, simulate, postselect.

Two equivalent realizations are provided: the controlled-gate circuit
(multiply-controlled V_j on a k-qubit control register) and the extended
circuit that replaces controlled gates with controlled subspace swaps on
an (n*d)-dimensional target.  Both postselect the all-zero control
outcome.  In the extended circuit the controlled swaps run a second time
after the block-diagonal sum, returning every branch to subspace 0
before the control register is Hadamarded.

Both forms are one run with one result.  The rows H^(x)k (alpha_c V_c
psi) are linear in psi, so each spec compiles, once, the read-only
(n*d, d) ``circuit_matrix`` whose row block r is sum_c H[r, c] alpha_c
V_c, with H the (n, n) Sylvester matrix, entries +-1/sqrt(n); ``run_lcc``
is then one (n*d, d) matvec.  The postselected all-zero branch is row 0.
The controlled form's joint state is these rows, and the extended
form's is them in subspace 0 with exact zeros elsewhere (see
``run_lcc``), so a run costs O(n d^2) work and holds only the O(n d)
rows; no joint register is built.  The O(n^2 d^2) compilation is paid
once per spec.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import (ATOL_STRUCT, InvalidInputError, QuantumState,
                    UnknownNameError, array, is_unitary, statevector)
# not called here; bound so that perfbench's tracer and the tests can
# patch them through this module
from .qcore import apply_to_subsystems, measure_postselect  # noqa: F401


@dataclass(frozen=True, eq=False)
class LinearCombinationSpec:
    """Coefficients alpha_j and gates V_j defining sum_j alpha_j V_j.

    The term count n must be a power of two (k = log2 n control qubits)
    and the coefficients must be normalized: sum |alpha_j|^2 = 1.
    Per-term unitarity is not required (black boxes allowed); the
    ``all_unitary`` property checks, on each read, whether every term is
    unitary.

    The coefficients are copied into a read-only (n,) array and the gates
    into one read-only (n, d, d) array ``gates``, whose items are the
    (d, d) terms.  Both circuit forms run the read-only (n*d, d)
    ``circuit_matrix``, built here: its row block r is sum_c H[r, c]
    alpha_c V_c, H the Sylvester matrix of H^(x)k.  A block whose entries
    overflow holds inf or nan; the run that meets it raises (see
    ``run_lcc``).  ``can_overflow`` records, once, whether a run on some
    unit input could overflow; it is False when no real or imaginary part
    of ``circuit_matrix`` exceeds ``_SAFE_ENTRY`` (and d is below
    ``_SAFE_DIM``).
    """

    coefficients: np.ndarray
    gates: np.ndarray = field(repr=False)
    circuit_matrix: np.ndarray = field(init=False, repr=False)
    can_overflow: bool = field(init=False, repr=False)

    def __post_init__(self):
        alpha = array(self.coefficients, "coefficients").copy()
        alpha.flags.writeable = False
        object.__setattr__(self, "coefficients", alpha)
        if alpha.ndim != 1:
            raise InvalidInputError(
                "coefficients must be a sequence of numbers")
        n = len(alpha)
        if n < 1 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"term count {n} is not a power of 2")
        if not hasattr(self.gates, "__len__") or len(self.gates) != n:
            raise InvalidInputError("one gate per coefficient required")
        # the rule reads each gate, so that gates of unequal shape are
        # told so rather than that they make no array
        gates = [array(g, "gates") for g in self.gates]
        d = len(gates[0]) if gates[0].ndim else 0
        if any(g.shape != (d, d) for g in gates):
            raise InvalidInputError("all gates must be square of equal size")
        stack = np.array(gates)
        if not (np.isfinite(alpha).all() and np.isfinite(stack).all()):
            raise InvalidInputError("coefficients and gates must be finite")
        stack.flags.writeable = False
        object.__setattr__(self, "gates", stack)
        # vdot raises no floating-point warning, so 1e200 coefficients are
        # rejected without an overflow warning first; on the real view it
        # sums re^2 + im^2, which reads inf, never nan, when it overflows
        parts = alpha.view(np.float64)
        norm = float(np.vdot(parts, parts))
        if abs(norm - 1.0) > 1e-9:
            raise InvalidInputError(
                f"coefficients not normalized: sum |alpha|^2 = {norm}")
        n, d = stack.shape[:2]
        # H^(x)k multiplies the float64 view of the (n, d^2) terms, which
        # applies it to their real and imaginary parts at once
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (alpha[:, None, None] * stack).reshape(n, d * d)
            matrix = (_hadamard_matrix(n) @ terms.view(np.float64)
                      ).view(complex).reshape(n * d, d)
        matrix.flags.writeable = False
        object.__setattr__(self, "circuit_matrix", matrix)
        # abs of the float64 view, not the complex modulus, which would
        # itself overflow near 1e308; an inf or nan fails the comparison
        peak = np.abs(matrix.view(np.float64)).max(initial=0.0)
        object.__setattr__(self, "can_overflow",
                           not (peak <= _SAFE_ENTRY and d < _SAFE_DIM))

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @property
    def k(self) -> int:
        return self.n.bit_length() - 1

    @property
    def d(self) -> int:
        return self.gates.shape[1]

    @property
    def all_unitary(self) -> bool:
        return all(is_unitary(g, atol=1e-10) for g in self.gates)

    def combination(self) -> np.ndarray:
        """The raw operator sum_j alpha_j V_j (not necessarily unitary)."""
        out = np.zeros((self.d, self.d), dtype=complex)
        for a, g in zip(self.coefficients, self.gates):
            out += a * g
        return out


@dataclass(frozen=True, eq=False)
class LccRunResult:
    """One run, postselected on the all-zero control.

    ``rows`` is the read-only (n, d) array H^(x)k (alpha_c V_c psi), whose
    row 0 is the postselected branch; ``output_state`` is that branch
    normalized, or None when the combination vanishes.
    """

    success_probability: float
    output_state: QuantumState | None
    rows: np.ndarray = field(repr=False)

    @property
    def success(self) -> bool:
        return self.output_state is not None


# A run's rows are circuit_matrix @ psi with |psi| = 1 (to 1e-9).  If no
# real or imaginary part of the matrix exceeds _SAFE_ENTRY, no partial sum
# of a row entry's parts exceeds sqrt(2 d) _SAFE_ENTRY (Cauchy-Schwarz),
# and |row 0|^2 is at most 4 d^2 _SAFE_ENTRY^2, finite for d < _SAFE_DIM.
_SAFE_ENTRY = 1e150
_SAFE_DIM = 4096

# A success probability below this is rounding noise: the combination
# vanishes.
_VANISHING = ATOL_STRUCT ** 2


@functools.cache
def _hadamard_matrix(n: int) -> np.ndarray:
    """(n, n) real Sylvester matrix H^(x)k, entries +-1/sqrt(n).

    Entry (r, c) is (-1)^popcount(r & c) / sqrt(n): the parity is the
    dot product of the bit vectors of r and c.  Cached per n, hence
    read-only.
    """
    bits = (np.arange(n)[:, None] >> np.arange(n.bit_length() - 1)) & 1
    matrix = (1 - 2 * ((bits @ bits.T) & 1)) / math.sqrt(n)
    matrix.flags.writeable = False
    return matrix


def _check_input(spec: LinearCombinationSpec, input_state: QuantumState):
    # len(data) is total_dim, by QuantumState's invariant
    if len(input_state.data) != spec.d:
        raise qcore.DimensionMismatchError(
            f"input must be a {spec.d}-dim statevector")
    psi = input_state.data
    # the squared norm of huge amplitudes may read nan, which fails this
    # comparison: a run's overflow bound (see _SAFE_ENTRY) needs |psi| = 1
    if not abs(math.sqrt(np.vdot(psi, psi).real) - 1.0) <= 1e-9:
        raise InvalidInputError("input state must be normalized")


def _finite_probability(p: float) -> float:
    if not math.isfinite(p):
        raise InvalidInputError(
            "the success probability overflows: the gates are too large")
    return p


def run_lcc(spec: LinearCombinationSpec, input_state: QuantumState) -> LccRunResult:
    """The linear-combination circuit, postselected on the all-zero control.

    On the all-zero control outcome the output is the normalized
    combination sum_j alpha_j V_j |psi>.  With a unitary combination the
    success probability is exactly 1/n.  A vanishing combination is
    reported as a degenerate never-succeeding postselection.

    One run serves both circuit forms.  The controlled form's state
    before the control measurement is the rows H^(x)k (alpha_c V_c psi).
    The extended circuit's is exact yet touches only n of the n^2
    (control c, subspace s) blocks of the (n*d)-dim target.  The input
    starts in subspace 0, so the first controlled swap moves control c's
    branch alpha_c psi to block (c, c); the block-diagonal sum applies
    V_c there; the second swap (swaps are involutory) brings alpha_c V_c
    psi back to (c, 0).  Every other amplitude is exactly 0 at every
    step, and the Hadamards mix control rows, not subspaces, so the
    result is the same rows in subspace 0 and zeros elsewhere.  The
    postselected branch thus lies entirely in subspace 0: sqrt(p) is its
    norm, and the output is the branch over sqrt(p).

    The rows are the spec's ``circuit_matrix`` applied to psi, one
    matvec.  A success probability that overflows is an error, and
    numpy's floating-point warnings stay off stderr: the matvec runs
    under ``np.errstate`` only for a spec whose ``can_overflow`` is set,
    since no other spec's matvec can overflow, and ``np.vdot`` warns on
    nothing.
    """
    _check_input(spec, input_state)
    matrix, psi, d = spec.circuit_matrix, input_state.data, spec.d
    if spec.can_overflow:
        with np.errstate(over="ignore", invalid="ignore"):
            rows = matrix @ psi
    else:
        rows = matrix @ psi
    # d >= 1 here: _check_input refuses every input when d = 0, since an
    # empty vector cannot have unit norm
    rows = rows.reshape(-1, d)
    rows.setflags(write=False)
    branch = rows[0]
    p = _finite_probability(float(np.vdot(branch, branch).real))
    if p < _VANISHING:
        return LccRunResult(0.0, None, rows)
    return LccRunResult(p, QuantumState((d,), branch / math.sqrt(p)), rows)


def run_lcc_controlled_form(spec: LinearCombinationSpec,
                            input_state: QuantumState) -> LccRunResult:
    """The controlled-gate circuit: the same run as ``run_lcc``.

    It remains because perfbench/workloads.py calls it; deleting it waits
    for the benchmark change of ROADMAP item 11.
    """
    return run_lcc(spec, input_state)


def lcc_success_probability(spec: LinearCombinationSpec,
                            input_state: QuantumState) -> float:
    """Closed-form branch probability ||sum alpha_j V_j psi||^2 / n.

    The input must be a normalized ``spec.d``-dim statevector (within
    1e-9), and a probability that overflows is an error, as for the circuits.
    """
    _check_input(spec, input_state)
    with np.errstate(over="ignore", invalid="ignore"):
        w = spec.combination() @ input_state.data
        return _finite_probability(float(np.vdot(w, w).real) / spec.n)


# -- spec file format (JSON) --------------------------------------------------

def spec_to_json(spec: LinearCombinationSpec,
                 input_state: QuantumState | None = None) -> str:
    doc = {
        "coefficients": [[z.real, z.imag] for z in spec.coefficients],
        "gates": [[[ [z.real, z.imag] for z in row] for row in g]
                  for g in spec.gates],
    }
    if input_state is not None:
        doc["input_state"] = [[z.real, z.imag] for z in input_state.data]
    return json.dumps(doc, indent=1, sort_keys=True)


def _number(value, key: str) -> float:
    """A JSON number within float range; ``key`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a JSON number, "
                         f"got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer such as 10**400
        raise ValueError(f"{key} must lie within float range") from None


def _complex(pair, key: str) -> complex:
    """A JSON pair [re, im] of numbers, as ``_number`` reads each half."""
    re, im = pair
    return complex(_number(re, key), _number(im, key))


def spec_from_json(text: str, gate_registry: dict[str, np.ndarray] | None = None
                   ) -> tuple[LinearCombinationSpec, QuantumState | None]:
    """Parse a spec file; gates may be matrix literals or registry names.

    Every complex value is a pair [re, im] of JSON numbers; a half that
    is not a number (``true`` is not) or lies beyond float range raises
    ``ValueError``.
    """
    doc = json.loads(text)
    alpha = np.array([_complex(z, "coefficient") for z in doc["coefficients"]])
    gates = []
    for g in doc["gates"]:
        if isinstance(g, str):
            if not gate_registry or g not in gate_registry:
                raise UnknownNameError(f"unknown gate name {reprlib.repr(g)}")
            gates.append(gate_registry[g])
        else:
            gates.append(np.array([[_complex(z, "gate entry") for z in row]
                                   for row in g]))
    spec = LinearCombinationSpec(alpha, tuple(gates))
    input_state = None
    if "input_state" in doc:
        input_state = statevector(
            [_complex(z, "input_state amplitude") for z in doc["input_state"]])
    return spec, input_state
