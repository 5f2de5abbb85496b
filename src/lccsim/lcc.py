"""Linear-combination circuits: build, simulate, postselect.

Two equivalent realizations are provided: the controlled-gate circuit
(multiply-controlled V_j on a k-qubit control register) and the extended
circuit that replaces controlled gates with controlled subspace swaps on
an (n*d)-dimensional target.  Both postselect the all-zero control
outcome.  In the extended circuit the controlled swaps run a second time
after the block-diagonal sum, returning every branch to subspace 0
before the control register is Hadamarded.

Neither form builds a full-register matrix; both run one kernel.  The
rows H^(x)k (alpha_c V_c psi) are linear in psi, so each spec compiles,
once, the read-only (n*d, d) ``circuit_matrix`` whose row block r is
sum_c H[r, c] alpha_c V_c, with H the (n, n) Sylvester matrix, entries
+-1/sqrt(n); a run is then one (n*d, d) matvec.  The postselected
all-zero branch is row 0.  The extended circuit's state is these rows in
subspace 0 and exact zeros elsewhere (see ``run_lcc``), so a run costs
O(n d^2) work and holds the O(n d) rows; the O(n^2 d) register is built
only on the first read of ``pre_measurement_state``, and the O(n^2 d^2)
compilation is paid once per spec.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import (ATOL_STRUCT, InvalidInputError, QuantumState,
                    UnknownNameError, is_unitary, statevector)
# not called here; bound so that perfbench's tracer and the tests can
# patch them through this module
from .qcore import apply_to_subsystems, measure_postselect  # noqa: F401


@dataclass(frozen=True, eq=False)
class LinearCombinationSpec:
    """Coefficients alpha_j and gates V_j defining sum_j alpha_j V_j.

    The term count n must be a power of two (k = log2 n control qubits)
    and the coefficients must be normalized: sum |alpha_j|^2 = 1.
    Per-term unitarity is not required (black boxes allowed); the
    ``all_unitary`` flag records whether every term is unitary.

    The coefficients are copied into a read-only array, and the gates
    once into the read-only (n, d, d) ``gate_stack``; ``gates`` holds
    views into it, so the two can never disagree.  Both circuit forms run
    the read-only (n*d, d) ``circuit_matrix``, built here: its row block
    r is sum_c H[r, c] alpha_c V_c, H the Sylvester matrix of H^(x)k.  A
    block whose entries overflow holds inf or nan; the run that meets it
    raises (see ``_run``).
    """

    coefficients: np.ndarray
    gates: tuple[np.ndarray, ...] = field(repr=False)
    gate_stack: np.ndarray = field(init=False, repr=False)
    circuit_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = np.array(self.coefficients, dtype=complex)
        alpha.flags.writeable = False
        object.__setattr__(self, "coefficients", alpha)
        n = len(alpha)
        if n < 1 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"term count {n} is not a power of 2")
        if len(self.gates) != n:
            raise InvalidInputError("one gate per coefficient required")
        try:
            stack = np.array(self.gates, dtype=complex)
        except ValueError:  # ragged: gates of unequal shape
            stack = None
        if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise InvalidInputError("all gates must be square of equal size")
        if not (np.isfinite(alpha).all() and np.isfinite(stack).all()):
            raise InvalidInputError("coefficients and gates must be finite")
        stack.flags.writeable = False
        object.__setattr__(self, "gate_stack", stack)
        object.__setattr__(self, "gates", tuple(stack))
        norm = float(np.sum(np.abs(alpha) ** 2))
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

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @property
    def k(self) -> int:
        return self.n.bit_length() - 1

    @property
    def d(self) -> int:
        return self.gate_stack.shape[1]

    @property
    def all_unitary(self) -> bool:
        return all(is_unitary(g, atol=1e-10) for g in self.gates)

    def combination(self) -> np.ndarray:
        """The raw operator sum_j alpha_j V_j (not necessarily unitary)."""
        out = np.zeros((self.d, self.d), dtype=complex)
        for a, g in zip(self.coefficients, self.gates):
            out += a * g
        return out


def _control_dims(n: int) -> tuple[int, ...]:
    k = n.bit_length() - 1
    return (2,) * k if k else (1,)


@dataclass(frozen=True, eq=False)
class LccRunResult:
    """One run of either circuit form, postselected on the all-zero control.

    A run holds the read-only (n, d) rows H^(x)k (alpha_c V_c psi), O(n d),
    with the input's dims and which form ran.  The joint state before the
    control measurement is built from them on the first read of
    ``pre_measurement_state`` and cached: the rows themselves (controlled
    form), or the rows in column block 0 of a zeroed (n, n*d) register
    (extended form), O(n^2 d).
    """

    success: bool
    success_probability: float
    output_state: QuantumState | None
    rows: np.ndarray = field(repr=False)
    input_dims: tuple[int, ...]
    extended: bool

    @functools.cached_property
    def pre_measurement_state(self) -> QuantumState:
        n, d = self.rows.shape
        if self.extended:
            amps = np.zeros((n, n * d), dtype=complex)
            amps[:, :d] = self.rows
            target_dims = (n * d,)
        else:
            amps, target_dims = self.rows, self.input_dims
        return QuantumState(_control_dims(n) + target_dims, amps.reshape(-1))


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
    if input_state.total_dim != spec.d:
        raise qcore.DimensionMismatchError(
            f"input must be a {spec.d}-dim statevector")
    psi = input_state.data
    if abs(math.sqrt(np.vdot(psi, psi).real) - 1.0) > 1e-9:
        raise InvalidInputError("input state must be normalized")


def _finite_probability(p: float) -> float:
    if not math.isfinite(p):
        raise InvalidInputError(
            "the success probability overflows: the gates are too large")
    return p


def _run(spec: LinearCombinationSpec, input_state: QuantumState,
         extended: bool) -> LccRunResult:
    """Both circuit forms: the rows H^(x)k (alpha_c V_c psi), postselected.

    The rows are the spec's ``circuit_matrix`` applied to psi, one
    matvec.  Both forms return the rows; no zeroed (n, n*d) register is
    built here (see ``LccRunResult``).  A success probability that
    overflows is an error, and numpy's floating-point warnings stay off
    stderr.
    """
    _check_input(spec, input_state)
    n, d = spec.n, spec.d
    with np.errstate(over="ignore", invalid="ignore"):
        rows = (spec.circuit_matrix @ input_state.data).reshape(n, d)
        p = _finite_probability(float(np.vdot(rows[0], rows[0]).real))
    rows.flags.writeable = False
    # probabilities at rounding-noise scale are a vanishing combination
    if p < ATOL_STRUCT ** 2:
        return LccRunResult(False, 0.0, None, rows, input_state.dims, extended)
    out = statevector(rows[0] / math.sqrt(p), dims=(d,))
    return LccRunResult(True, p, out, rows, input_state.dims, extended)


def run_lcc(spec: LinearCombinationSpec, input_state: QuantumState) -> LccRunResult:
    """Extended-target circuit: controlled swaps, sum operation, Hadamards.

    On the all-zero control outcome the output is the normalized
    combination sum_j alpha_j V_j |psi>.  With a unitary combination the
    success probability is exactly 1/n.  A vanishing combination is
    reported as a degenerate never-succeeding postselection.

    The simulation is exact yet touches only n of the n^2 (control c,
    subspace s) blocks of the (n*d)-dim target.  The input starts in
    subspace 0, so the first controlled swap moves control c's branch
    alpha_c psi to block (c, c); the block-diagonal sum applies V_c
    there; the second swap (swaps are involutory) brings alpha_c V_c psi
    back to (c, 0).  Every other amplitude is exactly 0 at every step,
    and the Hadamards mix control rows, not subspaces, so the result is
    the controlled form's rows in subspace 0 and zeros elsewhere.  The
    postselected branch thus lies entirely in subspace 0: sqrt(p) is its
    norm, and the output is the branch over sqrt(p).  The run holds only
    the rows; the zeroed (n, n*d) register is built on the first read of
    ``pre_measurement_state``.
    """
    return _run(spec, input_state, extended=True)


def run_lcc_controlled_form(spec: LinearCombinationSpec,
                            input_state: QuantumState) -> LccRunResult:
    """Controlled-gate circuit: sum_j |j><j| (x) V_j, then Hadamards.

    Agrees with run_lcc on output state and success probability.
    """
    return _run(spec, input_state, extended=False)


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


def spec_from_json(text: str, gate_registry: dict[str, np.ndarray] | None = None
                   ) -> tuple[LinearCombinationSpec, QuantumState | None]:
    """Parse a spec file; gates may be matrix literals or registry names."""
    doc = json.loads(text)
    alpha = np.array([complex(re, im) for re, im in doc["coefficients"]])
    gates = []
    for g in doc["gates"]:
        if isinstance(g, str):
            if not gate_registry or g not in gate_registry:
                raise UnknownNameError(f"unknown gate name {g!r}")
            gates.append(gate_registry[g])
        else:
            gates.append(np.array([[complex(re, im) for re, im in row]
                                   for row in g]))
    spec = LinearCombinationSpec(alpha, tuple(gates))
    input_state = None
    if "input_state" in doc:
        input_state = statevector(
            [complex(re, im) for re, im in doc["input_state"]])
    return spec, input_state
