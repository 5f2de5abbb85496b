"""Linear-combination circuits: build, simulate, postselect.

Two equivalent realizations are provided: the controlled-gate circuit
(multiply-controlled V_j on a k-qubit control register) and the extended
circuit that replaces controlled gates with controlled subspace swaps on
an (n*d)-dimensional target.  Both postselect the all-zero control
outcome.  In the extended circuit the controlled swaps run a second time
after the block-diagonal sum, returning every branch to subspace 0
before the control register is Hadamarded.

Neither form builds a full-register matrix.  The joint amplitudes are
held as (control, subspace, d), and each step is one numpy call:

- a controlled subspace swap permutes the (control, subspace) rows,
  one ``np.take`` with a flat index cached per n;
- the block-diagonal sum is one batched matmul with the term axis
  first, the spec's read-only (n, d, d) gate stack against the
  amplitudes transposed to (subspace, d, control);
- H^(x)k on the control register is one real matmul of the cached
  (n, n) Sylvester matrix, entries +-1/sqrt(n), with the float64 view
  of the (control, rest) rows.

The postselected all-zero branch is then row 0.  Memory is O(n^2 d) for
the extended circuit, the size of its state.  The dense builders
``subspace_swap`` and ``sum_operation`` remain for inspection and tests.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import (ATOL_STRUCT, InvalidInputError, QuantumState, is_unitary,
                    statevector)
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
    views into it, so the two can never disagree.
    """

    coefficients: np.ndarray
    gates: tuple[np.ndarray, ...] = field(repr=False)
    gate_stack: np.ndarray = field(init=False, repr=False)

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
        stack.flags.writeable = False
        object.__setattr__(self, "gate_stack", stack)
        object.__setattr__(self, "gates", tuple(stack))
        norm = float(np.sum(np.abs(alpha) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise InvalidInputError(
                f"coefficients not normalized: sum |alpha|^2 = {norm}")

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


@dataclass(frozen=True)
class LccRunResult:
    success: bool
    success_probability: float
    output_state: QuantumState | None
    pre_measurement_state: QuantumState


def _control_dims(spec: LinearCombinationSpec) -> tuple[int, ...]:
    return (2,) * spec.k if spec.k else (1,)


def build_control_state(spec: LinearCombinationSpec) -> QuantumState:
    """k-qubit control state with amplitude alpha_j on basis |j>."""
    return statevector(spec.coefficients, dims=_control_dims(spec))


@functools.cache
def _swap_table(n: int) -> np.ndarray:
    """(n, n) table whose row c is sigma_c, the swap of subspace labels 0 and c.

    Cached per n, hence read-only.
    """
    table = np.tile(np.arange(n), (n, 1))
    table[:, 0] = np.arange(n)
    np.fill_diagonal(table, 0)
    table.flags.writeable = False
    return table


@functools.cache
def _swap_index(n: int) -> np.ndarray:
    """Flat index c*n + sigma_c(s) of the (control c, subspace s) pairs.

    Gathering the (n*n, d) amplitude rows by it applies the controlled
    swaps sum_c |c><c| (x) X^(0,c).  Cached per n, hence read-only.
    """
    index = (np.arange(n)[:, None] * n + _swap_table(n)).reshape(-1)
    index.flags.writeable = False
    return index


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


def subspace_swap(j: int, d: int, n: int) -> np.ndarray:
    """Permutation X^(0,j) exchanging subspaces 0 and j of an (n*d)-dim target."""
    if not 1 <= j <= n - 1:
        raise InvalidInputError(f"subspace index {j} out of range 1..{n - 1}")
    perm = (_swap_table(n)[j][:, None] * d + np.arange(d)).reshape(-1)
    return np.eye(n * d, dtype=complex)[perm]


def sum_operation(spec: LinearCombinationSpec) -> np.ndarray:
    """Block-diagonal operator with V_j acting on subspace j."""
    n, d = spec.n, spec.d
    out = np.zeros((n * d, n * d), dtype=complex)
    for j, g in enumerate(spec.gates):
        out[j * d:(j + 1) * d, j * d:(j + 1) * d] = g
    return out


def embed_input(spec: LinearCombinationSpec, input_state: QuantumState) -> QuantumState:
    """Extended target state: input amplitudes on subspace 0, zeros elsewhere."""
    ext = np.zeros(spec.n * spec.d, dtype=complex)
    ext[: spec.d] = input_state.data
    return statevector(ext, dims=(spec.n * spec.d,))


def _check_input(spec: LinearCombinationSpec, input_state: QuantumState):
    if input_state.kind != "statevector" or input_state.total_dim != spec.d:
        raise qcore.DimensionMismatchError(
            f"input must be a {spec.d}-dim statevector")
    if not input_state.is_normalized(atol=1e-9):
        raise InvalidInputError("input state must be normalized")


def _finish(amps: np.ndarray, spec: LinearCombinationSpec,
            target_dims: tuple[int, ...]) -> LccRunResult:
    """Hadamard every control qubit, postselect all-zero, slice subspace 0.

    ``amps`` is the joint state with the control label on axis 0.  H^(x)k
    is one real matmul of the cached Sylvester matrix with the float64
    view of the contiguous (control, rest) rows, which applies it to the
    real and imaginary parts at once; the all-zero outcome is row 0.
    """
    n, d = spec.n, spec.d
    rows = np.ascontiguousarray(amps).reshape(n, -1)
    rows = (_hadamard_matrix(n) @ rows.view(np.float64)).view(complex)
    joint = QuantumState("statevector", _control_dims(spec) + target_dims,
                         rows.reshape(-1))
    branch = rows[0]
    p = float(np.vdot(branch, branch).real)
    # probabilities at rounding-noise scale are a vanishing combination
    if p < ATOL_STRUCT ** 2:
        return LccRunResult(False, 0.0, None, joint)
    # the postselected branch lives entirely in subspace 0
    target = branch[:d]
    out = statevector(target / np.linalg.norm(target), dims=(d,))
    return LccRunResult(True, p, out, joint)


def _apply_blocks(spec: LinearCombinationSpec, amps: np.ndarray) -> np.ndarray:
    """V_j applied to block j of the (control, n, d)-shaped amplitudes.

    One batched matmul with the term axis first: the (n, d, d) gate stack
    times the amplitudes transposed to (n, d, control), transposed back.
    """
    return (spec.gate_stack @ amps.transpose(1, 2, 0)).transpose(2, 0, 1)


def _swap(amps: np.ndarray, n: int, d: int) -> np.ndarray:
    """Controlled subspace swaps sum_c |c><c|_C (x) X^(0,c), as one gather:
    amplitude (c, s) takes the one at (c, sigma_c(s))."""
    return np.take(amps.reshape(n * n, d), _swap_index(n), axis=0)


def run_lcc(spec: LinearCombinationSpec, input_state: QuantumState) -> LccRunResult:
    """Extended-target circuit: controlled swaps, sum operation, Hadamards.

    On the all-zero control outcome the output is the normalized
    combination sum_j alpha_j V_j |psi>.  With a unitary combination the
    success probability is exactly 1/n.  A vanishing combination is
    reported as a degenerate never-succeeding postselection.
    """
    _check_input(spec, input_state)
    n, d = spec.n, spec.d
    # alpha (x) (psi embedded in subspace 0 of the (n*d)-dim target)
    amps = np.zeros((n, n, d), dtype=complex)
    amps[:, 0] = np.multiply.outer(spec.coefficients, input_state.data)
    amps = _apply_blocks(spec, _swap(amps, n, d).reshape(n, n, d))
    # second pass of the controlled swaps brings every branch back to
    # subspace 0 before the Hadamards (swaps are involutory)
    return _finish(_swap(amps, n, d), spec, (n * d,))


def run_lcc_controlled_form(spec: LinearCombinationSpec,
                            input_state: QuantumState) -> LccRunResult:
    """Controlled-gate circuit: sum_j |j><j| (x) V_j, then Hadamards.

    Agrees with run_lcc on output state and success probability.
    """
    _check_input(spec, input_state)
    # alpha (x) psi, row j holding alpha_j psi, as a single control row
    amps = np.multiply.outer(spec.coefficients, input_state.data)
    return _finish(_apply_blocks(spec, amps[None])[0], spec, input_state.dims)


def lcc_success_probability(spec: LinearCombinationSpec,
                            input_state: QuantumState) -> float:
    """Closed-form branch probability ||sum alpha_j V_j psi||^2 / n."""
    w = spec.combination() @ input_state.data
    return float(np.vdot(w, w).real) / spec.n


def cu_linear_spec(u: np.ndarray) -> LinearCombinationSpec:
    """Two-term spec implementing controlled-U on (qubit (x) target).

    CU = (I+Z)/2 (x) I + (I-Z)/2 (x) U; each operator term is rescaled by
    sqrt(2) and paired with coefficient 1/sqrt(2) so the coefficient
    normalization holds.  The terms are not unitary (projector-valued).
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, atol=1e-10):
        raise InvalidInputError("controlled-U decomposition requires unitary U")
    p0 = (qcore.ID2 + qcore.SZ) / math.sqrt(2)
    p1 = (qcore.ID2 - qcore.SZ) / math.sqrt(2)
    v0 = np.kron(p0, np.eye(u.shape[0], dtype=complex))
    v1 = np.kron(p1, u)
    inv_sqrt2 = 1.0 / math.sqrt(2)
    return LinearCombinationSpec(np.array([inv_sqrt2, inv_sqrt2]), (v0, v1))


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
                raise InvalidInputError(f"unknown gate name {g!r}")
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
