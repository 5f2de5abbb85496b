"""Linear-combination circuits: build, simulate, postselect.

Two equivalent realizations are provided: the controlled-gate circuit
(multiply-controlled V_j on a k-qubit control register) and the extended
circuit that replaces controlled gates with controlled subspace swaps on
an (n*d)-dimensional target.  Both postselect the all-zero control
outcome.  In the extended circuit the controlled swaps run a second time
after the block-diagonal sum, returning every branch to subspace 0
before the control register is Hadamarded.

Neither form builds a full-register matrix.  The joint amplitudes are
reshaped to (control, subspace, d): a controlled subspace swap is a
permutation of the subspace axis that depends on the control label, and
the block-diagonal sum is one batched matrix-vector product over the
term axis.  Memory is O(n^2 d) for the extended circuit, the size of its
state.  The dense builders ``subspace_swap`` and ``sum_operation`` remain
for inspection and tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .qcore import (ATOL_STRUCT, HADAMARD, InvalidInputError, QuantumState,
                    apply_to_subsystems, basis_state, is_unitary,
                    measure_postselect, statevector, tensor)


@dataclass(frozen=True)
class LinearCombinationSpec:
    """Coefficients alpha_j and gates V_j defining sum_j alpha_j V_j.

    The term count n must be a power of two (k = log2 n control qubits)
    and the coefficients must be normalized: sum |alpha_j|^2 = 1.
    Per-term unitarity is not required (black boxes allowed); the
    ``all_unitary`` flag records whether every term is unitary.
    """

    coefficients: np.ndarray
    gates: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        alpha = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", alpha)
        object.__setattr__(self, "gates",
                           tuple(np.asarray(g, dtype=complex) for g in self.gates))
        n = len(alpha)
        if n < 1 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"term count {n} is not a power of 2")
        if len(self.gates) != n:
            raise InvalidInputError("one gate per coefficient required")
        d = self.gates[0].shape[0]
        for g in self.gates:
            if g.shape != (d, d):
                raise InvalidInputError("all gates must be square of equal size")
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
        return self.gates[0].shape[0]

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


def build_control_state(spec: LinearCombinationSpec) -> QuantumState:
    """k-qubit control state with amplitude alpha_j on basis |j>."""
    return statevector(spec.coefficients, dims=(2,) * spec.k if spec.k else (1,))


def _swap_table(n: int) -> np.ndarray:
    """(n, n) table whose row c is sigma_c, the swap of subspace labels 0 and c."""
    table = np.tile(np.arange(n), (n, 1))
    table[:, 0] = np.arange(n)
    np.fill_diagonal(table, 0)
    return table


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


def _finish(joint: QuantumState, k: int, d: int) -> LccRunResult:
    """Hadamard every control qubit, postselect all-zero, slice subspace 0."""
    for q in range(k):
        joint = apply_to_subsystems(joint, HADAMARD, [q])
    outcome = measure_postselect(joint, range(k), (0,) * k)
    # probabilities at rounding-noise scale are a vanishing combination
    if outcome.empty or outcome.probability < qcore.ATOL_STRUCT ** 2:
        return LccRunResult(False, 0.0, None, joint)
    target = outcome.remainder.data[:d]
    # the postselected branch lives entirely in subspace 0
    out = statevector(target / np.linalg.norm(target), dims=(d,))
    return LccRunResult(True, outcome.probability, out, joint)


def _apply_blocks(spec: LinearCombinationSpec, amps: np.ndarray) -> np.ndarray:
    """V_j applied to block j of the (..., n, d)-shaped amplitudes."""
    return np.einsum("sab,...sb->...sa", np.stack(spec.gates), amps)


def run_lcc(spec: LinearCombinationSpec, input_state: QuantumState) -> LccRunResult:
    """Extended-target circuit: controlled swaps, sum operation, Hadamards.

    On the all-zero control outcome the output is the normalized
    combination sum_j alpha_j V_j |psi>.  With a unitary combination the
    success probability is exactly 1/n.  A vanishing combination is
    reported as a degenerate never-succeeding postselection.
    """
    _check_input(spec, input_state)
    n, k, d = spec.n, spec.k, spec.d
    joint = tensor(build_control_state(spec), embed_input(spec, input_state))
    amps = joint.data.reshape(n, n, d)
    # controlled subspace swaps sum_c |c><c|_C (x) X^(0,c), as a gather:
    # amplitude (c, s) takes the one at (c, sigma_c(s))
    swap = (np.arange(n)[:, None], _swap_table(n))
    amps = _apply_blocks(spec, amps[swap])
    # second pass of the controlled swaps brings every branch back to
    # subspace 0 before the Hadamards (swaps are involutory)
    amps = amps[swap]
    return _finish(statevector(amps.reshape(-1), dims=joint.dims), k, d)


def run_lcc_controlled_form(spec: LinearCombinationSpec,
                            input_state: QuantumState) -> LccRunResult:
    """Controlled-gate circuit: sum_j |j><j| (x) V_j, then Hadamards.

    Agrees with run_lcc on output state and success probability.
    """
    _check_input(spec, input_state)
    n, k, d = spec.n, spec.k, spec.d
    joint = tensor(build_control_state(spec), input_state)
    amps = _apply_blocks(spec, joint.data.reshape(n, d))
    return _finish(statevector(amps.reshape(-1), dims=joint.dims), k, d)


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
