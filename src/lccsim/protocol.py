"""Client-server remote-control protocol: teleportation, decoys, verification.

The session model follows the measured protocol order: the server runs
the linear-combination circuit on its EPR halves until the all-zero
outcome lands (probability S/n^2, with S = sum_j |V_j psi|^2), then the
client teleports the k-qubit control state c with postselected Bell
measurements.  They leave w = sum_j c_j V_j psi on the register and
complete the round with probability |w|^2/(n S), which is |w|^2/n^2 for
unitary terms.  A verify round sends a basis state |i> so that only
component V_i acts, and the client audits the returned state with a
single-shot projective check (detection probability 1 - fidelity).

The send policy takes its control and decoy states from one
eigendecomposition of the control rho: the decoy ((1+eps)/n) I - eps rho
has the same eigenvectors.

An intercepting server measures each control qubit in a fixed basis
before use.  Verification states are computational-basis states, so a
computational-basis intercept is invisible to the client; the default
attack basis is therefore the diagonal (Hadamard) one, the simplest
measurement that actually randomizes verify outcomes.  A server that
skips its measurement leaves the register as a z-basis intercept would.
`_session_law`, the one model of the server, gives each (sent state,
server outcome) cell its exact probability: `run_session` draws each
round's cell once, and the detection rate sums the cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qcore
from .lcc import LinearCombinationSpec, _check_input
from .qcore import (HADAMARD, InvalidInputError, QuantumState,
                    apply_to_subsystems, basis_state, measure_postselect,
                    statevector, tensor)

_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def epr_pair() -> QuantumState:
    """|Phi+> = (|00> + |11>)/sqrt(2)."""
    return statevector(np.array([1, 0, 0, 1]) / math.sqrt(2), dims=(2, 2))


def teleport_postselected(state: QuantumState, source: int,
                          epr: tuple[int, int]) -> qcore.MeasurementOutcome:
    """Bell-measure (source, epr[0]) and keep only the (0,0) outcome.

    The receiver half epr[1] then carries the source qubit unchanged; the
    branch probability is 1/4 for a pair initialized to |Phi+>.
    """
    a, b = epr
    st = apply_to_subsystems(state, _CNOT, [source, a])
    st = apply_to_subsystems(st, HADAMARD, [source])
    return measure_postselect(st, [source, a], (0, 0))


def make_decoy(rho: np.ndarray, n: int, epsilon: float) -> np.ndarray:
    """Decoy state rho_m = ((1+eps)/n) I - eps rho.

    Mixing the control with its decoy at odds eps : 1 yields the
    maximally mixed state, hiding the control from the server.  Any
    eps > 0 is valid for n = 1, where the decoy is [[1]].
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise InvalidInputError(f"control state must be {n}x{n}")
    if n == 1:
        if not epsilon > 0.0:
            raise InvalidInputError("epsilon must be positive")
    elif not (0.0 < epsilon <= 1.0 / (n - 1)):
        raise InvalidInputError(
            f"epsilon must lie in (0, 1/(n-1)] = (0, {1.0 / (n - 1)}]")
    rho_m = ((1.0 + epsilon) / n) * np.eye(n) - epsilon * rho
    evals = np.linalg.eigvalsh(rho_m)
    if evals.min() < -qcore.ATOL_STRUCT:
        raise InvalidInputError("decoy state is not positive semidefinite")
    return rho_m


def _noise_floored(evals: np.ndarray) -> np.ndarray:
    """PSD eigenvalues with those at rounding-noise scale set to zero, so
    that a zero weight computed as 1e-17 does not send its state."""
    cut = len(evals) * np.finfo(float).eps * np.abs(evals).max()
    return np.where(evals > cut, evals, 0.0)


@dataclass(frozen=True, eq=False)
class SendPolicy:
    """Per-round sending distribution over control, decoy, and verify states.

    ``control_rho`` must be a density matrix: Hermitian and positive
    semidefinite to ATOL_STRUCT, with trace 1 to within 1e-9.
    """

    epsilon: float
    tau: float
    control_rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.control_rho, dtype=complex)
        object.__setattr__(self, "control_rho", rho)
        if not 0.0 < self.tau < 1.0:
            raise InvalidInputError("tau must lie in (0,1)")
        make_decoy(rho, self.n, self.epsilon)  # validates shape, epsilon, decoy
        if (np.abs(rho - rho.conj().T).max() > qcore.ATOL_STRUCT
                or abs(np.trace(rho) - 1.0) > 1e-9
                or np.linalg.eigvalsh(rho)[0] < -qcore.ATOL_STRUCT):
            raise InvalidInputError(
                "control state is not a density matrix: it must be "
                "Hermitian and positive semidefinite with trace 1")

    @property
    def n(self) -> int:
        return self.control_rho.shape[0]

    @property
    def p_control(self) -> float:
        return self.tau * self.epsilon / (1.0 + self.epsilon)

    @property
    def p_decoy(self) -> float:
        return self.tau / (1.0 + self.epsilon)

    @property
    def p_basis(self) -> float:
        return (1.0 - self.tau) / self.n

    def outcome_table(self) -> tuple[list, np.ndarray]:
        """All (label, pure state) outcomes of one round with probabilities.

        One eigendecomposition of the control rho gives both kinds: the
        decoy ((1+eps)/n) I - eps rho has rho's eigenvectors, with
        weights (1+eps)/n - eps lambda, listed in ascending weight.  A
        weight at rounding-noise scale is zero, and a zero-weight state
        is not listed.
        """
        entries = []
        probs = []
        lam, vecs = np.linalg.eigh(self.control_rho)
        # lambda ascends, so the decoy weights ascend in reverse order
        decoy = (1.0 + self.epsilon) / self.n - self.epsilon * lam[::-1]
        for kind, p_kind, weights, states in (
                ("compute", self.p_control, lam, vecs.T),
                ("decoy", self.p_decoy, decoy, vecs.T[::-1])):
            weights = _noise_floored(weights)
            for w, vec in zip(weights / weights.sum(), states):
                if w > 0:
                    entries.append((kind, vec))
                    probs.append(p_kind * w)
        eye = np.eye(self.n, dtype=complex)
        for i in range(self.n):
            entries.append((("verify", i), eye[:, i]))
            probs.append(self.p_basis)
        return entries, np.array(probs)


def empirical_server_average(policy: SendPolicy, samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Average density matrix the server sees over ``samples`` (at least 1)
    sampled rounds."""
    if samples < 1:
        raise InvalidInputError("samples must be at least 1")
    entries, probs = policy.outcome_table()
    counts = rng.multinomial(samples, probs)
    avg = np.zeros((policy.n, policy.n), dtype=complex)
    for c, (_, vec) in zip(counts, entries):
        if c:
            avg += c * np.outer(vec, vec.conj())
    return avg / samples


@dataclass(frozen=True)
class ServerBehavior:
    """Fixed per-session server strategy.

    mode 'honest' follows the protocol; 'intercept' measures each
    incoming control register in ``intercept_basis`` ('x' by default,
    'z' for the do-nothing computational-basis variant) on a fraction
    ``intercept_fraction`` of rounds; 'skip_measurement' keeps its EPR
    halves unmeasured (`cheating_server_state`), which leaves the
    register as a z-basis measurement of every control would, and
    intercepts no round.  Fraction and basis act only in 'intercept'.
    """

    mode: str = "honest"
    intercept_fraction: float = 0.0
    intercept_basis: str = "x"

    def __post_init__(self):
        if self.mode not in ("honest", "intercept", "skip_measurement"):
            raise InvalidInputError(f"unknown server mode {self.mode!r}")
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise InvalidInputError("intercept fraction must lie in [0,1]")
        if self.intercept_basis not in ("x", "z"):
            raise InvalidInputError("intercept basis must be 'x' or 'z'")


@dataclass
class RoundRecord:
    """One protocol run; every field holds a plain Python value."""

    index: int
    kind: str
    verify_index: int | None
    intercepted: bool
    lcc_retries: int
    completed: bool
    fidelity: float | None
    detected: bool


class _Cell(NamedTuple):
    """What every round of one (sent state, server outcome) pair shares."""

    kind: str
    verify_index: int | None
    intercepted: bool
    fidelity: float | None  # of the output, when the round completes
    q: float  # the probability that a round falls here (`_session_law`)
    p_complete: float  # the probability that such a round completes


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """One session stored by column: round r fell in ``cells[cell[r]]``,
    took ``lcc_retries[r]`` LCC attempts, and completed and was detected
    as ``completed[r]`` and ``detected[r]`` say."""

    cells: tuple[_Cell, ...]
    cell: np.ndarray
    lcc_retries: np.ndarray
    completed: np.ndarray
    detected: np.ndarray

    @property
    def rounds(self) -> "_RoundView":
        return _RoundView(self)

    @property
    def detection_events(self) -> int:
        return int(np.count_nonzero(self.detected))

    @property
    def completed_rounds(self) -> int:
        return int(np.count_nonzero(self.completed))

    @property
    def analytic_completion(self) -> float:
        """The probability that a round completes, read off the cells."""
        return math.fsum(c.q * c.p_complete for c in self.cells)

    @property
    def analytic_detection_rate(self) -> float:
        """`intercept_detection_rate`, read off the cells."""
        return _detection_rate(self.cells)

    def summary(self) -> dict:
        total = len(self.cell)
        kinds = {}
        for c, count in zip(self.cells, np.bincount(
                self.cell, minlength=len(self.cells)).tolist()):
            if count:
                kinds[c.kind] = kinds.get(c.kind, 0) + count
        compute_fidelity = np.array([
            c.fidelity if c.kind == "compute" and c.fidelity is not None
            else np.nan for c in self.cells])
        comp = compute_fidelity[self.cell[self.completed]]
        comp = comp[~np.isnan(comp)].tolist()
        return {
            "rounds": total,
            "completed": self.completed_rounds,
            "detections": self.detection_events,
            "kind_counts": dict(sorted(kinds.items())),
            "empirical_completion": (self.completed_rounds / total) if total else 0.0,
            "mean_compute_fidelity": sum(comp) / len(comp) if comp else None,
        }

    def to_text(self) -> str:
        # after "round=<r>", a line is fixed by its cell, its outcome
        # (0 failed, 1 completed, 2 completed and detected) and its LCC
        # retry count: one tail per pair that occurs, ending in the next
        # line's "round=", and one array gather picks every line's tail
        heads, ends = [], []
        for c in self.cells:
            vi = "-" if c.verify_index is None else c.verify_index
            heads.append(f" kind={c.kind} verify_index={vi} "
                         f"intercepted={int(c.intercepted)} lcc_retries=")
            fid = "-" if c.fidelity is None else f"{c.fidelity:.12f}"
            ends += [" completed=0 fidelity=- detected=0\nround=",
                     f" completed=1 fidelity={fid} detected=0\nround=",
                     f" completed=1 fidelity={fid} detected=1\nround="]
        outcome = 3 * self.cell + self.completed + self.detected
        # rank the retry counts first, so the pair key stays below
        # 3 * cells * rounds however large the counts are
        retries, rank = np.unique(self.lcc_retries, return_inverse=True)
        pairs, keys = np.unique(outcome * len(retries) + rank,
                                return_inverse=True)
        cell_outcome, retry = np.divmod(pairs, len(retries))
        tails = [heads[o // 3] + str(k) + ends[o] for o, k in zip(
            cell_outcome.tolist(), retries[retry].tolist())]
        total = len(self.cell)
        parts = [None] * (2 * total)
        # f"{r}" skips the str() type call: a third faster than map(str, ...)
        parts[::2] = [f"{r}" for r in range(total)]
        parts[1::2] = np.array(tails, dtype=object)[keys].tolist()
        if total:  # no tail precedes the first line; none follows the last
            parts[0] = "round=0"
            parts[-1] = parts[-1][:-len("round=")]
        s = self.summary()
        parts.append("# summary\n")
        parts += [f"# {key}={s[key]!r}\n" for key in sorted(s)]
        return "".join(parts)


class _RoundView:
    """A transcript's rounds as `RoundRecord`s, built only when iterated."""

    def __init__(self, transcript: ProtocolTranscript):
        self._t = transcript

    def __len__(self) -> int:
        return len(self._t.cell)

    def __iter__(self):
        t = self._t
        for r, (cell, retries, completed, detected) in enumerate(zip(
                t.cell.tolist(), t.lcc_retries.tolist(), t.completed.tolist(),
                t.detected.tolist())):
            c = t.cells[cell]
            yield RoundRecord(r, c.kind, c.verify_index, c.intercepted, retries,
                              completed, c.fidelity if completed else None,
                              detected)


def _teleport_stage(spec: LinearCombinationSpec, input_state: QuantumState,
                    controls: np.ndarray
                    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """A round's LCC stage and control teleport, for each row c of the
    (m, n) ``controls``: p_lcc, the (n, d) normalized V_i psi, the (m, d)
    normalized w = sum_j c_j V_j psi and their (m,) completion
    probabilities.  A vector that vanishes stays 0.

    The server's control is its EPR halves, so the LCC stage sees the
    uniform mixture of the n subspaces: it succeeds with probability
    p_lcc = S / n^2, where S = sum_i |V_i psi|^2.  Terms large enough
    that S / n^2 > 1 (beyond rounding) are invalid input.  The client's
    postselected Bell measurements then complete the round with
    probability |w|^2 / (n S), or 0 when S = 0.
    """
    n = spec.n
    with np.errstate(over="ignore", invalid="ignore"):
        terms = spec.gate_stack @ input_state.data
        vecs = np.concatenate([terms, (controls[:, :, None] * terms).sum(1)])
        # a matmul per vector rounds |v|^2 as np.vdot does, which keeps
        # the bytes of seeded outputs
        norm2 = (vecs.conj()[:, None] @ vecs[:, :, None]).real.ravel()
    norm2[norm2 <= 1e-300] = 0.0  # a vector at underflow scale is zero
    s = float(norm2[:n].sum())
    p_lcc = s / n ** 2
    if not p_lcc <= 1.0 + 1e-9:  # an S that overflowed is inf or nan
        raise InvalidInputError(
            f"the LCC stage's success probability S/n^2 = {p_lcc:.6g} > 1: "
            "the terms are too large for this input")
    unit = np.divide(vecs, np.sqrt(norm2)[:, None], out=np.zeros_like(vecs),
                     where=norm2[:, None] > 0)
    p_complete = norm2[n:] / (n * s) if s > 0 else np.zeros(len(controls))
    # rounding can carry S / n^2 = 1 (one unitary term) just past 1
    return min(p_lcc, 1.0), unit[:n], unit[n:], p_complete


def _session_law(spec: LinearCombinationSpec, input_state: QuantumState,
                 policy: SendPolicy, behavior: ServerBehavior
                 ) -> tuple[float, tuple[_Cell, ...]]:
    """A round's exact law: p_lcc and the cells.  Entry e of the
    `outcome_table` owns cell e*(n+1), with q = send prob (1 - f), and
    cell e*(n+1) + 1 + m, with q = send prob f |<sent|B_m>|^2, where f is
    the intercept fraction when the server intercepts, 1 when it skips its
    measurement (B the z basis, and no cell intercepted), and 0 otherwise."""
    if policy.n != spec.n:
        raise qcore.DimensionMismatchError(
            f"policy dimension {policy.n} != spec term count {spec.n}")
    _check_input(spec, input_state)
    entries, send_probs = policy.outcome_table()
    sent = np.array([vec for _, vec in entries])
    skip = behavior.mode == "skip_measurement"
    # the k-qubit product basis the server measures in, one state per column
    single = np.eye(2) if skip or behavior.intercept_basis == "z" else HADAMARD
    basis_vecs = functools.reduce(np.kron, [single] * spec.k, np.eye(1, dtype=complex))
    # output rows: each sendable state's own, then intercept outcome m's
    p_lcc, expected, outputs, p_out = _teleport_stage(
        spec, input_state, np.concatenate([sent, basis_vecs.T]))
    target = spec.combination() @ input_state.data
    norm = np.linalg.norm(target)
    target = target / norm if norm > 1e-300 else None
    f = 1.0 if skip else behavior.intercept_fraction * (behavior.mode == "intercept")
    probs = np.abs(sent @ basis_vecs.conj()) ** 2
    cells = []
    for e, (label, _) in enumerate(entries):
        kind = label if isinstance(label, str) else label[0]
        verify_index = label[1] if kind == "verify" else None
        ref = (expected[verify_index] if kind == "verify"
               else target if kind == "compute" else None)
        if ref is not None and not ref.any():  # V_i annihilates the input
            ref = None
        for m, row in enumerate([e, *range(len(entries), len(entries) + spec.n)]):
            # rounding can carry |<ref|out>|^2 just past 1
            fidelity = (None if ref is None
                        else min(1.0, float(abs(np.vdot(ref, outputs[row])) ** 2)))
            q = (send_probs[e] * f * probs[e, m - 1] if m
                 else send_probs[e] * (1.0 - f))
            cells.append(_Cell(kind, verify_index, m > 0 and not skip, fidelity,
                               float(q), float(p_out[row])))
    return p_lcc, tuple(cells)


def _detection_rate(cells) -> float:
    return math.fsum(c.q * c.p_complete * (1.0 - c.fidelity) for c in cells
                     if c.kind == "verify" and c.intercepted and c.fidelity is not None)


def run_session(spec: LinearCombinationSpec, input_state: QuantumState,
                policy: SendPolicy, behavior: ServerBehavior, rounds: int,
                rng: np.random.Generator) -> ProtocolTranscript:
    """Simulate a session of protocol runs: one draw per round picks its
    (sent state, server outcome) cell from `_session_law`.

    Every run: the client samples what to send, the server's LCC stage
    retries geometrically until its all-zero outcome, the server measures
    the control or not, and the client's postselected control
    teleportation either completes the run or fails it.  Verify rounds
    audit the output against V_i |psi> with a single-shot check.  The
    input must be a normalized statevector (within 1e-9), and the LCC
    stage's success probability S / n^2 at most 1 (see `_teleport_stage`).
    """
    p_lcc, cells = _session_law(spec, input_state, policy, behavior)
    cell = rng.choice(len(cells), size=rounds, p=[c.q for c in cells])
    retries = (rng.geometric(p_lcc, size=rounds) if p_lcc > 0
               else np.zeros(rounds, dtype=int))
    u_complete, u_detect = rng.random(rounds), rng.random(rounds)
    completed = u_complete < np.array([c.p_complete for c in cells])[cell]
    # only a completed verify round is detected: when its draw exceeds F
    audit = np.array([c.fidelity if c.kind == "verify" and c.fidelity is not None
                      else np.inf for c in cells])
    detected = completed & (u_detect > audit[cell])
    return ProtocolTranscript(cells, cell, retries, completed, detected)


def intercept_detection_rate(spec: LinearCombinationSpec,
                             input_state: QuantumState, policy: SendPolicy,
                             behavior: ServerBehavior) -> float:
    """Exact per-run detection probability under the intercept attack:
    the expectation of a `run_session` round's ``detected`` flag.

    It sums q p_complete (1 - F) over `_session_law`'s intercepted verify
    cells, F = |<V_i psi|out_m>|^2: compute and decoy rounds, and verify
    rounds whose V_i annihilates the input, are never detected.  Without
    an intercepting server no cell is intercepted, so the rate is exactly
    0.  A transcript's ``analytic_detection_rate`` is the same sum.
    """
    return _detection_rate(_session_law(spec, input_state, policy, behavior)[1])


def cheating_server_state(a_gate: np.ndarray, b_gate: np.ndarray,
                          phi: QuantumState, alpha: complex, beta: complex
                          ) -> QuantumState:
    """State the cheating server holds when it skips its local measurement.

    Simulates the one-control circuit step by step: EPR-conditioned A/B,
    the client's control preparation, CNOT, Hadamard, then the client's
    (0,0) postselection.  Returns alpha |0> A|phi> + beta |1> B|phi> on
    the server's qubit plus register.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise InvalidInputError("control amplitudes must be normalized")
    d = phi.total_dim
    a_gate = np.asarray(a_gate, dtype=complex)
    b_gate = np.asarray(b_gate, dtype=complex)
    # qubit 1 (client local), qubits 2,3 (EPR halves), register
    st = tensor(basis_state((2,), (0,)), epr_pair(), phi)
    cond = np.kron(np.diag([1.0, 0.0]), a_gate) + np.kron(np.diag([0.0, 1.0]), b_gate)
    st = apply_to_subsystems(st, cond, [2, 3])
    prep = np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])
    st = apply_to_subsystems(st, prep, [0])
    outcome = teleport_postselected(st, 0, (1, 2))
    if outcome.empty:
        raise InvalidInputError("client postselection has zero probability")
    return outcome.remainder


def schmidt_rank(state: QuantumState, cut: int = 1, tol: float = 1e-10) -> int:
    """Number of significant singular values across the bipartition after
    the first ``cut`` subsystems."""
    left = int(np.prod(state.dims[:cut]))
    right = state.total_dim // left
    svals = np.linalg.svd(state.data.reshape(left, right), compute_uv=False)
    return int(np.sum(svals > tol))


@dataclass(frozen=True)
class WitnessReport:
    """Inner-product witness against a cloning map U_s.

    A nonzero difference between the overlap of the server-held states
    and the overlap of the states the server would need to produce
    certifies that no single isometry performs the extraction.
    """

    observed_overlap: float
    expected_overlap: float
    vacuous: bool

    @property
    def difference(self) -> float:
        return abs(self.observed_overlap - self.expected_overlap)


def no_cloning_witness(a_gate: np.ndarray, b_gate: np.ndarray,
                       phi: QuantumState, control_1, control_2) -> WitnessReport:
    """Compare overlaps of held vs required states for two control choices."""
    def held(c):
        return cheating_server_state(a_gate, b_gate, phi, c[0], c[1]).data

    def required(c):
        comb = (c[0] * np.asarray(a_gate) + c[1] * np.asarray(b_gate)) @ phi.data
        norm = np.linalg.norm(comb)
        if norm <= 1e-300:
            raise InvalidInputError(
                "the combination c_1 A + c_2 B vanishes on phi: there is no "
                "state to require")
        return np.kron(np.array([c[0], c[1]]), comb / norm)

    c1 = np.asarray(control_1, dtype=complex)
    c2 = np.asarray(control_2, dtype=complex)
    obs = abs(np.vdot(held(c1), held(c2)))
    exp = abs(np.vdot(required(c1), required(c2)))
    vacuous = bool(abs(np.vdot(c1, c2)) < 1e-12)
    return WitnessReport(float(obs), float(exp), vacuous)


def success_probability_account(spec: LinearCombinationSpec,
                                include_input_teleport: bool = False) -> float:
    """Analytic whole-scheme success probability for a unitary target.

    1/n for the LCC, 1/4 per postselected control-qubit teleport, 1/d^2
    for the input teleport when used, and factor 1 for the corrected
    output teleport.
    """
    p = (1.0 / spec.n) * (0.25 ** spec.k)
    if include_input_teleport:
        p /= float(spec.d) ** 2
    return p


def monte_carlo_success(spec: LinearCombinationSpec, input_state: QuantumState,
                        trials: int, rng: np.random.Generator,
                        include_input_teleport: bool = False) -> float:
    """Empirical whole-scheme success rate over independent protocol attempts.

    Each trial samples every postselection stage once: the input
    teleport (one generalized Bell outcome of d^2), one LCC attempt, and
    the control-qubit teleports.  The LCC and control stages come from
    the exact simulation, not from the analytic account being tested.
    The input must be a normalized statevector (within 1e-9), ``trials``
    at least 1, and the LCC stage's success probability S / n^2 at most
    1, as in `run_session`.
    """
    if trials < 1:
        raise InvalidInputError("trials must be at least 1")
    _check_input(spec, input_state)
    p_lcc, _, _, (p_complete,) = _teleport_stage(spec, input_state,
                                                  spec.coefficients[None])
    ok = rng.random(trials) < p_lcc
    ok &= rng.random(trials) < p_complete
    if include_input_teleport:
        ok &= rng.random(trials) < 1.0 / spec.d ** 2
    return float(np.mean(ok))


def verify_decoy_identity(rho: np.ndarray, epsilon: float, tau: float | None = None
                          ) -> float:
    """Max deviation of the decoy (and optional verify-state) mixture from I/n."""
    n = rho.shape[0]
    rho_m = make_decoy(rho, n, epsilon)
    mix = (epsilon / (1 + epsilon)) * rho + (1 / (1 + epsilon)) * rho_m
    if tau is not None:
        mix = tau * mix + ((1 - tau) / n) * np.eye(n)
    return float(np.abs(mix - np.eye(n) / n).max())
