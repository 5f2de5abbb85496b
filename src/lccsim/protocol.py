"""Client-server remote-control protocol: teleportation, decoys, verification.

The session model follows the measured protocol order: the server runs
the linear-combination circuit on its EPR halves until the all-zero
outcome lands, then the client teleports the k-qubit control state with
postselected Bell measurements (probability 1/4 per qubit).  A verify
round sends a basis state |i> so that only component V_i acts, and the
client audits the returned state with a single-shot projective check
(detection probability 1 - fidelity).

An intercepting server measures each control qubit in a fixed basis
before use.  Verification states are computational-basis states, so a
computational-basis intercept is invisible to the client; the default
attack basis is therefore the diagonal (Hadamard) one, the simplest
measurement that actually randomizes verify outcomes.
"""

from __future__ import annotations

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


def _decoy(rho: np.ndarray, epsilon: float) -> np.ndarray:
    n = rho.shape[0]
    return ((1.0 + epsilon) / n) * np.eye(n) - epsilon * rho


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
    rho_m = _decoy(rho, epsilon)
    evals = np.linalg.eigvalsh(rho_m)
    if evals.min() < -qcore.ATOL_STRUCT:
        raise InvalidInputError("decoy state is not positive semidefinite")
    return rho_m


@dataclass(frozen=True, eq=False)
class SendPolicy:
    """Per-round sending distribution over control, decoy, and verify states."""

    epsilon: float
    tau: float
    control_rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.control_rho, dtype=complex)
        object.__setattr__(self, "control_rho", rho)
        if not 0.0 < self.tau < 1.0:
            raise InvalidInputError("tau must lie in (0,1)")
        make_decoy(rho, self.n, self.epsilon)  # validates epsilon and PSD

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

    def decoy_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenstates of the decoy, with the phase of each
        eigenvector fixed so its first nonzero component is real positive.
        `__post_init__` has already checked that the decoy is valid."""
        evals, evecs = np.linalg.eigh(_decoy(self.control_rho, self.epsilon))
        evals = np.clip(evals, 0.0, None)
        for j in range(evecs.shape[1]):
            col = evecs[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12)[0]
            evecs[:, j] = col * np.exp(-1j * np.angle(col[nz]))
        return evals / evals.sum(), evecs

    def control_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        evals, evecs = np.linalg.eigh(self.control_rho)
        evals = np.clip(evals, 0.0, None)
        return evals / evals.sum(), evecs

    def outcome_table(self) -> tuple[list, np.ndarray]:
        """All (label, pure state) outcomes of one round with probabilities."""
        entries = []
        probs = []
        cw, cv = self.control_spectrum()
        for j, w in enumerate(cw):
            if w > 0:
                entries.append(("compute", cv[:, j]))
                probs.append(self.p_control * w)
        dw, dv = self.decoy_spectrum()
        for j, w in enumerate(dw):
            if w > 0:
                entries.append(("decoy", dv[:, j]))
                probs.append(self.p_decoy * w)
        eye = np.eye(self.n, dtype=complex)
        for i in range(self.n):
            entries.append((("verify", i), eye[:, i]))
            probs.append(self.p_basis)
        return entries, np.array(probs)


def empirical_server_average(policy: SendPolicy, samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Average density matrix the server sees over many sampled rounds."""
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
    ``intercept_fraction`` of rounds, and the fraction acts in no other
    mode.  'skip_measurement' is not modelled by `run_session`: its
    transcript equals the honest one, and its effect is modelled only by
    `cheating_server_state` and `no_cloning_witness`.
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


def _lcc_stage(spec: LinearCombinationSpec, input_state: QuantumState
               ) -> tuple[float, list[np.ndarray | None]]:
    """LCC-stage success probability and each normalized V_i psi (None
    where V_i annihilates psi).

    The server's control is its EPR halves, so the LCC stage sees the
    uniform mixture of the n subspaces: p_lcc = sum_i |V_i psi|^2 / n^2.
    """
    psi = input_state.data
    outputs = [g @ psi for g in spec.gates]
    p_lcc = sum(float(np.vdot(v, v).real) for v in outputs) / spec.n ** 2
    normalized = []
    for v in outputs:
        nv = np.linalg.norm(v)
        normalized.append(v / nv if nv > 1e-300 else None)
    return p_lcc, normalized


def _control_outputs(spec: LinearCombinationSpec, input_state: QuantumState,
                     control: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Postselected output vector and teleport-stage success probability
    for a given pure control state (server already past the LCC stage)."""
    w = np.zeros(spec.d, dtype=complex)
    for c, g in zip(control, spec.gates):
        w += c * (g @ input_state.data)
    nrm2 = float(np.vdot(w, w).real)
    p_teleport = nrm2 / (4.0 ** spec.k)
    if nrm2 <= 1e-300:
        return None, 0.0
    return w / math.sqrt(nrm2), p_teleport


def _intercept_outcomes(spec: LinearCombinationSpec, input_state: QuantumState,
                        basis: str) -> tuple[np.ndarray, list]:
    """Intercept basis states on the k-qubit control register (columns)
    and the `_control_outputs` result of each intercept outcome."""
    single = HADAMARD if basis == "x" else np.eye(2, dtype=complex)
    basis_vecs = np.eye(1, dtype=complex)
    for _ in range(spec.k):
        basis_vecs = np.kron(basis_vecs, single)
    return basis_vecs, [_control_outputs(spec, input_state, basis_vecs[:, m])
                        for m in range(spec.n)]


def run_session(spec: LinearCombinationSpec, input_state: QuantumState,
                policy: SendPolicy, behavior: ServerBehavior, rounds: int,
                rng: np.random.Generator) -> ProtocolTranscript:
    """Simulate a session of protocol runs.

    Every run: the client samples what to send, the server's LCC stage
    retries geometrically until its all-zero outcome, an intercepting
    server measures the control, and the client's postselected control
    teleportation either completes the run or fails it.  Verify rounds
    audit the output against V_i |psi> with a single-shot check.  The
    input must be a normalized statevector (within 1e-9).
    """
    if policy.n != spec.n:
        raise qcore.DimensionMismatchError(
            f"policy dimension {policy.n} != spec term count {spec.n}")
    _check_input(spec, input_state)

    p_lcc, expected = _lcc_stage(spec, input_state)
    basis_vecs, intercept_results = _intercept_outcomes(
        spec, input_state, behavior.intercept_basis)
    target = spec.combination() @ input_state.data
    norm = np.linalg.norm(target)
    target = target / norm if norm > 1e-300 else None

    # one cell per (sendable state, server outcome): entry e owns cells
    # e*(n+1) (honest server) and e*(n+1) + 1 + m (intercept outcome m)
    entries, send_probs = policy.outcome_table()
    cells, p_teleport, audit, cdfs = [], [], [], []
    for label, vec in entries:
        kind = label if isinstance(label, str) else label[0]
        verify_index = label[1] if kind == "verify" else None
        ref = (expected[verify_index] if kind == "verify"
               else target if kind == "compute" else None)
        probs = np.abs(basis_vecs.conj().T @ vec) ** 2
        cdf = np.cumsum(probs / probs.sum())
        # rounding must not let a draw fall past the last possible outcome
        cdf[np.flatnonzero(probs)[-1]:] = 1.0
        cdfs.append(cdf)
        outcomes = [_control_outputs(spec, input_state, vec)] + intercept_results
        for m, (out, p) in enumerate(outcomes):
            fidelity = (None if ref is None or out is None
                        else float(abs(np.vdot(ref, out)) ** 2))
            cells.append(_Cell(kind, verify_index, m > 0, fidelity))
            p_teleport.append(p)
            # a completed verify round is detected when its draw exceeds
            # the fidelity; no other round ever is
            audit.append(fidelity if kind == "verify" and fidelity is not None
                         else np.inf)

    idx = rng.choice(len(entries), size=rounds, p=send_probs)
    retries = (rng.geometric(p_lcc, size=rounds) if p_lcc > 0
               else np.zeros(rounds, dtype=int))
    intercepted = (rng.random(rounds) < behavior.intercept_fraction
                   if behavior.mode == "intercept" else np.zeros(rounds, dtype=bool))
    u_basis = rng.random(rounds)
    u_complete = rng.random(rounds)
    u_detect = rng.random(rounds)

    cell = idx * (spec.n + 1)
    # an intercept outcome is the number of its CDF's entries below the
    # draw, as np.searchsorted(cdf, u) counts them, ties included
    rows = np.flatnonzero(intercepted)
    cell[rows] += 1 + (np.array(cdfs)[idx[rows]] < u_basis[rows, None]).sum(1)
    completed = (u_complete < np.array(p_teleport)[cell]) & (p_lcc > 0)
    detected = completed & (u_detect > np.array(audit)[cell])
    return ProtocolTranscript(tuple(cells), cell, retries, completed, detected)


def intercept_detection_rate(spec: LinearCombinationSpec,
                             input_state: QuantumState, policy: SendPolicy,
                             behavior: ServerBehavior) -> float:
    """Exact per-run detection probability under the intercept attack.

    Enumerates verify states |i>, intercept outcomes m, and the
    completion and single-shot check probabilities; compute and decoy
    rounds never trigger detection, nor do verify rounds whose V_i
    annihilates the input (there is no state to check against).  A
    server that does not intercept is never detected: the rate is 0.
    The input must be a normalized statevector (within 1e-9).
    """
    _check_input(spec, input_state)
    if behavior.mode != "intercept":
        return 0.0
    _, expected = _lcc_stage(spec, input_state)
    basis_vecs, intercept_results = _intercept_outcomes(
        spec, input_state, behavior.intercept_basis)
    rate = 0.0
    for i, vi in enumerate(expected):
        if vi is None:
            continue
        for m, (out, p_teleport) in enumerate(intercept_results):
            p_m = float(abs(basis_vecs[i, m].conjugate()) ** 2)
            if p_m == 0.0 or out is None:
                continue
            miss = 1.0 - float(abs(np.vdot(vi, out)) ** 2)
            rate += policy.p_basis * behavior.intercept_fraction * p_m * p_teleport * miss
    return rate


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
        comb = comb / np.linalg.norm(comb)
        return np.kron(np.array([c[0], c[1]]), comb)

    c1 = np.asarray(control_1, dtype=complex)
    c2 = np.asarray(control_2, dtype=complex)
    obs = abs(np.vdot(held(c1), held(c2)))
    exp = abs(np.vdot(required(c1), required(c2)))
    vacuous = abs(np.vdot(c1, c2)) < 1e-12
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
    The input must be a normalized statevector (within 1e-9).
    """
    _check_input(spec, input_state)
    p_lcc, _ = _lcc_stage(spec, input_state)
    _, p_teleport = _control_outputs(spec, input_state, spec.coefficients)
    ok = rng.random(trials) < p_lcc
    ok &= rng.random(trials) < p_teleport
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
