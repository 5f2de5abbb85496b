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
`_session_law`, the one model of the server, returns the session's
`SessionLaw`: each (sent state, server outcome) cell with its exact
probability, and from them the exact completion and detection rates.
`run_session` draws each round's cell once.  One rule, `_Cell.audit`,
decides which cells can be detected: the intercepted verify cells, so a
server that does not intercept is never flagged.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qcore
from .lcc import LinearCombinationSpec, _check_input
from .qcore import (HADAMARD, ID2, InvalidInputError, QuantumState,
                    apply_to_subsystems, array, basis_state, integer,
                    measure_postselect, real, statevector, tensor)

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


_NOT_A_DENSITY_MATRIX = ("control state is not a density matrix: it must "
                         "be Hermitian and positive semidefinite with trace 1")


def _decoy_rule(rho, n: int, epsilon: float) -> tuple:
    """Check a control ``rho`` of n terms and its ``epsilon``, in this
    order: the shape, eps (`qcore.real`, then its range), rho's
    finiteness, then the decoy's positivity; rho goes through
    `qcore.array` and n through `qcore.integer` first.

    Returns rho as a complex array, the decoy's coefficients (a, b) in
    rho_m = a I - b rho, and one eigendecomposition of rho: lambda in
    ascending order, its eigenvectors, and the decoy weights a - b lambda
    in reverse order, so ascending.  At n = 1 the decoy is [[1]] for any
    finite eps > 0: (a, b) = (1, 0), where the formula's (1+eps) - eps rho
    reads 0 from eps = 1e16 on.
    """
    rho = array(rho, "rho")
    n = integer(n, "n")
    if n < 1:
        raise InvalidInputError("control state must be at least 1x1")
    if rho.shape != (n, n):
        raise InvalidInputError(f"control state must be {n}x{n}")
    epsilon = real(epsilon, "epsilon")
    if n == 1:
        if not epsilon > 0.0:
            raise InvalidInputError("epsilon must be positive")
        if epsilon == math.inf:
            raise InvalidInputError("epsilon must be finite")
        a, b = 1.0, 0.0
    elif 0.0 < epsilon <= 1.0 / (n - 1):
        a, b = (1.0 + epsilon) / n, epsilon
    else:
        raise InvalidInputError(
            f"epsilon must lie in (0, 1/(n-1)] = (0, {1.0 / (n - 1)}]")
    if not np.isfinite(rho).all():
        raise InvalidInputError(_NOT_A_DENSITY_MATRIX)
    lam, vecs = np.linalg.eigh(rho)
    decoy = a - b * lam[::-1]
    if decoy[0] < -qcore.ATOL_STRUCT:
        raise InvalidInputError("decoy state is not positive semidefinite")
    return rho, (a, b), lam, vecs, decoy


def make_decoy(rho: np.ndarray, n: int, epsilon: float) -> np.ndarray:
    """Decoy state rho_m = ((1+eps)/n) I - eps rho.

    Mixing the control with its decoy at odds eps : 1 yields the
    maximally mixed state, hiding the control from the server.  Any
    finite eps > 0 is valid for n = 1, where the decoy is [[1]].
    """
    rho, (a, b), _, _, _ = _decoy_rule(rho, n, epsilon)
    return a * np.eye(n) - b * rho


@dataclass(frozen=True, eq=False)
class SendPolicy:
    """Per-round sending distribution over control, decoy, and verify states.

    ``control_rho`` must be a density matrix: Hermitian and positive
    semidefinite to ATOL_STRUCT, with trace 1 to within 1e-9.  The policy
    keeps a read-only copy of it.  One eigendecomposition of it checks the
    control and its decoy and gives the `outcome_table`, which the policy
    builds once and holds.
    """

    epsilon: float
    tau: float
    control_rho: np.ndarray = field(repr=False)
    _table: tuple[tuple, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        rho = array(self.control_rho, "control_rho").copy()
        rho.setflags(write=False)
        object.__setattr__(self, "control_rho", rho)
        if not 0.0 < real(self.tau, "tau") < 1.0:
            raise InvalidInputError("tau must lie in (0,1)")
        # `n` reads the first axis, which a 0-d control lacks
        if rho.ndim == 0:
            raise InvalidInputError("control state must be a matrix")
        _, _, lam, vecs, decoy = _decoy_rule(rho, self.n, self.epsilon)
        if not (np.abs(rho - rho.conj().T).max() <= qcore.ATOL_STRUCT
                and abs(np.trace(rho) - 1.0) <= 1e-9
                and lam[0] >= -qcore.ATOL_STRUCT):
            raise InvalidInputError(_NOT_A_DENSITY_MATRIX)
        entries, probs = [], []
        vecs.setflags(write=False)
        for kind, p_kind, weights, states in (
                ("compute", self.p_control, lam, vecs.T),
                ("decoy", self.p_decoy, decoy, vecs.T[::-1])):
            # a weight at rounding-noise scale is zero, so that a zero
            # weight computed as 1e-17 does not send its state
            cut = len(weights) * np.finfo(float).eps * np.abs(weights).max()
            weights = np.where(weights > cut, weights, 0.0)
            for w, vec in zip(weights / weights.sum(), states):
                if w > 0:
                    entries.append((kind, vec))
                    probs.append(p_kind * w)
        eye = np.eye(self.n, dtype=complex)
        eye.setflags(write=False)
        entries += [(("verify", i), eye[:, i]) for i in range(self.n)]
        probs += [self.p_basis] * self.n
        probs = np.array(probs)
        probs.setflags(write=False)
        object.__setattr__(self, "_table", (tuple(entries), probs))

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

    def outcome_table(self) -> tuple[tuple, np.ndarray]:
        """All (label, pure state) outcomes of one round with probabilities,
        built once with the policy; every array in it is read-only.

        One eigendecomposition of the control rho gives both kinds: the
        decoy ((1+eps)/n) I - eps rho has rho's eigenvectors, with
        weights (1+eps)/n - eps lambda, listed in ascending weight.  A
        weight at rounding-noise scale is zero, and a zero-weight state
        is not listed.  At n = 1 the decoy is [[1]], of weight 1 for any
        eps, where the formula would read (1+eps) - eps = 0 at eps = 1e16.
        """
        return self._table


def empirical_server_average(policy: SendPolicy, samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Average density matrix the server sees over ``samples`` (at least 1)
    sampled rounds."""
    samples = integer(samples, "samples")
    if samples < 1:
        raise InvalidInputError("samples must be at least 1")
    entries, probs = policy.outcome_table()
    vecs = np.array([vec for _, vec in entries])
    # column e of vecs.T is entry e, weighted by its share of the samples
    return (vecs.T * (rng.multinomial(samples, probs) / samples)) @ vecs.conj()


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
            raise InvalidInputError(
                f"unknown server mode {reprlib.repr(self.mode)}")
        if not 0.0 <= real(self.intercept_fraction,
                             "intercept_fraction") <= 1.0:
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

    @property
    def audit(self) -> float:
        """A completed round here is detected when its uniform draw
        exceeds this: F for an intercepted verify cell with a fidelity,
        inf (never) for every other cell."""
        return (self.fidelity if self.kind == "verify" and self.intercepted
                and self.fidelity is not None else math.inf)


class SessionLaw(NamedTuple):
    """A round's exact law (`_session_law`): the LCC stage's success
    probability p_lcc and every (sent state, server outcome) cell."""

    p_lcc: float
    cells: tuple[_Cell, ...]

    @property
    def completion(self) -> float:
        """The probability that a round completes: sum of q p_complete."""
        return math.fsum(c.q * c.p_complete for c in self.cells)

    @property
    def detection_rate(self) -> float:
        """The probability that a round is detected: sum of
        q p_complete (1 - F) over the cells `_Cell.audit` can flag."""
        return math.fsum(c.q * c.p_complete * (1.0 - c.audit)
                         for c in self.cells if c.audit < math.inf)


# a transcript's line table may hold this many keys beyond one per round
# (`ProtocolTranscript._line_pairs`)
_DENSE_SLACK = 4096


def _decimal_labels(total: int) -> list[str]:
    """``[str(r) for r in range(total)]``, built a digit at a time: the
    label of r >= 10 is the label of r // 10 with r's last digit
    appended, and one string concatenation costs about two thirds of a
    formatted integer."""
    labels = list("0123456789"[:total])
    start = 1  # labels[start:end] get a digit appended next
    while len(labels) < total:
        end = len(labels)
        prefixes = labels[start:min(end, start + (total - end + 9) // 10)]
        labels += [p + d for p in prefixes for d in "0123456789"]
        start = end
    del labels[total:]
    return labels


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """One session stored by column: round r fell in
    ``law.cells[cell[r]]``, took ``lcc_retries[r]`` LCC attempts, and
    completed and was detected as ``completed[r]`` and ``detected[r]``
    say."""

    law: SessionLaw
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
        total, cells = len(self.cell), self.law.cells
        kinds = {}
        for c, count in zip(cells, np.bincount(
                self.cell, minlength=len(cells)).tolist()):
            if count:
                kinds[c.kind] = kinds.get(c.kind, 0) + count
        compute_fidelity = np.array([
            c.fidelity if c.kind == "compute" and c.fidelity is not None
            else np.nan for c in cells])
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

    def _line_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (3 cell + outcome, retry count) pairs that occur, in
        ascending order, as two arrays, and each line's index into them.

        While the table of every key 3 cell + outcome and retry count
        below top = max count + 1 is no larger than the round count plus
        `_DENSE_SLACK`, the pairs are read off a presence table, with no
        sort.  Larger counts (p_lcc near 0) are ranked by `np.unique`
        first, so that the key stays below 3 cells * rounds and the
        memory follows the round count, not the largest count.
        """
        outcome = 3 * self.cell + self.completed + self.detected
        top = int(self.lcc_retries.max()) + 1 if len(self.cell) else 1
        size = 3 * len(self.law.cells) * top
        if size <= len(self.cell) + _DENSE_SLACK:
            key = outcome * top + self.lcc_retries
            seen = np.zeros(size, dtype=bool)
            seen[key] = True
            pairs = np.flatnonzero(seen)
            index = np.empty(size, dtype=np.intp)
            index[pairs] = np.arange(len(pairs))
            cell_outcome, retry = np.divmod(pairs, top)
            return cell_outcome, retry, index[key]
        retries, rank = np.unique(self.lcc_retries, return_inverse=True)
        pairs, keys = np.unique(outcome * len(retries) + rank,
                                return_inverse=True)
        cell_outcome, retry = np.divmod(pairs, len(retries))
        return cell_outcome, retries[retry], keys

    def to_text(self) -> str:
        # after "round=<r>", a line is fixed by its cell, its outcome
        # (0 failed, 1 completed, 2 completed and detected) and its LCC
        # retry count: one tail per pair that occurs, ending in the next
        # line's "round=", and one array gather picks every line's tail.
        # `_line_pairs` keys the pairs with a presence table, or with a
        # sort when the retry counts are too large for one; both give
        # the pairs in the same order
        heads, ends = [], []
        for c in self.law.cells:
            vi = "-" if c.verify_index is None else c.verify_index
            heads.append(f" kind={c.kind} verify_index={vi} "
                         f"intercepted={int(c.intercepted)} lcc_retries=")
            fid = "-" if c.fidelity is None else f"{c.fidelity:.12f}"
            ends += [" completed=0 fidelity=- detected=0\nround=",
                     f" completed=1 fidelity={fid} detected=0\nround=",
                     f" completed=1 fidelity={fid} detected=1\nround="]
        cell_outcome, retry, keys = self._line_pairs()
        tails = [heads[o // 3] + str(k) + ends[o] for o, k in zip(
            cell_outcome.tolist(), retry.tolist())]
        total = len(self.cell)
        parts = [None] * (2 * total)
        parts[::2] = _decimal_labels(total)
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
        t, cells = self._t, self._t.law.cells
        for r, (cell, retries, completed, detected) in enumerate(zip(
                t.cell.tolist(), t.lcc_retries.tolist(), t.completed.tolist(),
                t.detected.tolist())):
            c = cells[cell]
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
        terms = spec.gates @ input_state.data
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
                 policy: SendPolicy, behavior: ServerBehavior) -> SessionLaw:
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
    # the k-qubit product basis the server measures in, one state per
    # column; with no control qubit (n = 1) it is [[1]]
    single = ID2 if skip or behavior.intercept_basis == "z" else HADAMARD
    basis_vecs = functools.reduce(np.kron, [single] * spec.k
                                  or [np.eye(1, dtype=complex)])
    # output rows: each sendable state's own, then intercept outcome m's
    p_lcc, expected, outputs, p_out = _teleport_stage(
        spec, input_state, np.concatenate([sent, basis_vecs.T]))
    target = spec.combination() @ input_state.data
    norm = np.linalg.norm(target)
    target = target / norm if norm > 1e-300 else None
    f = 1.0 if skip else behavior.intercept_fraction * (behavior.mode == "intercept")
    # the cells are filled from Python floats: the same IEEE products and
    # powers as numpy scalars give, without a numpy scalar per operation
    probs = (np.abs(sent @ basis_vecs.conj()) ** 2).tolist()
    send_probs, p_out = send_probs.tolist(), p_out.tolist()
    cells = []
    for e, (label, _) in enumerate(entries):
        kind = label if isinstance(label, str) else label[0]
        verify_index = label[1] if kind == "verify" else None
        ref = (expected[verify_index] if kind == "verify"
               else target if kind == "compute" else None)
        if ref is not None and not ref.any():  # V_i annihilates the input
            ref = None
        p_send, p_basis = send_probs[e], probs[e]
        for m, row in enumerate([e, *range(len(entries), len(entries) + spec.n)]):
            # rounding can carry |<ref|out>|^2 just past 1; a vdot per
            # cell, since a batched overlap rounds differently
            fidelity = (None if ref is None
                        else min(1.0, abs(np.vdot(ref, outputs[row]).item()) ** 2))
            q = p_send * f * p_basis[m - 1] if m else p_send * (1.0 - f)
            cells.append(_Cell(kind, verify_index, m > 0 and not skip, fidelity,
                               q, p_out[row]))
    return SessionLaw(p_lcc, tuple(cells))


# a session holds its draws and its transcript text in memory, about
# 0.23 KB a round at its peak (0.1 KB of text; tracemalloc at 10^5 and
# 4 * 10^5 rounds), so about 2.3 GB at this bound; the line table of
# `ProtocolTranscript.to_text` is freed before the text is joined
MAX_ROUNDS = 10 ** 7


def run_session(spec: LinearCombinationSpec, input_state: QuantumState,
                policy: SendPolicy, behavior: ServerBehavior, rounds: int,
                rng: np.random.Generator) -> ProtocolTranscript:
    """Simulate a session of protocol runs: one draw per round picks its
    (sent state, server outcome) cell from `_session_law`.

    Every run: the client samples what to send, the server's LCC stage
    retries geometrically until its all-zero outcome, the server measures
    the control or not, and the client's postselected control
    teleportation either completes the run or fails it.  Verify rounds
    audit the output against V_i |psi> with a single-shot check, which
    flags only a round the server intercepted (`_Cell.audit`).  The
    input must be a normalized statevector (within 1e-9), and the LCC
    stage's success probability S / n^2 at most 1 (see `_teleport_stage`),
    and ``rounds`` an integer from 0 to `MAX_ROUNDS`.
    """
    rounds = integer(rounds, "rounds")
    if rounds < 0:
        raise InvalidInputError(f"rounds must be at least 0, got {rounds}")
    if rounds > MAX_ROUNDS:
        raise InvalidInputError(
            f"rounds must be at most {MAX_ROUNDS}, got {rounds}")
    law = _session_law(spec, input_state, policy, behavior)
    cells = law.cells
    cell = rng.choice(len(cells), size=rounds, p=[c.q for c in cells])
    retries = (rng.geometric(law.p_lcc, size=rounds) if law.p_lcc > 0
               else np.zeros(rounds, dtype=int))
    u_complete, u_detect = rng.random(rounds), rng.random(rounds)
    completed = u_complete < np.array([c.p_complete for c in cells])[cell]
    detected = completed & (u_detect > np.array([c.audit for c in cells])[cell])
    return ProtocolTranscript(law, cell, retries, completed, detected)


def intercept_detection_rate(spec: LinearCombinationSpec,
                             input_state: QuantumState, policy: SendPolicy,
                             behavior: ServerBehavior) -> float:
    """Exact per-run detection probability under the intercept attack:
    the expectation of a `run_session` round's ``detected`` flag, which
    is `SessionLaw.detection_rate`.

    It sums q p_complete (1 - F) over `_session_law`'s intercepted verify
    cells, F = |<V_i psi|out_m>|^2: compute and decoy rounds, and verify
    rounds whose V_i annihilates the input, are never detected.  Without
    an intercepting server no cell is intercepted, so the rate is exactly
    0.  A transcript's ``law.detection_rate`` is the same number.
    """
    return _session_law(spec, input_state, policy, behavior).detection_rate


def cheating_server_state(a_gate: np.ndarray, b_gate: np.ndarray,
                          phi: QuantumState, alpha: complex, beta: complex
                          ) -> QuantumState:
    """State the cheating server holds when it skips its local measurement.

    Simulates the one-control circuit step by step: EPR-conditioned A/B,
    the client's control preparation, CNOT, Hadamard, then the client's
    (0,0) postselection.  Returns alpha |0> A|phi> + beta |1> B|phi> on
    the server's qubit plus register.  A and B must be d x d, d the
    dimension of phi, and alpha and beta numbers.
    """
    a_gate, b_gate = array(a_gate, "a_gate"), array(b_gate, "b_gate")
    alpha, beta = array(alpha, "alpha"), array(beta, "beta")
    if alpha.ndim or beta.ndim:
        raise InvalidInputError("control amplitudes must be numbers")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise InvalidInputError("control amplitudes must be normalized")
    d = phi.total_dim
    if a_gate.shape != (d, d) or b_gate.shape != (d, d):
        raise qcore.DimensionMismatchError(
            f"gates A and B must be {d}x{d}, as phi is {d}-dim")
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


def schmidt_rank(state: QuantumState) -> int:
    """Number of singular values above 1e-10 across the bipartition after
    the first subsystem."""
    left = int(np.prod(state.dims[:1]))
    right = state.total_dim // left
    svals = np.linalg.svd(state.data.reshape(left, right), compute_uv=False)
    return int(np.sum(svals > 1e-10))


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
    """Compare overlaps of held vs required states for two control choices,
    each a pair of amplitudes."""
    a_gate, b_gate = array(a_gate, "a_gate"), array(b_gate, "b_gate")

    def held(c):
        return cheating_server_state(a_gate, b_gate, phi, c[0], c[1]).data

    def required(c):
        comb = (c[0] * a_gate + c[1] * b_gate) @ phi.data
        norm = np.linalg.norm(comb)
        if norm <= 1e-300:
            raise InvalidInputError(
                "the combination c_1 A + c_2 B vanishes on phi: there is no "
                "state to require")
        return np.kron(np.array([c[0], c[1]]), comb / norm)

    c1, c2 = array(control_1, "control_1"), array(control_2, "control_2")
    if c1.shape != (2,) or c2.shape != (2,):
        raise InvalidInputError("each control must be a pair of amplitudes")
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
    trials = integer(trials, "trials")
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
    rho = array(rho, "rho")
    if rho.ndim != 2:
        raise InvalidInputError("control state must be a matrix")
    n = rho.shape[0]
    rho_m = make_decoy(rho, n, epsilon)
    mix = (epsilon / (1 + epsilon)) * rho + (1 / (1 + epsilon)) * rho_m
    if tau is not None:
        tau = real(tau, "tau")
        mix = tau * mix + ((1 - tau) / n) * np.eye(n)
    return float(np.abs(mix - np.eye(n) / n).max())
