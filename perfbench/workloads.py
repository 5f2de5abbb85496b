"""The benchmark's four seeded workloads: inputs, tasks and correctness checks.

Every input is generated here with numpy from the workload seed, so the
inputs do not change when lccsim changes; the program only receives them.
A task's `call` holds the timed calls into lccsim.  Its `inspect` runs
afterwards, untimed: it turns the result into a plain output record and
checks it against a reference computed here, independently of the code
under test.  A record's "counts" are work counts that repeat exactly for
a given seed.

Inputs on which the seed's lccsim is known to fail are tagged with the
defect (``Task.known_defect``).  They are generated with the rest, so the
other inputs of a seed do not depend on them, but they stay out of the
timed deck: the benchmark runs them once per run, untimed, and reports
what they did (see run.py).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from lccsim import cli, gates, kak, lcc, qcore, tomography

TOL_STATE = 1e-8  # phase-aligned distance between unit vectors
TOL_PROB = 1e-10

REGISTRY = tuple(f"U{i}" for i in range(1, 13))


@dataclass
class Task:
    label: str
    call: Callable[[], Any]
    # result -> (output record, None or the reason the check failed)
    inspect: Callable[[Any], tuple[dict, str | None]]
    known_defect: str = ""  # the seed's defect this input triggers, if any
    # result -> digest of the whole output, where checking costs far more
    # than hashing; a repeated output reuses its first check (``checked``)
    fingerprint: Callable[[Any], str] | None = None
    checked: dict = field(default_factory=dict)


def build(workload: str, seed: int, workdir: Path,
          smoke: bool = False) -> tuple[list[Task], list[Task]]:
    """One pass ("deck") of the workload's tasks, in a seeded order, and
    the inputs held out of it as known defects of the seed.

    ``smoke`` keeps a few cheap tasks of each kind, for the self-test.
    """
    rng = np.random.default_rng(seed)
    builders = {"lcc_grid": _lcc_grid, "kak_compile": _kak_compile,
                "tomography_mle": _tomography_mle, "cli_sessions": _cli_sessions}
    tasks = builders[workload](rng, workdir, smoke)
    tasks = [tasks[i] for i in rng.permutation(len(tasks))]
    return ([t for t in tasks if not t.known_defect],
            [t for t in tasks if t.known_defect])


# -- shared helpers ------------------------------------------------------------

def _unit_vector(d: int, rng) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _haar(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _phase_distance(a, b) -> float:
    """min over phi of ||a - e^{i phi} b||."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


def _combination(coefficients, gate_list, psi) -> np.ndarray:
    out = np.zeros(len(psi), dtype=complex)
    for a, g in zip(coefficients, gate_list):
        out += a * (np.asarray(g) @ psi)
    return out


def _check_circuit(result, ref_unit, p_expected, form) -> str | None:
    if not result.success or result.output_state is None:
        return f"{form} form did not succeed"
    dist = _phase_distance(result.output_state.data, ref_unit)
    if dist > TOL_STATE:
        return f"{form} form output off by {dist:.2e}"
    if abs(result.success_probability - p_expected) > TOL_PROB:
        return (f"{form} form success probability {result.success_probability!r}"
                f" != {p_expected!r}")
    return None


# -- lcc_grid --------------------------------------------------------------------

# (n, d) -> Haar-random specs per deck.  With the 12 registry tasks, 36 of
# the 52 tasks are small, so the median is a small circuit; the 16 at n>=16
# hold most of the time and memory, and the p75 tail lands inside the
# n=16,d=2 group.
LCC_CELLS = {(2, 2): 4, (4, 2): 4, (8, 2): 4, (2, 4): 4, (4, 4): 4, (8, 4): 4,
             (16, 2): 10, (16, 4): 5, (32, 2): 1}
SMOKE_LCC_CELLS = {(2, 2): 1, (4, 2): 1, (2, 4): 1}


def _lcc_grid(rng, workdir, smoke):
    tasks = [_lcc_task(name, gates.combination_spec(name), _unit_vector(2, rng))
             for name in (REGISTRY[:2] if smoke else REGISTRY)]
    for (n, d), count in (SMOKE_LCC_CELLS if smoke else LCC_CELLS).items():
        for _ in range(count):
            spec = lcc.LinearCombinationSpec(
                _unit_vector(n, rng), tuple(_haar(d, rng) for _ in range(n)))
            tasks.append(_lcc_task(f"n{n}d{d}", spec, _unit_vector(d, rng)))
    return tasks


def _lcc_task(label, spec, psi_vec) -> Task:
    psi = qcore.statevector(psi_vec)

    def call():
        return lcc.run_lcc(spec, psi), lcc.run_lcc_controlled_form(spec, psi)

    def inspect(result):
        ext, ctl = result
        n, d = spec.n, spec.d
        ref = _combination(spec.coefficients, spec.gates, psi_vec)
        p_ref = float(np.vdot(ref, ref).real) / n
        p_lib = lcc.lcc_success_probability(spec, psi)
        record = {"label": label, "p": ext.success_probability,
                  "p_controlled": ctl.success_probability,
                  "digest": _digest(
                      None if ext.output_state is None else ext.output_state.data,
                      None if ctl.output_state is None else ctl.output_state.data),
                  "counts": {"dense_bytes": 16 * (n * n * d) ** 2}}
        if abs(p_lib - p_ref) > TOL_PROB:
            return record, f"lcc_success_probability {p_lib!r} != {p_ref!r}"
        ref_unit = ref / np.linalg.norm(ref)
        problem = (_check_circuit(ext, ref_unit, p_lib, "extended")
                   or _check_circuit(ctl, ref_unit, p_lib, "controlled"))
        if problem is None and _phase_distance(ext.output_state.data,
                                               ctl.output_state.data) > TOL_STATE:
            problem = "the two circuit forms disagree"
        return record, problem

    return Task(label, call, inspect)


# -- kak_compile -----------------------------------------------------------------

NAMED_GATES = {
    "I": np.eye(4, dtype=complex),
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "iSWAP": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
}
EPSILONS = (0.0, 1e-9, 1e-8, 1e-7)
KAK_RANDOM_GATES = 16  # per deck, for each of the Haar and product families
# Product gates perturbed this much are nearly, but not exactly, local, and
# kak_decompose raises DecompositionError on about half of them (none of
# the other inputs failed over seeds 1-220).
KAK_DEFECT_EPSILONS = (1e-8, 1e-7)
KAK_DEFECT = "kak_decompose raises DecompositionError on near-product gates"


def _perturbed(u, eps, rng) -> np.ndarray:
    """exp(i eps H) u with H a random Hermitian of unit spectral norm."""
    if eps == 0.0:
        return u
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, q = np.linalg.eigh((h + h.conj().T) / 2)
    w = w / np.abs(w).max()
    return (q * np.exp(1j * eps * w)) @ q.conj().T @ u


def _kak_compile(rng, workdir, smoke):
    count = 2 if smoke else KAK_RANDOM_GATES
    base = [("haar", _haar(4, rng)) for _ in range(count)]
    base += [(name, u) for name, u in NAMED_GATES.items()][:2 if smoke else None]
    base += [("product", np.kron(_haar(2, rng), _haar(2, rng))) for _ in range(count)]
    tasks = []
    for family, u in base:
        for eps in ((0.0, 1e-8) if smoke else EPSILONS):
            defect = KAK_DEFECT if family == "product" and eps in KAK_DEFECT_EPSILONS else ""
            tasks.append(_kak_task(f"{family}/eps={eps:g}", _perturbed(u, eps, rng),
                                   _unit_vector(4, rng), defect))
    return tasks


def _kak_task(label, u, psi_vec, known_defect="") -> Task:
    psi = qcore.statevector(psi_vec)

    def call():
        spec = kak.lcu_spec_from_kak(kak.kak_decompose(u))
        return spec.n, lcc.run_lcc(spec, psi), lcc.run_lcc_controlled_form(spec, psi)

    def inspect(result):
        n, ext, ctl = result
        record = {"label": label, "p": ext.success_probability,
                  "digest": _digest(
                      None if ext.output_state is None else ext.output_state.data,
                      None if ctl.output_state is None else ctl.output_state.data),
                  "counts": {}}
        if n != 4:
            return record, f"KAK spec has {n} terms, not 4"
        ref = u @ psi_vec
        problem = (_check_circuit(ext, ref, 0.25, "extended")
                   or _check_circuit(ctl, ref, 0.25, "controlled"))
        return record, problem

    return Task(label, call, inspect, known_defect)


# -- tomography_mle --------------------------------------------------------------

NOISE_LEVELS = (0.0, 0.05)
SHOTS = 1000  # expected counts per setting

_PAULI = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex))
_PREP = {"0": np.array([1, 0], dtype=complex), "1": np.array([0, 1], dtype=complex),
         "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
         "+i": np.array([1, 1j]) / math.sqrt(2)}
_BASIS = {"X": _PAULI[1], "Y": _PAULI[2], "Z": _PAULI[3]}


def _cell_rate(channel_out: np.ndarray, basis: str, outcome: int) -> float:
    sign = 1.0 if outcome == 0 else -1.0
    proj = (_PAULI[0] + sign * _BASIS[basis]) / 2
    return float(np.trace(proj @ channel_out).real)


def _sample_counts(op, noise, rng) -> dict:
    """Poisson counts of (1-p) op.rho.op^dag/N + (p/2) Tr(rho) I per cell."""
    scale = float(np.trace(op.conj().T @ op).real) / 2
    counts = {}
    for prep in tomography.PREP_LABELS:
        rho = np.outer(_PREP[prep], _PREP[prep].conj())
        out = (1 - noise) * op @ rho @ op.conj().T / scale + noise / 2 * _PAULI[0]
        for basis in tomography.BASIS_LABELS:
            rates = SHOTS * np.clip([_cell_rate(out, basis, o) for o in (0, 1)], 0, None)
            drawn = rng.poisson(rates)
            for o in (0, 1):
                counts[(prep, basis, o)] = float(drawn[o])
    return counts


def _log_likelihood(chi: np.ndarray, counts: dict) -> float:
    """Multinomial log-likelihood over all cells, p_k = rate_k / sum of rates."""
    rates = {}
    for (prep, basis, o) in counts:
        rho = np.outer(_PREP[prep], _PREP[prep].conj())
        out = sum(chi[m, n] * (_PAULI[m] @ rho @ _PAULI[n])
                  for m in range(4) for n in range(4))
        rates[(prep, basis, o)] = _cell_rate(out, basis, o)
    total = sum(rates.values())
    ll = 0.0
    for key, count in counts.items():
        if count > 0:
            if rates[key] <= 0:
                return -math.inf
            ll += count * math.log(rates[key] / total)
    return ll


def _psd_start(chi: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Linear-inversion estimate projected to positive, unit trace."""
    w, v = np.linalg.eigh((chi + chi.conj().T) / 2)
    out = (v * np.clip(w, floor, None)) @ v.conj().T
    return out / np.trace(out).real


def _chi_problem(chi) -> str | None:
    if not isinstance(chi, tomography.ChiMatrix):
        return f"result is a {type(chi).__name__}, not a ChiMatrix"
    m = np.asarray(chi.data)
    if m.shape != (4, 4):
        return f"chi has shape {m.shape}"
    if np.abs(m - m.conj().T).max() > 1e-9:
        return "chi is not Hermitian"
    if np.linalg.eigvalsh(m).min() < -1e-9:
        return "chi is not positive semidefinite"
    if abs(np.trace(m).real - 1) > 1e-9:
        return "chi does not have unit trace"
    return None


def _tomography_mle(rng, workdir, smoke):
    configs = ([("U4", 0.0), ("U10", 0.0)] if smoke
               else [(name, p) for p in NOISE_LEVELS for name in REGISTRY])
    return [_mle_task(name, p, _sample_counts(gates.gate(name), p, rng))
            for name, p in configs]


def _mle_task(name, noise, counts) -> Task:
    dataset = tomography.TomographyDataset(dict(counts))
    reference = tomography.ideal_chi(gates.gate(name))

    def call():
        start = tomography.linear_inversion(dataset)
        result = tomography.reconstruct_mle(dataset)
        return start, result, tomography.process_fidelity(result.chi, reference)

    def inspect(outcome):
        start, result, fidelity = outcome
        record = {"label": f"{name}/noise={noise:g}", "fidelity": fidelity,
                  "converged": bool(result.converged),
                  "digest": _digest(np.asarray(result.chi.data)),
                  "counts": {"mle_iterations": int(result.iterations)}}
        problem = _chi_problem(result.chi)
        if problem:
            return record, problem
        ll_start = _log_likelihood(_psd_start(np.asarray(start)), counts)
        ll_mle = _log_likelihood(np.asarray(result.chi.data), counts)
        record["log_likelihood"] = ll_mle
        if ll_mle < ll_start - 1e-9 * abs(ll_start):
            return record, f"log-likelihood {ll_mle!r} below the start's {ll_start!r}"
        return record, None

    return Task(name, call, inspect)


# -- cli_sessions ----------------------------------------------------------------

BEHAVIORS = (("honest", None), ("intercept", "x"), ("intercept", "z"),
             ("skip_measurement", None))
PROTOCOL_OPS = REGISTRY[:11]


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return call


def _cli_task(label, argv, check, known_defect="") -> Task:
    def inspect(result):
        code, out, err = result
        record = {"label": label, "exit": code,
                  "digest": _digest(out, err),
                  "counts": {"output_bytes": len((out + err).encode())}}
        return record, check(code, out, err, record["counts"])

    return Task(label, _cli_call(argv), inspect, known_defect,
                fingerprint=lambda result: _digest(*result))


def _summary_value(text: str):
    # numpy scalars print as np.int64(7) or np.float64(0.35)
    match = re.fullmatch(r"np\.\w+\((.*)\)", text)
    if match:
        text = match.group(1)
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _protocol_check(scenario):
    exact_zero = scenario.get("intercept_basis") != "x"

    def check(code, out, err, counts):
        if code != 0:
            return f"exit {code}: {err.strip()[:120]}"
        header = {}
        summary = {}
        kinds = {}
        completed = detected = intercepted = rounds = 0
        in_summary = False
        for line in out.splitlines():
            if line == "# summary":
                in_summary = True
            elif line.startswith("round="):
                fields = dict(tok.split("=", 1) for tok in line.split())
                rounds += 1
                kinds[fields["kind"]] = kinds.get(fields["kind"], 0) + 1
                completed += fields["completed"] == "1"
                intercepted += fields["intercepted"] == "1"
                if fields["detected"] == "1":
                    detected += 1
                    if fields["kind"] != "verify" or fields["completed"] != "1":
                        return f"detection in a {fields['kind']} round"
            elif in_summary and line.startswith("# "):
                key, _, value = line[2:].partition("=")
                summary[key] = _summary_value(value)
            elif line.startswith("# "):
                for tok in line[2:].split():
                    key, sep, value = tok.partition("=")
                    if sep:
                        header[key] = _summary_value(value)
        counts.update({"rounds": rounds, "completed": completed,
                       "detections": detected, "intercepted": intercepted})
        counts.update({f"kind.{k}": v for k, v in kinds.items()})
        if rounds != scenario["rounds"] or summary.get("rounds") != rounds:
            return f"{rounds} round lines for {scenario['rounds']} rounds"
        if summary.get("kind_counts") != dict(sorted(kinds.items())):
            return "kind_counts disagree with the round lines"
        if summary.get("completed") != completed:
            return "completed count disagrees with the round lines"
        if summary.get("detections") != detected or header.get("detections") != detected:
            return "detection count disagrees with the round lines"
        if abs(summary.get("empirical_completion", -1) - completed / rounds) > 1e-12:
            return "empirical_completion disagrees with the counts"
        if scenario["behavior"] != "intercept" and intercepted:
            return f"{intercepted} intercepted rounds without an intercepting server"
        # verify states are computational-basis states, so only an x-basis
        # intercept can disturb them
        if exact_zero and (detected or header.get("analytic_detection_rate") != 0.0):
            return "detections without an x-basis intercept"
        return None

    return check


def _lcc_check(coefficients, gate_list, psi):
    ref = _combination(coefficients, gate_list, psi)
    p_ref = float(np.vdot(ref, ref).real) / len(coefficients)

    def check(code, out, err, counts):
        if code != 0:
            return f"exit {code}: {err.strip()[:120]}"
        lines = out.splitlines()
        p = float(next(ln for ln in lines if ln.startswith("success_probability="))
                   .split("=", 1)[1])
        amps = np.array([complex(ln) for ln in
                         lines[lines.index("# output state amplitudes") + 1:]])
        if abs(p - p_ref) > 1e-11:
            return f"success_probability {p!r} != {p_ref!r}"
        if len(amps) != len(psi) or _phase_distance(amps, ref / np.linalg.norm(ref)) > 1e-9:
            return "output amplitudes differ from the direct combination"
        return None

    return check


def _kak_random_check(count):
    def check(code, out, err, counts):
        if code != 0:
            return f"exit {code}: {err.strip()[:120]}"
        residuals = [float(ln.split("residual=")[1]) for ln in out.splitlines()
                     if ln.startswith("sample=")]
        if len(residuals) != count:
            return f"{len(residuals)} samples for --random {count}"
        if max(residuals) > 1e-9:
            return f"residual {max(residuals):.2e}"
        return None

    return check


def _tomography_check(names):
    def check(code, out, err, counts):
        if code != 0:
            return f"exit {code}: {err.strip()[:120]}"
        rows = [ln.split() for ln in out.splitlines() if not ln.startswith("#")]
        if [r[0] for r in rows] != names:
            return "one fidelity line per operation expected"
        for name, fid, std in rows:
            if not 0.99 <= float(fid) <= 1.0 or float(std) != 0.0:
                return f"{name}: analytic fidelity {fid} std {std}"
        return None

    return check


def _expect_exit(codes):
    def check(code, out, err, counts):
        counts[f"exit.{code}"] = 1
        if code not in codes:
            return f"exit {code}, expected one of {sorted(codes)}"
        return None

    return check


def _cli_sessions(rng, workdir, smoke):
    workdir.mkdir(parents=True, exist_ok=True)
    files = itertools.count()

    def write(suffix, text):
        path = workdir / f"f{next(files)}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def spec_doc(coefficients, gate_list, psi):
        return json.dumps({"coefficients": _pairs(coefficients),
                           "gates": [[_pairs(row) for row in g] if not isinstance(g, str)
                                     else g for g in gate_list],
                           "input_state": _pairs(psi)})

    tasks = []
    ops = PROTOCOL_OPS[:2] if smoke else PROTOCOL_OPS
    # session lengths and parameters evenly spread over their ranges and
    # dealt out by the seed, so every seed's deck holds about the same
    # protocol work
    def spread(low, high, count):
        return iter(rng.permutation(np.linspace(low, high, count)))

    sessions = len(ops) * len(BEHAVIORS)
    lengths = spread(*((200, 500) if smoke else (2000, 5000)), sessions)
    epsilons, taus = spread(0.2, 1.0, sessions), spread(0.2, 0.8, sessions)
    fractions = spread(0.2, 1.0, sessions)
    for op in ops:
        for mode, basis in BEHAVIORS:
            scenario = {"operation": op, "epsilon": float(next(epsilons)),
                        "tau": float(next(taus)),
                        "rounds": int(round(next(lengths))),
                        "seed": int(rng.integers(2 ** 31)), "behavior": mode,
                        "input_state": _pairs(_unit_vector(2, rng))}
            if basis:
                scenario.update(intercept_fraction=float(next(fractions)),
                                intercept_basis=basis)
            label = f"protocol/{mode}{'-' + basis if basis else ''}"
            tasks.append(_cli_task(label, ["protocol", write(".json", json.dumps(scenario))],
                                   _protocol_check(scenario)))
    for n, d in ((2, 2), (4, 2)) if smoke else ((2, 2), (4, 2), (2, 4), (4, 4)):
        alpha, gate_list, psi = (_unit_vector(n, rng),
                                 [_haar(d, rng) for _ in range(n)], _unit_vector(d, rng))
        tasks.append(_cli_task("lcc", ["lcc", write(".json", spec_doc(alpha, gate_list, psi))],
                               _lcc_check(alpha, gate_list, psi)))
    for count in (3, 5):
        tasks.append(_cli_task("kak", ["--seed", str(int(rng.integers(2 ** 31))), "kak",
                                       "--random", str(count)], _kak_random_check(count)))
    for _ in range(2):
        names = [REGISTRY[int(rng.integers(len(REGISTRY)))]]
        tasks.append(_cli_task("tomography", ["tomography", write(".txt", "\n".join(names))],
                               _tomography_check(names)))

    # malformed inputs: the correct result is a documented exit code
    psi2 = _unit_vector(2, rng)
    r2 = 1 / math.sqrt(2)
    scenario = {"operation": "U2", "epsilon": 0.5, "tau": 0.5, "rounds": 100,
                "seed": int(rng.integers(2 ** 31))}
    malformed = [
        # (I - I)/sqrt2 is a vanishing combination: a never-succeeding
        # postselection, reported rather than crashed on
        ("lcc", spec_doc([r2, -r2], ["I", "I"], psi2), {0, 3},
         "lccsim lcc raises AttributeError on a vanishing combination"),
        ("lcc", spec_doc([r2, r2], ["U99", "X"], psi2), {5}, ""),
        ("lcc", spec_doc([r2, r2], ["X", "Z"], _unit_vector(4, rng)), {4}, ""),
        ("protocol", json.dumps({**scenario, "epsilon": "half"}), {2, 3},
         "lccsim protocol raises ValueError on a non-numeric epsilon"),
        ("protocol", json.dumps({**scenario, "operation": "U42"}), {5}, ""),
        ("protocol", json.dumps({k: v for k, v in scenario.items() if k != "rounds"}), {2}, ""),
        ("kak", qcore.format_matrix(rng.standard_normal((4, 4))), {3}, ""),
        ("kak", qcore.format_matrix(_haar(3, rng)), {4}, ""),
    ]
    for sub, text, codes, defect in (malformed[:3] if smoke else malformed):
        suffix = ".json" if sub != "kak" else ".txt"
        tasks.append(_cli_task(f"malformed/{sub}", [sub, write(suffix, text)],
                               _expect_exit(codes), defect))
    return tasks
