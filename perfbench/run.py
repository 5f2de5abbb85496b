"""lccsim benchmark: one seeded workload per run, measured as a closed loop.

    python3 perfbench/run.py --workload lcc_grid --seed 1 --seconds 45 --trace 0

One caller in one process runs one task at a time, with BLAS pinned to
BLAS_THREADS threads.  The timed phase runs whole passes over the
workload's task list (its "deck") until the tasks have been busy for at
least --seconds of CPU time, so every run measures the same mix.  Times
are the thread's CPU time, which leaves out the time a shared host gives
the virtual CPU to other work, and the timing metrics take each task's
fastest repetition across the passes (see Phase.ok_best).  Each
task's output is checked against a reference computed by the benchmark;
a task that raises or fails its check counts as failed and never stops
the run.  Inputs on which the seed's lccsim is known to fail stay out of
the deck; each run executes them once, untimed, after the timed phase,
and reports them on their own ("known defects").

--trace 0 prints the end-to-end metrics.  --trace 1 runs the deck for
half the time untraced and half traced, prints the per-layer metrics
from the traced half, and checks that both halves produced identical
task outputs.  Report lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Results and spans are also written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("lcc_grid", "kak_compile", "tomography_mle", "cli_sessions")
BLAS_THREADS = 1
# Seed kept out of development and tuning, for checking a claimed gain
# on inputs the change was not written against.
HELD_OUT_SEED = 90917
SETUP_PROBES = 6  # fresh interpreters timed on top of the run's own set-up
WARMUP_S = 0.5
# A phase also ends near this many times --seconds of wall time, so a run
# on a host that lends out most of its CPU still ends in time.
WALL_CAP = 1.25
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

END_TO_END = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
# error_rate is printed with the others; the result line carries it as
# failed / attempted, since it is 0 on two workloads.
ERROR_RATE_UNIT = "ratio"


# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4


def retain_freed_memory() -> bool:
    """Make glibc malloc keep freed memory in the process for reuse.

    By default glibc gives every array above 32 MB its own mapping and
    unmaps it when freed, so each n=32 circuit faults its ~100 MB of
    matrices in again.  The kernel's cost for those faults depends on the
    host's memory state, above all on whether it can hand out the huge
    pages numpy asks for: on a 2-vCPU Xeon VM the n=32 task took 1.5 s of
    CPU with them and 3 s without, 1.9 s of it in the kernel.  With no
    separate mappings and no trimming, a freed array's pages are reused,
    and only their first touch faults.
    Returns False where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_MAX, 0)) and bool(mallopt(M_TRIM_THRESHOLD, 1 << 30))


def pin_environment() -> bool:
    """Pin BLAS threads before numpy loads, keep freed memory in the process
    and put the checkout's src first.  Returns whether memory is retained."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return retain_freed_memory()


def timed_setup(workload: str, seed: int, smoke: bool = False):
    """Import lccsim and build the workload's inputs and files.

    Returns the deck, the known-defect inputs, their working directory
    and the CPU seconds all this took.
    """
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    start = time.process_time()
    import workloads  # imports numpy and lccsim
    deck, defects = workloads.build(workload, seed, workdir, smoke)
    return deck, defects, workdir, time.process_time() - start


def probe_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


@dataclass
class Phase:
    """What one phase of whole passes over the deck measured.

    Memory stays proportional to the deck, not to the passes, so that
    peak_rss_mb does not grow with the length of a run: the first pass's
    output records are kept, and every later repetition of a task is
    compared with its reference record as it completes.
    """

    deck_len: int
    reference: list | None = None  # (record, status) per task to compare with
    first: list = field(default_factory=list)  # (record, status) of pass 0
    best: list[float] = field(default_factory=list)  # fastest CPU seconds per task
    always_ok: list[bool] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # outputs that failed their check
    differing: int = 0  # repetitions whose output differs from the reference
    busy_s: float = 0.0  # CPU seconds of all tasks
    wall_s: float = 0.0  # wall seconds of all tasks
    output_bytes: int = 0
    failures: Counter = field(default_factory=Counter)

    def add(self, index: int, cpu: float, wall: float, record: dict, status: str):
        if self.passes == 0:
            self.first.append((record, status))
            self.best.append(cpu)
            self.always_ok.append(status == "ok")
        else:
            self.best[index] = min(self.best[index], cpu)
            self.always_ok[index] = self.always_ok[index] and status == "ok"
        reference = (self.reference or self.first)[index]
        self.differing += (record, status) != reference
        self.attempted += 1
        self.busy_s += cpu
        self.wall_s += wall
        self.output_bytes += record["counts"].get("output_bytes", 0)
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            self.failures[f"{record['label']}: {failure_reason(record, status)}"] += 1

    def ok_best(self) -> list[float]:
        """Fastest repetitions of the tasks that succeeded in every pass.

        Even in CPU time, other tenants of a shared host slow whole
        stretches of a run by up to half again (through the caches and the
        core's other hardware thread); the fastest repetition of each task
        is the measurement they disturbed least.
        """
        return [t for t, ok in zip(self.best, self.always_ok) if ok]

    def best_tasks_per_s(self) -> float:
        """Successful tasks per second of one pass at each task's best latency."""
        return len(self.ok_best()) / sum(self.best)

    def counts(self) -> dict:
        """Work counts of the first pass; they repeat exactly for a given seed."""
        counts = Counter()
        for record, status in self.first:
            counts[f"status.{status}"] += 1
            counts.update(record.get("counts", {}))
        return dict(sorted(counts.items()))

    def digest(self) -> str:
        """Digest of the first pass's output records and statuses."""
        text = json.dumps(self.first, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def failure_reason(record: dict, status: str) -> str:
    """The exception's name, or the check's complaint."""
    return record["raised"].split(":")[0] if status == "raised" else record["problem"]


def execute(task):
    """Run one task: (CPU seconds, wall seconds, output record, status)."""
    wall = time.perf_counter()
    start = time.thread_time()
    try:
        result = task.call()
    except Exception as exc:  # a failing task is counted and the run goes on
        cpu = time.thread_time() - start
        wall = time.perf_counter() - wall
        name = type(exc).__name__
        return cpu, wall, {"label": task.label, "raised": f"{name}: {exc}"[:200],
                           "counts": {f"raised.{name}": 1}}, "raised"
    cpu = time.thread_time() - start
    wall = time.perf_counter() - wall
    key = task.fingerprint(result) if task.fingerprint else None
    if key in task.checked:  # the same output as before: the same verdict
        return (cpu, wall, *task.checked[key])
    record, status = _inspect(task, result)
    if key is not None:
        task.checked[key] = record, status
    return cpu, wall, record, status


def _inspect(task, result):
    """Check a task's result: (output record, status)."""
    try:
        record, problem = task.inspect(result)
    except Exception as exc:  # a check that cannot read the output fails it
        return {"label": task.label, "counts": {},
                "problem": f"unreadable output: {type(exc).__name__}: {exc}"[:200]}, "wrong"
    if problem:
        record["problem"] = problem
        return record, "wrong"
    return record, "ok"


def run_phase(deck, seconds: float, tracer=None, reference=None,
              min_passes: int = 1) -> Phase:
    """Whole passes over the deck until the tasks have used ``seconds`` of CPU.

    At least ``min_passes`` passes; beyond those, no pass starts that would
    end, at the previous pass's pace, after WALL_CAP * ``seconds`` of wall
    time.  Outputs are compared with ``reference`` (the first pass of
    another phase) or else with this phase's own first pass.
    """
    phase = Phase(len(deck), reference)
    start = time.perf_counter()
    last_pass = 0.0
    while phase.passes < min_passes or (
            phase.busy_s < seconds and
            time.perf_counter() - start + last_pass <= WALL_CAP * seconds):
        pass_start = time.perf_counter()
        for index, task in enumerate(deck):
            if tracer is not None:
                tracer.task = phase.attempted
            phase.add(index, *execute(task))
        phase.passes += 1
        last_pass = time.perf_counter() - pass_start
    return phase


def warm_up(deck) -> None:
    busy = 0.0
    for task in deck:
        busy += execute(task)[0]
        if busy >= WARMUP_S:
            break


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(latencies) -> dict:
    """Latency at the highest ladder percentile with >= TAIL_BEYOND samples beyond."""
    n = len(latencies)
    pct = next((p for p in reversed(TAIL_LADDER) if n * (1 - p / 100) >= TAIL_BEYOND),
               TAIL_LADDER[0])
    value = percentile(latencies, pct)
    return {"percentile": pct, "samples": n, "value_ms": 1e3 * value,
            "beyond": sum(t > value for t in latencies)}


def run_known_defects(defects) -> dict:
    """Run each known-defect input once and tally what happened."""
    statuses, failures = Counter(), Counter()
    for task in defects:
        _, _, record, status = execute(task)
        statuses[status] += 1
        if status != "ok":
            failures[f"{task.known_defect}: {record['label']}: "
                     f"{failure_reason(record, status)}"] += 1
    return {"attempted": len(defects), "failed": len(defects) - statuses["ok"],
            "wrong": statuses["wrong"], "failures": dict(failures.most_common())}


def environment(seed: int, memory_retained: bool) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "malloc_retains_freed": memory_retained,
            "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run.  Returns the report; report["result"] is the JSON line."""
    memory_retained = pin_environment()
    deck, defects, workdir, own_setup = timed_setup(workload, seed, smoke)
    import tracing

    try:
        setup = [own_setup] + (probe_setups(workload, seed, probes) if not trace else [])
        warm_up(deck)
        report = {"workload": workload, "seed": seed, "trace": int(trace),
                  "smoke": smoke, "env": environment(seed, memory_retained),
                  "deck_len": len(deck)}
        # the timed phase takes each task's best of at least two repetitions
        untraced = run_phase(deck, seconds / 2 if trace else seconds,
                             min_passes=1 if trace else 2)
        phases = [untraced]
        report["work_counts"] = untraced.counts()
        report["outputs_digest"] = untraced.digest()
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                traced = run_phase(deck, seconds / 2, tracer, reference=untraced.first)
            phases.append(traced)
            report["traced_vs_untraced"] = {"compared": traced.attempted,
                                            "mismatched": traced.differing}
            metrics = tracing.per_layer_metrics(
                tracer, traced.output_bytes,
                untraced.best_tasks_per_s() / traced.best_tasks_per_s())
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
            report["trace_counts"] = tracing.deck_counts(tracer, 0, len(deck))
            report["baseline"] = tracing.baseline_lines(tracer)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.tsv")
        else:
            ok = untraced.ok_best()
            t = tail(ok) if ok else {"percentile": TAIL_LADDER[0], "samples": 0,
                                     "value_ms": 0.0, "beyond": 0}
            report["tail"] = t
            report["setup_samples_s"] = setup
            metrics = {
                "tasks_per_s": untraced.best_tasks_per_s(),
                "task_p50_ms": 1e3 * statistics.median(ok) if ok else 0.0,
                "task_tail_ms": t["value_ms"],
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        known = report["known_defects"] = run_known_defects(defects)
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        # a repetition whose output differs from the first one is a wrong output;
        # a known-defect input that returns a wrong output is one too
        wrong = sum(p.wrong + p.differing for p in phases) + known["wrong"]
        report["repeats_differing"] = [p.differing for p in phases]
        report["error_rate"] = failed / attempted
        report["passes"] = [p.passes for p in phases]
        report["busy_s"] = {"cpu": [p.busy_s for p in phases],
                            "wall": [p.wall_s for p in phases]}
        report["failures"] = dict(sum((p.failures for p in phases), Counter()).most_common())
        report["result"] = {
            "correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_lines(report: dict) -> list[str]:
    res = report["result"]
    lines = [f"# perfbench workload={report['workload']} seed={report['seed']} "
             f"trace={report['trace']} deck={report['deck_len']} tasks "
             f"passes={report['passes']}",
             "# env " + json.dumps(report["env"], sort_keys=True),
             f"# tasks attempted={res['attempted']} failed={res['failed']} "
             f"correct={res['correct']}"]
    for reason, count in list(report["failures"].items())[:8]:
        lines.append(f"# failure x{count}: {reason}")
    known = report["known_defects"]
    if known["attempted"]:
        lines.append(f"# known defects of the seed, run once untimed and outside "
                     f"attempted/failed: {known['failed']} of {known['attempted']} "
                     f"inputs failed")
        for reason, count in known["failures"].items():
            lines.append(f"# known defect x{count}: {reason}")
    if "tail" in report:
        t = report["tail"]
        lines.append(f"# timings are each task's fastest of {report['passes'][0]} "
                     f"repetitions; task_tail_ms is p{t['percentile']:g} of "
                     f"{t['samples']} successful tasks ({t['beyond']} beyond it)")
    if sum(report["repeats_differing"]):
        lines.append(f"# repetitions with an output differing from the first: "
                     f"{report['repeats_differing']}")
    cpu, wall = sum(report["busy_s"]["cpu"]), sum(report["busy_s"]["wall"])
    lines.append(f"# tasks used {cpu:.1f} s of CPU in {wall:.1f} s of wall time")
    if "traced_vs_untraced" in report:
        c = report["traced_vs_untraced"]
        lines.append(f"# traced vs untraced outputs: {c['compared']} compared, "
                     f"{c['mismatched']} differ")
    for name, m in res["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.append(f"error_rate {report['error_rate']:.6g} {ERROR_RATE_UNIT}")
    lines.append("# work counts per deck " + json.dumps(report["work_counts"], sort_keys=True))
    if "trace_counts" in report:
        lines.append("# traced counts per deck (bytes computed from (n, d) and "
                     "register sizes) " + json.dumps(report["trace_counts"], sort_keys=True))
        lines += report["baseline"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter, print its CPU "
                             "seconds and exit")
    args = parser.parse_args(argv)
    if not (SRC / "lccsim" / "__init__.py").is_file():
        print(f"error: no lccsim package under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_only:
        _, _, workdir, seconds = timed_setup(args.workload, args.seed)
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(report_lines(report)))
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
