"""Spans around the calls into lccsim's layers, for the traced benchmark run.

A wrapper is installed on every binding a function is reached through:
`lcc` and `protocol` import `apply_to_subsystems`, `measure_postselect`
and `tensor` by name, while `cli` calls through module attributes, so the
wrapper replaces the original object wherever it appears in any loaded
`lccsim` module.  Nothing is installed outside the traced run, and
`Tracer.uninstall` puts every original back.

Each span records its name, start, end, parent span and task id; spans
stay in memory until `write_spans` is called at the end of the run.  Span
times are the thread's CPU time, as the end-to-end timings are.  Self
time is a span's duration minus the time its child spans cover.  Counts
with "bytes" in the name are computed from (n, d) and register sizes,
not measured, and carry the unit "bytes-computed".
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

BYTES_PER_AMPLITUDE = 16  # complex128


def _register_bytes(args, kwargs, result, raised):
    state = args[0] if args else kwargs["state"]
    dim = int(np.prod(state.dims))
    size = dim if state.kind == "statevector" else dim * dim
    return {"register_bytes": BYTES_PER_AMPLITUDE * size}


def _spec_shape(args, kwargs, result, raised):
    spec = args[0] if args else kwargs["spec"]
    return {"n": spec.n, "d": spec.d}


def _dense_bytes(args, kwargs, result, raised):
    # run_lcc builds the controlled swap as one dense (n^2 d) x (n^2 d) matrix
    attrs = _spec_shape(args, kwargs, result, raised)
    dim = attrs["n"] * attrs["n"] * attrs["d"]
    attrs["dense_bytes"] = BYTES_PER_AMPLITUDE * dim * dim
    return attrs


def _mle_attrs(args, kwargs, result, raised):
    if raised:
        return {}
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _session_rounds(args, kwargs, result, raised):
    if raised:
        return {}
    return {"rounds": len(result.rounds)}


# (module, attribute, span name, attribute function).  A dotted attribute
# names a method on a class of that module.
TARGETS = (
    ("lccsim.qcore", "apply_to_subsystems", "qcore.apply_to_subsystems",
     _register_bytes),
    ("lccsim.qcore", "measure_postselect", "qcore.measure_postselect", None),
    ("lccsim.lcc", "run_lcc", "lcc.run_lcc", _dense_bytes),
    ("lccsim.lcc", "run_lcc_controlled_form", "lcc.run_lcc_controlled_form",
     _spec_shape),
    ("lccsim.kak", "kak_decompose", "kak.kak_decompose", None),
    ("lccsim.kak", "simultaneous_svd", "kak.simultaneous_svd", None),
    ("lccsim.kak", "lcu_spec_from_kak", "kak.lcu_spec_from_kak", None),
    ("lccsim.tomography", "reconstruct_mle", "tomography.reconstruct_mle",
     _mle_attrs),
    ("lccsim.tomography", "linear_inversion", "tomography.linear_inversion",
     None),
    ("lccsim.tomography", "simulate_dataset", "tomography.simulate_dataset",
     None),
    ("lccsim.protocol", "run_session", "protocol.run_session",
     _session_rounds),
    ("lccsim.protocol", "intercept_detection_rate",
     "protocol.intercept_detection_rate", None),
    ("lccsim.protocol", "ProtocolTranscript.to_text",
     "protocol.ProtocolTranscript.to_text", None),
    ("lccsim.cli", "main", "cli.main", None),
    ("lccsim.cli", "cmd_lcc", "cli.lcc", None),
    ("lccsim.cli", "cmd_kak", "cli.kak", None),
    ("lccsim.cli", "cmd_protocol", "cli.protocol", None),
    ("lccsim.cli", "cmd_tomography", "cli.tomography", None),
)

CLI_SUBCOMMANDS = ("lcc", "kak", "protocol", "tomography")

# name -> (unit, better); the order is the order metrics are printed in.
PER_LAYER = {
    "qcore.apply_to_subsystems.calls": ("count", "higher"),
    "qcore.apply_to_subsystems.self_s": ("s", "lower"),
    "qcore.apply_to_subsystems.register_bytes": ("bytes-computed", "lower"),
    "qcore.measure_postselect.calls": ("count", "higher"),
    "qcore.measure_postselect.self_s": ("s", "lower"),
    "lcc.run_lcc.calls": ("count", "higher"),
    "lcc.run_lcc.total_s": ("s", "lower"),
    "lcc.run_lcc.self_s": ("s", "lower"),
    "lcc.run_lcc.dense_bytes": ("bytes-computed", "lower"),
    "lcc.run_lcc_controlled_form.calls": ("count", "higher"),
    "lcc.run_lcc_controlled_form.total_s": ("s", "lower"),
    "lcc.run_lcc_controlled_form.self_s": ("s", "lower"),
    "kak.kak_decompose.calls": ("count", "higher"),
    "kak.kak_decompose.total_s": ("s", "lower"),
    "kak.kak_decompose.self_s": ("s", "lower"),
    "kak.kak_decompose.failures": ("count", "lower"),
    "kak.kak_decompose.ok_ratio": ("ratio", "higher"),
    "kak.simultaneous_svd.total_s": ("s", "lower"),
    "kak.lcu_spec_from_kak.total_s": ("s", "lower"),
    "tomography.reconstruct_mle.calls": ("count", "higher"),
    "tomography.reconstruct_mle.total_s": ("s", "lower"),
    "tomography.reconstruct_mle.iterations": ("count", "lower"),
    "tomography.reconstruct_mle.ms_per_iteration": ("ms", "lower"),
    "tomography.reconstruct_mle.converged_ratio": ("ratio", "higher"),
    "tomography.linear_inversion.total_s": ("s", "lower"),
    "tomography.simulate_dataset.total_s": ("s", "lower"),
    "protocol.run_session.calls": ("count", "higher"),
    "protocol.run_session.total_s": ("s", "lower"),
    "protocol.run_session.rounds": ("count", "higher"),
    "protocol.run_session.us_per_round": ("us", "lower"),
    "protocol.intercept_detection_rate.total_s": ("s", "lower"),
    "protocol.ProtocolTranscript.to_text.total_s": ("s", "lower"),
    "cli.main.calls": ("count", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "cli.main.output_bytes": ("bytes", "lower"),
    **{f"cli.{sub}.p50_ms": ("ms", "lower") for sub in CLI_SUBCOMMANDS},
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        # each span: [name, start, end, parent index, task id, attrs]
        self.spans: list[list] = []
        self.task = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.task, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.thread_time()
            result = None
            raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                span[2] = time.thread_time()
                tracer._stack.pop()
                attrs = attrs_fn(args, kwargs, result, raised) if attrs_fn else {}
                if raised is not None:
                    attrs["raised"] = type(raised).__name__
                span[5] = attrs

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target on every binding in the loaded lccsim modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "lccsim" or key.startswith("lccsim."))]
        for module_name, attr, span_name, attrs_fn in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span_name, original, attrs_fn))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct child spans cover.

        The benchmark runs one task at a time on one thread, so the
        children of a span never overlap and their durations add up.
        """
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write_spans(self, path) -> None:
        """Tab-separated: index, name, start, end, parent, task, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_cpu_s\tend_cpu_s\tparent\ttask\tattrs\n")
            for i, (name, start, end, parent, task, attrs) in enumerate(self.spans):
                extra = ",".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{task}\t{extra}\n")


def per_layer_metrics(tracer: Tracer, output_bytes: int,
                      overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced phase.

    A layer the workload never reaches reports 0 for every metric,
    ratios included.
    """
    self_t = tracer.self_times()
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    sums = defaultdict(float)
    durations = defaultdict(list)
    for i, (name, start, end, _parent, _task, attrs) in enumerate(tracer.spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_t[i]
        durations[name].append(end - start)
        for key, value in attrs.items():
            if isinstance(value, (bool, int, float)):
                sums[(name, key)] += float(value)
            elif key == "raised":
                sums[(name, "raised")] += 1.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            m[metric] = float(calls[layer])
        elif stat == "total_s":
            m[metric] = total[layer]
        elif stat == "self_s":
            m[metric] = own[layer]
        elif stat in ("register_bytes", "dense_bytes", "iterations", "rounds"):
            m[metric] = sums[(layer, stat)]
        elif stat == "p50_ms":
            d = durations[layer]
            m[metric] = 1e3 * float(np.median(d)) if d else 0.0
    mle = "tomography.reconstruct_mle"
    m[f"{mle}.ms_per_iteration"] = ratio(1e3 * total[mle], sums[(mle, "iterations")])
    m[f"{mle}.converged_ratio"] = ratio(sums[(mle, "converged")], calls[mle])
    kd = "kak.kak_decompose"
    m[f"{kd}.failures"] = sums[(kd, "raised")]
    m[f"{kd}.ok_ratio"] = ratio(calls[kd] - sums[(kd, "raised")], calls[kd])
    rs = "protocol.run_session"
    m[f"{rs}.us_per_round"] = ratio(1e6 * total[rs], sums[(rs, "rounds")])
    m["cli.main.output_bytes"] = float(output_bytes)
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: m[name] for name in PER_LAYER}


def deck_counts(tracer: Tracer, first_task: int, last_task: int) -> dict:
    """Exact work counts of the tasks in [first_task, last_task)."""
    counts: dict = defaultdict(float)
    for name, _start, _end, _parent, task, attrs in tracer.spans:
        if not first_task <= task < last_task:
            continue
        counts[f"{name}.calls"] += 1
        for key, value in attrs.items():
            if key == "raised":
                counts[f"{name}.raised"] += 1
            elif key in ("register_bytes", "dense_bytes", "iterations", "rounds"):
                counts[f"{name}.{key}"] += value
    return {k: int(v) for k, v in sorted(counts.items())}


# Indicative figures from the ROADMAP "Recent" section, measured once by
# hand (Python 3.11, numpy 2.4, scipy 1.17, 2 cores, wall clock).  They are
# printed next to the traced CPU-time figures and never gate anything.
ROADMAP_BASELINE = (
    ("lcc.run_lcc", (2, 2), "ms per call", 1.3),
    ("lcc.run_lcc", (16, 2), "ms per call", 69.0),
    ("lcc.run_lcc", (16, 4), "ms per call", 294.0),
    ("lcc.run_lcc_controlled_form", (16, 4), "ms per call", 1.6),
    ("kak.kak_decompose", None, "ms per call", 1.0),
    ("tomography.reconstruct_mle", None, "s per call (min-max)", (0.37, 2.8)),
    ("tomography.reconstruct_mle", None, "iterations (min-max)", (1500, 10000)),
    ("protocol.run_session", None, "us per round", 3.0),
)


def baseline_lines(tracer: Tracer) -> list[str]:
    """Traced figures next to the ROADMAP baseline, for layers this run reached."""
    per_call = defaultdict(list)
    iterations = []
    rounds = 0
    for name, start, end, _parent, _task, attrs in tracer.spans:
        if "raised" in attrs:
            continue
        per_call[(name, None)].append(end - start)
        if "n" in attrs:
            per_call[(name, (attrs["n"], attrs["d"]))].append(end - start)
        if name == "tomography.reconstruct_mle":
            iterations.append(attrs["iterations"])
        if name == "protocol.run_session":
            rounds += attrs["rounds"]
    lines = []
    for name, shape, what, roadmap in ROADMAP_BASELINE:
        times = per_call.get((name, shape))
        if not times:
            continue
        where = f" n={shape[0]},d={shape[1]}" if shape else ""
        if what.startswith("ms"):
            got = 1e3 * float(np.mean(times))
            lines.append(f"# baseline {name}{where}: {what} measured={got:.3f} "
                         f"roadmap={roadmap} ratio={got / roadmap:.2f} "
                         f"(mean of {len(times)})")
        elif what.startswith("s per call"):
            lines.append(f"# baseline {name}: {what} measured={min(times):.3f}-"
                         f"{max(times):.3f} roadmap={roadmap[0]}-{roadmap[1]} "
                         f"({len(times)} calls)")
        elif what.startswith("iterations"):
            lines.append(f"# baseline {name}: {what} measured={min(iterations)}-"
                         f"{max(iterations)} roadmap={roadmap[0]}-{roadmap[1]} "
                         f"median={int(np.median(iterations))}")
        elif what == "us per round" and rounds:
            got = 1e6 * sum(times) / rounds
            lines.append(f"# baseline {name}: {what} measured={got:.2f} "
                         f"roadmap={roadmap} ratio={got / roadmap:.2f} "
                         f"({rounds} rounds)")
    return lines
