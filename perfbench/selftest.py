"""Self-test of the benchmark at smoke size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
it runs each workload on a few cheap tasks.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_environment()

import tracing  # noqa: E402
import workloads  # noqa: E402,F401  (loads every lccsim module the tracer wraps)

SEED = 3


def _measure(workload, trace):
    return run.measure(workload, SEED, 0.0, trace, smoke=True, probes=0)


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            report = _measure(workload, trace)
            result = report["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (workload, trace, report["failures"])
            assert result["failed"] == 0, (workload, trace, report["failures"])
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())
            lines = run.report_lines(report)
            for name, unit in expected.items():
                assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}")
                           for ln in lines), name
            assert any(ln.startswith("error_rate ") for ln in lines)


def test_known_defects_run_once_outside_the_deck():
    report = _measure("kak_compile", False)
    deck, defects, workdir, _ = run.timed_setup("kak_compile", SEED, smoke=True)
    run.shutil.rmtree(workdir, ignore_errors=True)
    assert defects and all("product" in t.label for t in defects)
    assert not any(t.known_defect for t in deck)
    known = report["known_defects"]
    assert known["attempted"] == len(defects)
    assert sum(known["failures"].values()) == known["failed"]
    assert any(ln.startswith("# known defects of the seed") and
               f"{known['failed']} of {known['attempted']} inputs failed" in ln
               for ln in run.report_lines(report))


def test_tail_reports_percentile_and_sample_count():
    t = run.tail([0.001 * i for i in range(1, 201)])
    assert (t["percentile"], t["samples"], t["beyond"]) == (95.0, 200, 10)
    t = run.tail([0.001 * i for i in range(1, 100)])
    assert (t["percentile"], t["samples"], t["beyond"]) == (75.0, 99, 25)
    report = _measure("kak_compile", False)
    assert report["tail"]["samples"] == report["work_counts"]["status.ok"]
    assert any("task_tail_ms is p" in ln and " successful tasks (" in ln
               for ln in run.report_lines(report))


def _corrupt_lcc(result):
    ext, ctl = result
    data = ext.output_state.data.copy()
    data[0] = -data[0]
    bad = dataclasses.replace(ext.output_state, data=data / abs(data).max())
    return dataclasses.replace(ext, output_state=bad), ctl


def _corrupt_cli(result):
    code, out, err = result
    lines = out.splitlines()
    return code, "\n".join(ln for ln in lines if not ln.startswith("round=1 ")), err


def test_corrupted_output_is_counted_as_failure():
    for workload, label_prefix, corrupt in (("lcc_grid", "n", _corrupt_lcc),
                                            ("cli_sessions", "protocol/", _corrupt_cli)):
        deck, _, workdir, _ = run.timed_setup(workload, SEED, smoke=True)
        try:
            clean = run.run_phase(deck, 0.0)
            index = next(i for i, t in enumerate(deck) if t.label.startswith(label_prefix))
            task = deck[index]
            deck[index] = dataclasses.replace(
                task, call=lambda call=task.call: corrupt(call()))
            phase = run.run_phase(deck, 0.0)
        finally:
            run.shutil.rmtree(workdir, ignore_errors=True)
        assert clean.first[index][1] == "ok"
        assert phase.first[index][1] == "wrong", phase.first[index][0]
        assert phase.failed == clean.failed + 1


def test_same_seed_same_counts_and_traced_outputs_match_untraced():
    for workload in run.WORKLOADS:
        first = _measure(workload, True)
        second = _measure(workload, True)
        for report in (first, second):
            check = report["traced_vs_untraced"]
            assert check["compared"] >= report["deck_len"] and check["mismatched"] == 0
        for key in ("work_counts", "trace_counts", "outputs_digest"):
            assert first[key] == second[key], (workload, key)
        assert first["work_counts"] and first["trace_counts"]


def test_tracer_restores_every_binding():
    from lccsim import cli, lcc, protocol, qcore

    before = (qcore.apply_to_subsystems, lcc.apply_to_subsystems,
              protocol.measure_postselect, cli.main, protocol.ProtocolTranscript.to_text)
    with tracing.Tracer():
        assert lcc.apply_to_subsystems is qcore.apply_to_subsystems
        assert lcc.apply_to_subsystems is not before[0]
    after = (qcore.apply_to_subsystems, lcc.apply_to_subsystems,
             protocol.measure_postselect, cli.main, protocol.ProtocolTranscript.to_text)
    assert after == before


def test_setup_probe_times_a_fresh_interpreter():
    (seconds,) = run.probe_setups("kak_compile", SEED, 1)
    assert 0.0 < seconds < 60.0
