import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lccsim
from lccsim import cli, gates, kak, lcc, protocol, qcore, tomography

SRC = Path(cli.__file__).resolve().parents[1]


def run(args):
    return cli.main(args)


def run_process(args):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "lccsim.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


@pytest.fixture
def u2_spec_file(tmp_path):
    path = tmp_path / "u2.json"
    path.write_text(lcc.spec_to_json(gates.combination_spec("U2")))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"operation": "U2", "epsilon": 1.0,
                                "tau": 0.5, "rounds": 200, "seed": 42}))
    return str(path)


class TestLccCommand:
    def test_u2_report(self, u2_spec_file, tmp_path, capsys):
        assert run(["lcc", u2_spec_file]) == 0
        out = capsys.readouterr().out
        assert "success_probability=0.500000000000" in out
        residual = float(out.split("residual_vs_direct_combination=")[1]
                         .splitlines()[0])
        assert residual < 1e-10

    def test_identity_spec(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"coefficients": [[1.0, 0.0], [0.0, 0.0]],
                                    "gates": ["I", "I"]}))
        assert run(["lcc", str(path)]) == 0
        out = capsys.readouterr().out
        residual = float(out.split("residual_vs_direct_combination=")[1]
                         .splitlines()[0])
        assert residual < 1e-12

    def test_unknown_gate_name_exit_5(self, tmp_path, capsys):
        # an unknown name exits 5; any other broken rule of the spec exits 3
        path, r2 = tmp_path / "spec.json", 1 / math.sqrt(2)
        for gate_names, code, err in (
                (["A", "NOPE"], 5, "error: unknown gate name 'NOPE'\n"),
                (["A", "B", "A"], 3, "error: invalid spec: one gate per "
                                     "coefficient required\n")):
            path.write_text(json.dumps({"coefficients": [[r2, 0.0], [r2, 0.0]],
                                        "gates": gate_names}))
            assert run(["lcc", str(path)]) == code
            assert capsys.readouterr().err == err

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["lcc", str(path)]) == 2

    def test_missing_file(self):
        assert run(["lcc", "/nonexistent/spec.json"]) == 2

    def test_empty_input_state_exit_4(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"coefficients": [[1.0, 0.0], [0.0, 0.0]],
                                    "gates": ["I", "I"], "input_state": []}))
        assert run(["lcc", str(path)]) == 4
        assert "input dimension 0 != gate dimension 2" in capsys.readouterr().err

    def test_vanishing_combination_exit_3(self, tmp_path):
        path = tmp_path / "vanish.json"
        r2 = 1 / math.sqrt(2)
        path.write_text(json.dumps({"coefficients": [[r2, 0.0], [-r2, 0.0]],
                                    "gates": ["I", "I"]}))
        code, err = run_process(["lcc", str(path)])
        assert code == 3
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "never succeeds" in err

    def test_huge_gate_with_finite_probability_runs_quietly(self, tmp_path):
        # squaring the 1e160 entry overflows in the unitarity check only
        path = tmp_path / "spec.json"
        path.write_text(
            '{"coefficients": [[0.7071067811865476, 0], [0.7071067811865476, 0]],'
            ' "gates": [[[[1e160, 0], [0, 0]], [[0, 0], [1, 0]]], "I"],'
            ' "input_state": [[0, 0], [1, 0]]}')
        code, err = run_process(["lcc", str(path)])
        assert (code, err) == (0, "")

    def test_overflowing_coefficient_norm_exit_3(self, tmp_path):
        # |1e200 (1 + i)|^2 overflows: one error line and no numpy warning
        path = tmp_path / "spec.json"
        path.write_text('{"coefficients": [[1e200, 1e200]], "gates": ["I"]}')
        code, err = run_process(["lcc", str(path)])
        assert code == 3
        assert err == ("error: invalid spec: coefficients not normalized: "
                       "sum |alpha|^2 = inf\n")

    @pytest.mark.parametrize("coefficient, entry, message", [
        ("NaN", "1", "must be finite"),
        ("0.7071067811865476", "Infinity", "must be finite"),
        ("0.7071067811865476", "1e308", "overflows")])
    def test_non_finite_spec_exit_3(self, tmp_path, coefficient, entry,
                                    message):
        # json reads NaN and Infinity as floats
        path = tmp_path / "spec.json"
        path.write_text(
            f'{{"coefficients": [[{coefficient}, 0], [0.7071067811865476, 0]],'
            f' "gates": [[[[{entry}, 0], [0, 0]], [[0, 0], [{entry}, 0]]], "I"]}}')
        code, err = run_process(["lcc", str(path)])
        assert code == 3
        assert "Traceback" not in err and "Warning" not in err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("path, value, message", [
        (("coefficients", 0, 1), False,
         "coefficient must be a JSON number, got False"),
        (("coefficients", 0, 0), 10 ** 400,
         "coefficient must lie within float range"),
        (("gates", 0, 0, 0, 0), True,
         "gate entry must be a JSON number, got True"),
        (("gates", 0, 1, 1, 0), 10 ** 400,
         "gate entry must lie within float range"),
        (("input_state", 0, 0), True,
         "input_state amplitude must be a JSON number, got True"),
        (("input_state", 1, 1), 10 ** 400,
         "input_state amplitude must lie within float range")],
        ids=["coefficient-false", "coefficient-huge", "gate-true", "gate-huge",
             "input-true", "input-huge"])
    def test_pair_half_that_is_no_float_exit_2(self, tmp_path, path, value,
                                               message):
        # each value replaces a 1 or a 0, so `true` and `false` would
        # otherwise run as 1 and 0
        r2 = 1 / math.sqrt(2)
        doc = {"coefficients": [[r2, 0], [r2, 0]],
               "gates": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "X"],
               "input_state": [[1, 0], [0, 0]]}
        _set_leaf(doc, path, value)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code, err = run_process(["lcc", str(spec)])
        assert (code, err) == (2, f"error: invalid spec: {message}\n")


class TestKakCommand:
    def test_cnot(self, tmp_path, capsys):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        path = tmp_path / "cnot.txt"
        path.write_text(qcore.format_matrix(cnot))
        assert run(["kak", str(path)]) == 0
        out = capsys.readouterr().out
        assert float(out.split("residual=")[1].splitlines()[0]) < 1e-9
        mags = sorted(abs(complex(t))
                      for t in out.split("alphas=")[1].splitlines()[0].split())
        assert abs(mags[-1] - 1 / math.sqrt(2)) < 1e-9
        assert abs(mags[-2] - 1 / math.sqrt(2)) < 1e-9

    def test_identity_k_vector(self, tmp_path, capsys):
        path = tmp_path / "i4.txt"
        path.write_text(qcore.format_matrix(np.eye(4, dtype=complex)))
        assert run(["kak", str(path)]) == 0
        kvec = capsys.readouterr().out.split("k_vector=")[1].splitlines()[0]
        assert all(abs(float(v)) < 1e-9 for v in kvec.split())

    def test_iswap_prints_no_negative_zero(self, tmp_path, capsys):
        # iSWAP's k_vector, alphas and global phase hold values that
        # round to zero from below
        iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0],
                          [0, 0, 0, 1]])
        path = tmp_path / "iswap.txt"
        path.write_text(qcore.format_matrix(iswap))
        assert run(["kak", str(path)]) == 0
        out = capsys.readouterr().out
        assert "-0.000000000000" not in out
        assert "global_phase=+0.000000000000\n" in out

    @pytest.mark.parametrize("x, fmt, text", [
        (-0.0, "+.12f", "+0.000000000000"),
        (-4e-13, "+.12f", "+0.000000000000"),
        (-6e-13, "+.12f", "-0.000000000001"),
        (-1e-15, ".12f", "0.000000000000"),
        (-1e-7, ".6f", "0.000000"),
        (-0.5, ".6f", "-0.500000"),
        (0.25, "+.12f", "+0.250000000000")])
    def test_fixed_point_has_no_negative_zero(self, x, fmt, text):
        assert cli._fixed(x, fmt) == text

    def test_non_unitary_exit_3(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(qcore.format_matrix(np.ones((4, 4), dtype=complex)))
        assert run(["kak", str(path)]) == 3

    def test_overflowing_matrix_exit_3_without_warnings(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(qcore.format_matrix(np.diag([1e200, 1, 1, 1])))
        code, err = run_process(["kak", str(path)])
        assert code == 3
        assert err == "error: matrix is not unitary\n"

    def test_small_diagonal_defect_exit_3(self, tmp_path):
        # within numpy's default relative tolerance of unitary, but 2e-6
        # from it: rejected up front, not deep inside the decomposition
        path = tmp_path / "near.txt"
        path.write_text(qcore.format_matrix(np.diag([1 + 1e-6, 1, 1, 1])))
        code, err = run_process(["kak", str(path)])
        assert code == 3
        assert err == "error: matrix is not unitary\n"

    def test_prints_the_decomposition_residual(self, tmp_path, capsys):
        u = qcore.haar_random_unitary(4, np.random.default_rng(11))
        path = tmp_path / "haar.txt"
        path.write_text(qcore.format_matrix(u))
        assert run(["kak", str(path)]) == 0
        want = kak.kak_decompose(qcore.parse_matrix(path.read_text())).residual
        assert f"\nresidual={want:.3e}\n" in capsys.readouterr().out

    def test_random_batch_prints_the_decomposition_residuals(self, capsys):
        assert run(["--seed", "5", "kak", "--random", "4"]) == 0
        rng = np.random.default_rng(5)
        want = [kak.kak_decompose(qcore.haar_random_unitary(4, rng)).residual
                for _ in range(4)]
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"sample={i} residual={r:.3e}"
                             for i, r in enumerate(want)] + [
                                 f"max_residual={max(want):.3e}"]

    def test_wrong_shape_exit_4(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text(qcore.format_matrix(np.eye(2, dtype=complex)))
        assert run(["kak", str(path)]) == 4

    def test_random_batch(self, capsys):
        assert run(["--seed", "5", "kak", "--random", "5"]) == 0
        out = capsys.readouterr().out
        assert "max_residual=" in out
        assert float(out.split("max_residual=")[1].strip()) < 1e-9

    def test_random_batch_needs_seed(self):
        assert run(["kak", "--random", "3"]) == 3

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_random_count_not_positive_exit_2(self, count):
        code, err = run_process(["--seed", "1", "kak", "--random", count])
        assert code == 2
        assert "Traceback" not in err and err.count("\n") == 1

    def test_negative_seed_exit_2(self):
        code, err = run_process(["--seed", "-1", "kak", "--random", "2"])
        assert code == 2
        assert "Traceback" not in err and err.count("\n") == 1
        assert "--seed" in err

    def test_matrix_file_and_random_exit_2(self, tmp_path):
        # the file would otherwise be ignored without a word
        path = tmp_path / "cnot.txt"
        path.write_text(qcore.format_matrix(np.eye(4, dtype=complex)[[0, 1, 3, 2]]))
        code, err = run_process(["--seed", "1", "kak", str(path), "--random", "2"])
        assert code == 2
        assert err == "error: kak takes a matrix file or --random N, not both\n"


class TestProtocolCommand:
    def test_session_report(self, scenario_file, capsys):
        assert run(["protocol", scenario_file]) == 0
        out = capsys.readouterr().out
        # tau=1/2, epsilon=1/(n-1) gives p_compute = 1/(2n) = 0.25
        assert "p_compute=0.250000000000" in out
        assert "analytic_success_probability=0.125000000000" in out
        assert "# summary" in out

    def test_zero_round_scenario(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"operation": "U2", "epsilon": 1.0,
                                    "tau": 0.5, "rounds": 0, "seed": 1}))
        assert run(["protocol", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("# rounds=0", "# kind_counts={}",
                     "# mean_compute_fidelity=None"):
            assert line in lines

    def test_one_teleport_stage_per_session(self, tmp_path, monkeypatch,
                                            capsys):
        # the header's detection rate is read off the session's own law,
        # not computed by a second teleport stage
        calls = []
        stage = protocol._teleport_stage

        def counted(*args):
            calls.append(args)
            return stage(*args)

        monkeypatch.setattr(protocol, "_teleport_stage", counted)
        path = tmp_path / "intercept.json"
        path.write_text(json.dumps({
            "operation": "U12", "epsilon": 0.5, "tau": 0.6, "rounds": 300,
            "seed": 3, "behavior": "intercept", "intercept_fraction": 0.7,
            "intercept_basis": "x"}))
        assert run(["protocol", str(path)]) == 0
        assert len(calls) == 1
        assert "analytic_detection_rate=0.0000" not in capsys.readouterr().out

    def test_unknown_operation_exit_5(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"operation": "U99", "epsilon": 1.0,
                                    "tau": 0.5, "rounds": 5, "seed": 1}))
        assert run(["protocol", str(path)]) == 5

    def test_missing_field_exit_2(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"operation": "U2"}))
        assert run(["protocol", str(path)]) == 2

    def test_bad_input_dimension_exit_4(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({
            "operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": 5,
            "seed": 1,
            "input_state": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
        assert run(["protocol", str(path)]) == 4

    @pytest.mark.parametrize("field, value", [
        ("epsilon", -1.0), ("epsilon", 0.0), ("tau", 0.0), ("tau", 1.5)])
    def test_invalid_policy_exit_3(self, tmp_path, field, value):
        path = tmp_path / "policy.json"
        doc = {"operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": 5,
               "seed": 1, field: value}
        path.write_text(json.dumps(doc))
        code, err = run_process(["protocol", str(path)])
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_numeric_epsilon_exit_2(self, tmp_path):
        path = tmp_path / "text.json"
        path.write_text(json.dumps({"operation": "U2", "epsilon": "half",
                                    "tau": 0.5, "rounds": 5, "seed": 1}))
        code, err = run_process(["protocol", str(path)])
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("tau", None), ("rounds", "many"), ("rounds", 1e400), ("seed", -1),
        ("intercept_fraction", [0.5]), ("input_state", [[1.0], [0.0]]),
        # each keeps its JSON type: int() or float() would change its value
        ("rounds", 2.9), ("rounds", True), ("seed", 1.7), ("seed", True),
        ("epsilon", True), ("epsilon", "0.5"), ("tau", "0.5"),
        ("intercept_fraction", False)])
    def test_malformed_numeric_field_exit_2(self, tmp_path, field, value):
        path = tmp_path / "field.json"
        doc = {"operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": 5,
               "seed": 1, field: value}
        path.write_text(json.dumps(doc))
        assert run(["protocol", str(path)]) == 2

    def test_integer_valued_numbers_accepted(self, tmp_path, capsys):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({
            "operation": "U2", "epsilon": 1, "tau": 0.5, "rounds": 20,
            "seed": 1, "behavior": "intercept", "intercept_fraction": 1}))
        assert run(["protocol", str(path)]) == 0
        assert capsys.readouterr().out.count("\nround=") == 20

    def test_closed_pipe_ends_quietly(self, tmp_path):
        # 5000 rounds print about 350 KB, far more than a 64 KiB pipe
        # buffer holds, so the writer is still writing when the pipe closes
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"operation": "U2", "epsilon": 1.0,
                                    "tau": 0.5, "rounds": 5000, "seed": 1}))
        with subprocess.Popen(
                [sys.executable, "-m", "lccsim.cli", "protocol", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(SRC))) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert first.startswith(b"# protocol session: operation=U2")
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("doc", [
        ["operation", "epsilon", "tau", "rounds"],
        {"operation": ["U2"], "epsilon": 1.0, "tau": 0.5, "rounds": 5,
         "seed": 1},
        {"operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": -1,
         "seed": 1}])
    def test_malformed_scenario_exit_2(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, err = run_process(["protocol", str(path)])
        assert code == 2
        assert "Traceback" not in err and err.count("\n") == 1

    def test_summary_values_are_literals(self, tmp_path, capsys):
        path = tmp_path / "intercept.json"
        path.write_text(json.dumps({
            "operation": "U12", "epsilon": 0.5, "tau": 0.7, "rounds": 400,
            "seed": 3, "behavior": "intercept", "intercept_fraction": 0.6}))
        assert run(["protocol", str(path)]) == 0
        out = capsys.readouterr().out
        summary = out.split("# summary\n")[1].splitlines()
        values = dict(line[2:].split("=", 1) for line in summary)
        assert set(values) == {"completed", "detections", "empirical_completion",
                               "kind_counts", "mean_compute_fidelity", "rounds"}
        parsed = {k: ast.literal_eval(v) for k, v in values.items()}
        assert parsed["detections"] > 0
        assert parsed["empirical_completion"] == parsed["completed"] / 400

    @pytest.mark.parametrize("amps", [[[3, 0], [0, 0]], [[0.5, 0], [0, 0]],
                                      [[0, 0], [0, 0]]])
    def test_unnormalized_input_exit_3(self, tmp_path, amps):
        path = tmp_path / "norm.json"
        path.write_text(json.dumps({
            "operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": 50,
            "seed": 1, "behavior": "intercept", "intercept_fraction": 0.5,
            "input_state": amps}))
        code, err = run_process(["protocol", str(path)])
        assert code == 3
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "normalized" in err

    @pytest.mark.parametrize("amps, message", [
        ([[True, 0], [0, 0]], "must be a JSON number, got True"),
        ([[1, 0], [0, False]], "must be a JSON number, got False"),
        ([[1, 0], [10 ** 400, 0]], "must lie within float range")],
        ids=["true", "false", "huge"])
    def test_input_pair_half_that_is_no_float_exit_2(self, tmp_path, amps,
                                                     message):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({
            "operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": 5,
            "seed": 1, "input_state": amps}))
        code, err = run_process(["protocol", str(path)])
        assert (code, err) == (2, "error: invalid scenario field: "
                                  f"input_state amplitude {message}\n")

    @pytest.mark.parametrize("rounds", [protocol.MAX_ROUNDS + 1, 10 ** 15])
    def test_rounds_above_bound_exit_2(self, tmp_path, monkeypatch, capsys,
                                       rounds):
        def no_session(*args):
            raise AssertionError("a session was started")

        monkeypatch.setattr(protocol, "run_session", no_session)
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"operation": "U2", "epsilon": 1.0,
                                    "tau": 0.5, "rounds": rounds, "seed": 1}))
        assert run(["protocol", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(protocol.MAX_ROUNDS) in err
        code, err = run_process(["protocol", str(path)])
        assert code == 2
        assert "Traceback" not in err and err.count("\n") == 1

    def test_rounds_at_bound_reach_the_session(self, tmp_path, monkeypatch):
        class Started(Exception):
            pass

        def stub(spec, input_state, policy, behavior, rounds, rng):
            raise Started(rounds)

        monkeypatch.setattr(protocol, "run_session", stub)
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"operation": "U2", "epsilon": 1.0,
                                    "tau": 0.5, "rounds": protocol.MAX_ROUNDS,
                                    "seed": 1}))
        with pytest.raises(Started) as info:
            run(["protocol", str(path)])
        assert info.value.args == (protocol.MAX_ROUNDS,)

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        path = tmp_path / "intercept.json"
        path.write_text(json.dumps({
            "operation": "U12", "epsilon": 0.5, "tau": 0.7, "rounds": 400,
            "seed": 3, "behavior": "intercept", "intercept_fraction": 0.6}))
        assert run(["protocol", str(path)]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert run(["--out", str(out), "protocol", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()
        assert stdout.count("\nround=") == 400

    @pytest.mark.parametrize("behavior", ["honest", "skip_measurement"])
    def test_no_detection_rate_without_intercept(self, tmp_path, capsys,
                                                 behavior):
        path = tmp_path / "fraction.json"
        path.write_text(json.dumps({
            "operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": 2000,
            "seed": 1, "behavior": behavior, "intercept_fraction": 0.8}))
        assert run(["protocol", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# detections=0 analytic_detection_rate=0.000000000000\n" in out


class TestTomographyCommand:
    def test_analytic_table(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("U1\nU2\nU12\n")
        assert run(["tomography", str(ops)]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("U"):
                assert float(line.split()[1]) >= 0.999

    def test_noisy_below_analytic(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        run(["tomography", str(ops)])
        analytic = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        run(["--seed", "3", "tomography", str(ops), "--noise", "0.05",
             "--shots", "1000"])
        noisy = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        assert noisy < analytic

    def test_unknown_name_exit_5(self, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("U1\nNOPE\n")
        assert run(["tomography", str(ops)]) == 5

    def test_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("# a comment\n\nU2\n  # indented comment\nX\n")
        assert run(["tomography", str(ops)]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert rows == ["U2", "X"]

    def test_empty_list_exit_5(self, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("# nothing here\n")
        assert run(["tomography", str(ops)]) == 5

    @pytest.mark.parametrize("shots", ["-5", "100000000000000000000"])
    def test_shots_out_of_range_exit_2(self, tmp_path, shots):
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        for mode in (["--sampled"], []):
            code, err = run_process(["--seed", "1", "tomography", str(ops),
                                     "--shots", shots, *mode])
            assert code == 2
            assert "Traceback" not in err
            assert err.count("\n") == 1 and "--shots" in err

    @pytest.mark.parametrize("mode", [["--sampled"], []])
    def test_negative_resamples_exit_2(self, tmp_path, mode):
        # a negative count used to print a std of 0 as if none were asked
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        code, err = run_process(["--seed", "1", "tomography", str(ops),
                                 "--resamples", "-1", *mode])
        assert code == 2
        assert err == "error: --resamples must be non-negative, got -1\n"

    def test_one_resample_exit_2(self, tmp_path):
        # one resample has no spread: the std column would read 0
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        code, err = run_process(["--seed", "1", "tomography", str(ops),
                                 "--sampled", "--shots", "200",
                                 "--resamples", "1"])
        assert code == 2
        assert err == "error: --resamples must be 0 or at least 2, got 1\n"

    @pytest.mark.parametrize("resamples", ["1", "2"])
    def test_resamples_in_analytic_mode_exit_2(self, tmp_path, resamples):
        # analytic counts are exact: there is nothing to resample
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        code, err = run_process(["--seed", "1", "tomography", str(ops),
                                 "--resamples", resamples])
        assert code == 2
        assert err == ("error: --resamples needs sampled counts "
                       "(--sampled or --noise above 0)\n")

    def test_negative_seed_exit_2(self, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        code, err = run_process(["--seed", "-1", "tomography", str(ops),
                                 "--sampled"])
        assert code == 2
        assert "Traceback" not in err and err.count("\n") == 1
        assert "--seed" in err

    def test_largest_shots_sampled(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        assert run(["--seed", "1", "tomography", str(ops),
                    "--shots", str(tomography.MAX_SHOTS), "--sampled"]) == 0
        assert float(capsys.readouterr().out.split()[-2]) > 0.999

    def test_zero_shots_exit_3(self, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        code, err = run_process(["--seed", "1", "tomography", str(ops),
                                 "--shots", "0", "--sampled"])
        assert code == 3
        assert err == "error: dataset is empty\n"


_LONG_NAME = "U" * 100_000
_SCENARIO = {"operation": "U2", "epsilon": 1.0, "tau": 0.5, "rounds": 5,
             "seed": 1}


class TestOneErrorLine:
    """A failure ends in one bounded stderr line, however large the input."""

    @pytest.mark.parametrize("command, text, args", [
        ("lcc", json.dumps({"coefficients": [[1.0, 0.0], [0.0, 0.0]],
                            "gates": ["A", _LONG_NAME]}), []),
        ("protocol", json.dumps({**_SCENARIO, "operation": _LONG_NAME}), []),
        ("tomography", f"U1\n{_LONG_NAME}\n", []),
        # the name is refused before the missing seed is
        ("tomography", f"{_LONG_NAME}\n", ["--sampled"])],
        ids=["lcc", "protocol", "tomography", "tomography-before-seed"])
    def test_long_unknown_name_exit_5(self, tmp_path, capsys, command, text,
                                      args):
        path = tmp_path / "input"
        path.write_text(text)
        assert run([command, str(path), *args]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("text, start", [
        (json.dumps({**_SCENARIO, "epsilon": list(range(50_000))}),
         "error: invalid scenario field: epsilon must be a JSON number, "
         "got [0, 1, 2,"),
        (json.dumps({**_SCENARIO, "behaviour": "intercept",
                     "intercept_fraction": 1.0}),
         "error: scenario has unknown field 'behaviour'\n"),
        (json.dumps({**_SCENARIO, "x" * 50_000: 1}),
         "error: scenario has unknown field 'xxx"),
        (json.dumps(_SCENARIO).replace('"rounds": 5', '"rounds": ' + "7" * 5001),
         "error: invalid scenario file: Exceeds the limit (4300 digits)")],
        ids=["long-list", "misspelt", "long-key", "5001-digits"])
    def test_large_or_misspelt_field_exit_2(self, tmp_path, text, start):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, err = run_process(["protocol", str(path)])
        assert code == 2
        assert err.startswith(start) and err.count("\n") == 1
        assert "Traceback" not in err and len(err.encode()) < 300

    @pytest.mark.parametrize("field, value, code, err", [
        ("operation", list(range(50_000)), 2,
         "error: operation must be a name, got [0, 1, 2, 3, 4, 5, ...]\n"),
        ("seed", "s" * 50_000, 2,
         "error: invalid scenario field: seed must be a JSON integer, "
         "got 'ssssssssssss...sssssssssssss'\n"),
        ("behavior", "b" * 50_000, 3,
         "error: unknown server mode 'bbbbbbbbbbbb...bbbbbbbbbbbbb'\n")],
        ids=["operation", "seed", "behavior"])
    def test_large_value_echoed_bounded(self, tmp_path, capsys, field, value,
                                        code, err):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**_SCENARIO, field: value}))
        assert run(["protocol", str(path)]) == code
        assert capsys.readouterr().err == err


def _set_leaf(doc, path, value):
    """Put ``value`` at ``path``, a sequence of keys and indices, in ``doc``."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _leaf_paths(node, path=()):
    """The path of every leaf (a value that is no list or object) of ``node``."""
    if isinstance(node, (list, dict)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


_R2 = 1 / math.sqrt(2)
# valid inputs of each JSON reader; the scenario runs at most 50 rounds
FUZZ_DOCS = (
    ("lcc", json.loads(lcc.spec_to_json(gates.combination_spec("U2"),
                                        qcore.statevector([_R2, 1j * _R2])))),
    ("lcc", {"coefficients": [[_R2, 0], [0, _R2]], "gates": ["A", "Z"]}),
    ("protocol", {"operation": "U12", "epsilon": 0.5, "tau": 0.5,
                  "rounds": 50, "seed": 1, "behavior": "intercept",
                  "intercept_fraction": 0.5, "intercept_basis": "z",
                  "input_state": [[_R2, 0], [0, _R2]]}),
)
FUZZ_CASES = tuple((command, doc, path) for command, doc in FUZZ_DOCS
                   for path in _leaf_paths(doc))
FUZZ_VALUES = (True, None, "x", 10 ** 400, 1e308, -1, [], {})


class TestJsonReadersFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(FUZZ_CASES), st.sampled_from(FUZZ_VALUES))
    def test_one_replaced_leaf(self, tmp_path_factory, case, value):
        # every outcome is a documented exit code, with one error line on
        # stderr, no warning, and no exception out of `main`
        command, doc, path = case
        doc = json.loads(json.dumps(doc))
        _set_leaf(doc, path, value)
        file = tmp_path_factory.mktemp("fuzz") / "input.json"
        file.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, str(file)])
        assert caught == []
        assert code in (0, 2, 3, 4, 5)
        err = err.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith("\n")


# argv, with {placeholders} for the files `TestDispatch` writes, and the
# start of the one stderr line, for inputs that cannot be read or parsed
# and outputs that cannot be written: each exits 2 and writes no output
IO_FAULTS = {
    "lcc-undecodable": (["lcc", "{bad}"], "error: cannot read {bad}: "),
    "kak-undecodable": (["kak", "{bad}"], "error: cannot read {bad}: "),
    "protocol-undecodable": (["protocol", "{bad}"],
                             "error: cannot read {bad}: "),
    "tomography-undecodable": (["tomography", "{bad}"],
                               "error: cannot read {bad}: "),
    "lcc-nested-too-deeply": (["lcc", "{deep}"], "error: invalid spec: "),
    "protocol-nested-too-deeply": (["protocol", "{deep}"],
                                   "error: invalid scenario file: "),
    "out-is-a-directory": (["--out", "{dir}", "protocol", "{scenario}"],
                           "error: cannot write {dir}: "),
    "out-parent-missing": (["--out", "{missing}", "protocol", "{scenario}"],
                           "error: cannot write {missing}: "),
    "kak-out-parent-missing": (
        ["--seed", "1", "--out", "{missing}", "kak", "--random", "1"],
        "error: cannot write {missing}: "),
    "protocol-negative-seed-flag": (
        ["--seed", "-1", "protocol", "{scenario}"],
        "error: --seed must be non-negative, got -1"),
    "protocol-negative-seed-field": (
        ["protocol", "{negative_seed}"],
        "error: invalid scenario field: seed must be non-negative, got -1"),
}


class TestDispatch:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("name", sorted(IO_FAULTS))
    def test_io_fault_exit_2(self, name, tmp_path, capsys):
        scenario = {"operation": "U2", "epsilon": 1.0, "tau": 0.5,
                    "rounds": 20, "seed": 3}
        files = {"bad": tmp_path / "bad.bin", "deep": tmp_path / "deep.json",
                 "scenario": tmp_path / "scenario.json",
                 "negative_seed": tmp_path / "negative.json",
                 "dir": tmp_path / "outdir",
                 "missing": tmp_path / "absent" / "out.txt",
                 "out": tmp_path / "out.txt"}
        files["bad"].write_bytes(b"\xff\xfe\x00")
        files["deep"].write_text("[" * 100000 + "]" * 100000)
        files["scenario"].write_text(json.dumps(scenario))
        files["negative_seed"].write_text(json.dumps({**scenario, "seed": -1}))
        files["dir"].mkdir()
        argv, start = IO_FAULTS[name]
        argv = [a.format(**files) for a in argv]
        if "--out" not in argv:
            argv = ["--out", str(files["out"]), *argv]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(start.format(**files))
        assert "Traceback" not in err
        if name == "protocol-negative-seed-flag":
            assert "--seed" in err
        # no output file is left behind
        assert not files["out"].exists()
        assert not files["missing"].parent.exists()
        assert list(files["dir"].iterdir()) == []

    def test_replaced_subcommand_is_called(self, scenario_file, tmp_path,
                                           monkeypatch):
        out = str(tmp_path / "out.txt")
        assert run(["--out", out, "protocol", scenario_file]) == 0
        calls = []

        def spy(args):
            calls.append(args.scenario)
            return 0

        monkeypatch.setattr(cli, "cmd_protocol", spy)
        assert run(["--out", out, "protocol", scenario_file]) == 0
        assert calls == [scenario_file]

    def test_format_option_is_gone(self, u2_spec_file):
        # it offered one choice, text, and so changed nothing
        with pytest.raises(SystemExit) as info:
            run(["--format", "text", "lcc", u2_spec_file])
        assert info.value.code == 2


# sha256 of `lccsim protocol` stdout, keyed by operation, behaviour,
# intercept basis and epsilon, for tau 0.6, 500 rounds, seed 7 and, for
# an intercepting server, intercept fraction 0.7.
# A change that moves these bytes must say so and update the digest.
PROTOCOL_DIGESTS = {
    ("U2", "honest", None, 0.5):
        "35ee1a273f101b68db73d3dfdaf45c39657201cc42d493000a522425246b9f0f",
    ("U2", "intercept", "x", 0.5):
        "78f1b17c69a08101f6c8d911c8db1a23803e031946709ce818702d1d46eddaed",
    ("U2", "intercept", "z", 0.5):
        "849349db2d3c9c9fb829295502e934f6173bfece4de936f73dfc7210d4ab9d39",
    ("U2", "skip_measurement", None, 0.5):
        "44569d09ebbf36739be0cac49cf5fe74c47430e475f9d5a39ca459eb368dd995",
    ("U4", "honest", None, 0.5):
        "974965c27b77ced85f6cfb76b24819f768b49139138fc139115379e3b51a852d",
    ("U4", "intercept", "x", 0.5):
        "954f2b6b05f09682705cb09d350341706b10bb5aaf93f70f6cac19e176001002",
    ("U4", "intercept", "z", 0.5):
        "880132f7a8d3b3b63d5e01d9ad362f391b1e177305f7d7bc5b4b4f4bb8dc43d2",
    # U4's control (1, 0) is a z basis state, which the skipping
    # server's z-basis measurement leaves as it is: its bytes are honest
    ("U4", "skip_measurement", None, 0.5):
        "974965c27b77ced85f6cfb76b24819f768b49139138fc139115379e3b51a852d",
    ("U12", "honest", None, 0.5):
        "2b7c073639d3cb1e3f3d4a7efb1c10961a4d7c072f29e89a2f29d4e4892acd62",
    ("U12", "intercept", "x", 0.5):
        "f19c87801d2cfa393912ee6952916bf04811b42845fefc0ef797d3ded64a1e7a",
    ("U12", "intercept", "z", 0.5):
        "d3f0edf2b4ab39c3c3ec8945327a1cac8e94c59b42c443c3b5933bc736c9dd82",
    ("U12", "skip_measurement", None, 0.5):
        "02eb933ae383d3857ef0731b06ee81e03dc7fdf316109c810f8e1071eb8505b2",
    # at epsilon = 1 a pure control's decoy has a weight of zero, which
    # rounding can leave at 5.55e-17
    ("U2", "honest", None, 1.0):
        "78ae496928a12d9606f839edd27d9211da89dc6330b986368a4b08c58f34812f",
    ("U2", "intercept", "x", 1.0):
        "64a08567eee24823ed2836ad4da4bb8346bc61271b73cf7be6f2fe6b2a1f83b3",
    ("U12", "honest", None, 1.0):
        "28ea56836476636e04b41bad37a63dd5e3d753f2c2f4c962a8de9020edc757cd",
    ("U12", "intercept", "x", 1.0):
        "d8d80658978d08bd77508351c52b99ca8776e3678b8a19d53517596197e01287",
}


# sha256 of `lccsim lcc` stdout, keyed by term count, dimension and
# whether the terms are unitary, for the spec and input that
# `_random_spec_text` draws from the seed n * 100 + d.
# A change that moves these bytes must say so and update the digest.
LCC_DIGESTS = {
    (1, 2, True):
        "71641d467f76e419dd1f2d72616186fb2bac5fbcc57e006aa0c0a3be6a8e4ff0",
    (2, 2, True):
        "96a63584edbf6bf68d5de5a76129a6a041d271616b20f0a013f4f1b7186a35ff",
    (4, 4, True):
        "902c5837a1f4288b3ca36a743e572c2513a1890627d712d20a7f60d91990e1ae",
    (16, 2, True):
        "889656a0a879151ec7d61afa5580890a7e6db6396767044a9a93ea785ae3fe7b",
    (16, 4, True):
        "d0bef545fd55c2734f9786a076294475c40cc7b13a1159cba1e107472e12c739",
    (4, 2, False):
        "0fe12b5d20ad3fb907a43e956157f76f0c4c17e65db3a7a7a92fa65859f71057",
}


# sha256 of `lccsim kak` stdout: for the matrix files iswap.txt, cnot.txt
# and swap.txt (named so, in the working directory, as the report prints
# the name), and for `--seed 3 kak --random 3`.
# A change that moves these bytes must say so and update the digest.
KAK_DIGESTS = {
    "iswap": "17c8eb9e83b6b200fbc7fa775486045faee8cf68134579ad4b6abc535c48be5e",
    "cnot": "611c575c3e21a5403b9a5b5632d01b79906062da5c4146e77c1baaa71a22ef4d",
    "swap": "860076761977cbe2677db90e9bd315c6c1e84813328e6c39aa04a8122b062a1d",
    "random": "37dde4a223f3d55c85d009348d0e0ab4b21f726bf606a1fe3724b1f8890ac5e1",
}

KAK_MATRICES = {
    "iswap": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0],
                       [0, 0, 0, 1]]),
    "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "swap": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}


def _random_spec_text(n, d, unitary):
    rng = np.random.default_rng(n * 100 + d)
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    terms = tuple(qcore.haar_random_unitary(d, rng) if unitary
                  else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                  for _ in range(n))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return lcc.spec_to_json(
        lcc.LinearCombinationSpec(alpha / np.linalg.norm(alpha), terms),
        qcore.statevector(psi / np.linalg.norm(psi)))


class TestDeterminism:
    @pytest.mark.parametrize("n, d, unitary", list(LCC_DIGESTS))
    def test_lcc_bytes_pinned(self, tmp_path, capsys, n, d, unitary):
        path = tmp_path / "spec.json"
        path.write_text(_random_spec_text(n, d, unitary))
        assert run(["lcc", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == LCC_DIGESTS[n, d, unitary]

    # the epsilon = 0.5 scenarios leave epsilon out of their ids
    @pytest.mark.parametrize("operation, behavior, basis, epsilon", [
        pytest.param(*key, id="-".join(map(str, key if key[3] != 0.5
                                           else key[:3])))
        for key in PROTOCOL_DIGESTS])
    def test_protocol_bytes_pinned(self, tmp_path, capsys, operation,
                                   behavior, basis, epsilon):
        doc = {"operation": operation, "epsilon": epsilon, "tau": 0.6,
               "rounds": 500, "seed": 7, "behavior": behavior}
        if basis:
            doc.update(intercept_fraction=0.7, intercept_basis=basis)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run(["protocol", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == PROTOCOL_DIGESTS[operation, behavior, basis,
                                          epsilon]

    @pytest.mark.parametrize("name", list(KAK_DIGESTS))
    def test_kak_bytes_pinned(self, tmp_path, capsys, monkeypatch, name):
        if name == "random":
            argv = ["--seed", "3", "kak", "--random", "3"]
        else:
            monkeypatch.chdir(tmp_path)
            Path(f"{name}.txt").write_text(
                qcore.format_matrix(KAK_MATRICES[name]))
            argv = ["kak", f"{name}.txt"]
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == KAK_DIGESTS[name]

    def test_protocol_byte_identical(self, scenario_file, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(["--out", str(a), "protocol", scenario_file]) == 0
        assert run(["--out", str(b), "protocol", scenario_file]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kak_random_byte_identical(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(["--seed", "11", "--out", str(a), "kak", "--random", "4"]) == 0
        assert run(["--seed", "11", "--out", str(b), "kak", "--random", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPackage:
    def test_cli_path_imports_no_scipy(self, tmp_path, scenario_file):
        # loading scipy.optimize adds about 47 MB to the peak RSS
        ops = tmp_path / "ops.txt"
        ops.write_text("U2\n")
        spec = tmp_path / "spec.json"
        spec.write_text(lcc.spec_to_json(gates.combination_spec("U2"),
                                         qcore.basis_state((2,), (0,))))
        script = (
            "import sys\n"
            "import lccsim\n"
            "from lccsim import cli\n"
            "ops, scenario, spec, out = sys.argv[1:]\n"
            "assert cli.main(['--out', out, 'tomography', ops]) == 0\n"
            "assert cli.main(['--out', out, '--seed', '3', 'tomography', ops,\n"
            "                 '--sampled', '--shots', '200', '--noise', '0.05',\n"
            "                 '--resamples', '2']) == 0\n"
            "assert cli.main(['--out', out, 'protocol', scenario]) == 0\n"
            "assert cli.main(['--out', out, 'lcc', spec]) == 0\n"
            "assert cli.main(['--out', out, '--seed', '3', 'kak', '--random', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ops), scenario_file, str(spec),
             str(tmp_path / "out.txt")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runs_with_scipy_unimportable(self):
        # scipy is not a dependency: the KAK core must not reach for it
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from lccsim import kak\n"
            "dec = kak.kak_decompose(np.eye(4)[[0, 1, 3, 2]])\n"
            "assert np.abs(kak.alphas_from_core(dec.nonlocal_core())\n"
            "              - dec.alphas).max() < 1e-10\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        text = (SRC.parent / "pyproject.toml").read_text()
        assert "scipy" not in text

    def test_version_matches_pyproject(self):
        text = (SRC.parent / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
        assert lccsim.__version__ == version
