"""Command-line front end: reproducible runs of the simulator pipelines.

Subcommands: lcc, kak, protocol, tomography.  All stochastic commands
require --seed; identical inputs and seed produce byte-identical output.

Exit codes: 0 success, 2 parse failure, 3 precondition violation,
4 dimension mismatch, 5 unknown operation name (``gates`` judges names,
and `main` alone maps its ``UnknownNameError`` to 5).  A reader that
closes the output pipe early (``lccsim protocol s.json | head -1``) ends
the run quietly with exit 0: it has read all it wanted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import sys

import numpy as np

from . import gates, kak, lcc, protocol, qcore, tomography
from .qcore import DimensionMismatchError, InvalidInputError, UnknownNameError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DIMENSION = 4
EXIT_UNKNOWN_NAME = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fixed(x: float, fmt: str = "+.12f") -> str:
    """``x`` in the fixed-point format ``fmt``.  A value that rounds to
    zero prints as zero with no minus sign: +0.000000000000, not
    -0.000000000000."""
    text = format(x, fmt)
    if text.startswith("-") and not text.strip("-0."):
        text = text.replace("-", "+" if fmt.startswith("+") else "", 1)
    return text


def _fmt_complex(z: complex) -> str:
    return f"{_fixed(z.real)}{_fixed(z.imag)}j"


def _emit(lines: list[str], args, body: str = "") -> None:
    """Write `lines`, one per line, then `body` as it is."""
    head = "\n".join(lines) + "\n"
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise _CliError(EXIT_PARSE, f"cannot write {args.out}: {exc}") from None
        with fh:
            fh.write(head)
            fh.write(body)
    else:
        sys.stdout.write(head)
        sys.stdout.write(body)
        # a closed pipe then raises in `main`, not in the final flush
        sys.stdout.flush()


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from None


def _require_seed(args) -> np.random.Generator:
    if args.seed is None:
        raise _CliError(EXIT_PRECONDITION, "this subcommand requires --seed")
    return _generator(args.seed, "--seed")


def _generator(seed: int, name: str) -> np.random.Generator:
    """A generator seeded by ``seed``; a negative seed is refused with
    exit 2 in a message that leads with ``name``."""
    if seed < 0:
        raise _CliError(EXIT_PARSE, f"{name} must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _checked_input(state, spec) -> qcore.QuantumState:
    """``state``, or |0> when it is None, of the spec's gate dimension."""
    if state is None:
        return qcore.basis_state((spec.d,), (0,))
    if state.total_dim != spec.d:
        raise _CliError(EXIT_DIMENSION, f"input dimension {state.total_dim} "
                                        f"!= gate dimension {spec.d}")
    return state


def cmd_lcc(args) -> int:
    try:
        spec, input_state = lcc.spec_from_json(_read_file(args.spec),
                                               gate_registry=gates.GATES)
    except UnknownNameError:
        raise  # to `main`, past the next clause
    except InvalidInputError as exc:
        raise _CliError(EXIT_PRECONDITION, f"invalid spec: {exc}") from None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:
        # json.loads raises RecursionError on arrays nested too deeply
        raise _CliError(EXIT_PARSE, f"invalid spec: {exc}") from None
    input_state = _checked_input(input_state, spec)
    result = lcc.run_lcc(spec, input_state)
    if not result.success:
        raise _CliError(EXIT_PRECONDITION,
                        "the combination vanishes on this input: the "
                        "postselection never succeeds")
    # success implies a branch norm well above zero
    direct = spec.combination() @ input_state.data
    residual = qcore.vector_phase_distance(result.output_state.data,
                                           direct / np.linalg.norm(direct))
    lines = ["# lcc run report",
             f"terms={spec.n} dimension={spec.d} all_unitary={int(spec.all_unitary)}",
             f"success_probability={_fixed(result.success_probability, '.12f')}",
             f"residual_vs_direct_combination={residual:.3e}",
             "# output state amplitudes"]
    lines += [_fmt_complex(z) for z in result.output_state.data]
    _emit(lines, args)
    return EXIT_OK


def _kak_report(u: np.ndarray, label: str) -> list[str]:
    dec = kak.kak_decompose(u)
    lines = [f"# kak decomposition: {label}",
             "k_vector=" + " ".join(_fixed(v) for v in dec.k_vector),
             "alphas=" + " ".join(_fmt_complex(a) for a in dec.alphas),
             f"global_phase={_fixed(dec.global_phase)}",
             f"residual={dec.residual:.3e}"]
    for name, m in (("u1", dec.u1), ("v1", dec.v1),
                    ("u2", dec.u2), ("v2", dec.v2)):
        lines.append(f"# local {name}")
        for row in m:
            lines.append(" ".join(_fmt_complex(z) for z in row))
    return lines


def cmd_kak(args) -> int:
    if args.random is not None:
        if args.matrix is not None:
            raise _CliError(EXIT_PARSE,
                            "kak takes a matrix file or --random N, not both")
        if args.random < 1:
            raise _CliError(EXIT_PARSE, "--random needs a positive count")
        rng = _require_seed(args)
        residuals = []
        lines = [f"# kak random batch: count={args.random} seed={args.seed}"]
        for i in range(args.random):
            r = kak.kak_decompose(qcore.haar_random_unitary(4, rng)).residual
            residuals.append(r)
            lines.append(f"sample={i} residual={r:.3e}")
        lines.append(f"max_residual={max(residuals):.3e}")
        _emit(lines, args)
        return EXIT_OK
    if args.matrix is None:
        raise _CliError(EXIT_PARSE, "kak requires a matrix file or --random N")
    try:
        u = qcore.parse_matrix(_read_file(args.matrix))
    except (InvalidInputError, ValueError) as exc:
        raise _CliError(EXIT_PARSE, f"invalid matrix file: {exc}") from None
    if u.shape != (4, 4):
        raise _CliError(EXIT_DIMENSION, f"expected a 4x4 matrix, got {u.shape}")
    if not qcore.is_unitary(u, atol=1e-9):
        raise _CliError(EXIT_PRECONDITION, "matrix is not unitary")
    _emit(_kak_report(u, args.matrix), args)
    return EXIT_OK


def _integer(value, key: str) -> int:
    """A scenario field that must be a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be a JSON integer, "
                         f"got {reprlib.repr(value)}")
    return value


# the fields a scenario may hold; it must hold the first four
_SCENARIO_FIELDS = ("operation", "epsilon", "tau", "rounds", "seed",
                    "behavior", "intercept_fraction", "intercept_basis",
                    "input_state")


def _load_scenario(path: str) -> dict:
    try:
        doc = json.loads(_read_file(path))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal beyond
        # int's 4300-digit string limit; RecursionError, arrays nested too
        # deeply
        raise _CliError(EXIT_PARSE, f"invalid scenario file: {exc}") from None
    if not isinstance(doc, dict):
        raise _CliError(EXIT_PARSE, "scenario file must hold a JSON object")
    for key in doc:
        if key not in _SCENARIO_FIELDS:
            raise _CliError(EXIT_PARSE,
                            f"scenario has unknown field {reprlib.repr(key)}")
    for key in _SCENARIO_FIELDS[:4]:
        if key not in doc:
            raise _CliError(EXIT_PARSE, f"scenario missing field {key!r}")
    return doc


def cmd_protocol(args) -> int:
    doc = _load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else doc.get("seed")
    if seed is None:
        raise _CliError(EXIT_PRECONDITION, "protocol runs require a seed")
    try:
        rng = _generator(_integer(seed, "seed"),
                         "--seed" if args.seed is not None
                         else "invalid scenario field: seed")
        epsilon = lcc._number(doc["epsilon"], "epsilon")
        tau = lcc._number(doc["tau"], "tau")
        intercept_fraction = lcc._number(doc.get("intercept_fraction", 0.0),
                                         "intercept_fraction")
        rounds = _integer(doc["rounds"], "rounds")
        if not 0 <= rounds <= protocol.MAX_ROUNDS:
            raise ValueError(f"rounds must lie between 0 and "
                             f"{protocol.MAX_ROUNDS}, got {rounds}")
        amps = None
        if "input_state" in doc:
            amps = np.array([lcc._complex(z, "input_state amplitude")
                             for z in doc["input_state"]])
    except (TypeError, ValueError) as exc:
        raise _CliError(EXIT_PARSE, f"invalid scenario field: {exc}") from None

    op_name = doc["operation"]
    # combination_spec's cache hashes its argument
    if not isinstance(op_name, str):
        raise _CliError(EXIT_PARSE, f"operation must be a name, "
                                    f"got {reprlib.repr(op_name)}")
    spec = gates.combination_spec(op_name)

    input_state = _checked_input(
        None if amps is None else qcore.statevector(amps), spec)

    control = spec.coefficients
    policy = protocol.SendPolicy(epsilon=epsilon, tau=tau,
                                 control_rho=np.outer(control, control.conj()))
    behavior = protocol.ServerBehavior(
        mode=doc.get("behavior", "honest"),
        intercept_fraction=intercept_fraction,
        intercept_basis=doc.get("intercept_basis", "x"))

    transcript = protocol.run_session(spec, input_state, policy, behavior,
                                      rounds, rng)
    analytic = protocol.success_probability_account(spec)
    # the header reads its counts off the transcript and its exact rates
    # off its law, so the summary is counted once and the law built once
    completion = transcript.completed_rounds / rounds if rounds else 0.0
    attempts = int(transcript.lcc_retries.sum())
    per_attempt = transcript.completed_rounds / attempts if attempts else 0.0
    lines = [f"# protocol session: operation={op_name} rounds={rounds} seed={seed}",
             f"# p_compute={_fixed(policy.p_control, '.12f')} "
             f"p_decoy={_fixed(policy.p_decoy, '.12f')} "
             f"p_basis_each={_fixed(policy.p_basis, '.12f')}",
             f"# analytic_success_probability={_fixed(analytic, '.12f')} "
             f"empirical_success_per_attempt={_fixed(per_attempt, '.12f')}",
             f"# empirical_completion={_fixed(completion, '.12f')} "
             f"analytic_completion={_fixed(transcript.law.completion, '.12f')}",
             f"# detections={transcript.detection_events} "
             f"analytic_detection_rate="
             f"{_fixed(transcript.law.detection_rate, '.12f')}"]
    _emit(lines, args, transcript.to_text())
    return EXIT_OK


def cmd_tomography(args) -> int:
    if not 0 <= args.shots <= tomography.MAX_SHOTS:
        raise _CliError(EXIT_PARSE,
                        f"--shots must lie between 0 and "
                        f"{tomography.MAX_SHOTS}, got {args.shots}")
    if args.resamples < 0:
        raise _CliError(EXIT_PARSE, f"--resamples must be non-negative, "
                                    f"got {args.resamples}")
    analytic = args.noise == 0.0 and not args.sampled
    if analytic and args.resamples:
        raise _CliError(EXIT_PARSE, "--resamples needs sampled counts "
                                    "(--sampled or --noise above 0)")
    if args.resamples == 1:
        raise _CliError(EXIT_PARSE, "--resamples must be 0 or at least 2, "
                                    "got 1")
    names = []
    for raw in _read_file(args.operations).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            names.append(line)
    if not names:
        raise _CliError(EXIT_UNKNOWN_NAME, "operation list is empty")
    ops = [gates.gate(name) for name in names]
    rng = _require_seed(args) if not analytic else None
    lines = [f"# tomography: shots={args.shots} "
             f"noise={_fixed(args.noise, '.6f')} "
             f"mode={'analytic' if analytic else 'sampled'}",
             "# name fidelity std"]
    for name, op in zip(names, ops):
        chi_true = tomography.ideal_chi(op)
        chi_sim = tomography.depolarize_chi(chi_true, args.noise)
        dataset = tomography.simulate_dataset(chi_sim, args.shots, rng,
                                              analytic=analytic)
        result = tomography.reconstruct_mle(dataset)
        fid = tomography.process_fidelity(result.chi, chi_true)
        std = 0.0
        if args.resamples:
            _, std = tomography.bootstrap_fidelity(dataset, chi_true,
                                                   args.resamples, rng)
        lines.append(f"{name} {_fixed(fid, '.6f')} {_fixed(std, '.6f')}")
    _emit(lines, args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lccsim",
        description="Linear-combination remote-control protocol simulator")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (required for stochastic subcommands)")
    parser.add_argument("--out", default=None, help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lcc = sub.add_parser("lcc", help="run a linear-combination circuit")
    p_lcc.add_argument("spec", help="JSON spec file")

    p_kak = sub.add_parser("kak", help="decompose a two-qubit unitary")
    p_kak.add_argument("matrix", nargs="?", default=None,
                       help="4x4 matrix literal file")
    p_kak.add_argument("--random", type=int, default=None, metavar="N",
                       help="decompose N Haar-random unitaries instead")

    p_proto = sub.add_parser("protocol", help="simulate a protocol session")
    p_proto.add_argument("scenario", help="JSON scenario file")

    p_tomo = sub.add_parser("tomography", help="process-tomography pipeline")
    p_tomo.add_argument("operations", help="file listing operation names")
    p_tomo.add_argument("--shots", type=int, default=1000)
    p_tomo.add_argument("--noise", type=float, default=0.0,
                        help="depolarizing strength")
    p_tomo.add_argument("--sampled", action="store_true",
                        help="sample counts even without noise")
    p_tomo.add_argument("--resamples", type=int, default=0,
                        help="bootstrap resamples for the std column")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced `cmd_*` is the one called
        return globals()[f"cmd_{args.command}"](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except (InvalidInputError, kak.DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        # the reader has what it wanted; point stdout at os.devnull so
        # that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
