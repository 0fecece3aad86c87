"""Command-line surface: solve, check, eval and bench subcommands.

Defaults mirror the reference hyperparameters (2-fold cross-validation,
100 lambda values in [0.001, 1], epsilon 0.05).  Machine-readable
output is line-delimited JSON with stable keys.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from .checker import SolverProcessFailure, check_solution, resolve_solver
from .expr import compile_expr, simplify, single_piece
from .parser import ParseError, parse_expression
from .pipeline import SolveConfig, SolveReport, solve, verdict_fields
from .recurrence import (
    EvalLimits, LimitExceeded, RecurrenceError, Value, eval_fun,
    load_recurrence,
)
from .regression import RegressionConfig, lambda_grid
from .sampling import SampleConfig

BENCHMARKS = ("merge-sz", "merge", "nested", "open-zip", "div", "div-ceil",
              "s-max", "s-max-1", "sum-osc")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100, metavar="N")
    p.add_argument("--test-samples", type=int, default=30, metavar="N")
    p.add_argument("--folds", type=int, default=2, metavar="K")
    p.add_argument("--lambda-grid", default="100:0.001:1", metavar="COUNT:LO:HI")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--bounds", default="0:30", metavar="LO:HI")
    p.add_argument("--max-denominator", type=int, default=64)
    p.add_argument("--solver", default=None, metavar="PATH",
                   help="SMT-LIB2 solver, or 'builtin' for the in-process prover")
    p.add_argument("--timeout-ms", type=int, default=10_000,
                   help="per-query solver timeout")
    _add_limits(p)
    p.add_argument("--emit-smt", default=None, metavar="DIR",
                   help="also write emitted SMT-LIB2 scripts here")
    p.add_argument("--format", choices=("human", "json-lines"), default="human")


def _add_limits(p: argparse.ArgumentParser):
    p.add_argument("--max-depth", type=int, default=EvalLimits.max_depth)
    p.add_argument("--max-steps", type=int, default=EvalLimits.max_steps)
    p.add_argument("--eval-timeout-ms", type=int, default=EvalLimits.timeout_ms)


def _limits(args) -> EvalLimits:
    return EvalLimits(max_depth=args.max_depth, max_steps=args.max_steps,
                      timeout_ms=args.eval_timeout_ms)


def _split_ints(text: str, n: int, what: str) -> list:
    parts = text.split(":")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"bad {what}: {text!r}")
    return parts


def build_config(args) -> SolveConfig:
    count, lo, hi = _split_ints(args.lambda_grid, 3, "--lambda-grid")
    blo, bhi = _split_ints(args.bounds, 2, "--bounds")
    sample = SampleConfig(n_train=args.samples, n_test=args.test_samples,
                          bounds=(int(blo), int(bhi)), seed=args.seed)
    regression = RegressionConfig(
        lambdas=lambda_grid(int(count), float(lo), float(hi)),
        folds=args.folds, epsilon=args.epsilon,
        max_denominator=args.max_denominator, cv_seed=args.seed)
    solver = resolve_solver(args.solver, timeout_ms=args.timeout_ms)
    return SolveConfig(seed=args.seed, sample=sample, regression=regression,
                       limits=_limits(args), solver=solver, emit_dir=args.emit_smt)


def _print_report(report: SolveReport, fmt: str, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json-lines":
        print(json.dumps(report.to_json_dict(), sort_keys=True), file=out)
        return
    print(f"recurrence {report.name}", file=out)
    if report.closed_form is not None:
        print(f"  closed form: {report.closed_form.to_text()}", file=out)
        print(f"  score:       {report.score}", file=out)
    line = f"  verdict:     {report.verdict}"
    if report.verdict_reason:
        line += f" ({report.verdict_reason})"
    print(line, file=out)
    if report.note:
        print(f"  note:        {report.note}", file=out)
    if report.counterexample:
        ce = report.counterexample
        print(f"  counterexample: {tuple(ce['point'])} "
              f"recurrence={ce['recurrence_value']} candidate={ce['candidate_value']}",
              file=out)
    if report.error:
        print(f"  error:       {report.error}", file=out)
    total = report.timings_ms.get("total")
    if total is not None:
        print(f"  time:        {total / 1000:.2f} s", file=out)


def cmd_solve(args) -> int:
    try:
        rdef = load_recurrence(args.file)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ParseError, RecurrenceError) as err:
        print(f"error: {args.file}: {err}", file=sys.stderr)
        return 1
    cfg = build_config(args)
    report = solve(rdef, cfg)
    _print_report(report, args.format)
    return report.exit_status()


def cmd_check(args) -> int:
    try:
        rdef = load_recurrence(args.file)
        expr = parse_expression(args.cf)
        simplify(expr)  # raises on a divisor that folds to 0, as in x/(1-1)
    except (OSError, ParseError, RecurrenceError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    cfg = build_config(args)
    cf = single_piece(expr, rdef.arg_names, rdef.precondition)
    limits = cfg.limits
    try:
        verdict = check_solution(rdef, cf, cfg.solver, limits,
                                 emit_dir=args.emit_smt, label=rdef.name)
    except SolverProcessFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    kind, reason, ce = verdict_fields(verdict)
    if args.format == "json-lines":
        doc = {"closed_form": cf.to_text(), "verdict": kind}
        if ce is not None:
            doc["counterexample"] = ce
        if kind == "unknown":
            doc["reason"] = reason
        print(json.dumps(doc, sort_keys=True))
    elif kind == "refuted":
        print(f"refuted at {tuple(ce['point'])}: "
              f"recurrence={ce['recurrence_value']} "
              f"candidate={ce['candidate_value']}")
    elif kind == "unknown":
        print(f"unknown ({reason})")
    else:
        print("verified")
    return 0 if kind == "verified" else 3


def cmd_eval(args) -> int:
    try:
        rdef = load_recurrence(args.file)
    except (OSError, ParseError, RecurrenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(args.values) != rdef.arity:
        print(f"error: {rdef.name} takes {rdef.arity} arguments", file=sys.stderr)
        return 1
    if not compile_expr(rdef.precondition, rdef.arg_names)(tuple(args.values)):
        print(f"error: input {tuple(args.values)} violates the precondition",
              file=sys.stderr)
        return 1
    try:
        outcome = eval_fun(rdef, args.values, _limits(args))
    except RecurrenceError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if isinstance(outcome, Value):
        v = outcome.value
        print(v.numerator if v.denominator == 1 else v)
        return 0
    if isinstance(outcome, LimitExceeded):
        print(f"LimitExceeded({outcome.limit})")
        return 3
    print(f"GuardFallthrough{tuple(outcome.point)}")
    return 3


def bench_path(name: str):
    return resources.files("recsolve").joinpath("bench", f"{name}.rec")


def cmd_bench(args) -> int:
    cfg = build_config(args)
    names = list(args.only) if args.only else list(BENCHMARKS)

    def run(name: str) -> SolveReport:
        from .parser import parse_recurrence

        try:
            rdef = parse_recurrence(bench_path(name).read_text())
            return solve(rdef, cfg, name=name)
        except Exception as err:  # keep the harness going, report per row
            return SolveReport(name=name, recurrence="", closed_form=None,
                               score=None, raw_score=None, exact_fit=None,
                               verdict="skipped", verdict_reason="harness-error",
                               error=f"{type(err).__name__}: {err}")

    reports = [run(n) for n in names]
    text = "".join(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n" for rep in reports)

    if args.format == "json-lines":
        sys.stdout.write(text)
    else:
        width = max(len(n) for n in names)
        print(f"{'benchmark':<{width}}  {'closed form':<42} {'score':>5}  "
              f"{'verified':<8} {'time':>7}")
        for rep in reports:
            cf = rep.closed_form.to_text() if rep.closed_form else f"- ({rep.verdict_reason})"
            score = f"{rep.score:.2f}" if rep.score is not None else "-"
            verified = "yes" if rep.verdict == "verified" else "no"
            secs = rep.timings_ms.get("total", 0.0) / 1000
            print(f"{rep.name:<{width}}  {cf:<42} {score:>5}  {verified:<8} {secs:>6.2f}s")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if all(r.verdict == "verified" for r in reports) else 3


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recsolve",
        description="Guess-and-check solver for constrained recurrence relations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="guess and verify a closed form")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify a user-supplied closed form")
    p.add_argument("file")
    p.add_argument("--cf", required=True, help="closed-form expression")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate the recurrence at a point")
    p.add_argument("file")
    p.add_argument("values", nargs="+", type=int)
    _add_limits(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the bundled benchmark corpus")
    _add_common(p)
    p.add_argument("--only", nargs="*", default=None, metavar="NAME")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="also write json-lines reports to a file")
    p.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call: parsing keeps no
    state in it, and building it costs about as much as a small `eval`."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
