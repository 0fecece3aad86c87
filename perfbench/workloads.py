"""The benchmark's two workloads: their seeded op lists, how one op runs
under its wall-clock limit, and how its output is judged.

Importing this module imports recsolve (`src` must be on `sys.path`), so
the set-up time measured by `setup_probe.py` covers those imports.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import random
import signal
import time
from dataclasses import dataclass, replace
from pathlib import Path

from recsolve.checker import SolverProcessFailure, resolve_solver, run_solver
from recsolve.cli import BENCHMARKS, bench_path, main as cli_main
from recsolve.expr import Add, Sub, free_vars
from recsolve.parser import parse_recurrence
from recsolve.pipeline import SolveConfig, solve
from recsolve.recurrence import eval_closed_form
from recsolve.regression import RegressionConfig, lambda_grid

from reference import CLOSED_FORMS, EXPECTED_REASONS

HERE = Path(__file__).resolve().parent

# A pass of the corpus at the default 100-point lambda grid takes about
# 65 s on the pure-Python kernel, longer than one run may last; 20 points
# over the same [0.001, 1] range give the same candidates in about 17 s.
GUESS_LAMBDAS = lambda_grid(20)
OP_LIMIT_S = 30.0          # wall-clock limit of one op
CHECK_GRID = range(0, 13)  # candidates are compared pointwise on 0..12
EVAL_HI = 100              # eval points lie in 0..EVAL_HI per variable
EVAL_CELLS = 49            # eval points per recurrence (7 x 7 for two arguments)

GUESS_NAMES = BENCHMARKS
EVAL_NAMES = BENCHMARKS + ("fib", "size")
WORKLOADS = ("guess", "eval")


def rec_path(name: str) -> Path:
    return Path(str(bench_path(name)))


def names_of(workload: str) -> tuple:
    return {"guess": GUESS_NAMES, "eval": EVAL_NAMES}[workload]


def setup(workload: str):
    """Program set-up, as `setup_s` times it: load the workload's
    recurrences and build the solve config through recsolve's own
    `resolve_solver`. Returns (recurrences by name, config)."""
    rdefs = {n: parse_recurrence(rec_path(n).read_text()) for n in names_of(workload)}
    try:
        solver = resolve_solver()
    except SolverProcessFailure:
        solver = None
    cfg = SolveConfig(regression=RegressionConfig(lambdas=GUESS_LAMBDAS),
                      solver=solver)
    return rdefs, cfg


def probe_backend(cfg: SolveConfig):
    """Send `(check-sat)` once to the chosen solver. Returns the config to
    run with (no solver unless the reply is `sat`) and the probe outcome."""
    if cfg.solver is None:
        return cfg, "none: resolve_solver found no solver"
    try:
        status = run_solver("(check-sat)\n", cfg.solver).status
    except SolverProcessFailure as err:
        return replace(cfg, solver=None), "none: " + " ".join(str(err).split())
    if status != "sat":
        return replace(cfg, solver=None), f"none: (check-sat) answered {status}"
    return cfg, f"{' '.join(cfg.solver.argv)}: sat"


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------

class OverLimit(BaseException):
    """Raised inside an op that runs past its limit. It derives from
    BaseException so that no `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise OverLimit


def call_limited(fn, limit_s: float):
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@dataclass(frozen=True)
class Op:
    name: str          # recurrence
    point: tuple = ()  # eval input; empty for a solve


@dataclass
class Outcome:
    op: Op
    ms: float
    status: str        # ok | error | limit | wrong
    detail: str = ""
    terms: int = 0     # non-constant additive terms of a guessed candidate


def run_op(workload, op: Op, limit_s: float = OP_LIMIT_S, around=None) -> Outcome:
    """Time one op and judge its output. `around`, when given, is a context
    manager factory the op call runs inside (the tracer's op span). An op
    stopped at the limit counts as taking the whole limit."""
    def call():
        if around is None:
            return workload.call(op)
        with around():
            return workload.call(op)

    t0 = time.perf_counter()
    try:
        result = call_limited(call, limit_s)
    except OverLimit:
        return Outcome(op, limit_s * 1000, "limit", f"over {limit_s:g} s")
    except Exception as err:  # the op failed; record it and go on
        return Outcome(op, (time.perf_counter() - t0) * 1000, "error",
                       f"{type(err).__name__}: {err}")
    ms = (time.perf_counter() - t0) * 1000
    problem, terms = workload.check(op, result)
    return Outcome(op, ms, "wrong" if problem else "ok", problem or "", terms)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _terms(expr) -> list:
    if isinstance(expr, (Add, Sub)):
        return _terms(expr.lhs) + _terms(expr.rhs)
    return [expr]


def candidate_mismatch(name: str, arg_names, closed_form):
    """First point of the 0..12 grid, inside the precondition, where the
    candidate differs from the reference; None when they agree."""
    pre, ref = CLOSED_FORMS[name]
    for p in itertools.product(CHECK_GRID, repeat=len(arg_names)):
        if pre(*p):
            got = eval_closed_form(closed_form, p)
            if got != ref(*p):
                return f"candidate gives {got} at {p}, reference {ref(*p)}"
    return None


class SolveWorkload:
    """`guess`: `pipeline.solve` on each recurrence once per pass, in an
    order the run's seed shuffles.

    The solve config keeps its default seed, so every run solves the same
    sampled inputs: the guess stage's time depends on the sample (s-max
    takes from 3 to 8 s across solve seeds), and a run of three passes of
    nine ops is too few to average that out."""
    root = "pipeline.solve"

    def __init__(self, names, seed: int, rdefs: dict, cfg: SolveConfig):
        self.rdefs = rdefs
        self.cfg = cfg
        self.ops = [Op(n) for n in names]
        random.Random(seed).shuffle(self.ops)

    def pass_ops(self, index: int) -> list:
        return list(self.ops)

    def call(self, op: Op):
        return solve(self.rdefs[op.name], self.cfg, name=op.name)

    def check(self, op: Op, report) -> tuple:
        want = EXPECTED_REASONS.get(op.name)
        if want is not None:
            if report.verdict_reason != want:
                return f"reason {report.verdict_reason!r}, expected {want!r}", 0
            return None, 0
        if self.cfg.solver is not None:
            if report.verdict != "verified":
                return f"verdict {report.verdict} ({report.verdict_reason})", 0
        elif report.verdict_reason != "solver-unavailable":
            return f"reason {report.verdict_reason!r}, expected 'solver-unavailable'", 0
        cf = report.closed_form
        terms = sum(1 for t in _terms(cf.pieces[0].expr) if free_vars(t))
        return candidate_mismatch(op.name, cf.arg_names, cf), terms


class EvalWorkload:
    """`eval`: `recsolve eval FILE ARGS` through `cli.main`, one point per
    op. The seed draws one point from every cell of a grid laid over
    0..EVAL_HI (EVAL_CELLS cells per recurrence), so the points, and so their
    cost, spread over the whole range for every seed. Every pass runs all
    of them, in an order the seed and the pass index shuffle."""
    root = "cli.main"

    def __init__(self, names, seed: int, rdefs: dict):
        self.seed = seed
        self.paths = {n: str(rec_path(n)) for n in names}
        rng = random.Random(seed)
        self.ops = [Op(n, rng.choice(cell)) for n in names
                    for cell in _cells(n, rdefs[n].arity)]

    def pass_ops(self, index: int) -> list:
        ops = list(self.ops)
        random.Random(f"{self.seed}:{index}").shuffle(ops)
        return ops

    def call(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli_main(["eval", self.paths[op.name], *map(str, op.point)])
        return status, out.getvalue() + err.getvalue()

    def check(self, op: Op, result) -> tuple:
        status, text = result
        want = str(CLOSED_FORMS[op.name][1](*op.point))
        if status != 0 or text.strip() != want:
            return f"eval {op.point} gave {text.strip()!r} (exit {status}), reference {want}", 0
        return None, 0


def _cells(name: str, arity: int) -> list:
    """The points of 0..EVAL_HI^arity inside the precondition, grouped into
    EVAL_CELLS cells of (nearly) equal side; empty cells are left out."""
    pre = CLOSED_FORMS[name][0]
    per_axis = round(EVAL_CELLS ** (1 / arity))
    edges = [i * (EVAL_HI + 1) // per_axis for i in range(per_axis + 1)]
    spans = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
    cells = []
    for box in itertools.product(spans, repeat=arity):
        pts = [p for p in itertools.product(*box) if pre(*p)]
        if pts:
            cells.append(pts)
    return cells


def make(workload: str, seed: int, rdefs: dict, cfg: SolveConfig):
    if workload == "eval":
        return EvalWorkload(names_of(workload), seed, rdefs)
    return SolveWorkload(names_of(workload), seed, rdefs, cfg)
