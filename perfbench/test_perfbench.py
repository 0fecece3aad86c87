"""Self-tests of the benchmark: python3 -m pytest perfbench"""
import itertools
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import workloads  # noqa: E402
from reference import CLOSED_FORMS  # noqa: E402
from recsolve import cli  # noqa: E402
from recsolve.expr import ClosedForm, Piece, eval_constraint  # noqa: E402
from recsolve.parser import parse_constraint, parse_expression  # noqa: E402
from recsolve.pipeline import SolveReport  # noqa: E402
from recsolve.recurrence import Value, eval_fun  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Op, run_op  # noqa: E402


def _make(workload, seed):
    rdefs, cfg = workloads.setup(workload)
    return workloads.make(workload, seed, rdefs, replace(cfg, solver=None))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    a, b = _make(workload, 7), _make(workload, 7)
    for index in range(3):
        assert a.pass_ops(index) == b.pass_ops(index)
    if workload == "eval":
        assert set(_make(workload, 8).ops) != set(a.ops)
        # every pass runs the same points in a new order
        assert a.pass_ops(1) != a.pass_ops(0)
        assert set(a.pass_ops(1)) == set(a.pass_ops(0))


def test_eval_points_lie_in_the_precondition_and_range():
    wl = _make("eval", 3)
    ops = wl.pass_ops(0)
    assert len(ops) == len(workloads.EVAL_NAMES) * workloads.EVAL_CELLS
    for op in ops:
        assert all(0 <= v <= workloads.EVAL_HI for v in op.point)
        assert CLOSED_FORMS[op.name][0](*op.point)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_references_agree_with_eval_fun(name):
    rdef = workloads.parse_recurrence(workloads.rec_path(name).read_text())
    pre, ref = CLOSED_FORMS[name]
    for p in itertools.product(range(0, 9), repeat=rdef.arity):
        env = {n: Fraction(v) for n, v in zip(rdef.arg_names, p)}
        assert pre(*p) == eval_constraint(rdef.precondition, env), p
        if pre(*p):
            assert eval_fun(rdef, p) == Value(Fraction(ref(*p))), (name, p)


def _report(name, pieces):
    cf = ClosedForm(("x", "y"), parse_constraint("x >= 0 and y >= 0"),
                    tuple(Piece(parse_expression(e), parse_constraint(g))
                          for e, g in pieces))
    return SolveReport(name=name, recurrence="", closed_form=cf, score=1.0,
                       raw_score=1.0, exact_fit=True, verdict="skipped",
                       verdict_reason="solver-unavailable")


def test_wrong_candidate_counts_as_failed():
    wl = _make("guess", 0)
    right = _report("merge", [("x + y - 1", "x > 0 and y > 0"), ("0", "true")])
    wrong = _report("merge", [("x + y", "x > 0 and y > 0"), ("0", "true")])
    wl.call = lambda op: right
    assert run_op(wl, Op("merge")).status == "ok"
    wl.call = lambda op: wrong
    outcome = run_op(wl, Op("merge"))
    assert outcome.status == "wrong"
    assert "(1, 1)" in outcome.detail


def test_wrong_eval_output_counts_as_failed():
    wl = _make("eval", 0)
    assert run_op(wl, Op("fib", (10,))).status == "ok"
    wl.call = lambda op: (0, "90\n")
    assert run_op(wl, Op("fib", (10,))).status == "wrong"


def test_op_over_the_limit_fails_at_the_limit():
    # fib's guess runs for many minutes on the pure-Python kernel
    rdefs, cfg = workloads.setup("guess")
    rdefs["fib"] = workloads.parse_recurrence(workloads.rec_path("fib").read_text())
    wl = workloads.SolveWorkload(("fib",), 0, rdefs, replace(cfg, solver=None))
    outcome = run_op(wl, Op("fib"), limit_s=0.5)
    assert (outcome.status, outcome.ms) == ("limit", 500.0)
    # the alarm is cleared once the op is over
    assert workloads.signal.getitimer(workloads.signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_splits_an_op_into_layers_and_unwraps():
    wl = _make("eval", 0)
    original = cli.eval_fun
    tracer = Tracer()
    with tracer.installed():
        assert cli.eval_fun is not original
        assert run_op(wl, Op("merge", (20, 30)), around=tracer.op(wl.root, 0)).status == "ok"
    assert cli.eval_fun is original
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.main", "parser.parse_recurrence", "cli.eval_fun"]
    root = tracer.spans[0]
    table = tracer.layer_table()
    assert sum(ms for ms, _ in table.values()) == pytest.approx((root[2] - root[1]) * 1000)
    assert tracer.counts["recurrence.eval_calls"] == tracer.counts["recurrence.values"] == 1
