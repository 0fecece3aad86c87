"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output; every tolerance is pinned here.
"""
import json
import random
from fractions import Fraction

import numpy as np

from recsolve.checker import Refuted, Verified, check_solution, make_domain_checker
from recsolve.cli import BENCHMARKS, main
from recsolve.expr import (
    Add, ClosedForm, Const, Max, Mul, Piece, Pow, Var, con, simplify,
)
from recsolve.parser import parse_constraint, parse_expression
from recsolve.pipeline import SolveConfig, solve
from recsolve.recurrence import (
    Value, eval_closed_form, eval_fun, inline_function,
)
from recsolve.regression import lambda_max, lasso_fit, linear_regression
from recsolve.sampling import SampleConfig

from conftest import bench_sidecar, grid_points, load_bench
from oracle import eval_fun_naive
from test_regression import subgradient_violation

SEED = 0


def reference_closed_form(rdef, name):
    ref = bench_sidecar(name)["reference"]
    return ClosedForm(rdef.arg_names, rdef.precondition,
                      tuple(Piece(parse_expression(e), parse_constraint(g))
                            for e, g in ref))


def solve_via_cli(capsys, name, *extra):
    from recsolve.cli import bench_path

    status = main(["solve", str(bench_path(name)), "--seed", str(SEED),
                   "--format", "json-lines", *extra])
    out = capsys.readouterr().out
    return status, json.loads(out.strip().splitlines()[-1])


def report_closed_form(rdef, doc):
    return ClosedForm(rdef.arg_names, rdef.precondition,
                      tuple(Piece(parse_expression(e), parse_constraint(g))
                            for e, g in doc["closed_form_pieces"]))


def test_criterion_1_table_reproduction(capsys, solver):
    # every benchmark: S = 1, Verified, and pointwise agreement with the
    # reference closed form on the full 0..12 grid (exact rational equality)
    for name in BENCHMARKS:
        rdef = load_bench(name)
        status, doc = solve_via_cli(capsys, name)
        assert status == 0, (name, doc)
        assert doc["score"] == 1.0, name
        assert doc["verdict"] == "verified", name
        candidate = report_closed_form(rdef, doc)
        reference = reference_closed_form(rdef, name)
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 12):
            assert eval_closed_form(candidate, p) == eval_closed_form(reference, p), \
                (name, p)
    print("\nPASS criterion 1: nine benchmarks verified, exact on the 0..12 grid")


def test_criterion_2_running_example(capsys, solver):
    rdef = load_bench("nested")
    status, doc = solve_via_cli(capsys, "nested")
    assert status == 0
    assert doc["score"] == 1.0
    assert doc["verdict"] == "verified"
    # the fitted piece is the identity
    fitted = parse_expression(doc["closed_form_pieces"][0][0])
    assert simplify(fitted) == Var("x")
    # the negated encoding of the single-region candidate is unsat
    from recsolve.expr import single_piece

    cf = single_piece(Var("x"), rdef.arg_names, rdef.precondition)
    assert check_solution(rdef, cf, solver) == Verified()
    print("\nPASS criterion 2: nested candidate x, score 1, negation unsat")


def test_criterion_3_nontermination(solver):
    cfg = SolveConfig(sample=SampleConfig(seed=SEED), solver=solver)
    report = solve(load_bench("nonterm"), cfg)
    assert report.verdict_reason == "likely-nonterminating"
    assert report.verdict != "verified"
    assert report.closed_form is None  # in particular, never 1 - x
    print("\nPASS criterion 3: divergent recurrence discarded in the guess stage")


def test_criterion_4_size_cost_chaining(solver):
    cfg = SolveConfig(sample=SampleConfig(seed=SEED), solver=solver)
    size_report = solve(load_bench("size"), cfg)
    assert size_report.verdict == "verified"
    assert simplify(size_report.closed_form.pieces[0].expr) == Var("x")

    chained = inline_function(load_bench("cost"), "s", size_report.closed_form,
                              make_domain_checker(solver))
    cost_report = solve(chained, cfg)
    assert cost_report.verdict == "unknown"
    assert cost_report.verdict_reason == "unsupported-operator"
    assert cost_report.error == "case 1: 2^x"  # the verdict's detail
    assert cost_report.exact_fit
    for x in range(11):
        expected = 2 ** (x + 1) - 1
        out = eval_fun(chained, (x,))
        assert isinstance(out, Value) and out.value == expected, x
        assert eval_closed_form(cost_report.closed_form, (x,)) == expected, x
    print("\nPASS criterion 4: size solved to x, chained cost matches 2^(x+1) - 1 on 0..10")


def _perturbation_terms(arg_names):
    vs = [Var(n) for n in arg_names]
    terms = [con(1)] + vs + [Pow(v, con(2)) for v in vs]
    if len(vs) == 2:
        terms += [Mul(vs[0], vs[1]), Max(vs[0], vs[1])]
    return terms


def test_criterion_5_checker_soundness(solver):
    rng = random.Random(12345)
    deltas = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
              Fraction(2), Fraction(-2), Fraction(3, 2)]
    tally = {"refuted": 0, "verified": 0, "unknown": 0}
    for trial in range(1000):
        name = rng.choice(BENCHMARKS)
        rdef = load_bench(name)
        cf = reference_closed_form(rdef, name)
        idx = rng.randrange(len(cf.pieces))
        term = rng.choice(_perturbation_terms(rdef.arg_names))
        delta = rng.choice(deltas)
        pieces = list(cf.pieces)
        pieces[idx] = Piece(Add(pieces[idx].expr, Mul(Const(delta), term)),
                            pieces[idx].guard)
        perturbed = ClosedForm(cf.arg_names, cf.precondition, tuple(pieces))

        verdict = check_solution(rdef, perturbed, solver)
        if isinstance(verdict, Refuted):
            tally["refuted"] += 1
            out = eval_fun(rdef, verdict.counterexample)
            assert isinstance(out, Value), (trial, name)
            assert out.value == verdict.recurrence_value, (trial, name)
            assert eval_closed_form(perturbed, verdict.counterexample) \
                == verdict.candidate_value, (trial, name)
            assert verdict.recurrence_value != verdict.candidate_value, (trial, name)
        elif isinstance(verdict, Verified):
            tally["verified"] += 1
            for p in grid_points(rdef.precondition, rdef.arg_names, 0, 12):
                out = eval_fun(rdef, p)
                assert isinstance(out, Value)
                assert out.value == eval_closed_form(perturbed, p), (trial, name, p)
        else:
            tally["unknown"] += 1
            assert verdict.reason in ("solver-timeout", "solver-unknown",
                                      "unsupported-operator", "residual-call")
    assert tally["refuted"] > 0
    print(f"\nPASS criterion 5: 1000 perturbed candidates, zero violations {tally}")


def test_criterion_6_regression_unit_suite():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n, p = 40, 6
        x = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p)
        w = rng.choice([0.0, 1.0, -2.0, 0.5], size=p)
        y = x @ w + rng.normal(scale=0.1, size=n)
        lam = float(rng.uniform(0.005, 0.8))
        beta, b0, _ = lasso_fit(x, y, lam)
        assert subgradient_violation(x, y, beta, b0, lam) < 1e-6, trial

        # the refit reads the float data exactly, so its residual is
        # exactly orthogonal to the intercept and to every column
        beta, b0, _, _ = linear_regression(x, y, x, y)
        xq = [[Fraction(v) for v in row] for row in x]
        resid = [Fraction(v) - b0 - sum(c * b for c, b in zip(row, beta))
                 for row, v in zip(xq, y)]
        assert sum(resid) == 0, trial
        for j in range(p):
            assert sum(row[j] * r for row, r in zip(xq, resid)) == 0, trial

        lam_star = lambda_max(x, y)
        for factor in (1.0, 1.25, 4.0):
            beta, _, _ = lasso_fit(x, y, lam_star * factor)
            assert np.all(np.asarray(beta) == 0.0), trial
    print("\nPASS criterion 6: lasso KKT at 1e-6, exact OLS orthogonality, "
          "exact nulls at lambda_max")


def test_criterion_7_determinism(capsys, solver):
    def bench_run() -> bytes:
        status = main(["bench", "--seed", "0", "--format", "json-lines"])
        out = capsys.readouterr().out
        assert status == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        for d in docs:
            d.pop("timings_ms", None)
        return json.dumps(docs, sort_keys=True).encode()

    assert bench_run() == bench_run()
    print("\nPASS criterion 7: bench output byte-identical across runs "
          "(timing fields excluded)")


def test_criterion_8_evaluator_oracle(solver):
    size_cf = ClosedForm(("x",), parse_constraint("x >= 0"),
                         (Piece(Var("x"), parse_constraint("x >= 0")),))
    corpus = [(name, load_bench(name)) for name in BENCHMARKS]
    corpus += [("fib", load_bench("fib")), ("nonterm", load_bench("nonterm")),
               ("size", load_bench("size")),
               ("cost-inlined", inline_function(load_bench("cost"), "s", size_cf,
                                                make_domain_checker(solver)))]
    for name, rdef in corpus:
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 8):
            assert eval_fun(rdef, p) == eval_fun_naive(rdef, p), (name, p)
    print("\nPASS criterion 8: memoized and naive evaluation agree exactly "
          "on the 0..8 grid")
