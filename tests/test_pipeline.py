import json

import pytest

from recsolve.checker import BUILTIN, SolverConfig, resolve_solver
from recsolve.expr import Var, single_piece, to_text
from recsolve.parser import parse_recurrence
from recsolve.pipeline import APPROXIMATION_NOTE, SolveConfig, SolveReport, solve
from recsolve.recurrence import Value, eval_fun, inline_function
from recsolve.recurrence import eval_closed_form
from recsolve.regression import guess
from recsolve.sampling import default_base_set

from conftest import grid_points, load_bench


def config(solver, seed=0):
    return SolveConfig(seed=seed, solver=solver)


class TestSolve:
    def test_nested_end_to_end(self, solver):
        report = solve(load_bench("nested"), config(solver))
        assert report.verdict == "verified"
        assert report.score == 1.0
        assert report.exact_fit
        assert report.closed_form is not None
        assert "total" in report.timings_ms

    def test_merge_is_piecewise_verified(self, solver):
        report = solve(load_bench("merge"), config(solver))
        assert report.verdict == "verified"
        assert len(report.closed_form.pieces) == 2

    def test_nonterminating_reports_guess_failure(self, solver):
        report = solve(load_bench("nonterm"), config(solver))
        assert report.verdict == "skipped"
        assert report.verdict_reason == "likely-nonterminating"
        assert report.closed_form is None
        assert "LikelyNonterminating" in report.error

    def test_empty_sampling_region_reports_its_reason(self):
        rdef = parse_recurrence("def f(x);\npre x > 100;\n"
                                "f(x) = 0 if x = 101;\nf(x) = f(x - 1) + 1 if x > 101;\n")
        report = solve(rdef, SolveConfig(seed=0))
        assert (report.verdict, report.verdict_reason) == ("skipped", "sampling-exhausted")
        assert report.error.startswith("SamplingExhausted: found only 0 of ")

    def test_fib_is_an_unverified_approximation(self, solver):
        report = solve(load_bench("fib"), config(solver))
        assert report.verdict == "skipped"
        assert report.verdict_reason == "score-below-threshold"
        assert report.note == APPROXIMATION_NOTE
        assert report.closed_form is not None  # the approximation is reported
        assert report.score is not None and report.score < 1.0 or not report.exact_fit

    def test_without_solver_candidates_are_not_verified(self):
        report = solve(load_bench("nested"), SolveConfig(solver=None))
        assert report.verdict == "skipped"
        assert report.verdict_reason == "solver-unavailable"
        assert report.closed_form is not None

    def test_timings_sum_close_to_total(self, solver):
        report = solve(load_bench("div"), config(solver))
        parts = sum(v for k, v in report.timings_ms.items() if k != "total")
        assert parts <= report.timings_ms["total"]
        assert parts >= 0.95 * report.timings_ms["total"]

    def test_reproducible_from_snapshot(self, solver):
        a = solve(load_bench("div"), config(solver, seed=3))
        b = solve(load_bench("div"), config(solver, seed=3))
        assert a.closed_form == b.closed_form
        assert a.verdict == b.verdict
        assert a.config == b.config

    def test_min_shaped_recurrence_is_solved_without_min(self, solver):
        # min(x, y) is not in the dictionary; x + y - max(x, y) spans it
        rdef = parse_recurrence(
            "def f(x, y);\n"
            "pre x >= 0 and y >= 0;\n"
            "f(x, y) = f(x-1, y-1) + 1 if x > 0 and y > 0;\n"
            "f(x, y) = 0 if x = 0 or y = 0;\n")
        report = solve(rdef, config(solver))
        assert report.verdict == "verified"
        assert to_text(report.closed_form.pieces[0].expr) == "x + y - max(x, y)"
        for x, y in grid_points(rdef.precondition, rdef.arg_names, 0, 12):
            assert eval_closed_form(report.closed_form, (x, y)) == min(x, y)

    def test_verified_candidates_match_recurrence_on_grid(self, solver):
        rdef = load_bench("open-zip")
        report = solve(rdef, config(solver))
        assert report.verdict == "verified"
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 10):
            out = eval_fun(rdef, p)
            assert isinstance(out, Value)
            assert eval_closed_form(report.closed_form, p) == out.value


class TestReport:
    def test_verdict_vocabulary_enforced(self):
        with pytest.raises(ValueError):
            SolveReport(name="x", recurrence="", closed_form=None, score=None,
                        raw_score=None, exact_fit=None, verdict="proved")

    def test_json_round_trip(self, solver):
        report = solve(load_bench("nested"), config(solver))
        doc = report.to_json_dict()
        again = json.loads(json.dumps(doc, sort_keys=True))
        assert again == doc

    def test_exit_statuses(self, solver):
        assert solve(load_bench("nested"), config(solver)).exit_status() == 0
        assert solve(load_bench("fib"), config(solver)).exit_status() == 2
        assert solve(load_bench("nonterm"), config(solver)).exit_status() == 3


class TestSolverFailure:
    """A solver that cannot run is reported as such, never as a coverage
    failure, and solve() does not raise."""
    broken = SolverConfig(("/nonexistent/solver",))

    def test_guess_failure_keeps_its_own_reason(self):
        report = solve(load_bench("nonterm"), SolveConfig(solver=self.broken))
        assert report.verdict_reason == "likely-nonterminating"
        assert "LikelyNonterminating" in report.error

    def test_exact_candidate_reported_unchecked(self):
        report = solve(load_bench("nested"), SolveConfig(solver=self.broken))
        assert report.verdict == "skipped"
        assert report.verdict_reason == "solver-unavailable"
        assert report.closed_form is not None
        assert report.error.startswith("SolverProcessFailure")


@pytest.mark.parametrize("solver", [None, resolve_solver()], ids=["no-solver", "solver"])
def test_unresolved_foreign_call_fails_validation(solver):
    # cost.rec calls the size function s, which only inlining resolves
    report = solve(load_bench("cost"), SolveConfig(solver=solver))
    assert report.verdict == "skipped"
    assert report.verdict_reason == "validation-failed"
    assert report.error == "UnknownFunction: s"
    assert report.closed_form is None


class TestCoveredPiecesAbsorbed:
    """Every exact candidate loses the base pieces its main piece covers,
    before the check and whichever solver is configured."""

    @pytest.mark.parametrize("name,text", [("merge-sz", "x + y"), ("div-ceil", "ceil(x/y)")])
    def test_candidate_does_not_depend_on_the_solver(self, name, text):
        rdef = load_bench(name)
        solvers = [None, SolverConfig(("/nonexistent/solver",)), SolverConfig((BUILTIN,))]
        reports = [solve(rdef, config(s)) for s in solvers]
        assert [r.closed_form.to_text() for r in reports] == [text] * 3
        assert [r.verdict_reason for r in reports] == \
            ["solver-unavailable", "solver-unavailable", ""]

    def test_inexact_and_untranslatable_candidates_unchanged(self, solver):
        size = single_piece(Var("x"), ("x",), load_bench("size").precondition)
        for rdef in (load_bench("fib"), inline_function(load_bench("cost"), "s", size)):
            cfg = config(solver).seeded()
            guessed = guess(rdef, default_base_set(rdef.arity, rdef.arg_names),
                            cfg.regression, cfg.sample, cfg.limits)
            assert solve(rdef, cfg).closed_form == guessed.closed_form
            assert len(guessed.closed_form.pieces) == 2


STEP40 = parse_recurrence(
    "def f(x);\npre x >= 0;\n"
    "f(x) = 0 if x = 0;\n"
    "f(x) = f(x-1) + 1 if x > 0 and x <= 40;\n"
    "f(x) = f(x-1) + 2 if x > 40;\n")


class TestRetry:
    """A refuted candidate earns exactly one retry, with a fresh seed and
    twice the samples.  step40's slope changes past the sampled box, so
    both attempts guess x and both are refuted at 41."""

    def test_refuted_candidate_is_retried_once(self, tmp_path):
        cfg = SolveConfig(solver=SolverConfig((BUILTIN,)), emit_dir=str(tmp_path))
        report = solve(STEP40, cfg, name="step40")
        assert to_text(report.closed_form.pieces[0].expr) == "x"
        assert (report.verdict, report.counterexample) == (
            "refuted", {"point": [41], "recurrence_value": "42", "candidate_value": "41"})
        assert report.retried
        assert report.exit_status() == 3
        assert {"retry_guess", "retry_simplify", "retry_check"} <= set(report.timings_ms)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["step40-retry.smt2", "step40.smt2"]
