import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings

import recsolve.checker as checker
from recsolve.checker import (
    BUILTIN, EncodedFormula, Implication, Refuted, ResidualCall, SolverConfig,
    Unknown,
    UnsupportedOperator, Verified, absorb_covered_pieces, check_solution,
    emit_smtlib, encode, emit_implication, entails, parse_model,
    SolverProcessFailure, _clear, _cleared,
)
from recsolve.cli import BENCHMARKS
from recsolve.expr import (
    Add, Const, Div, ExprError, Ite, Max, Min, Mul, Pow, Sub,
    Piece, TRUE, Var, con, eval_expr, simplify, single_piece, to_text,
    ClosedForm,
)
from recsolve.parser import parse_constraint, parse_expression, parse_recurrence
from recsolve.pipeline import SolveConfig, solve
from recsolve.recurrence import Value, eval_closed_form, eval_fun
from recsolve.regression import RegressionConfig, guess
from recsolve.sampling import SampleConfig, default_base_set

from conftest import bench_sidecar, brute_entails, grid_points, load_bench, stub_solver
from test_acceptance import reference_closed_form
from test_parser import _call_free

X, Y = Var("x"), Var("y")


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def cf_for(rdef, text):
    return single_piece(parse_expression(text), rdef.arg_names, rdef.precondition)


def formula(variables, implications):
    """The encoded formula of `implications`, emitted as `encode` does."""
    return EncodedFormula(variables, implications,
                          tuple(map(emit_implication, implications)))


class TestSupportedSmt:
    """The solver fragment is exactly what `emit_implication` translates."""

    @staticmethod
    def emits(e):
        try:
            emit_implication(Implication(TRUE, simplify(e), con(0)))
        except UnsupportedOperator:
            return False
        return True

    @pytest.mark.parametrize("text,ok", [
        ("x + y - 1", True),
        ("2^x", False),
        ("max(x, y)", True),
        ("min(x, y) + 3*x^2", True),
        ("floor(x/y)", True),
        ("ceil(x/y)", True),
        ("floor(x/2)", True),
        ("x + y^2/2 + 3*y/2", True),
        ("log2ceil(x)", False),
        ("x/y", False),               # bare real division
        ("max(x/2, y)", True),        # clearable: 2*max(x/2, y) = max(x, 2y)
        ("f(x) + 1", False),
        ("x^2*y", True),
        ("1/2*max(2*x + 2*y, 1/2)", True),   # 4 times it is max(4x + 4y, 1)
        ("-1/2*min(-2*x - 2*y, 1/2)", True),  # 4 times it is 0 - min(-4x - 4y, 1)
        ("max(x, 1/2)*y", False),    # no constant factor to clear into max
    ])
    def test_fragment(self, text, ok):
        assert self.emits(parse_expression(text)) is ok

    def test_ite_supported(self):
        assert self.emits(parse_expression("ite(x > 0, x, 0)"))


class TestEncode:
    def test_running_example_structure(self):
        rdef = load_bench("nested")
        cf = cf_for(rdef, "x")
        ef = encode(rdef, cf, brute_entails)
        assert ef.variables == ("x",)
        assert len(ef.implications) == 2
        base, rec = ef.implications
        # base case: antecedent pre and x = 0, consequent x = 0
        assert to_text(base.lhs) == "x"
        assert to_text(base.rhs) == "0"
        # recursive case: x = (x - 1) + 1, simplified to x = x
        assert to_text(rec.lhs) == "x"
        assert to_text(rec.rhs) == "x"
        assert "not x = 0" in str(rec.antecedent)

    def test_antecedents_accumulate_guard_negations(self):
        rdef = load_bench("div-ceil")
        cf = cf_for(rdef, "ceil(x/y)")
        ef = encode(rdef, cf, brute_entails)
        texts = [str(i.antecedent) for i in ef.implications]
        assert "not" not in texts[0]
        assert texts[1].count("not") == 1
        assert texts[2].count("not") == 2

    def test_residual_call(self):
        # the guard does not confine the argument to the candidate's domain
        from recsolve.parser import parse_recurrence
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0 or x < 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(x - 2) + 1 if x != 0;\n")
        cf = single_piece(Var("x"), ("x",), parse_constraint("x >= 0"))
        with pytest.raises(ResidualCall):
            encode(rdef, cf, brute_entails)

    def test_unsupported_candidate(self):
        rdef = load_bench("nested")
        with pytest.raises(UnsupportedOperator):
            encode(rdef, cf_for(rdef, "2^x"), brute_entails)

    @pytest.mark.parametrize("call, candidate", [
        ("f(x - 1, x - 1)", "x + 0*floor(x/(x - y))"),
        ("f(x - 1, 0)", "x + 0*floor(x/y)"),
    ], ids=["folds", "literal"])
    def test_divisor_zero_after_substitution(self, call, candidate):
        # the candidate's divisor is 0 only at the call's arguments
        rdef = parse_recurrence(f"def f(x, y);\npre x >= 0 and y >= 0;\n"
                                f"f(x, y) = 0 if x = 0;\nf(x, y) = {call} + 1 if x > 0;\n")
        cf = cf_for(rdef, candidate)
        message = "case 2: division by the literal constant zero"
        with pytest.raises(UnsupportedOperator, match=message):
            encode(rdef, cf, brute_entails)
        verdict = check_solution(rdef, cf, SolverConfig((BUILTIN,)))
        assert verdict == Unknown("unsupported-operator", message)

    def test_divisor_positivity_demanded(self):
        # candidate floor(x/y) for a recurrence whose domain admits y = 0
        rdef = load_bench("s-max")
        with pytest.raises(UnsupportedOperator):
            encode(rdef, cf_for(rdef, "floor(x/y)"), brute_entails)


class TestEmission:
    def test_deterministic_and_golden(self):
        # the main query of each corpus reference candidate, byte for byte
        for name in BENCHMARKS:
            rdef = load_bench(name)
            ef = encode(rdef, reference_closed_form(rdef, name), brute_entails)
            text = emit_smtlib(ef)
            assert text == emit_smtlib(ef), name
            with open(os.path.join(GOLDEN_DIR, f"{name}.smt2"), encoding="utf-8") as fh:
                assert text == fh.read(), name

    def test_encode_emits_each_implication_once(self, monkeypatch):
        # the text `encode` keeps is what emission of the bare implications
        # gives, and the script is assembled from it without emitting again
        calls = []
        emit = checker.emit_implication
        monkeypatch.setattr(checker, "emit_implication",
                            lambda i: calls.append(i) or emit(i))
        rdef = load_bench("sum-osc")
        ef = encode(rdef, cf_for(rdef, "x + y^2/2 + 3*y/2 + 1"), brute_entails)
        emit_smtlib(ef)
        assert calls == list(ef.implications)
        assert ef.emitted == tuple(emit(i) for i in ef.implications)

    def test_rational_coefficients_cleared(self):
        ef = formula(("x", "y"), (Implication(
            parse_constraint("y > 0"),
            parse_expression("x + y^2/2 + 3*y/2"),
            parse_expression("x + 2")),))
        text = emit_smtlib(ef)
        assert "/" not in text.replace("div", "")
        assert "(* 2 x)" in text  # both sides multiplied through by 2

    def test_ceiling_encoding_is_sign_correct(self):
        ef = formula(("x", "y"), (Implication(
            parse_constraint("y > 0"), parse_expression("ceil(x/y)"), con(0)),))
        text = emit_smtlib(ef)
        assert "(- (div (- x) y))" in text

    def test_floor_of_constant_denominator(self):
        ef = formula(("x",), (Implication(
            TRUE, parse_expression("floor(x/2)"), con(0)),))
        assert "(div x 2)" in emit_smtlib(ef)

    def test_max_min_as_ite(self):
        ef = formula(("x", "y"), (Implication(
            TRUE, parse_expression("max(x, y)"), parse_expression("min(x, y)")),))
        text = emit_smtlib(ef)
        assert "(ite (>= x y) x y)" in text
        assert "(ite (<= x y) x y)" in text

    def test_negative_literals(self):
        ef = formula(("x",), (Implication(
            TRUE, parse_expression("x - 5"), parse_expression("-5")),))
        assert "(- 5)" in emit_smtlib(ef)


class TestClearing:
    def test_lcm_preserves_solution_set(self):
        # pointwise: the cleared equation holds exactly when the original does
        lhs = parse_expression("x + y^2/2 + 3*y/2")
        rhs = parse_expression("x + 2")
        clhs, crhs = _cleared(simplify(lhs), simplify(rhs))
        for p in itertools.product(range(-4, 8), repeat=2):
            env = dict(zip(("x", "y"), p))
            orig = eval_expr(lhs, env) == eval_expr(rhs, env)
            cleared = eval_expr(clhs, env) == eval_expr(crhs, env)
            assert orig == cleared, p

    def test_clearing_scales_into_ite(self):
        e = parse_expression("ite(x > 0, x/2, 1/4)")
        clhs, crhs = _cleared(e, con(0))
        for xv in (-2, 0, 1, 5):
            env = {"x": xv}
            assert eval_expr(clhs, env) == 4 * eval_expr(e, env)

    @pytest.mark.parametrize("text,factor,cleared", [
        ("1/2*max(2*x + 2*y, 1/2)", 4, "max(4*x + 4*y, 1)"),
        ("max(2*x + 2*y, 1/2)*1/2", 4, "max(4*x + 4*y, 1)"),
        ("-1/2*min(-2*x - 2*y, 1/2)", 4, "0 - min(0 - 4*x - 4*y, 1)"),
        ("3/2*max(x, 1/3)", 6, "max(9*x, 3)"),
    ])
    def test_clearing_factor_carried_into_max_min(self, text, factor, cleared):
        e = parse_expression(text)
        clhs, crhs = _cleared(simplify(e), con(0))
        assert (to_text(clhs), crhs) == (cleared, con(0))
        for p in itertools.product(range(-3, 4), repeat=2):
            env = dict(zip(("x", "y"), p))
            assert eval_expr(clhs, env) == factor * eval_expr(e, env), p

    @pytest.mark.parametrize("text,factor,cleared", [
        ("(x - 1 + 1/2*(x - 1)^2)^2", 4, "((x - 1)^2 + 2*x - 2)^2"),
        ("1/2*(x/3)^2", 18, "x^2"),
        ("(y/3)^2 + 1/2", 18, "2*y^2 + 9"),
    ])
    def test_clearing_reaches_into_a_power(self, text, factor, cleared):
        e = parse_expression(text)
        clhs, crhs = _cleared(simplify(e), con(0))
        assert (to_text(clhs), crhs) == (cleared, con(0))
        for p in itertools.product(range(-3, 4), repeat=2):
            env = dict(zip(("x", "y"), p))
            assert eval_expr(clhs, env) == factor * eval_expr(e, env), p


    @given(_call_free)
    @settings(max_examples=300, deadline=None)
    def test_clear_multiplies_through_to_whole_constants(self, e):
        cleared, d = _clear(e)
        for p in itertools.product(range(-3, 4), repeat=2):
            env = dict(zip(("x", "y"), map(Fraction, p)))
            try:
                want = d * eval_expr(e, env)
            except ExprError:
                continue  # e is undefined here
            assert eval_expr(cleared, env) == want, p
        assert all(c.denominator == 1 for c in reached_constants(cleared))


def reached_constants(e):
    """The constants at the positions clearing reaches, a constant factor
    of a division counted as its reciprocal."""
    t = type(e)
    if t is Const:
        return [e.value]
    if t in (Add, Sub, Max, Min):
        return reached_constants(e.lhs) + reached_constants(e.rhs)
    if t is Ite:
        return reached_constants(e.then) + reached_constants(e.other)
    if t is Mul and Const in (type(e.lhs), type(e.rhs)):
        return reached_constants(e.lhs) + reached_constants(e.rhs)
    if t is Div and type(e.rhs) is Const:
        return [1 / e.rhs.value] + reached_constants(e.lhs)
    if t is Pow and type(e.exponent) is Const and e.exponent.value > 0 \
            and e.exponent.value.denominator == 1:
        return reached_constants(e.base)
    return []


class TestModelParsing:
    def test_positive_and_negative(self):
        out = """sat
(
  (define-fun y () Int
    2)
  (define-fun x () Int
    (- 7))
  (define-fun div0 ((a Int) (b Int)) Int 0)
)"""
        assert parse_model(out, ("x", "y")) == (-7, 2)

    def test_missing_variable_defaults_to_zero(self):
        assert parse_model("sat\n(model)", ("x",)) == (0,)


class TestEntails(object):
    def test_examples(self, solver):
        assert entails(parse_constraint("x >= 0"),
                       parse_constraint("x = 0 or x > 0"), solver)
        assert not entails(parse_constraint("x >= 0"),
                           parse_constraint("x > 0"), solver)
        assert entails(parse_constraint("x >= 0 and x > 0"),
                       parse_constraint("x - 1 >= 0"), solver)

    def test_agrees_with_brute_force(self, solver):
        cases = [
            ("x >= 0 and y > 0", "x + y > 0"),
            ("x > 2", "x*x > 4"),
            ("x >= y and y > 0", "x > 0"),
            ("x >= 0", "x >= 1"),
            ("x = 0 or y = 0", "x*y = 0"),
        ]
        for hyp_text, concl_text in cases:
            hyp, concl = parse_constraint(hyp_text), parse_constraint(concl_text)
            assert entails(hyp, concl, solver) == brute_entails(hyp, concl), hyp_text


def test_entailment_cache_hit_emits_nothing(monkeypatch):
    hyp, concl = parse_constraint("x > 3 and y = x + 7"), parse_constraint("y > 10")
    cfg = SolverConfig((BUILTIN,))
    assert entails(hyp, concl, cfg)
    emitted = []
    monkeypatch.setattr(checker, "emit_term", lambda c: emitted.append(c) or "")
    assert entails(hyp, concl, cfg)
    assert emitted == []


class TestCheckSolution:
    def test_verified(self, solver):
        rdef = load_bench("nested")
        assert check_solution(rdef, cf_for(rdef, "x"), solver) == Verified()

    def test_refuted_with_confirmed_counterexample(self, solver):
        rdef = load_bench("nested")
        verdict = check_solution(rdef, cf_for(rdef, "x+1"), solver)
        assert isinstance(verdict, Refuted)
        assert verdict.counterexample == (0,)
        assert verdict.recurrence_value == 0
        assert verdict.candidate_value == 1

    def test_counterexample_at_call_site(self, solver):
        # the candidate is right at (0, 1) but wrong at (1, 0), where case 2
        # calls f(x+1, y-1); builtin's smallest model is (0, 1), so the
        # refutation is confirmed at the call's arguments
        rdef = load_bench("sum-osc")
        cf = ClosedForm(rdef.arg_names, rdef.precondition, (
            Piece(parse_expression("x + y^2/2 + 3*y/2"), parse_constraint("y > 0")),
            Piece(parse_expression("1 + x"), TRUE)))
        assert check_solution(rdef, cf, SolverConfig((BUILTIN,))) == \
            Refuted((1, 0), 1, 2)
        verdict = check_solution(rdef, cf, solver)
        assert isinstance(verdict, Refuted)
        assert eval_fun(rdef, verdict.counterexample) == Value(verdict.recurrence_value)
        assert eval_closed_form(cf, verdict.counterexample) == verdict.candidate_value
        assert verdict.recurrence_value != verdict.candidate_value

    def test_unsupported(self, solver):
        rdef = load_bench("nested")
        verdict = check_solution(rdef, cf_for(rdef, "2^x"), solver)
        assert verdict == Unknown("unsupported-operator", detail=verdict.detail)

    def test_clearing_reaches_constants_under_max(self, solver):
        # clearing by 4 carries the factor 1/2 into max (or min, negated),
        # so the constant inside is integral and the check decides
        rdef = load_bench("s-max")
        for text in ["1/2*max(2*x + 2*y, -1/2)", "-1/2*min(-2*x - 2*y, 1/2)"]:
            assert check_solution(rdef, cf_for(rdef, text), solver) == Verified(), text
        # max(x + y, 1/4) is 1/4 at (0, 0), where s-max is 0
        wrong = cf_for(rdef, "1/2*max(2*x + 2*y, 1/2)")
        assert check_solution(rdef, wrong, SolverConfig((BUILTIN,))) == \
            Refuted((0, 0), 0, Fraction(1, 4))
        verdict = check_solution(rdef, wrong, solver)
        assert isinstance(verdict, Refuted)
        assert eval_fun(rdef, verdict.counterexample) == Value(verdict.recurrence_value)
        assert eval_closed_form(wrong, verdict.counterexample) == verdict.candidate_value
        assert verdict.recurrence_value != verdict.candidate_value

    def test_piecewise_candidates(self, solver):
        for name, pieces in [
            ("merge", [("x + y - 1", "x > 0 and y > 0"), ("0", "true")]),
            ("sum-osc", [("x + y^2/2 + 3*y/2", "y > 0"), ("1", "true")]),
        ]:
            rdef = load_bench(name)
            cf = ClosedForm(rdef.arg_names, rdef.precondition,
                            tuple(Piece(parse_expression(e), parse_constraint(g))
                                  for e, g in pieces))
            assert check_solution(rdef, cf, solver) == Verified(), name

    def test_table_one_reference_forms_verify(self, solver):
        for name, text in [("merge-sz", "x + y"), ("open-zip", "max(x, y)"),
                           ("div", "floor(x/y)"), ("div-ceil", "ceil(x/y)"),
                           ("s-max", "x + y"), ("s-max-1", "2*x + y")]:
            rdef = load_bench(name)
            assert check_solution(rdef, cf_for(rdef, text), solver) == Verified(), name

    def test_wrong_piecewise_is_refuted_and_confirmed(self, solver):
        rdef = load_bench("div")
        verdict = check_solution(rdef, cf_for(rdef, "ceil(x/y)"), solver)
        assert isinstance(verdict, Refuted)
        out = eval_fun(rdef, verdict.counterexample)
        assert isinstance(out, Value)
        assert out.value == verdict.recurrence_value
        assert verdict.recurrence_value != verdict.candidate_value

    def test_missing_solver_binary(self):
        cfg = SolverConfig(("/nonexistent/solver",))
        rdef = load_bench("nested")
        with pytest.raises(SolverProcessFailure):
            check_solution(rdef, cf_for(rdef, "x"), cfg)


class TestExternalSolver:
    """`run_solver`'s output scan and every verdict it leads to, on nested,
    through a stub solver process; no SMT solver needs to be installed."""
    MODEL = "print('sat'); print('(model (define-fun x () Int 3))')"

    @pytest.mark.parametrize("main_query,candidate,verdict", [
        ("print('unsat')", "x", Verified()),
        ("print('unknown')", "x", Unknown("solver-unknown")),
        (MODEL, "x + 1", Refuted((3,), 3, 4)),
        (MODEL, "x", Unknown("solver-unknown",
                             "model (3,) did not yield a confirmed counterexample")),
    ], ids=["unsat", "unknown", "sat-refuted", "sat-unconfirmed"])
    def test_verdicts(self, main_query, candidate, verdict):
        rdef = load_bench("nested")
        assert check_solution(rdef, cf_for(rdef, candidate), stub_solver(main_query)) == verdict

    def test_timeout(self):
        rdef = load_bench("nested")
        cfg = stub_solver("time.sleep(30)", timeout_ms=500)
        assert check_solution(rdef, cf_for(rdef, "x"), cfg) == Unknown("solver-timeout")

    def test_no_verdict_is_a_process_failure(self):
        rdef = load_bench("nested")
        cfg = stub_solver("print('no verdict here')")
        with pytest.raises(SolverProcessFailure, match="solver produced no verdict"):
            check_solution(rdef, cf_for(rdef, "x"), cfg)
        report = solve(rdef, SolveConfig(solver=cfg))
        assert (report.verdict, report.verdict_reason) == ("skipped", "solver-unavailable")
        assert report.error.startswith("SolverProcessFailure: solver produced no verdict")
        assert to_text(report.closed_form.pieces[0].expr) == "x"


class TestSoundness:
    def test_verified_verdicts_agree_with_brute_force(self, solver):
        # whenever the checker says Verified, a grid sweep finds no
        # disagreement between the recurrence and the candidate
        for name, text in [("nested", "x"), ("div", "floor(x/y)"),
                           ("s-max", "x + y")]:
            rdef = load_bench(name)
            cf = cf_for(rdef, text)
            assert check_solution(rdef, cf, solver) == Verified()
            for p in grid_points(rdef.precondition, rdef.arg_names, 0, 12):
                out = eval_fun(rdef, p)
                assert isinstance(out, Value)
                assert out.value == eval_closed_form(cf, p), (name, p)


# case 1 is covered by the main piece x but overlaps case 2, which is not
# (2*x - 2 differs from x at 0 and 1); case 3 is covered and overlaps nothing
OVERLAP = """def f(x);
pre x >= 0;
f(x) = x if x <= 1;
f(x) = 2*x - 2 if x <= 2;
f(x) = 3 if x = 3;
f(x) = f(x - 1) + 1 if x > 3;
"""


def guessed(rdef) -> ClosedForm:
    return guess(rdef, default_base_set(rdef.arity, rdef.arg_names),
                 RegressionConfig(), SampleConfig()).closed_form


class TestAbsorbCoveredPieces:
    def assert_pointwise_equal(self, rdef, a, b):
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 12):
            assert eval_closed_form(a, p) == eval_closed_form(b, p), p

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_corpus(self, name):
        rdef = load_bench(name)
        cf = guessed(rdef)
        absorbed = absorb_covered_pieces(cf)
        self.assert_pointwise_equal(rdef, absorbed, cf)
        reference = bench_sidecar(name)["reference"]
        if name in ("merge", "sum-osc"):  # their base pieces differ from the main one
            assert absorbed == cf
        else:
            assert reference == [[absorbed.to_text(), "true"]]

    def test_overlapping_guards_keep_the_covered_piece(self):
        rdef = parse_recurrence(OVERLAP)
        cf = guessed(rdef)
        absorbed = absorb_covered_pieces(cf)
        assert absorbed.to_text() == \
            "x if not x <= 1 and not x <= 2; x if x <= 1; 2*x - 2 if x <= 2"
        self.assert_pointwise_equal(rdef, absorbed, cf)

    def test_query_outside_the_fragment_keeps_the_piece(self):
        rdef = load_bench("nested")
        cf = ClosedForm(rdef.arg_names, rdef.precondition,
                        (Piece(parse_expression("2*2^x - 1"), parse_constraint("not x = 0")),
                         Piece(con(1), parse_constraint("x = 0"))))
        assert absorb_covered_pieces(cf) == cf
