import itertools

import pytest

from recsolve.checker import (
    BUILTIN, EncodedFormula, Implication, Refuted, ResidualCall, SolverConfig,
    Unknown,
    UnsupportedOperator, Verified, check_solution, emit_smtlib, encode,
    emit_implication, entails, parse_model, SolverProcessFailure, _cleared,
)
from recsolve.expr import (
    Piece, TRUE, Var, con, eval_expr, simplify, single_piece, to_text,
    ClosedForm,
)
from recsolve.parser import parse_constraint, parse_expression
from recsolve.recurrence import Value, eval_closed_form, eval_fun

from conftest import brute_entails, grid_points, load_bench

X, Y = Var("x"), Var("y")


def cf_for(rdef, text):
    return single_piece(parse_expression(text), rdef.arg_names, rdef.precondition)


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
        ("1/2*max(2*x + 2*y, 1/2)", False),  # clearing leaves 1/2 inside max
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

    def test_divisor_positivity_demanded(self):
        # candidate floor(x/y) for a recurrence whose domain admits y = 0
        rdef = load_bench("s-max")
        with pytest.raises(UnsupportedOperator):
            encode(rdef, cf_for(rdef, "floor(x/y)"), brute_entails)


class TestEmission:
    def test_deterministic_and_golden(self):
        rdef = load_bench("nested")
        ef = encode(rdef, cf_for(rdef, "x"), brute_entails)
        text1 = emit_smtlib(ef)
        text2 = emit_smtlib(ef)
        assert text1 == text2
        assert text1 == (
            "(set-logic QF_NIA)\n"
            "(declare-const x Int)\n"
            "(assert (not (and "
            "(=> (and (>= x 0) (= x 0)) (= x 0)) "
            "(=> (and (>= x 0) (and (not (= x 0)) (> x 0))) (= x x)))))\n"
            "(check-sat)\n"
            "(get-model)\n")

    def test_encode_emits_each_implication_once(self):
        # the text `encode` keeps is what emission of the bare implications
        # gives, so the script is the same either way
        rdef = load_bench("sum-osc")
        ef = encode(rdef, cf_for(rdef, "x + y^2/2 + 3*y/2 + 1"), brute_entails)
        assert ef.emitted == tuple(emit_implication(i) for i in ef.implications)
        assert emit_smtlib(ef) == emit_smtlib(
            EncodedFormula(ef.variables, ef.implications))

    def test_rational_coefficients_cleared(self):
        ef = EncodedFormula(("x", "y"), (Implication(
            parse_constraint("y > 0"),
            parse_expression("x + y^2/2 + 3*y/2"),
            parse_expression("x + 2")),))
        text = emit_smtlib(ef)
        assert "/" not in text.replace("div", "")
        assert "(* 2 x)" in text  # both sides multiplied through by 2

    def test_ceiling_encoding_is_sign_correct(self):
        ef = EncodedFormula(("x", "y"), (Implication(
            parse_constraint("y > 0"), parse_expression("ceil(x/y)"), con(0)),))
        text = emit_smtlib(ef)
        assert "(- (div (- x) y))" in text

    def test_floor_of_constant_denominator(self):
        ef = EncodedFormula(("x",), (Implication(
            TRUE, parse_expression("floor(x/2)"), con(0)),))
        assert "(div x 2)" in emit_smtlib(ef)

    def test_max_min_as_ite(self):
        ef = EncodedFormula(("x", "y"), (Implication(
            TRUE, parse_expression("max(x, y)"), parse_expression("min(x, y)")),))
        text = emit_smtlib(ef)
        assert "(ite (>= x y) x y)" in text
        assert "(ite (<= x y) x y)" in text

    def test_negative_literals(self):
        ef = EncodedFormula(("x",), (Implication(
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
        # clearing the second leaves a rational constant inside max
        for name, text in [("nested", "2^x"), ("s-max", "1/2*max(2*x + 2*y, 1/2)")]:
            rdef = load_bench(name)
            verdict = check_solution(rdef, cf_for(rdef, text), solver)
            assert verdict == Unknown("unsupported-operator",
                                      detail=verdict.detail), name

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
