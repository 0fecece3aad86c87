from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recsolve.expr import Piece, TRUE, con, contains_calls, eval_expr, Var
from recsolve.parser import parse_constraint, parse_expression, parse_recurrence
from recsolve.recurrence import (
    ArityMismatch, ClosedForm, EvalLimits, GuardFallthrough,
    GuardFallthroughError, LimitExceeded, PreconditionNotCovering, Value,
    eval_closed_form, eval_fun, foreign_names, inline_function,
    validate_coverage,
)

from conftest import brute_entails, grid_points, load_bench, bench_sidecar
from oracle import eval_fun_naive


def value(outcome):
    assert isinstance(outcome, Value), outcome
    return outcome.value


class TestEvalFun:
    def test_nested_running_example(self):
        rdef = load_bench("nested")
        assert value(eval_fun(rdef, (5,))) == 5
        assert value(eval_fun(rdef, (0,))) == 0

    def test_nonterminating_hits_limits(self):
        rdef = load_bench("nonterm")
        out = eval_fun(rdef, (3,))
        assert isinstance(out, LimitExceeded)
        assert out.limit == "depth"
        assert value(eval_fun(rdef, (0,))) == 1

    def test_fibonacci(self):
        rdef = load_bench("fib")
        # oracle: iterative unrolling
        a, b = 1, 1
        for _ in range(4):
            a, b = b, a + b
        assert value(eval_fun(rdef, (5,))) == b == 8

    def test_cost_with_size_inlined(self):
        cost = load_bench("cost")
        size_cf = ClosedForm(("x",), parse_constraint("x >= 0"),
                             (Piece(Var("x"), TRUE),))
        inlined = inline_function(cost, "s", size_cf)
        assert value(eval_fun(inlined, (3,))) == 15  # 2^(3+1) - 1

    def test_arity_checked(self):
        rdef = load_bench("nested")
        with pytest.raises(ArityMismatch):
            eval_fun(rdef, (1, 2))

    def test_rational_intermediate_arguments(self):
        # a body that halves its argument: calls are evaluated at exact
        # rationals and guards compare exactly
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x <= 1;\n"
            "f(x) = f(x/2) + 1 if x > 1;\n")
        assert value(eval_fun(rdef, (3,))) == 2  # 3 -> 3/2 -> 3/4
        assert value(eval_fun(rdef, (8,))) == 3

    def test_guard_fallthrough(self):
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(x - 2) + 1 if x >= 2;\n")
        out = eval_fun(rdef, (5,))  # reaches 1, where no guard matches
        assert isinstance(out, GuardFallthrough)
        assert out.point == (Fraction(1),)

    def test_first_matching_guard_order(self):
        overlapping = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 7 if x >= 0;\n"
            "f(x) = f(x-1) if x > 0;\n")
        swapped = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = f(x-1) + 0 if x > 0;\n"
            "f(x) = 7 if x >= 0;\n")
        assert value(eval_fun(overlapping, (3,))) == 7
        assert value(eval_fun(swapped, (3,))) == 7  # recursion reaches the base
        assert value(eval_fun(swapped, (0,))) == 7

    def test_deterministic(self):
        rdef = load_bench("sum-osc")
        assert eval_fun(rdef, (7, 9)) == eval_fun(rdef, (7, 9))


class TestInlineFunction:
    def test_size_closed_form_leaves_no_foreign_call(self):
        cost = load_bench("cost")
        size = load_bench("size")
        size_cf = ClosedForm(size.arg_names, size.precondition,
                             (Piece(Var("x"), parse_constraint("x > 0")),
                              Piece(con(0), parse_constraint("x = 0"))))
        inlined = inline_function(cost, "s", size_cf)
        assert foreign_names(cost) == {"s"}
        assert foreign_names(inlined) == set()
        for case in inlined.cases:
            assert not contains_calls(case.body, "s")
        assert [value(eval_fun(inlined, (x,))) for x in range(6)] \
            == [2 ** (x + 1) - 1 for x in range(6)]


class TestLimits:
    def test_step_limit(self):
        rdef = load_bench("fib")
        out = eval_fun(rdef, (20,), EvalLimits(max_steps=10))
        assert isinstance(out, LimitExceeded)
        assert out.limit == "steps"

    def test_limits_validate(self):
        with pytest.raises(ValueError):
            EvalLimits(max_depth=0)


# A recurrence whose bodies visit Ite branches before, around and after
# their calls
ITE_BODY = parse_recurrence(
    "def f(x);\npre x >= 0;\n"
    "f(x) = x if x < 2;\n"
    "f(x) = ite(x > 4, f(x - 1), f(x - 2)) + ite(x > 9, 2*x, 1) + f(x - 2)"
    " if x >= 2;\n")


def _accounting_rdef(name):
    if name == "ite-body":
        return ITE_BODY
    if name == "cost-inlined":  # size's two-piece closed form, as an Ite
        size_cf = ClosedForm(("x",), parse_constraint("x >= 0"),
                             (Piece(Var("x"), parse_constraint("x > 0")),
                              Piece(con(0), parse_constraint("x = 0"))))
        return inline_function(load_bench("cost"), "s", size_cf)
    return load_bench(name)


# (recurrence, point, value, smallest max_steps, smallest max_depth) at which
# a cold eval_fun returns the value; recorded with the interpretive
# evaluator that the compiled one replaced.  A step is one guard tried or
# one body node visited, also before a restart for a missing call; Ite
# conditions count none.
ACCOUNTING = [
    ("nested", (5,), 5, 78, 6),
    ("nested", (40,), 40, 673, 41),
    ("fib", (5,), 8, 76, 5),
    ("fib", (25,), 121393, 436, 25),
    ("size", (4,), 4, 61, 5),
    ("size", (30,), 30, 503, 31),
    ("merge", (3, 4), 6, 379, 7),
    ("merge", (30, 25), 54, 20833, 55),
    ("merge-sz", (2, 3), 5, 198, 5),
    ("merge-sz", (20, 30), 50, 16758, 50),
    ("open-zip", (5, 3), 5, 90, 6),
    ("open-zip", (40, 17), 40, 755, 41),
    ("div", (7, 2), 3, 40, 4),
    ("div", (60, 7), 8, 115, 9),
    ("div-ceil", (7, 3), 3, 25, 3),
    ("div-ceil", (50, 9), 6, 70, 6),
    ("s-max", (3, 2), 5, 50, 4),
    ("s-max", (40, 10), 50, 753, 41),
    ("s-max-1", (4, 1), 9, 83, 5),
    ("s-max-1", (35, 20), 90, 796, 36),
    ("sum-osc", (2, 3), 11, 119, 8),
    ("sum-osc", (12, 20), 242, 881, 52),
    ("cost-inlined", (4,), 31, 74, 5),
    ("cost-inlined", (12,), 8191, 250, 13),
    ("ite-body", (6,), 11, 124, 5),
    ("ite-body", (20,), 15471, 480, 19),
]


class TestLimitAccounting:
    @pytest.mark.parametrize("name,point,v,steps,depth", ACCOUNTING)
    def test_smallest_limits(self, name, point, v, steps, depth):
        rdef = _accounting_rdef(name)
        assert eval_fun(rdef, point, EvalLimits(max_steps=steps)) == Value(v)
        assert eval_fun(rdef, point, EvalLimits(max_steps=steps - 1)) \
            == LimitExceeded("steps")
        assert eval_fun(rdef, point, EvalLimits(max_depth=depth)) == Value(v)
        assert eval_fun(rdef, point, EvalLimits(max_depth=depth - 1)) \
            == LimitExceeded("depth")


class TestSharedMemo:
    @pytest.mark.parametrize("name", ["nested", "fib", "merge", "sum-osc",
                                      "div-ceil", "nonterm", "size"])
    def test_with_and_without_memo_agree(self, name):
        # one memo across the whole grid, in both sweep orders; nonterm's
        # points end at the depth limit and leave nothing in the memo
        rdef = load_bench(name)
        limits = EvalLimits(max_depth=200)
        points = grid_points(rdef.precondition, rdef.arg_names, 0, 10)
        alone = [eval_fun(rdef, p, limits) for p in points]
        for order in (points, points[::-1]):
            memo: dict = {}
            shared = {p: eval_fun(rdef, p, limits, memo) for p in order}
            assert [shared[p] for p in points] == alone, name

    def test_fallthrough_with_memo(self):
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(x - 2) + 1 if x >= 2;\n")
        memo: dict = {}
        assert value(eval_fun(rdef, (4,), memo=memo)) == 2
        assert eval_fun(rdef, (5,), memo=memo) == GuardFallthrough((Fraction(1),))
        assert value(eval_fun(rdef, (6,), memo=memo)) == 3


class TestMemoAgainstNaive:
    @pytest.mark.parametrize("name", ["nested", "fib", "merge", "open-zip",
                                      "s-max", "s-max-1", "sum-osc", "div",
                                      "div-ceil", "merge-sz"])
    def test_agreement_on_grid(self, name):
        rdef = load_bench(name)
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 6):
            assert eval_fun(rdef, p) == eval_fun_naive(rdef, p), (name, p)


class TestAgainstReferenceClosedForms:
    @pytest.mark.parametrize("name", ["nested", "merge-sz", "merge", "open-zip",
                                      "div", "div-ceil", "s-max", "s-max-1",
                                      "sum-osc"])
    def test_recurrence_matches_reference_on_grid(self, name):
        rdef = load_bench(name)
        ref = bench_sidecar(name)["reference"]
        cf = ClosedForm(rdef.arg_names, rdef.precondition,
                        tuple(Piece(parse_expression(e), parse_constraint(g))
                              for e, g in ref))
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 12):
            assert value(eval_fun(rdef, p)) == eval_closed_form(cf, p), (name, p)


class TestEvalClosedForm:
    def test_sum_osc_piece(self):
        cf = ClosedForm(("x", "y"), TRUE,
                        (Piece(parse_expression("x + y^2/2 + 3*y/2"),
                               parse_constraint("y > 0")),
                         Piece(con(1), parse_constraint("y = 0"))))
        assert eval_closed_form(cf, (2, 4)) == 16
        assert eval_closed_form(cf, (5, 0)) == 1

    def test_max_and_floor(self):
        cf = ClosedForm(("x", "y"), TRUE, (Piece(parse_expression("max(x, y)"), TRUE),))
        assert eval_closed_form(cf, (3, 7)) == 7
        cf = ClosedForm(("x", "y"), TRUE, (Piece(parse_expression("floor(x/y)"), TRUE),))
        assert eval_closed_form(cf, (7, 2)) == 3

    def test_fallthrough(self):
        cf = ClosedForm(("x",), TRUE, (Piece(con(1), parse_constraint("x > 0")),))
        with pytest.raises(GuardFallthroughError):
            eval_closed_form(cf, (0,))


class TestCoverage:
    def test_covering_precondition_passes(self):
        rdef = load_bench("nested")
        validate_coverage(rdef, brute_entails)

    def test_non_covering_precondition_raises(self):
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(x-1) + 1 if x > 1;\n")  # x = 1 is uncovered
        with pytest.raises(PreconditionNotCovering):
            validate_coverage(rdef, brute_entails)

    @pytest.mark.parametrize("name", ["nested", "merge-sz", "merge", "open-zip",
                                      "div", "div-ceil", "s-max", "s-max-1",
                                      "sum-osc", "fib", "nonterm", "size", "cost"])
    def test_corpus_is_covering(self, name):
        validate_coverage(load_bench(name), brute_entails)


class TestRecursiveRegion:
    def test_region_of_nested(self):
        rdef = load_bench("nested")
        region = rdef.recursive_region()
        env0 = {"x": Fraction(0)}
        env1 = {"x": Fraction(1)}
        assert not eval_expr(region, env0)
        assert eval_expr(region, env1)

    def test_region_of_sum_osc_spans_both_recursive_cases(self):
        rdef = load_bench("sum-osc")
        region = rdef.recursive_region()
        assert eval_expr(region, {"x": Fraction(0), "y": Fraction(2)})
        assert eval_expr(region, {"x": Fraction(3), "y": Fraction(2)})
        assert not eval_expr(region, {"x": Fraction(3), "y": Fraction(0)})


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_memoized_equals_naive_on_random_points(x, y):
    rdef = load_bench("merge")
    assert eval_fun(rdef, (x, y)) == eval_fun_naive(rdef, (x, y))
