import itertools
import re
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from recsolve import recurrence
from recsolve.expr import (
    Add, Call, Cmp, Div, ExprError, Floor, Ite, Max, Min, Mul, Piece, Sub, TRUE,
    Var, con, contains_calls, eval_expr,
)
from recsolve.parser import parse_constraint, parse_expression, parse_recurrence
from recsolve.recurrence import (
    ArityMismatch, Case, ClosedForm, EvalLimits, GuardFallthrough,
    GuardFallthroughError, LimitExceeded, PreconditionNotCovering,
    RecurrenceDef, RecurrenceError, UnknownFunction, Value, eval_closed_form,
    eval_fun, foreign_names, inline_function, validate_coverage,
)
from recsolve.pipeline import SolveConfig, solve
from recsolve.sampling import SampleConfig, sample_inputs

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
        inlined = inline_function(cost, "s", size_cf, brute_entails)
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

    def test_a_float_is_read_exactly(self):
        # 2.7 is the Fraction of its binary value, not the int 2
        rdef = load_bench("nested")
        exact = Fraction(2.7)
        assert exact != Fraction(27, 10)
        assert eval_fun(rdef, (2.7,)) == eval_fun(rdef, (exact,)) \
            == GuardFallthrough((exact - 3,))
        memo: dict = {}
        assert eval_fun(rdef, (3.0,), memo=memo) == Value(3)
        assert all(type(x) is int for p in memo for x in p)
        cf = ClosedForm(("x",), TRUE, (Piece(Var("x"), TRUE),))
        assert eval_closed_form(cf, (2.7,)) == exact
        assert type(eval_closed_form(cf, (3.0,))) is int


class TestSuspendedBodies:
    # a body that misses a call yields the call's key; once resumed, it
    # reads the call's value from the memo

    @pytest.mark.parametrize("base", ["0", "-3", "1/2"])
    def test_a_resumed_body_reads_the_call_value(self, base):
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            f"f(x) = {base} if x = 0;\n"
            f"f(x) = 2*f(x - 1) - {base} if x > 0;\n")
        expected = Fraction(base)
        memo: dict = {}
        assert eval_fun(rdef, (4,), memo=memo) == Value(expected)
        assert memo == {(x,): expected for x in range(5)}

    @pytest.mark.parametrize("body, error", [
        ("f(x - 1) + g(x)", UnknownFunction),
        ("f(x - 1) + floor(1/(x - 2))", ExprError),
    ], ids=["unknown-function", "division-by-zero"])
    def test_an_error_after_a_resume_propagates(self, body, error):
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            f"f(x) = 0 if x = 0;\nf(x) = {body} if x > 0;\n")
        memo: dict = {}
        with pytest.raises(error):
            eval_fun(rdef, (3,), memo=memo)
        assert (3,) not in memo and (2,) not in memo
        assert_memo_is_fresh(rdef, memo)

    def test_a_nested_fallthrough_leaves_only_completed_values(self):
        # at 5: f(2) completes, f(3) completes f(0) and falls through at 1
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x = 0;\nf(x) = 1 if x = 2;\n"
            "f(x) = f(x - 3) + f(x - 2) if x >= 3;\n")
        memo: dict = {}
        assert eval_fun(rdef, (5,), memo=memo) == GuardFallthrough((1,))
        assert memo == {(2,): 1, (0,): 0}
        assert_memo_is_fresh(rdef, memo)

    @pytest.mark.parametrize("limits, limit", [
        (EvalLimits(max_depth=40), "depth"), (EvalLimits(max_steps=300), "steps"),
    ], ids=["depth", "steps"])
    def test_a_limit_leaves_only_completed_values(self, limits, limit):
        # the timeout: TestLimits::test_timeout_leaves_only_correct_values
        rdef = load_bench("merge")
        memo: dict = {}
        assert eval_fun(rdef, (30, 25), limits, memo) == LimitExceeded(limit)
        assert memo and (30, 25) not in memo
        assert_memo_is_fresh(rdef, memo)


def assert_memo_is_fresh(rdef, memo):
    """Every value in `memo` is what a fresh evaluation gives."""
    for point, v in memo.items():
        assert eval_fun(rdef, point) == Value(v), point


# size's two-piece closed form over its precondition x >= 0
SIZE_CF = ClosedForm(("x",), parse_constraint("x >= 0"),
                     (Piece(Var("x"), parse_constraint("x > 0")),
                      Piece(con(0), parse_constraint("x = 0"))))


class TestInlineFunction:
    def test_size_closed_form_leaves_no_foreign_call(self):
        cost = load_bench("cost")
        inlined = inline_function(cost, "s", SIZE_CF, brute_entails)
        assert foreign_names(cost) == {"s"}
        assert foreign_names(inlined) == set()
        for case in inlined.cases:
            assert not contains_calls(case.body, "s")
        assert inlined.to_text().splitlines()[-1] == \
            "c(x) = c(x - 1) + c(ite(x - 1 > 0, x - 1, 0)) + 1 if x > 0;"
        assert [value(eval_fun(inlined, (x,))) for x in range(6)] \
            == [2 ** (x + 1) - 1 for x in range(6)]

    def test_call_in_the_domain_by_an_earlier_guard(self):
        # x - 1 >= 0 holds in case 2 only because case 1 (x = 0) did not match
        caller = parse_recurrence("def c(x);\npre x >= 0;\nc(x) = 1 if x = 0;\n"
                                  "c(x) = c(x - 1) + s(x - 1) if x >= 0;\n")
        inlined = inline_function(caller, "s", SIZE_CF, brute_entails)
        assert foreign_names(inlined) == set()
        assert inlined.to_text().splitlines()[-1] == \
            "c(x) = c(x - 1) + ite(x - 1 > 0, x - 1, 0) if x >= 0;"
        assert [value(eval_fun(inlined, (x,))) for x in range(6)] \
            == [1 + x * (x - 1) // 2 for x in range(6)]

    def test_call_outside_the_callee_domain_stays(self):
        # s(x - 2) at x = 1 is s(-1), outside s's precondition x >= 0
        caller = parse_recurrence("def c(x);\npre x >= 0;\nc(x) = 1 if x = 0;\n"
                                  "c(x) = c(x - 1) + s(x - 2) if x > 0;\n")
        inlined = inline_function(caller, "s", SIZE_CF, brute_entails)
        assert inlined == caller
        with pytest.raises(UnknownFunction):
            eval_fun(inlined, (1,))
        report = solve(inlined, SolveConfig())
        assert (report.verdict, report.verdict_reason) == ("skipped", "validation-failed")
        assert report.error == "UnknownFunction: s"


class TestLimits:
    def test_step_limit(self):
        rdef = load_bench("fib")
        out = eval_fun(rdef, (20,), EvalLimits(max_steps=10))
        assert isinstance(out, LimitExceeded)
        assert out.limit == "steps"

    def test_limits_validate(self):
        with pytest.raises(ValueError):
            EvalLimits(max_depth=0)

    def test_timeout_leaves_only_correct_values(self, monkeypatch):
        # the clock reads 0 for the first 40 calls and 10^9 from then on:
        # the run on fib(25) passes its deadline part way up its call chain
        calls = itertools.count()
        monkeypatch.setattr(recurrence.time, "monotonic",
                            lambda: 0.0 if next(calls) < 40 else 1e9)
        rdef = load_bench("fib")
        memo: dict = {}
        assert eval_fun(rdef, (25,), memo=memo) == LimitExceeded("timeout")
        # later runs take their deadline from the jumped clock and finish
        assert memo and all(memo[p] == value(eval_fun(rdef, p)) for p in memo)
        assert value(eval_fun(rdef, (25,), memo=memo)) == 121393

    def test_a_chain_deeper_than_python_recursion(self):
        # the pending bodies are held in a list, not on Python's stack
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(x - 1) + 1 if x > 0;\n")
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            assert eval_fun(rdef, (9_999,)) == Value(9_999)
            assert eval_fun(rdef, (10_001,)) == LimitExceeded("depth")
        finally:
            sys.setrecursionlimit(old)


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
        return inline_function(load_bench("cost"), "s", SIZE_CF, brute_entails)
    return load_bench(name)


# (recurrence, point, value, loop iterations, smallest max_depth) of a cold
# eval_fun.  An iteration of the evaluator's loop begins a body or resumes
# one.  A step is one body begun, so one point memoized; each point but
# the first resumes the body below it once, so a run of n steps takes
# 2n - 1 iterations and reads the clock 2n times.
ACCOUNTING = [
    ("nested", (5,), 5, 11, 6),
    ("nested", (40,), 40, 81, 41),
    ("fib", (5,), 8, 11, 5),
    ("fib", (25,), 121393, 51, 25),
    ("size", (4,), 4, 9, 5),
    ("size", (30,), 30, 61, 31),
    ("merge", (3, 4), 6, 37, 7),
    ("merge", (30, 25), 54, 1609, 55),
    ("merge-sz", (2, 3), 5, 21, 5),
    ("merge-sz", (20, 30), 50, 1299, 50),
    ("open-zip", (5, 3), 5, 11, 6),
    ("open-zip", (40, 17), 40, 81, 41),
    ("div", (7, 2), 3, 7, 4),
    ("div", (60, 7), 8, 17, 9),
    ("div-ceil", (7, 3), 3, 5, 3),
    ("div-ceil", (50, 9), 6, 11, 6),
    ("s-max", (3, 2), 5, 7, 4),
    ("s-max", (40, 10), 50, 81, 41),
    ("s-max-1", (4, 1), 9, 9, 5),
    ("s-max-1", (35, 20), 90, 71, 36),
    ("sum-osc", (2, 3), 11, 15, 8),
    ("sum-osc", (12, 20), 242, 103, 52),
    ("cost-inlined", (4,), 31, 9, 5),
    ("cost-inlined", (12,), 8191, 25, 13),
    ("ite-body", (6,), 11, 13, 5),
    ("ite-body", (20,), 15471, 41, 19),
]


class TestLimitAccounting:
    @pytest.mark.parametrize("name,point,v,iterations,depth", ACCOUNTING)
    def test_smallest_limits(self, name, point, v, iterations, depth, monkeypatch):
        rdef = _accounting_rdef(name)
        steps = (iterations + 1) // 2
        memo: dict = {}
        assert eval_fun(rdef, point, memo=memo) == Value(v)
        assert len(memo) == steps
        assert eval_fun(rdef, point, EvalLimits(max_steps=steps)) == Value(v)
        assert eval_fun(rdef, point, EvalLimits(max_steps=steps - 1)) \
            == LimitExceeded("steps")
        assert eval_fun(rdef, point, EvalLimits(max_depth=depth)) == Value(v)
        assert eval_fun(rdef, point, EvalLimits(max_depth=depth - 1)) \
            == LimitExceeded("depth")
        reads = itertools.count()
        monkeypatch.setattr(recurrence.time, "monotonic", lambda: next(reads))
        assert eval_fun(rdef, point, EvalLimits(timeout_ms=10**9)) == Value(v)
        assert next(reads) == 1 + iterations  # the deadline, then one a loop

    @pytest.mark.parametrize("name,n", [("size", 30), ("nested", 40), ("fib", 25)])
    def test_a_chain_of_missed_calls_takes_one_step_a_point(self, name, n):
        # each point from n down to the base case is evaluated once, and
        # resumed where it stopped once its call is in the memo
        assert smallest_limits(load_bench(name), (n,))[0] == n + 1

    def test_a_cold_run_takes_one_step_a_memo_entry(self):
        rdef = load_bench("merge")
        memo: dict = {}
        assert eval_fun(rdef, (30, 25), memo=memo) == Value(54)
        assert smallest_limits(rdef, (30, 25))[0] == len(memo) == 805


def smallest_limits(rdef, point) -> tuple:
    """The smallest max_steps and max_depth at which a cold eval_fun
    finishes at `point`, each with the other limit at its default."""
    def smallest(make):
        lo, hi = 1, 1
        while isinstance(eval_fun(rdef, point, make(hi)), LimitExceeded):
            lo, hi = hi + 1, hi * 2
        while lo < hi:
            mid = (lo + hi) // 2
            if isinstance(eval_fun(rdef, point, make(mid)), LimitExceeded):
                lo = mid + 1
            else:
                hi = mid
        return lo
    return (smallest(lambda n: EvalLimits(max_steps=n)),
            smallest(lambda n: EvalLimits(max_depth=n)))


# Two arguments, nested and conditional calls, and operators written
# inline and called; `f`, `x` and `y` are replaced by other names below
NAMED = ("def f(x, y);\npre x >= 0 and y >= 0;\n"
         "f(x, y) = y if x = 0;\n"
         "f(x, y) = ite(x > y, f(x - 1, y + 1), max(f(x - 1, y), x))"
         " + floor(y/2) * f(x - 1, f(x - 1, 0) - x + 1) if x > 0;\n")


def renamed(text, names):
    return re.sub(r"\b[fxy]\b", lambda m: names[m.group()], text)


class TestGeneratedCode:
    @pytest.mark.parametrize("f, x, y", [
        ("f", "a", "m"), ("g", "acc", "k"), ("step", "step", "a"),
        ("k", "m", "acc"), ("a", "k", "step"),
    ])
    def test_names_of_the_generated_code_are_free(self, f, x, y):
        plain = parse_recurrence(NAMED)
        other = parse_recurrence(renamed(NAMED, {"f": f, "x": x, "y": y}))
        assert other.arg_names == (x, y)
        for point in [(3, 2), (6, 1), (5, 5)]:
            assert eval_fun(other, point) == eval_fun(plain, point)
            assert smallest_limits(other, point) == smallest_limits(plain, point)

    def test_constants_differ_code_is_shared(self):
        text = ("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\n"
                "f(x) = f(x - 1) + {} if x > 0;\n")
        two = parse_recurrence(text.format("2"))
        third = parse_recurrence(text.format("1/3"))
        assert two._compiled.__code__ is third._compiled.__code__
        memo_two, memo_third = {}, {}
        for x in range(8):  # alternately, each on its own memo
            assert eval_fun(two, (x,), memo=memo_two) == Value(2 * x)
            assert eval_fun(third, (x,), memo=memo_third) == Value(Fraction(x, 3))

    def test_second_parse_reuses_the_code(self):
        first, again = parse_recurrence(NAMED), parse_recurrence(NAMED)
        assert first is not again
        assert again._compiled.__code__ is first._compiled.__code__
        for limits in (EvalLimits(), EvalLimits(max_steps=60), EvalLimits(max_depth=4)):
            for point in [(3, 2), (6, 1), (9, 4)]:
                assert eval_fun(again, point, limits) == eval_fun(first, point, limits)
        assert eval_fun(first, (9, 4), EvalLimits(max_depth=4)) == LimitExceeded("depth")

    def test_operands_keep_their_grouping(self):
        # sums as right operands of - and *, in a base case, a call's
        # argument and an ite branch
        rdef = parse_recurrence(
            "def f(x, y);\npre x >= 0 and y >= 0;\n"
            "f(x, y) = y - (x - 1) if x = 0;\n"
            "f(x, y) = x - (y - f(x - 1, y - (x - x))) * (2 - (x + y))"
            " - (1 - ite(x > y, x - (y - 1), 0)) if x > 0;\n")
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 5):
            assert eval_fun(rdef, p) == eval_fun_naive(rdef, p), p

    def test_long_sum_is_flat(self):
        # deeper than Python's limit of 200 nested parentheses; built as a
        # tree, because the parser refuses a chain this long (MAX_CHAIN)
        body = reduce(Add, [Var("x")] * 300, Call("f", (Sub(Var("x"), con(1)),)))
        rdef = RecurrenceDef("f", ("x",), parse_constraint("x >= 0"), (
            Case(con(0), parse_constraint("x = 0")),
            Case(body, parse_constraint("x > 0"))))
        assert eval_fun(rdef, (3,)) == Value(300 * 6)


# 250 base cases: the recursive region is a conjunction 251 deep, and the
# generated code writes it flat
MANY_BASE_CASES = parse_recurrence(
    "def f(x);\npre x >= 0;\n" + "".join(f"f(x) = {2 * i} if x = {i};\n" for i in range(250))
    + "f(x) = f(x - 1) + 1 if x >= 250;\n")


def test_many_base_cases():
    assert eval_fun(MANY_BASE_CASES, (300,)) == Value(549)
    points = sample_inputs(MANY_BASE_CASES.recursive_region(), ("x",),
                           SampleConfig(bounds=(0, 400)), 8)
    assert points == [(277,), (317,), (304,), (323,), (321,), (264,), (296,), (386,)]


# Random one-argument bodies against the naive oracle.  Calls are on
# x - c; c = 0 never returns, so the depth limit is reached.  The points
# are small enough that no terminating call chain reaches that limit,
# though the oracle re-walks what the memo skips.
X = Var("x")
ORACLE_LIMITS = EvalLimits(max_depth=12, max_steps=200_000)
_leaves = st.one_of(
    st.integers(-2, 3).map(con),
    st.just(X),
    st.sampled_from([1, 1, 1, 2, 0]).map(lambda c: Call("f", (Sub(X, con(c)),))),
    st.just(Call("g", (X,))),
)
_conditions = st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                        st.just(X), st.integers(-1, 4).map(con))
_divisors = st.one_of(st.sampled_from([-2, 2, 3]).map(con),
                      st.integers(0, 3).map(lambda c: Sub(X, con(c))))


def _branches(kids):
    return st.one_of(
        st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids), st.builds(Max, kids, kids),
        st.builds(Min, kids, kids),
        st.builds(lambda e, d: Floor(Div(e, d)), kids, _divisors),
        st.builds(Ite, _conditions, kids, kids),
    )


_bodies = st.recursive(_leaves, _branches, max_leaves=8).filter(
    lambda e: contains_calls(e, "f"))


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except (ExprError, RecurrenceError) as err:
        return type(err)


@given(_bodies, st.sampled_from(["x <= 0", "x = 0"]), st.integers(-1, 2))
@settings(max_examples=150, deadline=None)
def test_random_bodies_agree_with_the_oracle(body, base_guard, base):
    rdef = RecurrenceDef("f", ("x",), parse_constraint("x >= 0"), (
        Case(con(base), parse_constraint(base_guard)),
        Case(body, parse_constraint("x > 0"))))
    naive = [_outcome(eval_fun_naive, rdef, (x,), ORACLE_LIMITS) for x in range(5)]
    assert [_outcome(eval_fun, rdef, (x,), ORACLE_LIMITS) for x in range(5)] == naive
    memo: dict = {}
    assert [_outcome(eval_fun, rdef, (x,), ORACLE_LIMITS, memo) for x in range(5)] == naive


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

    def test_a_point_in_the_memo_returns_its_value(self):
        # no body runs: the memo's value is returned as it is
        rdef = load_bench("size")
        assert eval_fun(rdef, (5,), memo={(5,): 7}) == Value(7)


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
