import itertools
import time
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recsolve.expr import (
    CMP, FALSE, FUNCTIONS, INFIX, OPS, TRUE, Add, And, BoolLit, Call, Cmp,
    Const, Constraint, Div, ExprError, Floor, Ite, Max, Mul, Not, Or, Pow, Sub,
    Var, _CHILDREN, compile_expr, con, eval_expr, simplify, to_text,
)
from recsolve.checker import Verified, check_solution
from recsolve.expr import single_piece
from recsolve.parser import (
    MAX_CHAIN, MAX_NESTING, ParseError, parse_constraint, parse_expression,
    parse_recurrence,
)
from recsolve.pipeline import SolveConfig, solve
from recsolve.recurrence import (
    ArityMismatch, EvalLimits, RecurrenceError, Value, eval_fun,
)

from oracle import eval_constraint_naive, eval_expr_naive, eval_fun_naive

X, Y = Var("x"), Var("y")


class TestExpressions:
    def test_precedence(self):
        assert parse_expression("1 + 2*x") == Add(con(1), Mul(con(2), X))
        assert parse_expression("(1 + 2)*x") == Mul(con(3) if False else Add(con(1), con(2)), X)

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_expression("-x^2")
        assert eval_expr(e, {"x": Fraction(3)}) == -9

    def test_power_right_associative(self):
        assert eval_expr(parse_expression("2^3"), {}) == 8
        assert eval_expr(parse_expression("(x^2)^3"), {"x": Fraction(2)}) == 64

    def test_rational_literal(self):
        assert parse_expression("1/2") == con(Fraction(1, 2))
        assert parse_expression("-3/2") == con(Fraction(-3, 2))
        assert parse_expression("x/2") == Div(X, con(2))

    def test_builtins(self):
        assert parse_expression("floor(x/y)") == Floor(Div(X, Y))
        assert parse_expression("max(x, y)") == Max(X, Y)
        e = parse_expression("ite(x > 0, 1, 2)")
        assert eval_expr(e, {"x": Fraction(5)}) == 1

    def test_calls(self):
        assert parse_expression("f(x-1)") == Call("f", (Sub(X, con(1)),))
        assert parse_expression("f(f(x-1)) + 1") == \
            Add(Call("f", (Call("f", (Sub(X, con(1)),)),)), con(1))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + ")
        assert err.value.line == 1
        with pytest.raises(ParseError):
            parse_expression("x ^ y")  # general powers are rejected
        with pytest.raises(ParseError):
            parse_expression("1/0")

    def test_only_ascii_digits_are_literals(self):
        # str.isdigit accepts '²', which int() rejects
        with pytest.raises(ParseError) as err:
            parse_expression("x +\n 2²")
        assert (err.value.line, err.value.col) == (2, 3)
        assert "unexpected character '²'" in str(err.value)

    @pytest.mark.parametrize("text, col", [("x +\n é", 2), ("x +\n xé1", 3)])
    def test_only_ascii_names(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert (err.value.line, err.value.col) == (2, col)
        assert "unexpected character 'é'" in str(err.value)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expression("x + 1 junk oops")


class TestConstraints:
    def test_boolean_structure(self):
        c = parse_constraint("x >= y and y > 0")
        assert isinstance(c, And)
        c = parse_constraint("x = 0 or y = 0")
        assert isinstance(c, Or)

    def test_parenthesised_constraint_vs_expression(self):
        assert parse_constraint("(x) > 0") == Cmp(">", X, con(0))
        c = parse_constraint("(x > 0) and y = 0")
        assert isinstance(c, And)
        c = parse_constraint("x >= 0 and (x > 0 or y > 0)")
        assert isinstance(c.rhs, Or)

    @pytest.mark.parametrize("text, expected, col", [
        ("(x > 0) + 1", "an expression", 1),
        ("max(x < 1, 2)", "an expression", 5),
        ("-(x > 0)", "an expression", 2),
        ("2^(x > 0)", "an expression", 3),
        ("x < y < 1", "an expression", 1),
        ("not x", "a constraint", 5),
        ("x > 0 and y", "a constraint", 11),
        ("ite(x, 1, 2)", "a constraint", 5),
    ])
    def test_mixed_kinds_name_what_was_expected(self, text, expected, col):
        for parse in (parse_expression, parse_constraint):
            with pytest.raises(ParseError, match=f"expected {expected}, found") as err:
                parse(text)
            assert (err.value.line, err.value.col) == (1, col)

    def test_not(self):
        c = parse_constraint("not x = 0")
        assert eval_expr(con(1), {}) == 1  # smoke: parser returned
        assert eval_expr(c, {"x": Fraction(1)})
        assert not eval_expr(c, {"x": Fraction(0)})


class TestRecurrenceDefs:
    def test_running_example(self):
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(f(x-1)) + 1 if x > 0;\n")
        assert rdef.name == "f"
        assert rdef.arity == 1
        assert len(rdef.cases) == 2

    def test_fibonacci(self):
        rdef = parse_recurrence(
            "def f(n);\npre n >= 0;\n"
            "f(n) = 1 if n = 0 or n = 1;\n"
            "f(n) = f(n-1) + f(n-2) if n >= 2;\n")
        assert rdef.arity == 1
        assert len(rdef.cases) == 2

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_recurrence("f(x) = if")

    def test_comments_and_whitespace(self):
        rdef = parse_recurrence(
            "# header comment\n"
            "def f(x);  # inline\n"
            "pre x >= 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(x-1) + 1 if x > 0;\n")
        assert len(rdef.cases) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_recurrence(
                "def f(x);\npre x >= 0;\n"
                "f(x) = 0 if x = 0;\n"
                "f(x) = f(x-1, 2) + 1 if x > 0;\n")

    def test_case_head_must_match(self):
        with pytest.raises(ParseError):
            parse_recurrence(
                "def f(x);\npre x >= 0;\n"
                "g(x) = 0 if x = 0;\n")

    def test_requires_closed_and_recursive_cases(self):
        with pytest.raises(RecurrenceError):
            parse_recurrence(
                "def f(x);\npre x >= 0;\n"
                "f(x) = f(x-1) if x > 0;\n")
        with pytest.raises(RecurrenceError):
            parse_recurrence(
                "def f(x);\npre x >= 0;\n"
                "f(x) = 1 if x >= 0;\n")

    def test_non_argument_variable_rejected(self):
        with pytest.raises(RecurrenceError):
            parse_recurrence(
                "def f(x);\npre x >= 0;\n"
                "f(x) = y if x = 0;\n"
                "f(x) = f(x-1) if x > 0;\n")

    def test_roundtrip_through_to_text(self):
        text = ("def f(x, y);\npre x >= 0 and y > 0;\n"
                "f(x, y) = f(x-y, y) + 1 if x >= y and y > 0;\n"
                "f(x, y) = 0 if x < y and y > 0;\n")
        rdef = parse_recurrence(text)
        again = parse_recurrence(rdef.to_text())
        assert again == rdef


# round-trip property: printing then parsing reproduces the tree, for every
# operator of the shared syntax table, ^, ite and calls
_leaf = st.one_of(
    st.builds(lambda n, d: con(Fraction(n, d)), st.integers(-9, 9), st.integers(1, 4)),
    st.sampled_from([X, Y]),
)


_OPERATORS = [*INFIX, *FUNCTIONS.values()]


def _apply(drawn):
    # a constant/constant division is drawn as a product: its text "p/q"
    # re-parses as a single rational literal by design; so is a divisor that
    # simplifies to 0, which simplify would turn into the rejected literal
    # x/0 (a filter here would make hypothesis print the whole strategy)
    node, *args = drawn
    if node is Div and (all(isinstance(a, Const) for a in args)
                        or simplify(args[1]) == con(0)):
        node = Mul
    return node(*args)


def _arithmetic(children):
    def applied(arity):
        nodes = [n for n in _OPERATORS if len(fields(n)) == arity]
        return st.tuples(st.sampled_from(nodes), *[children] * arity).map(_apply)

    return st.one_of(
        applied(1), applied(2),
        st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(t[0], con(t[1]))),
        st.sampled_from([X, Y]).map(lambda v: Pow(con(2), v)),  # no constant towers
    )


_call_free = st.recursive(_leaf, _arithmetic, max_leaves=6)
_cmp = st.builds(Cmp, st.sampled_from(sorted(CMP)), _call_free, _call_free)
_conditions = st.one_of(
    _cmp, st.builds(And, _cmp, _cmp), st.builds(Or, _cmp, _cmp), st.builds(Not, _cmp),
    st.sampled_from([TRUE, FALSE]),
)


def _combine(children):
    return st.one_of(
        _arithmetic(children),
        st.builds(Ite, _conditions, children, children),
        st.lists(children, min_size=1, max_size=3).map(lambda a: Call("f", tuple(a))),
    )


exprs = st.recursive(_leaf, _combine, max_leaves=20)


@given(exprs)
@settings(max_examples=250, deadline=None)
def test_pretty_print_parse_roundtrip(e):
    assert parse_expression(to_text(e)) == e


@given(exprs)
@settings(max_examples=100, deadline=None)
def test_simplified_forms_roundtrip(e):
    s = simplify(e)
    assert parse_expression(to_text(s)) == s


def _nested(depth):
    # and/or/not nested up to `depth` over comparisons
    if depth == 0:
        return _cmp
    inner = _nested(depth - 1)
    return st.one_of(_cmp, st.builds(And, inner, inner), st.builds(Or, inner, inner),
                     st.builds(Not, inner))


def _outcomes(c):
    f = compile_expr(c, ("x", "y"))
    out = []
    for point in itertools.product(range(-3, 4), repeat=2):
        try:
            out.append(f(point))
        except ExprError as err:
            out.append(type(err))
    return out


@given(_nested(3))
@settings(max_examples=200, deadline=None)
def test_nested_constraints_print_parse_and_evaluate_alike(c):
    # compared as text: a right-nested `and` prints flat and parses back
    # left-nested, by design
    text = to_text(c)
    again = parse_constraint(text)
    assert to_text(again) == text
    assert _outcomes(again) == _outcomes(c)


_BOOLEAN = {BoolLit, Cmp, And, Or, Not}


def test_every_operator_has_arithmetic_and_one_printed_form():
    operators = set(_CHILDREN) - {Const, Var, Call, Ite} - _BOOLEAN
    assert operators == set(OPS)
    for node in operators:
        forms = (node in INFIX) + (node in FUNCTIONS.values()) + (node is Pow)
        assert forms == 1, node.__name__
    assert len({symbol for symbol, _ in INFIX.values()}) == len(INFIX)
    assert len(set(FUNCTIONS.values())) == len(FUNCTIONS)


def test_every_boolean_node_is_walked_and_printed():
    assert _BOOLEAN == {node for node in _CHILDREN if issubclass(node, Constraint)}
    assert not _BOOLEAN & set(OPS)
    lt, eq = Cmp("<", X, con(1)), Cmp("=", Y, con(0))
    for c in (TRUE, FALSE, lt, And(lt, eq), Or(lt, eq), Not(lt), Not(Or(lt, eq)),
              And(Or(lt, eq), Not(And(eq, lt)))):
        assert parse_constraint(to_text(c)) == c


# Nesting shapes: one step around `{}` and the levels it adds.  A division
# adds a level as well as its function: generated code nests both.
EXPRESSION_SHAPES = {
    "floor-div": ("floor({}/2)", 2),
    "max": ("max({}, 1)", 1),
    "self-call": ("f({} - 1)", 1),
    "ite": ("ite(x > 1, {} + 1, 0)", 1),
    "unary-minus": ("-{}", 1),
    "parenthesized-product": ("2*({})", 1),
    "division-chain": ("{}/2", 1),
}
CONSTRAINT_SHAPES = {
    "not": ("not {}", 1),
    "parenthesized-or": ("({} or x < 0)", 1),
    "parenthesized-ite": ("(ite({}, x, 0)) >= 0", 2),
}


def _nest(step, leaf, count):
    text = leaf
    for _ in range(count):
        text = step.format(text)
    return text


def _at_and_past_the_bound(step, cost, leaf, parse):
    """The shape nested as deep as `parse` accepts, and one step deeper.
    The leaf and the operands of the innermost condition take up to three
    levels of their own."""
    steps = (MAX_NESTING - 3) // cost
    parse(_nest(step, leaf, steps))
    while True:
        try:
            parse(_nest(step, leaf, steps + 1))
        except ParseError:
            return _nest(step, leaf, steps), _nest(step, leaf, steps + 1)
        steps += 1


def _value(thunk):
    try:
        return thunk()
    except ExprError as err:
        return type(err)


class TestNestingBound:
    """Nested as deep as the parser accepts, each shape compiles (alone
    and as a recurrence body or guard) and evaluates as the oracle does;
    one step deeper is a ParseError."""

    @staticmethod
    def recurrence(body="0", guard="x > 1"):
        return parse_recurrence("def f(x);\npre true;\nf(x) = 0 if x <= 1;\n"
                                f"f(x) = f(x - 1) + {body} if {guard};\n")

    @pytest.mark.parametrize("name", sorted(EXPRESSION_SHAPES))
    def test_expression_shapes(self, name):
        deepest, deeper = _at_and_past_the_bound(*EXPRESSION_SHAPES[name], "x",
                                                parse_expression)
        e = parse_expression(deepest)
        for x in range(-1, 4):
            expected = _value(lambda: eval_expr_naive(e, {"x": x}))
            assert _value(lambda: compile_expr(e, ("x",))((x,))) == expected
        rdef = self.recurrence(body=deepest)
        limits = EvalLimits(max_steps=100_000)
        for x in range(4):
            assert eval_fun(rdef, (x,), limits) == eval_fun_naive(rdef, (x,), limits)
        for parse in (parse_expression, lambda t: self.recurrence(body=t)):
            with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} levels"):
                parse(deeper)

    @pytest.mark.parametrize("name", sorted(CONSTRAINT_SHAPES))
    def test_constraint_shapes(self, name):
        deepest, deeper = _at_and_past_the_bound(*CONSTRAINT_SHAPES[name], "x > 1",
                                                parse_constraint)
        c = parse_constraint(deepest)
        for x in range(-1, 4):
            assert compile_expr(c, ("x",))((x,)) == eval_constraint_naive(c, {"x": x})
        rdef = self.recurrence(guard=deepest)
        for x in range(4):
            assert eval_fun(rdef, (x,)) == eval_fun_naive(rdef, (x,))
        for parse in (parse_constraint, lambda t: self.recurrence(guard=t)):
            with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} levels"):
                parse(deeper)

    def test_deepest_parenthesized_ite_parses_in_linear_time(self):
        # a parser that reads the parenthesis as a constraint first and
        # backtracks takes time exponential in the nesting of this shape
        deepest, _ = _at_and_past_the_bound(*CONSTRAINT_SHAPES["parenthesized-ite"],
                                            "x > 1", parse_constraint)
        start = time.perf_counter()
        parse_constraint(deepest)
        assert time.perf_counter() - start < 0.5

    def test_position_of_the_level_too_deep(self):
        with pytest.raises(ParseError) as err:
            parse_expression("\n  " + "max(" * MAX_NESTING + "x" + ", 1)" * MAX_NESTING)
        assert (err.value.line, err.value.col) == (2, 3 + 4 * MAX_NESTING)


def _chained(word, operand, n):
    """`operand` joined by `word`: a chain of n operators."""
    return f" {word} ".join([operand] * (n + 1))


# Recurrences whose longest chain has n operators, with their slope and a
# candidate that verifies: in the body (`x - 1` is the first operator on
# its path) and its candidate, in the guard, and in the precondition
CHAIN_SHAPES = {
    "body-sum": lambda n: ("x >= 0", "f(x - 1)" + " + 1" * (n - 1), "x > 0",
                           n - 1, _chained("+", "x", n - 1) + " - x"),
    "guard-and": lambda n: ("x >= 0", "f(x - 1) + 1", _chained("and", "x > 0", n),
                            1, "x"),
    "precondition-or": lambda n: (_chained("or", "x >= 0", n), "f(x - 1) + 1", "x > 0",
                                  1, "x"),
}


class TestChainBound:
    """With MAX_CHAIN operators chained, each shape parses, prints,
    evaluates, solves and checks; one operator more is a ParseError."""

    @staticmethod
    def recurrence(pre, body, guard):
        return parse_recurrence(f"def f(x);\npre {pre};\nf(x) = 0 if x = 0;\n"
                                f"f(x) = {body} if {guard};\n")

    @pytest.mark.parametrize("name", sorted(CHAIN_SHAPES))
    def test_at_the_bound(self, name, solver):
        pre, body, guard, slope, candidate = CHAIN_SHAPES[name](MAX_CHAIN)
        rdef = self.recurrence(pre, body, guard)
        assert parse_recurrence(rdef.to_text()) == rdef
        for x in range(4):
            assert eval_fun(rdef, (x,)) == Value(slope * x)
        report = solve(rdef, SolveConfig(solver=solver))
        assert (report.verdict, report.closed_form.to_text()) \
            == ("verified", "x" if slope == 1 else f"{slope}*x")
        cf = single_piece(parse_expression(candidate), rdef.arg_names, rdef.precondition)
        assert isinstance(check_solution(rdef, cf, solver), Verified)

    @pytest.mark.parametrize("name", sorted(CHAIN_SHAPES))
    def test_one_past_the_bound(self, name):
        pre, body, guard, _, candidate = CHAIN_SHAPES[name](MAX_CHAIN + 1)
        with pytest.raises(ParseError, match=f"operators chained more than {MAX_CHAIN} deep"):
            self.recurrence(pre, body, guard)
        if name == "body-sum":
            with pytest.raises(ParseError, match="operators chained"):
                parse_expression(candidate)

    def test_chains_nest_into_one_count(self):
        # a parenthesized chain adds its operators to the chain around it
        half = _chained("+", "x", MAX_CHAIN // 2)
        parse_expression(f"({half}) * {_chained('*', 'x', MAX_CHAIN // 2 - 1)}")
        with pytest.raises(ParseError, match="operators chained"):
            parse_expression(f"({half}) * {_chained('*', 'x', MAX_CHAIN // 2)}")
