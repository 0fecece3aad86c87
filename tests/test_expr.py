from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recsolve.expr import (
    CMP, Add, And, Call, Ceil, Cmp, Const, Div, DivisionByZero, Expr, ExprError,
    Floor, Ite, Log2Ceil, Max, Min, Mul, Not, Or, Piece, Pow, Sub,
    UnboundVariable, UnexpandedCall, Var, ClosedForm, ceil_log2, children,
    compile_expr, con, contains_calls, eval_expr, free_vars,
    is_syntactically_integer, map_children, nodes, replace_calls, simplify,
    single_piece, substitute, to_text, FALSE, TRUE,
)
from recsolve.checker import Unknown, Verified
from recsolve.parser import parse_constraint, parse_expression

from conftest import brute_entails
from oracle import eval_constraint_naive, eval_expr_naive

X, Y = Var("x"), Var("y")


def ev(e, **binds):
    return eval_expr(e, {k: Fraction(v) for k, v in binds.items()})


class TestEval:
    def test_training_case_entries(self):
        # the dictionary evaluated at x = 5: 5, 25, 125, 3, 32, 15
        assert ev(X, x=5) == 5
        assert ev(Pow(X, con(2)), x=5) == 25
        assert ev(Pow(X, con(3)), x=5) == 125
        assert ev(Log2Ceil(X), x=5) == 3
        assert ev(Pow(con(2), X), x=5) == 32
        assert ev(Mul(X, Log2Ceil(X)), x=5) == 15

    def test_constant(self):
        assert eval_expr(con(0), {}) == 0

    def test_rational_arithmetic_is_exact(self):
        e = parse_expression("x + y^2/2 + 3*y/2")
        assert ev(e, x=2, y=4) == 16
        assert ev(e, x=0, y=1) == 2

    def test_floor_ceil(self):
        assert ev(Floor(Div(X, Y)), x=7, y=2) == 3
        assert ev(Ceil(Div(X, Y)), x=7, y=2) == 4
        assert ev(Floor(Div(X, Y)), x=-7, y=2) == -4
        assert ev(Ceil(Div(X, Y)), x=-7, y=2) == -3

    def test_log2ceil_clamps_at_one(self):
        assert ceil_log2(Fraction(0)) == 0
        assert ceil_log2(Fraction(1)) == 0
        assert ceil_log2(Fraction(2)) == 1
        assert ceil_log2(Fraction(5)) == 3
        assert ev(Log2Ceil(con(0)), ) == 0
        assert ev(Log2Ceil(Div(con(1), con(2))), ) == 0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ev(Div(X, Y), x=1, y=0)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            ev(X)

    def test_call_is_not_evaluable(self):
        with pytest.raises(UnexpandedCall):
            ev(Call("f", (X,)), x=1)

    def test_ite(self):
        e = Ite(Cmp(">", X, con(0)), con(1), con(2))
        assert ev(e, x=3) == 1
        assert ev(e, x=0) == 2


class TestConstraints:
    def test_examples(self):
        assert eval_expr(parse_constraint("x = 0"), {"x": Fraction(0)})
        env = {"x": Fraction(3), "y": Fraction(0)}
        assert not eval_expr(parse_constraint("x > 0 and y > 0"), env)
        env = {"x": Fraction(7), "y": Fraction(2)}
        assert eval_expr(parse_constraint("x >= y and y > 0"), env)

    def test_guards_reject_calls(self):
        with pytest.raises(ValueError):
            Cmp("=", Call("f", (X,)), con(0))


class TestStructure:
    def test_contains_calls(self):
        nested = Add(Call("f", (Call("f", (Sub(X, con(1)),)),)), con(1))
        assert contains_calls(nested, "f")
        assert not contains_calls(Add(X, con(1)), "f")
        assert contains_calls(Add(Call("g", (X,)), Call("f", (Y,))), "f")
        assert not contains_calls(Call("g", (X,)), "f")

    def test_free_vars(self):
        assert free_vars(Add(Call("f", (Sub(X, con(1)),)), Y)) == {"x", "y"}
        assert free_vars(con(7)) == set()
        assert free_vars(Max(X, Y)) == {"x", "y"}

    def test_substitute(self):
        e = substitute(Add(X, Y), {"x": con(3)})
        assert ev(e, y=4) == 7

    def test_invariants_at_construction(self):
        with pytest.raises(ValueError):
            Div(X, con(0))
        with pytest.raises(ValueError):
            Pow(X, Y)  # general x^y is rejected
        Pow(con(2), X)  # constant base is fine
        Pow(X, con(2))


_LT, _EQ = Cmp("<", X, con(1)), Cmp("=", Y, con(0))
_COND = And(_LT, Not(_EQ))

# one example of every node type, constraints included, with its children
# in order
EXPR_NODES = [
    (con(3), ()),
    (X, ()),
    (Add(X, Y), (X, Y)),
    (Sub(X, Y), (X, Y)),
    (Mul(X, Y), (X, Y)),
    (Div(X, Y), (X, Y)),
    (Pow(con(2), X), (con(2), X)),
    (Floor(X), (X,)),
    (Ceil(X), (X,)),
    (Log2Ceil(X), (X,)),
    (Max(X, Y), (X, Y)),
    (Min(X, Y), (X, Y)),
    (Call("f", (X, Y)), (X, Y)),
    (Ite(_COND, X, Y), (X, Y, _COND)),
    (TRUE, ()),
    (_LT, (X, con(1))),
    (And(_LT, _EQ), (_LT, _EQ)),
    (Or(_EQ, _LT), (_EQ, _LT)),
    (Not(_LT), (_LT,)),
]

# one example of every constraint node type, with its Cmp sides in order
CONSTRAINT_NODES = [
    (TRUE, ()),
    (_LT, (X, con(1))),
    (And(_LT, _EQ), (X, con(1), Y, con(0))),
    (Or(_EQ, _LT), (Y, con(0), X, con(1))),
    (Not(_LT), (X, con(1))),
]


def _rename(e):
    return substitute(e, {"x": Var("z")})


def _cmp_sides(c):
    # the comparison sides in the order `nodes` reaches them
    return tuple(side for n in nodes(c) if type(n) is Cmp for side in children(n))


class TestRecords:
    def test_equality_needs_the_same_class(self):
        assert Add(X, Y) != Sub(X, Y)
        assert not Add(X, Y) == Sub(X, Y)
        assert Add(X, Y) != (X, Y)
        assert Add(X, Floor(Y)) == Add(Var("x"), Floor(Var("y")))

    def test_equal_trees_hash_equal(self):
        a, b = Add(X, Floor(Y)), Add(Var("x"), Floor(Var("y")))
        assert a is not b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        # the hash of the field tuple, as a frozen dataclass has it
        assert hash(a) == hash((X, Floor(Y))) and hash(X) == hash(("x",))

    @pytest.mark.parametrize("record,field", [
        (X, "name"), (con(1), "value"), (Add(X, Y), "lhs"), (Cmp("<", X, Y), "op"),
        (single_piece(X, ("x",), TRUE), "pieces"), (Unknown("solver-timeout"), "detail"),
    ])
    def test_fields_are_frozen(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, X)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_is_the_dataclass_form(self):
        assert repr(Add(X, con(1))) == \
            "Add(lhs=Var(name='x'), rhs=Const(value=Fraction(1, 1)))"
        assert repr(Call("f", [X])) == "Call(fname='f', args=(Var(name='x'),))"
        assert repr(Cmp("<", X, Y)) == "Cmp(op='<', lhs=Var(name='x'), rhs=Var(name='y'))"
        assert repr(Unknown("solver-timeout")) == "Unknown(reason='solver-timeout', detail='')"
        assert repr(Verified()) == "Verified()"
        cf = single_piece(X, ("x",), TRUE)
        cf.compiled_pieces  # a cached property is not a field
        assert repr(cf) == ("ClosedForm(arg_names=('x',), precondition=BoolLit(value=True), "
                            "pieces=(Piece(expr=Var(name='x'), guard=BoolLit(value=True)),))")

    def test_fields_are_normalized(self):
        assert type(Const(3).value) is Fraction and Const(3).value == Fraction(3)
        assert type(Call("f", [X, Y]).args) is tuple
        assert Const(3) == con(3) and Call("f", [X]) == Call("f", (X,))


class TestWalker:
    @pytest.mark.parametrize("node, kids", EXPR_NODES,
                             ids=[type(n).__name__ for n, _ in EXPR_NODES])
    def test_expression_node(self, node, kids):
        assert children(node) == kids
        assert map_children(node, lambda c: c) == node
        seen = []
        map_children(node, lambda c: seen.append(c) or c)
        assert tuple(seen) == kids
        out = map_children(node, _rename)
        assert type(out) is type(node)
        assert children(out) == tuple(map(_rename, kids))

    @pytest.mark.parametrize("node, sides", CONSTRAINT_NODES,
                             ids=[type(n).__name__ for n, _ in CONSTRAINT_NODES])
    def test_constraint_node(self, node, sides):
        assert _cmp_sides(node) == sides
        out = _rename(node)
        assert type(out) is type(node)
        assert _cmp_sides(out) == tuple(map(_rename, sides))

    def test_nodes_in_preorder(self):
        e = Add(Mul(X, Y), Floor(X))
        assert list(nodes(e)) == [e, Mul(X, Y), X, Y, Floor(X), X]

    def test_substitute_reaches_inside_ite_condition(self):
        e = Ite(_LT, X, Y)
        assert substitute(e, {"x": con(5)}) == Ite(Cmp("<", con(5), con(1)), con(5), Y)

    def test_foreign_node_raises_type_error(self):
        @dataclass(frozen=True)
        class Foreign(Expr):
            pass

        for walk in (children, lambda e: map_children(e, lambda c: c)):
            with pytest.raises(TypeError):
                walk(Foreign())
        # the recursive walks meet it below the root too
        for walk in (lambda e: list(nodes(e)), lambda e: substitute(e, {}),
                     free_vars, contains_calls, lambda e: ev(e, x=1)):
            for e in (Foreign(), Add(X, Foreign())):
                with pytest.raises(TypeError):
                    walk(e)


class TestSimplify:
    @pytest.mark.parametrize("text,expected", [
        ("(x - 1) + 1", "x"),
        ("2*x + 3*x", "5*x"),
        ("1*x + 0", "x"),
        ("x - x", "0"),
        ("x + 0", "x"),
        ("0*x", "0"),
        ("x/1", "x"),
        ("x^1", "x"),
        ("x^0", "1"),
        ("2^3", "8"),
        ("floor(7/2)", "3"),
        ("ceil(7/2)", "4"),
        ("log2ceil(5)", "3"),
        ("floor(floor(x/y))", "floor(x/y)"),
        # a positive term, else a positive constant, leads the sum
        ("1 - x", "1 - x"),
        ("0 - max(x, y) + x + y", "x + y - max(x, y)"),
        ("5 - 3*x + y - 2*y^2", "y - 3*x - 2*y^2 + 5"),
        ("0 - x - 1", "0 - x - 1"),
        ("0 - 4*x - 4*y", "0 - 4*x - 4*y"),
        # folded through OPS; an evaluation error leaves the node as written
        ("max(3, 1/2) + min(-1, 2)", "2"),
        ("(1/2)^-2", "4"),
        ("0^-1", "0^-1"),
        ("2^(1/2)", "2^(1/2)"),
        ("ceil(floor(x/y))", "floor(x/y)"),
        ("log2ceil(x)^1", "log2ceil(x)"),
        ("ite(1 < 2 and not 0 = 1, x, y)", "x"),
        ("ite(x + 0 > 1 - 1, y, y)", "y"),
        ("ite(x + 0 > 1 - 1, f(2*x - x), y)", "ite(x > 0, f(x), y)"),
    ])
    def test_rules(self, text, expected):
        assert to_text(simplify(parse_expression(text))) == expected

    def test_simplify_constraint(self):
        c = parse_constraint("x + 0 > 1 - 1 and not not (1 < 2 or y = 0)")
        assert simplify(c) == Cmp(">", X, con(0))
        assert simplify(parse_constraint("not (x - x = 0)")) == FALSE

    def test_max_idempotence(self):
        assert simplify(Max(X, X)) == X
        assert simplify(Min(Add(X, con(1)), Add(con(1), X))) == Add(X, con(1))

    def test_syntactic_integrality(self):
        assert is_syntactically_integer(Floor(Div(X, Y)))
        assert is_syntactically_integer(con(4))
        assert not is_syntactically_integer(Div(X, con(2)))
        assert not is_syntactically_integer(X)  # variables may be bound to rationals


# random expression trees over two integer variables, call-free
_leaf = st.one_of(
    st.integers(-6, 6).map(con),
    st.sampled_from([X, Y]),
    st.tuples(st.integers(-12, 12), st.integers(1, 6)).map(lambda t: con(Fraction(*t))),
)


def _combine(children):
    unary = [Floor, Ceil, Log2Ceil]
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        st.tuples(children, st.integers(1, 9)).map(lambda t: Div(t[0], con(t[1]))),
        st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(t[0], con(t[1]))),
        st.tuples(st.sampled_from(unary), children).map(lambda t: t[0](t[1])),
        st.tuples(children, children).map(lambda t: Max(*t)),
        st.tuples(children, children).map(lambda t: Min(*t)),
    )


exprs = st.recursive(_leaf, _combine, max_leaves=25)
int_envs = st.fixed_dictionaries({
    "x": st.integers(-30, 30).map(Fraction),
    "y": st.integers(-30, 30).map(Fraction),
})
rational_envs = st.fixed_dictionaries({
    "x": st.fractions(min_value=-20, max_value=20, max_denominator=8),
    "y": st.fractions(min_value=-20, max_value=20, max_denominator=8),
})


class TestSimplifyProperties:
    @given(exprs, rational_envs)
    @settings(max_examples=300, deadline=None)
    def test_simplify_preserves_value(self, e, env):
        simplified = simplify(e)
        assert eval_expr(simplified, env) == eval_expr(e, env)

    @given(exprs)
    @settings(max_examples=300, deadline=None)
    def test_simplify_is_idempotent(self, e):
        once = simplify(e)
        assert simplify(once) == once


class TestReplaceCalls:
    def test_nested_substitution(self):
        # f(f(x-1)) + 1 with the identity candidate becomes (x-1) + 1
        body = Add(Call("f", (Call("f", (Sub(X, con(1)),)),)), con(1))
        fhat = single_piece(X, ("x",), parse_constraint("x >= 0"))
        pre = parse_constraint("x >= 0")
        guard = parse_constraint("x > 0")
        out = replace_calls(body, "f", fhat, pre, guard, brute_entails)
        assert simplify(out) == X
        assert to_text(out) == "x - 1 + 1"

    def test_no_calls_is_identity(self):
        e = Add(X, con(1))
        fhat = single_piece(X, ("x",), TRUE)
        assert replace_calls(e, "f", fhat, TRUE, TRUE, brute_entails) == e

    def test_two_variable_substitution(self):
        # f(x-y) + 1 with candidate floor(x/y) over x>=0, y>=0 and guard
        # x>=y, y>0; confirmed pointwise at (7, 2): 3 = 2 + 1
        body = Add(Call("f", (Sub(X, Y), Y)), con(1))
        fhat = single_piece(Floor(Div(X, Y)), ("x", "y"),
                            parse_constraint("x >= 0 and y > 0"))
        pre = parse_constraint("x >= 0 and y > 0")
        guard = parse_constraint("x >= y and y > 0")
        out = replace_calls(body, "f", fhat, pre, guard,
                            lambda h, c: brute_entails(h, c, lo=-2, hi=10))
        assert not contains_calls(out)
        assert ev(out, x=7, y=2) == ev(Floor(Div(Sub(X, Y), Y)), x=7, y=2) + 1 == 3

    def test_one_pass(self):
        # f(x-1) is replaced and f(x-2) left in place; neither call is
        # offered to the domain checker twice
        body = parse_expression("f(x-1) + f(x-2)")
        fhat = single_piece(X, ("x",), parse_constraint("x >= 0"))
        queries = []

        def first_only(hyp, concl):
            queries.append(to_text(concl.lhs))
            return concl == parse_constraint("x - 1 >= 0")

        out = replace_calls(body, "f", fhat, TRUE, TRUE, first_only)
        assert out == parse_expression("(x - 1) + f(x-2)")
        assert queries == ["x - 1", "x - 2"]

    def test_failed_side_condition_leaves_call(self):
        # guard does not restrict x, so x-1 may fall outside the domain
        body = Call("f", (Sub(X, con(1)),))
        fhat = single_piece(X, ("x",), parse_constraint("x >= 0"))
        out = replace_calls(body, "f", fhat, parse_constraint("x >= 0"), TRUE,
                            brute_entails)
        assert contains_calls(out, "f")

    def test_replacement_preserves_value_when_candidate_is_exact(self):
        # with an exact candidate, replacing calls never changes the value
        # at inputs satisfying pre and guard (small brute-force instances)
        body = Add(Call("f", (Call("f", (Sub(X, con(1)),)),)), con(1))
        fhat = single_piece(X, ("x",), parse_constraint("x >= 0"))
        pre = parse_constraint("x >= 0")
        guard = parse_constraint("x > 0")
        out = replace_calls(body, "f", fhat, pre, guard, brute_entails)

        def recurrence(v):  # direct unrolling of the nested recurrence
            return v  # f(x) = x is exact

        for xv in range(1, 13):
            env = {"x": Fraction(xv)}
            # the original body with calls resolved by the exact recurrence
            inner = recurrence(xv - 1)
            original = recurrence(inner) + 1
            assert eval_expr(out, env) == original


class TestClosedForm:
    def test_single_region_folding(self):
        cf = ClosedForm(("x",), parse_constraint("x >= 0"),
                        (Piece(X, parse_constraint("x > 0")), Piece(con(0), TRUE)))
        body = cf.single_region_body()
        assert ev(body, x=5) == 5
        assert ev(body, x=0) == 0

    def test_instantiate(self):
        cf = single_piece(Add(X, Y), ("x", "y"), TRUE)
        e = cf.instantiate((con(2), con(3)))
        assert eval_expr(e, {}) == 5

    def test_pieces_must_be_call_free(self):
        with pytest.raises(ValueError):
            single_piece(Call("f", (X,)), ("x",), TRUE)

    def test_exactness_of_coefficients(self):
        cf = single_piece(parse_expression("x + y^2/2 + 3*y/2"), ("x", "y"), TRUE)
        assert eval_expr(cf.instantiate((con(2), con(4))), {}) == 16


# random expressions and constraints for the compiler, with runtime zero
# divisors, negative and fractional exponents, an unbound variable `z` and,
# outside constraints, a call
Z = Var("z")
_small = st.one_of(st.integers(-3, 3).map(con),
                   st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(
                       lambda t: con(Fraction(*t))))
_plain_leaf = st.one_of(_small, st.sampled_from([X, Y]), st.just(Z))


def _div(a, b):
    # Div rejects a literal zero divisor, so spell it x - x
    return Div(a, Sub(X, X) if b == con(0) else b)


def _compound(kids):
    binary = [Add, Sub, Mul, Max, Min]
    return st.one_of(
        st.tuples(st.sampled_from(binary), kids, kids).map(lambda t: t[0](t[1], t[2])),
        st.tuples(kids, kids).map(lambda t: _div(*t)),
        st.tuples(kids, st.sampled_from([-2, -1, 0, 1, 3, Fraction(1, 2)])).map(
            lambda t: Pow(t[0], con(t[1]))),
        st.tuples(st.sampled_from([-2, 0, 2, Fraction(1, 2)]), st.sampled_from([X, Y, Z])).map(
            lambda t: Pow(con(t[0]), t[1])),
        st.tuples(st.sampled_from([Floor, Ceil, Log2Ceil]), kids).map(lambda t: t[0](t[1])),
        st.tuples(st.deferred(lambda: conditions), kids, kids).map(lambda t: Ite(*t)),
    )


plain_exprs = st.recursive(_plain_leaf, _compound, max_leaves=10)
conditions = st.recursive(
    st.one_of(st.sampled_from([TRUE, FALSE]),
              st.builds(Cmp, st.sampled_from(sorted(CMP)), plain_exprs, plain_exprs)),
    lambda kids: st.one_of(st.builds(And, kids, kids), st.builds(Or, kids, kids),
                           st.builds(Not, kids)),
    max_leaves=3)
exprs_with_calls = st.recursive(
    st.one_of(_plain_leaf, st.just(Call("f", (X,)))), _compound, max_leaves=10)
points = st.tuples(*[st.one_of(st.integers(-4, 4),
                               st.fractions(-4, 4, max_denominator=3))] * 2)


def outcome(thunk):
    """The value, or the exact error class, of a thunk."""
    try:
        return "value", thunk()
    except ExprError as err:
        return "error", type(err)


class TestCompiler:
    """`compile_expr` against the oracle's walker, which has its own
    arithmetic."""

    @given(exprs_with_calls, points)
    @settings(max_examples=300, deadline=None)
    def test_expression_matches_walker(self, e, point):
        f = compile_expr(e, ("x", "y"))  # compiling never raises
        env = dict(zip(("x", "y"), point))
        expected = outcome(lambda: eval_expr_naive(e, env))
        assert outcome(lambda: f(point)) == expected
        assert outcome(lambda: eval_expr(e, env)) == expected

    @given(conditions, points)
    @settings(max_examples=200, deadline=None)
    def test_constraint_matches_walker(self, c, point):
        f = compile_expr(c, ("x", "y"))
        env = dict(zip(("x", "y"), point))
        expected = outcome(lambda: eval_constraint_naive(c, env))
        assert outcome(lambda: f(point)) == expected
        assert outcome(lambda: eval_expr(c, env)) == expected

    def test_untaken_branches_raise_nothing(self):
        positive = Cmp(">", X, con(0))
        for e, at, value in [(Ite(positive, X, Z), 2, 2),
                             (Ite(positive, Call("f", (X,)), con(7)), 0, 7),
                             (Ite(positive, Div(con(1), X), con(0)), 0, 0)]:
            assert compile_expr(e, ("x",))((at,)) == value
        short = [(Or(TRUE, Cmp("=", Z, con(0))), True),
                 (And(FALSE, Cmp("=", Div(X, Sub(X, X)), con(0))), False)]
        for c, value in short:
            assert compile_expr(c, ("x",))((1,)) is value

    def test_taken_branches_raise(self):
        with pytest.raises(UnboundVariable):
            compile_expr(Ite(Cmp(">", X, con(0)), Z, X), ("x",))((1,))
        with pytest.raises(UnexpandedCall):
            compile_expr(Ite(Cmp(">", X, con(0)), X, Call("f", (X,))), ("x",))((0,))
