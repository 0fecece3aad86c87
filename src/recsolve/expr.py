"""Symbolic expression trees and boolean constraints over exact rationals.

Everything here is immutable and evaluated with ints and
`fractions.Fraction`, so no floating point can leak into guards,
recurrence values or candidate coefficients.  Expressions may contain
`Call` nodes (references to a recurrence being solved); constraints may
not.  Evaluation compiles a tree once into a closure over an argument
tuple (`compile_expr`, `compile_constraint`), for code that evaluates one
expression at many points; `eval_expr` and `eval_constraint` compile and
apply in one call.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Rational = Union[int, Fraction]
Env = Mapping[str, Fraction]


class ExprError(Exception):
    pass


class UnboundVariable(ExprError):
    pass


class DivisionByZero(ExprError):
    pass


class UnexpandedCall(ExprError):
    """An expression containing a Call node was evaluated directly."""


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __pow__(self, other):
        return Pow(self, _as_expr(other))

    def __neg__(self):
        return Sub(Const(Fraction(0)), self)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if isinstance(self.rhs, Const) and self.rhs.value == 0:
            raise ValueError("division by the literal constant zero")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr

    def __post_init__(self):
        # general x^y is out of the language: a non-constant exponent is
        # only allowed over a constant base (supports 2^x)
        if not isinstance(self.exponent, Const) and not isinstance(self.base, Const):
            raise ValueError("Pow with non-constant exponent requires a constant base")


@dataclass(frozen=True)
class Floor(Expr):
    arg: Expr


@dataclass(frozen=True)
class Ceil(Expr):
    arg: Expr


@dataclass(frozen=True)
class Log2Ceil(Expr):
    arg: Expr


@dataclass(frozen=True)
class Max(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Min(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    fname: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Ite(Expr):
    """Conditional term, used when a piecewise closed form is inlined."""
    cond: "Constraint"
    then: Expr
    other: Expr


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise TypeError(f"cannot coerce {v!r} to Expr")


def con(v: Rational) -> Const:
    return Const(Fraction(v))


def var(name: str) -> Var:
    return Var(name)


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

# The test of every comparison operator.
CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
       "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Constraint:
    def __str__(self):
        return constraint_to_text(self)


@dataclass(frozen=True)
class BoolLit(Constraint):
    value: bool


@dataclass(frozen=True)
class Cmp(Constraint):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in CMP:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        for side in (self.lhs, self.rhs):
            if contains_calls(side):
                raise ValueError("constraints must be call-free")


@dataclass(frozen=True)
class And(Constraint):
    lhs: Constraint
    rhs: Constraint


@dataclass(frozen=True)
class Or(Constraint):
    lhs: Constraint
    rhs: Constraint


@dataclass(frozen=True)
class Not(Constraint):
    arg: Constraint


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def conj(items: Iterable[Constraint]) -> Constraint:
    """Right-folded conjunction; empty -> true."""
    items = [c for c in items if c != TRUE]
    if not items:
        return TRUE
    out = items[-1]
    for c in reversed(items[:-1]):
        out = And(c, out)
    return out


def disj(items: Iterable[Constraint]) -> Constraint:
    items = list(items)
    if not items:
        return FALSE
    out = items[-1]
    for c in reversed(items[:-1]):
        out = Or(c, out)
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def ceil_log2(v) -> int:
    """Smallest k with 2^k >= v, clamped to 0 for v <= 1."""
    if v <= 1:
        return 0
    k, p = 0, 1
    while p < v:
        p *= 2
        k += 1
    return k


def exact_div(a, b):
    """Exact rational division of int/Fraction operands (ints stay ints
    when the division is exact; never floats)."""
    if b == 0:
        raise DivisionByZero(f"{a}/{b}")
    if isinstance(a, int) and isinstance(b, int):
        return a // b if a % b == 0 else Fraction(a, b)
    return (a if isinstance(a, Fraction) else Fraction(a)) / b


def exact_pow(base, exp):
    if isinstance(exp, Fraction):
        if exp.denominator != 1:
            raise ExprError(f"non-integer exponent {exp}")
        exp = int(exp)
    if base == 0 and exp < 0:
        raise DivisionByZero(f"{base}^{exp}")
    if isinstance(base, int) and exp < 0:
        return Fraction(1, base ** -exp)
    return base ** exp


def _floor(v):
    return v if isinstance(v, int) else math.floor(v)


def _ceil(v):
    return v if isinstance(v, int) else math.ceil(v)


# The exact arithmetic of every operator node (binary or unary), applied to
# its evaluated children in `children` order.  Shared by `compile_expr` and
# the recurrence evaluator, so each operator is defined once.
OPS = {
    Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: exact_div,
    Pow: exact_pow, Max: max, Min: min,
    Floor: _floor, Ceil: _ceil, Log2Ceil: ceil_log2,
}


def _raiser(error: type, name: str):
    def fail(a):
        raise error(name)
    return fail


def compile_expr(e: Expr, arg_names: Sequence[str]) -> Callable[[tuple], Rational]:
    """`e` as a closure over an argument tuple whose values are bound to
    `arg_names` in order.  Values are int or Fraction (both exact
    rationals), never floats; operands are evaluated left to right.  An
    unbound variable, a Call or an arithmetic error raises only when the
    node holding it is evaluated, so an untaken Ite branch raises nothing."""
    index = {n: i for i, n in enumerate(arg_names)}

    def comp(e: Expr):
        t = type(e)
        if t is Const:
            v = e.value.numerator if e.value.denominator == 1 else e.value
            return lambda a: v
        if t is Var:
            if e.name not in index:
                return _raiser(UnboundVariable, e.name)
            return operator.itemgetter(index[e.name])
        if t is Call:
            return _raiser(UnexpandedCall, e.fname)
        if t is Ite:
            test = compile_constraint(e.cond, arg_names)
            then, other = comp(e.then), comp(e.other)
            return lambda a: then(a) if test(a) else other(a)
        kids = children(e)
        op, f = OPS[t], comp(kids[0])
        if len(kids) == 1:
            return lambda a: op(f(a))
        g = comp(kids[1])
        return lambda a: op(f(a), g(a))

    return comp(e)


def compile_constraint(c: Constraint, arg_names: Sequence[str]) -> Callable[[tuple], bool]:
    """`c` as a closure over an argument tuple, as `compile_expr`; And and
    Or short-circuit left to right."""
    t = type(c)
    if t is Cmp:
        f, g = compile_expr(c.lhs, arg_names), compile_expr(c.rhs, arg_names)
        op = CMP[c.op]
        return lambda a: op(f(a), g(a))
    if t is And or t is Or:
        f, g = compile_constraint(c.lhs, arg_names), compile_constraint(c.rhs, arg_names)
        if t is And:
            return lambda a: f(a) and g(a)
        return lambda a: f(a) or g(a)
    if t is Not:
        f = compile_constraint(c.arg, arg_names)
        return lambda a: not f(a)
    if t is BoolLit:
        v = c.value
        return lambda a: v
    raise TypeError(f"unknown constraint node {c!r}")


def eval_expr(e: Expr, env: Env):
    """Exact evaluation of call-free `e` with the variables bound by `env`."""
    return compile_expr(e, tuple(env))(tuple(env.values()))


def eval_constraint(c: Constraint, env: Env) -> bool:
    return compile_constraint(c, tuple(env))(tuple(env.values()))


# ---------------------------------------------------------------------------
# Structural queries and substitution
# ---------------------------------------------------------------------------

def _no_children(e):
    return ()


def _arg(e):
    return (e.arg,)


def _ite_children(e):
    return (e.then, e.other, *constraint_exprs(e.cond))


_lhs_rhs = operator.attrgetter("lhs", "rhs")
_CHILDREN = {
    Const: _no_children, Var: _no_children,
    Add: _lhs_rhs, Sub: _lhs_rhs, Mul: _lhs_rhs, Div: _lhs_rhs,
    Max: _lhs_rhs, Min: _lhs_rhs,
    Pow: operator.attrgetter("base", "exponent"),
    Floor: _arg, Ceil: _arg, Log2Ceil: _arg,
    Call: operator.attrgetter("args"),
    Ite: _ite_children,
}


def children(e: Expr) -> tuple:
    """The direct subexpressions of `e`, in constructor order; an Ite gives
    its two branches followed by every Cmp side inside its condition."""
    try:
        get = _CHILDREN[type(e)]
    except KeyError:
        raise TypeError(f"unknown expression node {e!r}") from None
    return get(e)


def map_children(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Rebuild `e` with `f` applied to each child expression, in `children`
    order (for an Ite, also to every Cmp side inside its condition)."""
    t = type(e)
    if t is Call:
        return Call(e.fname, tuple(map(f, e.args)))
    if t is Ite:
        then, other = f(e.then), f(e.other)
        return Ite(map_constraint(e.cond, f), then, other)
    kids = children(e)
    return t(*map(f, kids)) if kids else e


def constraint_exprs(c: Constraint) -> list:
    """All expression operands appearing inside a constraint."""
    if isinstance(c, BoolLit):
        return []
    if isinstance(c, Cmp):
        return [c.lhs, c.rhs]
    if isinstance(c, (And, Or)):
        return constraint_exprs(c.lhs) + constraint_exprs(c.rhs)
    if isinstance(c, Not):
        return constraint_exprs(c.arg)
    raise TypeError(f"unknown constraint node {c!r}")


def map_constraint(c: Constraint, f: Callable[[Expr], Expr]) -> Constraint:
    """Rebuild `c` with `f` applied to each Cmp side, in
    `constraint_exprs` order."""
    if isinstance(c, BoolLit):
        return c
    if isinstance(c, Cmp):
        return Cmp(c.op, f(c.lhs), f(c.rhs))
    if isinstance(c, (And, Or)):
        return type(c)(map_constraint(c.lhs, f), map_constraint(c.rhs, f))
    if isinstance(c, Not):
        return Not(map_constraint(c.arg, f))
    raise TypeError(f"unknown constraint node {c!r}")


def nodes(e: Expr) -> Iterator[Expr]:
    """Every node of `e` in preorder, children in `children` order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def contains_calls(e: Expr, fname: str | None = None) -> bool:
    """True iff a Call node (with the given name, if any) occurs in e."""
    return any(type(n) is Call and (fname is None or n.fname == fname)
               for n in nodes(e))


def free_vars(e: Expr) -> set:
    return {n.name for n in nodes(e) if type(n) is Var}


def constraint_free_vars(c: Constraint) -> set:
    out: set = set()
    for e in constraint_exprs(c):
        out |= free_vars(e)
    return out


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    if type(e) is Var:
        return mapping.get(e.name, e)
    return map_children(e, lambda c: substitute(c, mapping))


def substitute_constraint(c: Constraint, mapping: Mapping[str, Expr]) -> Constraint:
    return map_constraint(c, lambda e: substitute(e, mapping))


# ---------------------------------------------------------------------------
# Simplification
#
# A fixed rewrite-rule set: constant folding, neutral elements, like-term
# collection over a linear normal form, add/sub cancellation, max/min
# idempotence, floor/ceil of syntactically integer arguments.  Idempotent.
# ---------------------------------------------------------------------------

def is_syntactically_integer(e: Expr) -> bool:
    """Conservative: true only when every evaluation yields an integer."""
    if isinstance(e, Const):
        return e.value.denominator == 1
    if isinstance(e, (Floor, Ceil, Log2Ceil)):
        return True
    if isinstance(e, (Add, Sub, Mul)):
        return is_syntactically_integer(e.lhs) and is_syntactically_integer(e.rhs)
    if isinstance(e, (Max, Min)):
        return is_syntactically_integer(e.lhs) and is_syntactically_integer(e.rhs)
    if isinstance(e, Pow):
        return (is_syntactically_integer(e.base)
                and isinstance(e.exponent, Const)
                and e.exponent.value.denominator == 1
                and e.exponent.value >= 0)
    if isinstance(e, Ite):
        return is_syntactically_integer(e.then) and is_syntactically_integer(e.other)
    return False


def _is_const(e: Expr) -> bool:
    return isinstance(e, Const)


def _linear_form(e: Expr) -> tuple:
    """Decompose into (constant, {atom: coefficient}) treating non-linear
    subterms as opaque atoms.  Atoms are already simplified."""
    if isinstance(e, Const):
        return e.value, {}
    if isinstance(e, Add):
        c1, t1 = _linear_form(e.lhs)
        c2, t2 = _linear_form(e.rhs)
        return c1 + c2, _merge_terms(t1, t2, 1)
    if isinstance(e, Sub):
        c1, t1 = _linear_form(e.lhs)
        c2, t2 = _linear_form(e.rhs)
        return c1 - c2, _merge_terms(t1, t2, -1)
    if isinstance(e, Mul):
        if _is_const(e.lhs):
            c, t = _linear_form(e.rhs)
            k = e.lhs.value
            return c * k, {a: v * k for a, v in t.items()}
        if _is_const(e.rhs):
            c, t = _linear_form(e.lhs)
            k = e.rhs.value
            return c * k, {a: v * k for a, v in t.items()}
        return Fraction(0), {e: Fraction(1)}
    if isinstance(e, Div) and _is_const(e.rhs):
        c, t = _linear_form(e.lhs)
        k = e.rhs.value
        return c / k, {a: v / k for a, v in t.items()}
    return Fraction(0), {e: Fraction(1)}


def _merge_terms(t1: dict, t2: dict, sign: int) -> dict:
    out = dict(t1)
    for a, v in t2.items():
        out[a] = out.get(a, Fraction(0)) + sign * v
    return {a: v for a, v in out.items() if v != 0}


def _rebuild_linear(const: Fraction, terms: dict) -> Expr:
    """The sum with positive terms first, then negative ones, each group
    ordered by text, and the constant last.  A positive constant leads
    when no term is positive, so only an all-negative sum starts `0 - `."""
    parts = sorted(((a, v) for a, v in terms.items() if v != 0),
                   key=lambda kv: (kv[1] < 0, to_text(kv[0])))
    expr: Expr | None = None
    if const > 0 and (not parts or parts[0][1] < 0):
        expr, const = Const(const), Fraction(0)
    for atom, coef in parts:
        if coef == 1:
            piece, negative = atom, False
        elif coef == -1:
            piece, negative = atom, True
        else:
            piece, negative = Mul(Const(abs(coef)), atom), coef < 0
        if expr is None:
            expr = Sub(Const(Fraction(0)), piece) if negative else piece
        else:
            expr = Sub(expr, piece) if negative else Add(expr, piece)
    if expr is None:
        return Const(const)
    if const > 0:
        expr = Add(expr, Const(const))
    elif const < 0:
        expr = Sub(expr, Const(-const))
    return expr


def simplify(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, (Add, Sub)) or (isinstance(e, Mul)) or (isinstance(e, Div) and _is_const(e.rhs)):
        # simplify children first so atoms inside the linear form are normal
        if isinstance(e, (Add, Sub, Mul)):
            node = type(e)(simplify(e.lhs), simplify(e.rhs))
        else:
            node = Div(simplify(e.lhs), e.rhs)
        const, terms = _linear_form(node)
        return _rebuild_linear(const, terms)
    if isinstance(e, Div):
        lhs, rhs = simplify(e.lhs), simplify(e.rhs)
        if _is_const(rhs):
            return simplify(Div(lhs, rhs))
        return Div(lhs, rhs)
    if isinstance(e, Pow):
        base, exp = simplify(e.base), simplify(e.exponent)
        if _is_const(base) and _is_const(exp) and exp.value.denominator == 1:
            if not (base.value == 0 and exp.value < 0):
                return Const(base.value ** int(exp.value))
        if _is_const(exp):
            if exp.value == 1:
                return base
            if exp.value == 0:
                return Const(Fraction(1))
        return Pow(base, exp)
    if isinstance(e, Floor):
        arg = simplify(e.arg)
        if _is_const(arg):
            return Const(Fraction(math.floor(arg.value)))
        if is_syntactically_integer(arg):
            return arg
        return Floor(arg)
    if isinstance(e, Ceil):
        arg = simplify(e.arg)
        if _is_const(arg):
            return Const(Fraction(math.ceil(arg.value)))
        if is_syntactically_integer(arg):
            return arg
        return Ceil(arg)
    if isinstance(e, Log2Ceil):
        arg = simplify(e.arg)
        if _is_const(arg):
            return Const(Fraction(ceil_log2(arg.value)))
        return Log2Ceil(arg)
    if isinstance(e, (Max, Min)):
        lhs, rhs = simplify(e.lhs), simplify(e.rhs)
        if _is_const(lhs) and _is_const(rhs):
            pick = max if isinstance(e, Max) else min
            return Const(pick(lhs.value, rhs.value))
        if lhs == rhs:
            return lhs
        return type(e)(lhs, rhs)
    if isinstance(e, Call):
        return Call(e.fname, tuple(simplify(a) for a in e.args))
    if isinstance(e, Ite):
        cond = simplify_constraint(e.cond)
        then, other = simplify(e.then), simplify(e.other)
        if cond == TRUE:
            return then
        if cond == FALSE:
            return other
        if then == other:
            return then
        return Ite(cond, then, other)
    raise TypeError(f"unknown expression node {e!r}")


def simplify_constraint(c: Constraint) -> Constraint:
    if isinstance(c, BoolLit):
        return c
    if isinstance(c, Cmp):
        lhs, rhs = simplify(c.lhs), simplify(c.rhs)
        if _is_const(lhs) and _is_const(rhs):
            return BoolLit(CMP[c.op](lhs.value, rhs.value))
        return Cmp(c.op, lhs, rhs)
    if isinstance(c, And):
        lhs, rhs = simplify_constraint(c.lhs), simplify_constraint(c.rhs)
        if lhs == FALSE or rhs == FALSE:
            return FALSE
        if lhs == TRUE:
            return rhs
        if rhs == TRUE:
            return lhs
        return And(lhs, rhs)
    if isinstance(c, Or):
        lhs, rhs = simplify_constraint(c.lhs), simplify_constraint(c.rhs)
        if lhs == TRUE or rhs == TRUE:
            return TRUE
        if lhs == FALSE:
            return rhs
        if rhs == FALSE:
            return lhs
        return Or(lhs, rhs)
    if isinstance(c, Not):
        arg = simplify_constraint(c.arg)
        if isinstance(arg, BoolLit):
            return BoolLit(not arg.value)
        if isinstance(arg, Not):
            return arg.arg
        return Not(arg)
    raise TypeError(f"unknown constraint node {c!r}")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    expr: Expr
    guard: Constraint


@dataclass(frozen=True)
class ClosedForm:
    """Piecewise candidate: first-matching-guard pieces over a domain
    precondition.  Call-free by construction; coefficients are exact."""
    arg_names: tuple
    precondition: Constraint
    pieces: tuple
    provenance: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "arg_names", tuple(self.arg_names))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("closed form needs at least one piece")
        for p in self.pieces:
            if contains_calls(p.expr):
                raise ValueError("closed form pieces must be call-free")

    @cached_property
    def compiled_pieces(self) -> tuple:
        """Each piece as (guard, expr) closures over an argument tuple, built
        on first use."""
        return tuple((compile_constraint(p.guard, self.arg_names),
                      compile_expr(p.expr, self.arg_names)) for p in self.pieces)

    def single_region_body(self) -> Expr:
        """Fold the pieces into one conditional term.  The last piece acts
        as the default branch; inside the precondition this agrees with
        first-matching-guard evaluation."""
        body = self.pieces[-1].expr
        for p in reversed(self.pieces[:-1]):
            body = Ite(p.guard, p.expr, body)
        return body

    def instantiate(self, args: Sequence[Expr]) -> Expr:
        if len(args) != len(self.arg_names):
            raise ValueError(f"expected {len(self.arg_names)} arguments, got {len(args)}")
        mapping = dict(zip(self.arg_names, args))
        return substitute(self.single_region_body(), mapping)

    def domain_at(self, args: Sequence[Expr]) -> Constraint:
        mapping = dict(zip(self.arg_names, args))
        return substitute_constraint(self.precondition, mapping)

    def to_text(self) -> str:
        if len(self.pieces) == 1 and self.pieces[0].guard == TRUE:
            return to_text(self.pieces[0].expr)
        return "; ".join(f"{to_text(p.expr)} if {constraint_to_text(p.guard)}"
                         for p in self.pieces)


def single_piece(expr: Expr, arg_names: Sequence[str], precondition: Constraint,
                 provenance: str = "user") -> ClosedForm:
    return ClosedForm(tuple(arg_names), precondition, (Piece(expr, TRUE),), provenance)


# ---------------------------------------------------------------------------
# Call replacement (substitution of a candidate into a recurrence body)
# ---------------------------------------------------------------------------

DomainChecker = Callable[[Constraint, Constraint], bool]


def replace_calls(e: Expr, fname: str, fhat: ClosedForm, pre: Constraint,
                  guard: Constraint, domain_checker: DomainChecker) -> Expr:
    """Replace Call(fname, args) nodes by the candidate instantiated at args,
    innermost first, whenever the domain side condition

        pre(x) and guard(x)  entails  fhat.precondition(args)

    holds (decided by `domain_checker`).  Calls whose side condition fails,
    or whose arguments still contain calls, are left in place.
    """
    hyp = conj([pre, guard])

    def walk(node: Expr) -> Expr:
        node = map_children(node, walk)
        if isinstance(node, Call) and node.fname == fname \
                and not any(contains_calls(a) for a in node.args) \
                and domain_checker(hyp, fhat.domain_at(node.args)):
            return fhat.instantiate(node.args)
        return node

    prev, out = None, e
    while out != prev:  # innermost-first pass, repeated to fixpoint
        prev, out = out, walk(out)
    return out


# ---------------------------------------------------------------------------
# Pretty printing, shared with the parser's concrete syntax
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_UNARY
    if isinstance(e, Const) and e.value.denominator != 1:
        return _PREC_MUL  # prints as p/q
    return _PREC_ATOM


def _paren(e: Expr, minimum: int) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) < minimum else text


def to_text(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"{_paren(e.lhs, _PREC_ADD)} + {_paren(e.rhs, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_paren(e.lhs, _PREC_ADD)} - {_paren(e.rhs, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_paren(e.lhs, _PREC_MUL)}*{_paren(e.rhs, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_paren(e.lhs, _PREC_MUL)}/{_paren(e.rhs, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{_paren(e.base, _PREC_ATOM)}^{_paren(e.exponent, _PREC_UNARY)}"
    if isinstance(e, Floor):
        return f"floor({to_text(e.arg)})"
    if isinstance(e, Ceil):
        return f"ceil({to_text(e.arg)})"
    if isinstance(e, Log2Ceil):
        return f"log2ceil({to_text(e.arg)})"
    if isinstance(e, Max):
        return f"max({to_text(e.lhs)}, {to_text(e.rhs)})"
    if isinstance(e, Min):
        return f"min({to_text(e.lhs)}, {to_text(e.rhs)})"
    if isinstance(e, Call):
        return f"{e.fname}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, Ite):
        return f"ite({constraint_to_text(e.cond)}, {to_text(e.then)}, {to_text(e.other)})"
    raise TypeError(f"unknown expression node {e!r}")


def constraint_to_text(c: Constraint, parent: str = "or") -> str:
    if isinstance(c, BoolLit):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        return f"{to_text(c.lhs)} {c.op} {to_text(c.rhs)}"
    if isinstance(c, And):
        text = f"{constraint_to_text(c.lhs, 'and')} and {constraint_to_text(c.rhs, 'and')}"
        return text
    if isinstance(c, Or):
        text = f"{constraint_to_text(c.lhs, 'or')} or {constraint_to_text(c.rhs, 'or')}"
        return f"({text})" if parent == "and" else text
    if isinstance(c, Not):
        inner = constraint_to_text(c.arg, "not")
        if isinstance(c.arg, (And, Or)):
            return f"not ({inner})"
        return f"not {inner}"
    raise TypeError(f"unknown constraint node {c!r}")
