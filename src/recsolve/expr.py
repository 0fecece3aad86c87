"""Symbolic expression trees and boolean constraints over exact rationals.

Everything here is immutable and evaluated with ints and
`fractions.Fraction`, so no floating point can leak into guards,
recurrence values or candidate coefficients.  Expressions may contain
`Call` nodes (references to a recurrence being solved); constraints may
not.  Evaluation compiles a tree once into a closure over an argument
tuple (`compile_expr`, `compile_constraint`), for code that evaluates one
expression at many points; `eval_expr` and `eval_constraint` compile and
apply in one call.

Each operator has one row per table: its arithmetic in `OPS`, its
children in `_CHILDREN` (the walker), its syntax in `INFIX` or `FUNCTIONS`
(the printer and the parser) and its rewrite in `_RULES`.  `simplify`
folds constants through `OPS` and has no arithmetic of its own.
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


def con(v: Rational) -> Const:
    return Const(Fraction(v))


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
# its evaluated children in `children` order.  Shared by `compile_expr`,
# the recurrence evaluator and `simplify`, so each operator is defined once.
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
    if len(kids) == 2:  # the common case, without building an argument tuple
        return t(f(kids[0]), f(kids[1]))
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
# Bottom-up: each node is rebuilt from its simplified children, folded
# through `OPS` when every child is a constant, and then rewritten by the
# one rule its type has in `_RULES`: like-term collection over a linear
# normal form, neutral exponents, floor/ceil of syntactically integer
# arguments, max/min idempotence and Ite folding.  Idempotent.
# ---------------------------------------------------------------------------

# Integer-valued whenever every child is (a power also needs a
# non-negative constant exponent).
_INTEGER_CLOSED = {Add, Sub, Mul, Max, Min, Pow}


def is_syntactically_integer(e: Expr) -> bool:
    """Conservative: true only when every evaluation yields an integer."""
    t = type(e)
    if t is Const:
        return e.value.denominator == 1
    if t is Floor or t is Ceil or t is Log2Ceil:
        return True
    if t is Ite:
        return is_syntactically_integer(e.then) and is_syntactically_integer(e.other)
    if t is Pow and not (type(e.exponent) is Const and e.exponent.value >= 0):
        return False
    return t in _INTEGER_CLOSED and all(map(is_syntactically_integer, children(e)))


def _linear_form(e: Expr) -> tuple:
    """Decompose into (constant, {atom: coefficient}) treating non-linear
    subterms as opaque atoms.  Atoms are already simplified."""
    t = type(e)
    if t is Const:
        return e.value, {}
    if t is Add:
        c1, t1 = _linear_form(e.lhs)
        c2, t2 = _linear_form(e.rhs)
        return c1 + c2, _merge_terms(t1, t2, 1)
    if t is Sub:
        c1, t1 = _linear_form(e.lhs)
        c2, t2 = _linear_form(e.rhs)
        return c1 - c2, _merge_terms(t1, t2, -1)
    if t is Mul and (type(e.lhs) is Const or type(e.rhs) is Const):
        k, other = (e.lhs.value, e.rhs) if type(e.lhs) is Const else (e.rhs.value, e.lhs)
        c, terms = _linear_form(other)
        return c * k, {a: v * k for a, v in terms.items()}
    if t is Div and type(e.rhs) is Const:
        c, terms = _linear_form(e.lhs)
        k = e.rhs.value
        return c / k, {a: v / k for a, v in terms.items()}
    return Fraction(0), {e: Fraction(1)}


def _merge_terms(t1: dict, t2: dict, sign: int) -> dict:
    out = dict(t1)
    for a, v in t2.items():
        v = v if sign > 0 else -v
        prev = out.get(a)
        out[a] = v if prev is None else prev + v
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
        piece = atom if coef in (1, -1) else Mul(Const(abs(coef)), atom)
        negative = coef < 0
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


def _linear(e: Expr) -> Expr:
    if type(e) is Div and type(e.rhs) is not Const:
        return e
    return _rebuild_linear(*_linear_form(e))


def _neutral_exponent(e: Pow) -> Expr:
    k = e.exponent
    if type(k) is Const:
        if k.value == 1:
            return e.base
        if k.value == 0:
            return Const(Fraction(1))
    return e


def _integer_argument(e: Expr) -> Expr:
    return e.arg if is_syntactically_integer(e.arg) else e


def _equal_operands(e: Expr) -> Expr:
    return e.lhs if e.lhs == e.rhs else e


def _fold_ite(e: Ite) -> Expr:
    cond = _fold_constraint(e.cond)
    if cond == TRUE:
        return e.then
    if cond == FALSE:
        return e.other
    if e.then == e.other:
        return e.then
    return Ite(cond, e.then, e.other)


# The rewrite of each node type, applied once its children are simplified
# and it did not fold to a constant.
_RULES = {
    Add: _linear, Sub: _linear, Mul: _linear, Div: _linear,
    Pow: _neutral_exponent, Floor: _integer_argument, Ceil: _integer_argument,
    Max: _equal_operands, Min: _equal_operands, Ite: _fold_ite,
}


def simplify(e: Expr) -> Expr:
    t = type(e)
    if t is Const or t is Var:
        return e
    e = map_children(e, simplify)
    op = OPS.get(t)
    if op is not None:
        kids = children(e)  # one or two
        if type(kids[0]) is Const and type(kids[-1]) is Const:
            try:
                return Const(op(*[k.value for k in kids]))
            except ExprError:
                pass  # left as written, as 0^-1 or a non-integer exponent
    rule = _RULES.get(t)
    return e if rule is None else rule(e)


def _fold_constraint(c: Constraint) -> Constraint:
    """Fold the boolean structure of `c`, whose Cmp sides are already
    simplified: constant comparisons, true/false operands, double negation."""
    t = type(c)
    if t is BoolLit:
        return c
    if t is Cmp:
        if type(c.lhs) is Const and type(c.rhs) is Const:
            return BoolLit(CMP[c.op](c.lhs.value, c.rhs.value))
        return c
    if t is And or t is Or:
        absorbing, neutral = (FALSE, TRUE) if t is And else (TRUE, FALSE)
        lhs, rhs = _fold_constraint(c.lhs), _fold_constraint(c.rhs)
        if lhs == absorbing or rhs == absorbing:
            return absorbing
        if lhs == neutral:
            return rhs
        if rhs == neutral:
            return lhs
        return t(lhs, rhs)
    if t is Not:
        arg = _fold_constraint(c.arg)
        if type(arg) is BoolLit:
            return BoolLit(not arg.value)
        if type(arg) is Not:
            return arg.arg
        return Not(arg)
    raise TypeError(f"unknown constraint node {c!r}")


def simplify_constraint(c: Constraint) -> Constraint:
    return _fold_constraint(map_constraint(c, simplify))


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
    or whose arguments still contain calls, are left in place.  One
    post-order pass is a fixpoint: a replacement is call-free, and a call
    left in place would meet the same side condition again.
    """
    hyp = conj([pre, guard])

    def walk(node: Expr) -> Expr:
        node = map_children(node, walk)
        if isinstance(node, Call) and node.fname == fname \
                and not any(contains_calls(a) for a in node.args) \
                and domain_checker(hyp, fhat.domain_at(node.args)):
            return fhat.instantiate(node.args)
        return node

    return walk(e)


# ---------------------------------------------------------------------------
# Concrete syntax: one table for the printer and the parser
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

# The left-associative infix operators: symbol and precedence.  The
# additive ones print with spaces around the symbol.  `^` (right-associative,
# binding tighter than unary minus) and the comparisons (`CMP`) are not here.
INFIX = {Add: ("+", _PREC_ADD), Sub: ("-", _PREC_ADD),
         Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}

# The named functions, written `name(arg, ...)` with one argument per
# field of the node.
FUNCTIONS = {"floor": Floor, "ceil": Ceil, "log2ceil": Log2Ceil,
             "max": Max, "min": Min}
_FUNCTION_NAMES = {node: name for name, node in FUNCTIONS.items()}


def _prec(e: Expr) -> int:
    t = type(e)
    if t in INFIX:
        return INFIX[t][1]
    if t is Pow:
        return _PREC_POW
    if t is Const and e.value.denominator != 1:
        return _PREC_MUL  # prints as p/q, -p/q included
    if t is Const and e.value < 0:
        return _PREC_UNARY
    return _PREC_ATOM


def _paren(e: Expr, minimum: int) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) < minimum else text


def to_text(e: Expr) -> str:
    t = type(e)
    if t is Const:
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if t is Var:
        return e.name
    if t in INFIX:
        symbol, prec = INFIX[t]
        lhs, rhs = _paren(e.lhs, prec), _paren(e.rhs, prec + 1)
        return f"{lhs} {symbol} {rhs}" if prec == _PREC_ADD else f"{lhs}{symbol}{rhs}"
    if t is Pow:
        return f"{_paren(e.base, _PREC_ATOM)}^{_paren(e.exponent, _PREC_UNARY)}"
    if t is Ite:
        return f"ite({constraint_to_text(e.cond)}, {to_text(e.then)}, {to_text(e.other)})"
    name = e.fname if t is Call else _FUNCTION_NAMES.get(t)
    if name is None:
        raise TypeError(f"unknown expression node {e!r}")
    return f"{name}({', '.join(map(to_text, children(e)))})"


def constraint_to_text(c: Constraint, parent: str = "or") -> str:
    if isinstance(c, BoolLit):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        return f"{to_text(c.lhs)} {c.op} {to_text(c.rhs)}"
    if isinstance(c, And):
        return f"{constraint_to_text(c.lhs, 'and')} and {constraint_to_text(c.rhs, 'and')}"
    if isinstance(c, Or):
        text = f"{constraint_to_text(c.lhs, 'or')} or {constraint_to_text(c.rhs, 'or')}"
        return f"({text})" if parent == "and" else text
    if isinstance(c, Not):
        inner = constraint_to_text(c.arg, "not")
        if isinstance(c.arg, (And, Or)):
            return f"not ({inner})"
        return f"not {inner}"
    raise TypeError(f"unknown constraint node {c!r}")
