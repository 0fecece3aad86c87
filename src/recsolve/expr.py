"""Symbolic expression trees and boolean constraints over exact rationals.

Every node is a `Record`: its fields are slots, set once when it is
built and never again, since assigning or deleting one raises
AttributeError.  Nodes are evaluated with ints and `fractions.Fraction`,
so no floating point can leak into guards, recurrence values or
candidate coefficients.  A constraint (a boolean literal, a comparison,
`and`, `or` or `not`) is an expression whose value is a bool, so one
walker, simplifier, compiler and printer serve both.
Expressions may contain `Call` nodes (references to a recurrence being
solved); comparisons may not.  Evaluation compiles a tree once into a
generated Python function of an argument tuple (`compile_expr`), for code
that evaluates one expression at many points; `eval_expr` compiles and
applies in one call.  Its `Emitter` also writes the recurrence evaluator's
`step` function, adding only the memo lookup of a call.

Each node has one row per table: its children in `_CHILDREN` (the
walker) and its rewrite in `_RULES`; an arithmetic operator also has its
arithmetic in `OPS` and its syntax in `INFIX` or `FUNCTIONS`, and a
connective its syntax in `CONNECTIVES`.  The binding powers of the syntax
are one scale, Python's order (`COND` to `ATOM`), which the printer
(`to_text`), the parser and the compiler (`Emitter`) all read.
`simplify` folds constants through `OPS` and comparisons through `CMP`,
and has no arithmetic of its own; `constant_factor` alone decides what
a constant factor is, for `simplify` and for the checker's clearing.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
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
# Records
# ---------------------------------------------------------------------------

def _field_setter(setters: tuple) -> Callable:
    """A method that sets the fields from positional arguments, in slot
    order, through their slot descriptors (below the frozen
    `__setattr__`)."""
    if len(setters) == 1:
        (first,) = setters

        def __init__(self, a):
            first(self, a)
    elif len(setters) == 2:
        first, second = setters

        def __init__(self, a, b):
            first(self, a)
            second(self, b)
    elif len(setters) == 3:
        first, second, third = setters

        def __init__(self, a, b, c):
            first(self, a)
            second(self, b)
            third(self, c)
    else:
        def __init__(self, *values):
            if len(values) != len(setters):
                raise TypeError(f"{type(self).__name__}() takes {len(setters)} "
                                f"arguments ({len(values)} given)")
            for set_field, value in zip(setters, values):
                set_field(self, value)
    return __init__


def _equality(fields: tuple) -> tuple:
    """`__eq__` and `__hash__` over the tuple of `fields`: records are equal
    only when their classes are the same and their fields are equal."""
    get = operator.attrgetter(*fields) if fields else (lambda record: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    if len(fields) == 1:  # the getter gives the bare value
        def __hash__(self):
            return hash((get(self),))
    else:
        def __hash__(self):
            return hash(get(self))
    return __eq__, __hash__


class Record:
    """An immutable record whose fields are the names in its class's
    `__slots__` (a `__dict__` slot aside, which holds cached properties),
    after those of its base classes.

    A subclass is complete once its class statement has run: it gets
    `_set_fields`, which sets the fields from positional arguments, as its
    `__init__` unless it defines its own, and equality and a hash over
    the field tuple, which behave as a frozen dataclass's do.  An
    `__init__` of its own checks or normalizes its arguments and then
    calls `_set_fields`; after that, assigning or deleting a field raises
    AttributeError.  No source is generated, so defining a record
    compiles nothing."""
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__")
        cls._fields = cls._fields + own
        if own:
            cls._set_fields = _field_setter(tuple(getattr(cls, name).__set__
                                                  for name in cls._fields))
            if "__init__" not in cls.__dict__:
                cls.__init__ = cls._set_fields
        cls.__eq__, cls.__hash__ = _equality(cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

class Expr(Record):
    __slots__ = ()

    def __str__(self):
        return to_text(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self._set_fields(value if isinstance(value, Fraction) else Fraction(value))


class Var(Expr):
    __slots__ = ("name",)


class Add(Expr):
    __slots__ = ("lhs", "rhs")


class Sub(Expr):
    __slots__ = ("lhs", "rhs")


class Mul(Expr):
    __slots__ = ("lhs", "rhs")


class Div(Expr):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        if isinstance(rhs, Const) and rhs.value == 0:
            raise ValueError("division by the literal constant zero")
        self._set_fields(lhs, rhs)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        # general x^y is out of the language: a non-constant exponent is
        # only allowed over a constant base (supports 2^x)
        if not isinstance(exponent, Const) and not isinstance(base, Const):
            raise ValueError("Pow with non-constant exponent requires a constant base")
        self._set_fields(base, exponent)


class Floor(Expr):
    __slots__ = ("arg",)


class Ceil(Expr):
    __slots__ = ("arg",)


class Log2Ceil(Expr):
    __slots__ = ("arg",)


class Max(Expr):
    __slots__ = ("lhs", "rhs")


class Min(Expr):
    __slots__ = ("lhs", "rhs")


class Call(Expr):
    __slots__ = ("fname", "args")

    def __init__(self, fname, args):
        self._set_fields(fname, tuple(args))


class Ite(Expr):
    """Conditional term, used when a piecewise closed form is inlined."""
    __slots__ = ("cond", "then", "other")


def con(v: Rational) -> Const:
    return Const(Fraction(v))


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

# The test of every comparison operator.
CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
       "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Constraint(Expr):
    """A bool-valued expression; comparisons of call-free expressions are
    its atoms."""
    __slots__ = ()


class BoolLit(Constraint):
    __slots__ = ("value",)


class Cmp(Constraint):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        if op not in CMP:
            raise ValueError(f"unknown comparison operator {op!r}")
        for side in (lhs, rhs):
            if contains_calls(side):
                raise ValueError("constraints must be call-free")
        self._set_fields(op, lhs, rhs)


class And(Constraint):
    __slots__ = ("lhs", "rhs")


class Or(Constraint):
    __slots__ = ("lhs", "rhs")


class Not(Constraint):
    __slots__ = ("arg",)


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
# Concrete syntax: one operator order for the printer, the parser and the
# compiler
# ---------------------------------------------------------------------------

# The binding powers, loosest first.  This is Python's own order, so the
# compiler writes Python on the same scale.
COND, OR, AND, NOT, COMPARE, ADD, MUL, UNARY, POW, ATOM = range(10)

# The operators written between their operands: word or symbol, and
# binding power.  Each is left-associative, except that a connective's
# right operand may be a chain of its own (grouping changes neither value
# nor short-circuit), so a right-nested chain prints flat and parses back
# left-nested.  The comparisons (`CMP`, at COMPARE) do not chain, and `^`
# (at POW) is right-associative.
CONNECTIVES = {Or: ("or", OR), And: ("and", AND)}
INFIX = {Add: ("+", ADD), Sub: ("-", ADD), Mul: ("*", MUL), Div: ("/", MUL)}

# The named functions, written `name(arg, ...)` with one argument per
# field of the node.
FUNCTIONS = {"floor": Floor, "ceil": Ceil, "log2ceil": Log2Ceil,
             "max": Max, "min": Min}
_FUNCTION_NAMES = {node: name for name, node in FUNCTIONS.items()}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _floor(v):
    return v if isinstance(v, int) else math.floor(v)


def _ceil(v):
    return v if isinstance(v, int) else math.ceil(v)


def ceil_log2(v) -> int:
    """Smallest k with 2^k >= v, clamped to 0 for v <= 1: the bit length
    of ceil(v) - 1, since 2^k >= v exactly when 2^k >= ceil(v)."""
    return (_ceil(v) - 1).bit_length() if v > 1 else 0


def exact_div(a, b):
    """Exact rational division of int/Fraction operands (ints stay ints
    when the division is exact; never floats)."""
    if b == 0:
        raise DivisionByZero(f"{a}/{b}")
    if isinstance(a, int) and isinstance(b, int):
        return a // b if a % b == 0 else Fraction(a, b)
    return (a if isinstance(a, Fraction) else Fraction(a)) / b


def exact_pow(base, exp):
    if type(exp) is int and exp >= 0:
        return base ** exp
    if isinstance(exp, Fraction):
        if exp.denominator != 1:
            raise ExprError(f"non-integer exponent {exp}")
        exp = int(exp)
    if base == 0 and exp < 0:
        raise DivisionByZero(f"{base}^{exp}")
    if isinstance(base, int) and exp < 0:
        return Fraction(1, base ** -exp)
    return base ** exp


def floor_div(a, b):
    """floor(a/b): Python's `//` on two ints, else `exact_div` floored."""
    if type(a) is int and type(b) is int and b:
        return a // b
    return _floor(exact_div(a, b))


def ceil_div(a, b):
    """ceil(a/b): `-(-a // b)` on two ints, else `exact_div` ceiled."""
    if type(a) is int and type(b) is int and b:
        return -(-a // b)
    return _ceil(exact_div(a, b))


# The exact arithmetic of every operator node (binary or unary), applied to
# its evaluated children in `children` order.  Shared by the compiler
# (`Emitter`) and `simplify`, so each operator is defined once.
OPS = {
    Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: exact_div,
    Pow: exact_pow, Max: max, Min: min,
    Floor: _floor, Ceil: _ceil, Log2Ceil: ceil_log2,
}

# The compiler's one call for `floor(a/b)` and `ceil(a/b)`, of the same
# value as OPS's division then rounding.
ROUNDED_DIV = {Floor: floor_div, Ceil: ceil_div}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _raise(error: type, *args):
    raise error(*args)


@lru_cache(maxsize=256)
def _code(source: str):
    """The code of a generated source, shared by every tree that writes it."""
    return compile(source, "<generated>", "exec")


class Emitter:
    """Writes trees as Python source over the arguments `arg_names`, the
    locals `a0, a1, ...`.
    Constants, names included, are lifted by position into `consts`, read
    as `c0, c1, ...`, so trees that differ only in those share compiled
    code.  Every operator of `INFIX` and `CONNECTIVES` but `/`, the
    comparisons and `not` are Python's, at their binding powers; a division
    and the other operators are calls of their `OPS` entry, since Python's
    `/` and `^` mean other things.  Operands are evaluated left to right,
    and text is parenthesized only where Python would read it otherwise, so
    long sums and `and` chains stay flat.  A floor or ceil of a division is
    one call of its `ROUNDED_DIV` entry, which divides two ints with
    Python's `//` and builds no Fraction.  An unbound variable or a Call
    raises only when its branch is evaluated.  A subclass may write calls
    its own way."""

    namespace = {"_raise": _raise, **{"_" + t.__name__: op for t, op in OPS.items()},
                 **{"_" + t.__name__ + "Div": op for t, op in ROUNDED_DIV.items()}}

    def __init__(self, arg_names: Sequence[str]):
        self.unpacked = ", ".join(f"a{i}" for i in range(len(arg_names)))
        self.index = {n: i for i, n in enumerate(arg_names)}
        self.consts: list = []

    def lift(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def raising(self, error: type, name: str) -> tuple:
        return f"_raise({self.lift(error)}, {self.lift(name)})", ATOM

    def operand(self, e: Expr, minimum: int = COND) -> str:
        """The text of `e`, parenthesized if it binds looser than `minimum`."""
        text, power = self.emit(e)
        return text if power >= minimum else f"({text})"

    def emit(self, e: Expr) -> tuple:
        """The text of `e` and its binding power."""
        t = type(e)
        if t is Const or t is BoolLit:
            v = e.value
            return self.lift(v.numerator if t is Const and v.denominator == 1 else v), ATOM
        if t is Var:
            if e.name not in self.index:
                return self.raising(UnboundVariable, e.name)
            return f"a{self.index[e.name]}", ATOM
        if t is Call:
            return self.call(e)
        if t is Ite:
            cond = self.operand(e.cond, OR)
            return f"{self.operand(e.then, OR)} if {cond} else {self.operand(e.other)}", COND
        if t is Not:
            return f"not {self.operand(e.arg, NOT)}", NOT
        if t in ROUNDED_DIV and type(e.arg) is Div:
            return f"_{t.__name__}Div({self.operand(e.arg.lhs)}, {self.operand(e.arg.rhs)})", ATOM
        infix = INFIX.get(t) or CONNECTIVES.get(t)
        if t is Cmp:
            infix = "==" if e.op == "=" else e.op, COMPARE
        if infix is None or t is Div:
            return f"_{t.__name__}({', '.join(map(self.operand, children(e)))})", ATOM
        symbol, power = infix
        # associative as `INFIX` and `CONNECTIVES` say; a comparison does not chain
        lhs = self.operand(e.lhs, power + 1 if power == COMPARE else power)
        return f"{lhs} {symbol} {self.operand(e.rhs, power if power < NOT else power + 1)}", power

    def call(self, e: Call) -> tuple:
        return self.raising(UnexpandedCall, e.fname)

    def function(self, params: str, lines: Sequence[str]) -> Callable:
        """`f(params)`, which unpacks the argument tuple `a` and runs `lines`."""
        source = "\n".join([f"def f({params}):", f"    [{self.unpacked}] = a", *lines]) + "\n"
        namespace = dict(self.namespace)
        namespace.update((f"c{i}", v) for i, v in enumerate(self.consts))
        exec(_code(source), namespace)
        return namespace["f"]


def compile_expr(e: Expr, arg_names: Sequence[str]) -> Callable[[tuple], Rational | bool]:
    """`e` as a function of an argument tuple bound to `arg_names`.  Values
    are int or Fraction, never floats, and a constraint's are bools; an
    unbound variable, a Call or an arithmetic error raises only when the
    node holding it is evaluated, so an untaken Ite branch raises nothing."""
    emitter = Emitter(arg_names)
    return emitter.function("a", [f"    return {emitter.operand(e)}"])


def eval_expr(e: Expr, env: Env):
    """Exact evaluation of call-free `e` with the variables bound by `env`."""
    return compile_expr(e, tuple(env))(tuple(env.values()))


eval_constraint = eval_expr  # the older name, still imported by perfbench


# ---------------------------------------------------------------------------
# Structural queries and substitution
# ---------------------------------------------------------------------------

def _no_children(e):
    return ()


def _arg(e):
    return (e.arg,)


_lhs_rhs = operator.attrgetter("lhs", "rhs")
_CHILDREN = {
    Const: _no_children, Var: _no_children, BoolLit: _no_children,
    Add: _lhs_rhs, Sub: _lhs_rhs, Mul: _lhs_rhs, Div: _lhs_rhs,
    Max: _lhs_rhs, Min: _lhs_rhs, Cmp: _lhs_rhs, And: _lhs_rhs, Or: _lhs_rhs,
    Pow: operator.attrgetter("base", "exponent"),
    Floor: _arg, Ceil: _arg, Log2Ceil: _arg, Not: _arg,
    Call: operator.attrgetter("args"),
    Ite: operator.attrgetter("then", "other", "cond"),
}


def children(e: Expr) -> tuple:
    """The direct subexpressions of `e`, in constructor order, except that
    an Ite gives its two branches before its condition."""
    try:
        get = _CHILDREN[type(e)]
    except KeyError:
        raise TypeError(f"unknown expression node {e!r}") from None
    return get(e)


def map_children(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Rebuild `e` with `f` applied to each child, in `children` order."""
    t = type(e)
    if t is Call:
        return Call(e.fname, tuple(map(f, e.args)))
    if t is Ite:
        then, other = f(e.then), f(e.other)
        return Ite(f(e.cond), then, other)
    if t is Cmp:
        return Cmp(e.op, f(e.lhs), f(e.rhs))
    kids = children(e)
    if len(kids) == 2:  # the common case, without building an argument tuple
        return t(f(kids[0]), f(kids[1]))
    return t(*map(f, kids)) if kids else e


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


def constant_factor(e: Expr):
    """(c, operand) when `e` is `c*operand`, `operand*c` or `operand/c`
    for a constant c (`1/c` in the last), else None."""
    t = type(e)
    if t is Mul:
        if type(e.lhs) is Const:
            return e.lhs.value, e.rhs
        if type(e.rhs) is Const:
            return e.rhs.value, e.lhs
    elif t is Div and type(e.rhs) is Const:
        return 1 / e.rhs.value, e.lhs
    return None


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    if type(e) is Var:
        return mapping.get(e.name, e)
    return map_children(e, lambda c: substitute(c, mapping))


# ---------------------------------------------------------------------------
# Simplification
#
# Bottom-up: each node is rebuilt from its simplified children, folded
# through `OPS` when every child is a constant, and then rewritten by the
# one rule its type has in `_RULES`: like-term collection over a linear
# normal form, neutral exponents, floor/ceil of syntactically integer
# arguments, max/min idempotence, Ite folding, constant comparisons,
# true/false operands of and/or, and negation of literals and of
# negations.  Idempotent.
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
    factor = constant_factor(e)
    if factor is not None:
        k, operand = factor
        c, terms = _linear_form(operand)
        return c * k, {a: v * k for a, v in terms.items()}
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
    if type(e) is Div and constant_factor(e) is None:
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
    if type(e.cond) is BoolLit:
        return e.then if e.cond.value else e.other
    return e.then if e.then == e.other else e


def _compare_constants(e: Cmp) -> Expr:
    if type(e.lhs) is Const and type(e.rhs) is Const:
        return BoolLit(CMP[e.op](e.lhs.value, e.rhs.value))
    return e


def _drop_literals(e: Expr) -> Expr:
    # an and/or with a literal operand: the absorbing one decides, the
    # neutral one drops out
    absorbing, neutral = (FALSE, TRUE) if type(e) is And else (TRUE, FALSE)
    if e.lhs == absorbing or e.rhs == absorbing:
        return absorbing
    if e.lhs == neutral:
        return e.rhs
    return e.lhs if e.rhs == neutral else e


def _negate(e: Not) -> Expr:
    if type(e.arg) is BoolLit:
        return BoolLit(not e.arg.value)
    return e.arg.arg if type(e.arg) is Not else e


# The rewrite of each node type, applied once its children are simplified
# and it did not fold to a constant.
_RULES = {
    Add: _linear, Sub: _linear, Mul: _linear, Div: _linear,
    Pow: _neutral_exponent, Floor: _integer_argument, Ceil: _integer_argument,
    Max: _equal_operands, Min: _equal_operands, Ite: _fold_ite,
    Cmp: _compare_constants, And: _drop_literals, Or: _drop_literals, Not: _negate,
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


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

class Piece(Record):
    __slots__ = ("expr", "guard")


class ClosedForm(Record):
    """Piecewise candidate: first-matching-guard pieces over a domain
    precondition.  Call-free by construction; coefficients are exact."""
    __slots__ = ("arg_names", "precondition", "pieces", "__dict__")

    def __init__(self, arg_names, precondition, pieces):
        arg_names, pieces = tuple(arg_names), tuple(pieces)
        if not pieces:
            raise ValueError("closed form needs at least one piece")
        for p in pieces:
            if contains_calls(p.expr):
                raise ValueError("closed form pieces must be call-free")
            loose = (free_vars(p.expr) | free_vars(p.guard)) - set(arg_names)
            if loose:
                raise ValueError(
                    f"closed form uses variables {sorted(loose)} that are not arguments")
        self._set_fields(arg_names, precondition, pieces)

    @cached_property
    def compiled_pieces(self) -> tuple:
        """Each piece as (guard, expr) functions of an argument tuple
        (`compile_expr`), built on first use."""
        return tuple((compile_expr(p.guard, self.arg_names),
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
        return substitute(self.precondition, mapping)

    def to_text(self) -> str:
        if len(self.pieces) == 1 and self.pieces[0].guard == TRUE:
            return to_text(self.pieces[0].expr)
        return "; ".join(f"{to_text(p.expr)} if {to_text(p.guard)}"
                         for p in self.pieces)


def single_piece(expr: Expr, arg_names: Sequence[str], precondition: Constraint) -> ClosedForm:
    return ClosedForm(tuple(arg_names), precondition, (Piece(expr, TRUE),))


# ---------------------------------------------------------------------------
# Call replacement (substitution of a candidate into a recurrence body)
# ---------------------------------------------------------------------------

DomainChecker = Callable[[Constraint, Constraint], bool]


def replace_calls(e: Expr, fname: str, fhat: ClosedForm, hyp: Constraint,
                  domain_checker: DomainChecker) -> Expr:
    """Replace Call(fname, args) nodes by the candidate instantiated at args,
    innermost first, whenever the domain side condition

        hyp(x)  entails  fhat.precondition(args)

    holds (decided by `domain_checker`); `hyp` is where `e` is evaluated,
    such as a case's region (`RecurrenceDef.case_regions`).  Calls whose
    side condition fails, or whose arguments still contain calls, are left
    in place.  One post-order pass is a fixpoint: a replacement is
    call-free, and a call left in place would meet the same side condition
    again.
    """
    def walk(node: Expr) -> Expr:
        node = map_children(node, walk)
        if isinstance(node, Call) and node.fname == fname \
                and not any(contains_calls(a) for a in node.args) \
                and domain_checker(hyp, fhat.domain_at(node.args)):
            return fhat.instantiate(node.args)
        return node

    return walk(e)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _operand(e: Expr, minimum: int) -> str:
    """The text of `e`, parenthesized if it binds looser than `minimum`."""
    text, power = _written(e)
    return text if power >= minimum else f"({text})"


def _written(e: Expr) -> tuple:
    """The text of `e` and its binding power."""
    t = type(e)
    if t is Const:
        n, d = e.value.numerator, e.value.denominator
        if d != 1:
            return f"{n}/{d}", MUL  # -p/q included
        return str(n), UNARY if n < 0 else ATOM
    if t is Var:
        return e.name, ATOM
    infix = INFIX.get(t) or CONNECTIVES.get(t)
    if infix is not None:
        symbol, power = infix
        lhs, rhs = _operand(e.lhs, power), _operand(e.rhs, power if power < NOT else power + 1)
        return f"{lhs}{symbol}{rhs}" if power == MUL else f"{lhs} {symbol} {rhs}", power
    if t is Pow:
        return f"{_operand(e.base, ATOM)}^{_operand(e.exponent, UNARY)}", POW
    if t is Ite:
        return f"ite({to_text(e.cond)}, {to_text(e.then)}, {to_text(e.other)})", ATOM
    if t is Cmp:
        return f"{to_text(e.lhs)} {e.op} {to_text(e.rhs)}", COMPARE
    if t is Not:
        return f"not {_operand(e.arg, NOT)}", NOT
    if t is BoolLit:
        return "true" if e.value else "false", ATOM
    name = e.fname if t is Call else _FUNCTION_NAMES.get(t)
    if name is None:
        raise TypeError(f"unknown expression node {e!r}")
    return f"{name}({', '.join(map(to_text, children(e)))})", ATOM


def to_text(e: Expr) -> str:
    """`e` in the syntax the parser reads, parenthesized only where needed."""
    return _written(e)[0]
