"""Recurrence definitions and their deterministic evaluation semantics.

Evaluation follows the first-matching-guard order of the cases (a nested
if-then-else).  On the first `eval_fun` call on a definition, each case's
guard and body are compiled into Python closures over the argument tuple,
and the definition keeps them: guards and Ite conditions (bool-valued
expressions) by `expr.compile_expr`, bodies here, since their calls read
the memo.
The evaluator is iterative with memoization on concrete argument tuples,
so deeply recursive or non-terminating definitions hit the configured
limits instead of exhausting the Python stack: a body that reaches a
call missing from the memo is restarted once that call is evaluated.  A step is one guard tried
or one body node visited, restarted visits included, so the limits stop
exactly where a node-by-node walk of the bodies would.  A caller that
evaluates many points of one recurrence may pass one memo to every
`eval_fun` call; the limits still apply to each call on its own.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .expr import (
    OPS, Call, ClosedForm, Const, Constraint, Expr, Ite, Not, Var, children,
    compile_expr, conj, contains_calls, disj, free_vars, map_children, nodes,
    to_text,
)


class RecurrenceError(Exception):
    pass


class ArityMismatch(RecurrenceError):
    pass


class PreconditionNotCovering(RecurrenceError):
    """The precondition does not entail the disjunction of case guards."""


class GuardFallthroughError(RecurrenceError):
    def __init__(self, point):
        super().__init__(f"no guard matched at {point}")
        self.point = point


class UnknownFunction(RecurrenceError):
    pass


@dataclass(frozen=True)
class Case:
    body: Expr
    guard: Constraint


@dataclass(frozen=True)
class RecurrenceDef:
    name: str
    arg_names: tuple
    precondition: Constraint
    cases: tuple

    def __post_init__(self):
        object.__setattr__(self, "arg_names", tuple(self.arg_names))
        object.__setattr__(self, "cases", tuple(self.cases))
        self._validate()

    @property
    def arity(self) -> int:
        return len(self.arg_names)

    def _validate(self):
        declared = set(self.arg_names)
        rec, closed = False, False
        arities = {self.name: self.arity}
        for i, case in enumerate(self.cases):
            if contains_calls(case.body, self.name):
                rec = True
            else:
                closed = True
            loose = (free_vars(case.body) | free_vars(case.guard)) - declared
            if loose:
                raise RecurrenceError(
                    f"case {i + 1} uses variables {sorted(loose)} that are not arguments")
            _check_call_arities(case.body, arities)
        loose = free_vars(self.precondition) - declared
        if loose:
            raise RecurrenceError(f"precondition uses non-argument variables {sorted(loose)}")
        if not rec:
            raise RecurrenceError("no case contains a recursive call")
        if not closed:
            raise RecurrenceError("no case is in closed form")

    def base_cases(self) -> list:
        return [c for c in self.cases if not contains_calls(c.body, self.name)]

    def recursive_region(self) -> Constraint:
        """Precondition restricted by the negations of the base-case guards."""
        return conj([self.precondition]
                    + [Not(c.guard) for c in self.base_cases()])

    @cached_property
    def _compiled(self) -> tuple:
        """The cases compiled for `eval_fun`, built on its first call."""
        return _compile_cases(self)

    def guard_disjunction(self) -> Constraint:
        return disj([c.guard for c in self.cases])

    def to_text(self) -> str:
        head = f"def {self.name}({', '.join(self.arg_names)});"
        pre = f"pre {to_text(self.precondition)};"
        cases = [f"{self.name}({', '.join(self.arg_names)}) = {to_text(c.body)}"
                 f" if {to_text(c.guard)};" for c in self.cases]
        return "\n".join([head, pre] + cases)


def _check_call_arities(e: Expr, arities: dict):
    for node in nodes(e):
        if isinstance(node, Call):
            seen = arities.setdefault(node.fname, len(node.args))
            if seen != len(node.args):
                raise ArityMismatch(
                    f"{node.fname} called with {len(node.args)} arguments, expected {seen}")


def foreign_names(rdef: RecurrenceDef) -> set:
    """Function symbols other than the recurrence itself used in the bodies."""
    return {node.fname for case in rdef.cases for node in nodes(case.body)
            if isinstance(node, Call) and node.fname != rdef.name}


def validate_coverage(rdef: RecurrenceDef, entails: Callable[[Constraint, Constraint], bool]):
    """Check the load-time well-formedness condition that the precondition
    entails the disjunction of case guards, via the given entailment oracle."""
    if not entails(rdef.precondition, rdef.guard_disjunction()):
        raise PreconditionNotCovering(
            f"precondition of {rdef.name} does not entail the guard disjunction")


def inline_function(rdef: RecurrenceDef, fname: str, cf: ClosedForm) -> RecurrenceDef:
    """Replace every call to a foreign function by a closed form (used to
    chain a solved size recurrence into a dependent cost recurrence)."""

    def walk(e: Expr) -> Expr:
        e = map_children(e, walk)
        if isinstance(e, Call) and e.fname == fname:
            return cf.instantiate(e.args)
        return e

    cases = tuple(Case(walk(c.body), c.guard) for c in rdef.cases)
    return RecurrenceDef(rdef.name, rdef.arg_names, rdef.precondition, cases)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalLimits:
    max_depth: int = 10_000
    max_steps: int = 1_000_000
    timeout_ms: int = 5_000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_steps <= 0 or self.timeout_ms <= 0:
            raise ValueError("evaluation limits must be strictly positive")


@dataclass(frozen=True)
class EvalOutcome:
    pass


@dataclass(frozen=True)
class Value(EvalOutcome):
    value: Fraction


@dataclass(frozen=True)
class LimitExceeded(EvalOutcome):
    limit: str  # depth | steps | timeout


@dataclass(frozen=True)
class GuardFallthrough(EvalOutcome):
    point: tuple


def _canon(v):
    """Normalize to int when integral (ints and Fractions hash alike, so
    memo keys stay consistent either way)."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    return int(v)


class _NeedCall(Exception):
    """A recursive call whose value is not in the memo yet.  `steps` is
    the number of body nodes visited up to and including the call's
    arguments, except those inside Ite branches that finished before the
    call (the step accumulator holds those)."""

    def __init__(self, key: tuple, steps: int):
        self.key = key
        self.steps = steps


def _run(cases: tuple, point: tuple, limits: EvalLimits, memo: dict) -> EvalOutcome:
    """Evaluate one point against compiled cases: step, depth and time
    accounting against the limits, over a memo of completed values.  The
    memo maps argument tuples to values and holds nothing else, so a run
    that stops at a limit leaves only correct entries and the memo may be
    shared by later runs on the same recurrence.

    A body that needs a call missing from the memo pushes the call and is
    restarted, guards included, once the call's value is in the memo.  A
    step is one guard tried or one body node visited, including the nodes
    visited before a restart; Ite conditions count none."""
    max_depth, max_steps = limits.max_depth, limits.max_steps
    deadline = time.monotonic() + limits.timeout_ms / 1000.0
    steps = 0
    acc = [0]  # steps of finished Ite branches, added by the closures
    pending = [point]
    while pending:
        if len(pending) > max_depth:
            return LimitExceeded("depth")
        if steps + acc[0] > max_steps:
            return LimitExceeded("steps")
        if time.monotonic() > deadline:
            return LimitExceeded("timeout")
        top = pending[-1]
        if top in memo:
            pending.pop()
            continue
        for guard, body, size in cases:
            steps += 1
            if guard(top):
                break
        else:
            return GuardFallthrough(top)
        try:
            memo[top] = body(top, memo, acc)
        except _NeedCall as need:
            steps += need.steps
            pending.append(need.key)
        else:
            steps += size
            pending.pop()
    return Value(memo[point])


def _tuple_of(fs: list):
    """A closure evaluating each of `fs` into a tuple, in order (unrolled
    for the usual one or two arguments)."""
    if len(fs) == 1:
        f0, = fs
        return lambda a, m, acc: (f0(a, m, acc),)
    if len(fs) == 2:
        f0, f1 = fs
        return lambda a, m, acc: (f0(a, m, acc), f1(a, m, acc))
    return lambda a, m, acc: tuple([f(a, m, acc) for f in fs])


def _compile_cases(rdef: RecurrenceDef) -> tuple:
    """Each case as (guard, body, size).  `guard(a)` is the guard from
    `expr.compile_expr`; `body(a, memo, acc)` evaluates at the
    argument tuple `a` with the arithmetic of `expr.OPS`, operands left
    to right.  `size` is the number of body nodes a finished evaluation
    visits, each Ite counting as one.  The steps of the Ite branch taken
    are added to `acc[0]` when the branch finishes, and a call missing
    from `memo` raises `_NeedCall`."""
    index = {n: i for i, n in enumerate(rdef.arg_names)}

    def expr(e: Expr, pos: int) -> tuple:
        # (closure, size); `pos` is the number of body nodes visited
        # before `e`, finished Ite branches excepted
        t = type(e)
        if t is Const:
            v = e.value.numerator if e.value.denominator == 1 else e.value
            return (lambda a, m, acc: v), 1
        if t is Var:
            i = index[e.name]
            return (lambda a, m, acc: a[i]), 1
        if t is Call:
            if e.fname != rdef.name:
                name = e.fname

                def foreign(a, m, acc):
                    raise UnknownFunction(name)
                return foreign, 1
            fs, size = [], 1
            for arg in e.args:
                f, n = expr(arg, pos + size)
                fs.append(f)
                size += n
            visited = pos + size
            args = _tuple_of(fs)

            def call(a, m, acc):
                key = args(a, m, acc)
                try:
                    return m[key]
                except KeyError:
                    raise _NeedCall(key, visited) from None
            return call, size
        if t is Ite:
            test = compile_expr(e.cond, rdef.arg_names)
            then, n_then = expr(e.then, pos + 1)
            other, n_other = expr(e.other, pos + 1)

            def ite(a, m, acc):
                if test(a):
                    v = then(a, m, acc)
                    acc[0] += n_then
                else:
                    v = other(a, m, acc)
                    acc[0] += n_other
                return v
            return ite, 1
        op = OPS[t]
        kids = children(e)
        f, nf = expr(kids[0], pos + 1)
        if len(kids) == 1:
            return (lambda a, m, acc: op(f(a, m, acc))), 1 + nf
        g, ng = expr(kids[1], pos + 1 + nf)
        return (lambda a, m, acc: op(f(a, m, acc), g(a, m, acc))), 1 + nf + ng

    return tuple((compile_expr(case.guard, rdef.arg_names), *expr(case.body, 0))
                 for case in rdef.cases)


def eval_fun(rdef: RecurrenceDef, point: Sequence, limits: EvalLimits = EvalLimits(),
             memo: dict | None = None) -> EvalOutcome:
    """Evaluate the recurrence at a concrete input, memoized on argument
    tuples, within the given limits.

    `memo`, if given, is read and extended in place; pass the same dict
    to every call on one recurrence to share the values computed so far.
    The limits are per call: the step count starts at zero and the
    deadline at the call, and depth counts the calls pending on this
    point's own stack.  A point whose call chain is already partly in the
    memo can therefore finish where it would hit `max_depth` or
    `max_steps` alone; values never change."""
    key = tuple(_canon(x) for x in point)
    if len(key) != rdef.arity:
        raise ArityMismatch(f"{rdef.name} expects {rdef.arity} arguments, got {len(key)}")
    return _run(rdef._compiled, key, limits, {} if memo is None else memo)


def eval_closed_form(cf: ClosedForm, point: Sequence):
    """Evaluate the first matching piece of a closed form, exactly."""
    key = tuple(_canon(x) for x in point)
    if len(key) != len(cf.arg_names):
        raise ArityMismatch(f"closed form expects {len(cf.arg_names)} arguments, got {len(key)}")
    for guard, expr in cf.compiled_pieces:
        if guard(key):
            return expr(key)
    raise GuardFallthroughError(key)


def load_recurrence(path) -> RecurrenceDef:
    from .parser import parse_recurrence

    with open(path, "r", encoding="utf-8") as fh:
        return parse_recurrence(fh.read())
