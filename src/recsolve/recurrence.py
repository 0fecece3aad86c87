"""Recurrence definitions and their deterministic evaluation semantics.

Evaluation follows the first-matching-guard order of the cases (a nested
if-then-else).  The evaluator is iterative with memoization on concrete
argument tuples, so deeply recursive or non-terminating definitions hit
the configured limits instead of exhausting the Python stack.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .expr import (
    OPS, Call, ClosedForm, Constraint, Expr, Ite, Not, children, conj,
    constraint_free_vars, constraint_to_text, contains_calls, disj,
    eval_constraint, eval_expr, free_vars, map_children, nodes, to_text,
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
            loose = (free_vars(case.body) | constraint_free_vars(case.guard)) - declared
            if loose:
                raise RecurrenceError(
                    f"case {i + 1} uses variables {sorted(loose)} that are not arguments")
            _check_call_arities(case.body, arities)
        loose = constraint_free_vars(self.precondition) - declared
        if loose:
            raise RecurrenceError(f"precondition uses non-argument variables {sorted(loose)}")
        if not rec:
            raise RecurrenceError("no case contains a recursive call")
        if not closed:
            raise RecurrenceError("no case is in closed form")

    def recursive_cases(self) -> list:
        return [c for c in self.cases if contains_calls(c.body, self.name)]

    def base_cases(self) -> list:
        return [c for c in self.cases if not contains_calls(c.body, self.name)]

    def recursive_region(self) -> Constraint:
        """Precondition restricted by the negations of the base-case guards."""
        return conj([self.precondition]
                    + [Not(c.guard) for c in self.base_cases()])

    def guard_disjunction(self) -> Constraint:
        return disj([c.guard for c in self.cases])

    def to_text(self) -> str:
        head = f"def {self.name}({', '.join(self.arg_names)});"
        pre = f"pre {constraint_to_text(self.precondition)};"
        cases = [f"{self.name}({', '.join(self.arg_names)}) = {to_text(c.body)}"
                 f" if {constraint_to_text(c.guard)};" for c in self.cases]
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
    def __init__(self, args: tuple):
        self.args_tuple = args


class _Fallthrough(Exception):
    def __init__(self, point: tuple):
        self.point = point


class _Evaluator:
    """Single-use evaluation context: memo table plus step accounting."""

    def __init__(self, rdef: RecurrenceDef, limits: EvalLimits):
        self.rdef = rdef
        self.limits = limits
        self.memo: dict = {}
        self.steps = 0
        self.deadline = time.monotonic() + limits.timeout_ms / 1000.0

    def run(self, point: tuple) -> EvalOutcome:
        pending = [point]
        while pending:
            if len(pending) > self.limits.max_depth:
                return LimitExceeded("depth")
            if self.steps > self.limits.max_steps:
                return LimitExceeded("steps")
            if time.monotonic() > self.deadline:
                return LimitExceeded("timeout")
            top = pending[-1]
            if top in self.memo:
                pending.pop()
                continue
            try:
                self.memo[top] = self._eval_call_once(top)
                pending.pop()
            except _NeedCall as need:
                pending.append(need.args_tuple)
            except _Fallthrough as fall:
                return GuardFallthrough(fall.point)
        return Value(self.memo[point])

    def _eval_call_once(self, args: tuple) -> Fraction:
        env = dict(zip(self.rdef.arg_names, args))
        for case in self.rdef.cases:
            self.steps += 1
            if eval_constraint(case.guard, env):
                return self._eval_body(case.body, env)
        raise _Fallthrough(args)

    def _eval_body(self, e: Expr, env: dict) -> Fraction:
        self.steps += 1
        t = type(e)
        if t is Call:
            if e.fname != self.rdef.name:
                raise UnknownFunction(e.fname)
            key = tuple(self._eval_body(a, env) for a in e.args)
            try:
                return self.memo[key]
            except KeyError:
                raise _NeedCall(key) from None
        if t is Ite:
            # guard constraints are call-free, so direct evaluation is safe
            branch = e.then if eval_constraint(e.cond, env) else e.other
            return self._eval_body(branch, env)
        op = OPS.get(t)
        if op is None:
            return eval_expr(e, env)  # a leaf
        kids = children(e)
        if len(kids) == 2:
            return op(self._eval_body(kids[0], env), self._eval_body(kids[1], env))
        return op(self._eval_body(kids[0], env))


def eval_fun(rdef: RecurrenceDef, point: Sequence, limits: EvalLimits = EvalLimits()) -> EvalOutcome:
    """Evaluate the recurrence at a concrete input, memoized on argument
    tuples, within the given limits."""
    key = tuple(_canon(x) for x in point)
    if len(key) != rdef.arity:
        raise ArityMismatch(f"{rdef.name} expects {rdef.arity} arguments, got {len(key)}")
    return _Evaluator(rdef, limits).run(key)


def eval_closed_form(cf: ClosedForm, point: Sequence):
    """Evaluate the first matching piece of a closed form, exactly."""
    key = tuple(_canon(x) for x in point)
    if len(key) != len(cf.arg_names):
        raise ArityMismatch(f"closed form expects {len(cf.arg_names)} arguments, got {len(key)}")
    env = dict(zip(cf.arg_names, key))
    for piece in cf.pieces:
        if eval_constraint(piece.guard, env):
            return eval_expr(piece.expr, env)
    raise GuardFallthroughError(key)


def load_recurrence(path) -> RecurrenceDef:
    from .parser import parse_recurrence

    with open(path, "r", encoding="utf-8") as fh:
        return parse_recurrence(fh.read())
