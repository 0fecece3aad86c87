"""Recurrence definitions and their deterministic evaluation semantics.

Evaluation follows the first-matching-guard order of the cases (a nested
if-then-else).  On the first `eval_fun` call on a definition, its cases
are generated as the Python source of one `step` generator by the
compiler of every expression (`expr.Emitter`), which tries the guards in
order and evaluates the first matching body inline; the definition keeps
the function.  The source holds no constant and no name of the
definition, so a definition parsed again, or one that differs only in
constants, reuses its cached code; each binds its own constants.
The evaluator is iterative with memoization on concrete argument tuples,
so deeply recursive or non-terminating definitions hit the configured
limits instead of exhausting the Python stack: a body that reaches a
call missing from the memo yields the call's key and is suspended until
that call's value is sent back.  A step is one body begun, so one point
memoized, and only the evaluator's loop (`_run`) counts them.  A caller that
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
    _COND, Call, ClosedForm, Constraint, Emitter, Expr, Not, Record, conj,
    contains_calls, disj, free_vars, map_children, nodes, to_text,
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


class Case(Record):
    __slots__ = ("body", "guard")


class RecurrenceDef(Record):
    __slots__ = ("name", "arg_names", "precondition", "cases", "__dict__")

    def __init__(self, name, arg_names, precondition, cases):
        self._set_fields(name, tuple(arg_names), precondition, tuple(cases))
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
    def _compiled(self) -> Callable:
        """The step function of `eval_fun`, generated on its first call."""
        return _StepWriter(self).step()

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
    if not entails(rdef.precondition, disj([c.guard for c in rdef.cases])):
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
    max_steps: int = 100_000
    timeout_ms: int = 5_000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_steps <= 0 or self.timeout_ms <= 0:
            raise ValueError("evaluation limits must be strictly positive")


class EvalOutcome(Record):
    __slots__ = ()


class Value(EvalOutcome):
    __slots__ = ("value",)


class LimitExceeded(EvalOutcome):
    __slots__ = ("limit",)  # depth | steps | timeout


class GuardFallthrough(EvalOutcome):
    __slots__ = ("point",)


def _canon(v):
    """Normalize to int when integral (ints and Fractions hash alike, so
    memo keys stay consistent either way)."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    return int(v)


def _run(step: Callable, point: tuple, limits: EvalLimits, memo: dict) -> EvalOutcome:
    """Evaluate one point with a definition's `step` generator: step,
    depth and time accounting against the limits, over a memo of
    completed values.  The memo maps argument tuples to values and holds
    nothing else, so a run that stops at a limit leaves only correct
    entries and the memo may be shared by later runs on the same
    recurrence.

    `body` is the innermost pending call and `below` holds the suspended
    bodies of the others, so Python does not recurse.  A body that reaches
    a call missing from the memo yields its key and is suspended while
    that call's body runs; a returned value is memoized and sent to the
    body below, which resumes where it stopped.  So each body is evaluated
    once: a step, one body begun, is one point memoized.  Depth counts the
    bodies pending, and the clock is read once per begin or resume."""
    if point in memo:
        return Value(memo[point])
    max_depth, max_steps = limits.max_depth, limits.max_steps
    clock = time.monotonic
    deadline = clock() + limits.timeout_ms / 1000.0
    steps, key, body, below, value = 1, point, step(point, memo), [], None
    while True:
        if clock() > deadline:
            return LimitExceeded("timeout")
        try:
            need = body.send(value)
        except StopIteration as done:
            value = done.value
            if value is None:
                return GuardFallthrough(key)
            memo[key] = value
            if not below:
                return Value(value)
            key, body = below.pop()
            continue
        below.append((key, body))
        if len(below) >= max_depth:
            return LimitExceeded("depth")
        if steps >= max_steps:
            return LimitExceeded("steps")
        steps += 1
        key, body, value = need, step(need, memo), None


# ---------------------------------------------------------------------------
# Compilation: one generated `step` function per definition
# ---------------------------------------------------------------------------

class _StepWriter(Emitter):
    """Writes the `step(a, m)` generator of a definition: it returns the
    value of the body of the first case whose guard holds, or None.  A
    call missing from the memo `m` yields its key and reads the value
    sent back."""

    def __init__(self, rdef: RecurrenceDef):
        super().__init__(rdef.arg_names)
        self.name, self.cases = rdef.name, rdef.cases

    def call(self, e: Call) -> tuple:
        if e.fname != self.name:
            return self.raising(UnknownFunction, e.fname)
        key = "".join(self.operand(arg) + ", " for arg in e.args)
        return f"m[k] if (k := ({key})) in m else (yield k)", _COND

    def step(self) -> Callable:
        lines = []
        for case in self.cases:
            lines += [f"    if {self.operand(case.guard)}:",
                      f"        return {self.operand(case.body)}"]
        return self.function("a, m", lines)


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
