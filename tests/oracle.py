"""Test oracle: a naive recursive evaluator for recurrences.

It shares nothing with `recsolve.recurrence`'s memoized evaluator beyond
the expression types: recursion is direct, nothing is memoized, and the
operator arithmetic is written out here rather than taken from
`recsolve.expr.OPS`, so a fault in either evaluator shows as a
disagreement.
"""
import math
import sys
import threading
import time
from fractions import Fraction

from recsolve.expr import (
    Add, Call, Ceil, Const, Div, Floor, Ite, Max, Min, Mul, Pow, Sub, Var,
    children, eval_constraint, eval_expr,
)
from recsolve.recurrence import (
    EvalLimits, GuardFallthrough, LimitExceeded, UnknownFunction, Value,
)


def _apply(e, a, b=None):
    """The operator of node `e` on exact rationals."""
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    if isinstance(e, Div):
        return Fraction(a) / b
    if isinstance(e, Pow):
        if Fraction(b).denominator != 1:
            raise ValueError(f"non-integer exponent {b}")
        return Fraction(a) ** int(b)
    if isinstance(e, Max):
        return max(a, b)
    if isinstance(e, Min):
        return min(a, b)
    if isinstance(e, Floor):
        return math.floor(a)
    if isinstance(e, Ceil):
        return math.ceil(a)
    # Log2Ceil: the smallest k >= 0 with 2^k >= a
    return 0 if a <= 1 else (math.ceil(a) - 1).bit_length()


class _Limit(Exception):
    def __init__(self, which):
        self.which = which


class _Fallthrough(Exception):
    def __init__(self, point):
        self.point = point


def eval_fun_naive(rdef, point, limits=EvalLimits()):
    """Reference evaluator without memoization.  Recursion is direct, so
    keep the limits small."""
    deadline = time.monotonic() + limits.timeout_ms / 1000.0
    steps = [0]

    def ev_body(e, env, depth):
        steps[0] += 1
        if steps[0] > limits.max_steps:
            raise _Limit("steps")
        if isinstance(e, Call):
            if e.fname != rdef.name:
                raise UnknownFunction(e.fname)
            args = tuple(ev_body(a, env, depth) for a in e.args)
            return ev_call(args, depth + 1)
        if isinstance(e, Ite):
            branch = e.then if eval_constraint(e.cond, env) else e.other
            return ev_body(branch, env, depth)
        if isinstance(e, (Const, Var)):
            return eval_expr(e, env)
        kids = children(e)
        if len(kids) == 2:
            return _apply(e, ev_body(kids[0], env, depth), ev_body(kids[1], env, depth))
        return _apply(e, ev_body(kids[0], env, depth))

    def ev_call(args, depth):
        if depth > limits.max_depth:
            raise _Limit("depth")
        if time.monotonic() > deadline:
            raise _Limit("timeout")
        env = dict(zip(rdef.arg_names, args))
        for case in rdef.cases:
            if eval_constraint(case.guard, env):
                return ev_body(case.body, env, depth)
        raise _Fallthrough(args)

    def run():
        key = tuple(Fraction(x) for x in point)
        try:
            return Value(ev_call(key, 1))
        except _Limit as lim:
            return LimitExceeded(lim.which)
        except _Fallthrough as fall:
            return GuardFallthrough(fall.point)

    # direct recursion needs roughly ten Python frames per call level; give
    # the interpreter room to reach max_depth before Python's own limit
    return _run_with_deep_stack(run, limits.max_depth * 10 + 2000)


def _run_with_deep_stack(fn, frames):
    if frames <= sys.getrecursionlimit():
        return fn()
    box = {}

    def target():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(frames)
        try:
            box["out"] = fn()
        except BaseException as err:  # surfaced to the caller below
            box["err"] = err
        finally:
            sys.setrecursionlimit(old)

    old_stack = threading.stack_size()
    threading.stack_size(512 * 1024 * 1024)
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
    if "err" in box:
        raise box["err"]
    return box["out"]
