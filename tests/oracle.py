"""Test oracle: naive recursive evaluators for expressions, constraints
and recurrences.

They share nothing with `recsolve.expr`'s compiler or
`recsolve.recurrence`'s memoized evaluator beyond the expression types
and error classes: each tree is walked node by node, recursion is direct,
nothing is memoized, and the operator arithmetic is written out here
rather than taken from `recsolve.expr.OPS`, so a fault in either side
shows as a disagreement.
"""
import math
import sys
import threading
import time
from fractions import Fraction

from recsolve.expr import (
    Add, And, BoolLit, Call, Ceil, Cmp, Const, Div, DivisionByZero, ExprError,
    Floor, Ite, Max, Min, Mul, Not, Or, Pow, Sub, UnboundVariable,
    UnexpandedCall, Var, children,
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


def _apply_exact(e, *operands):
    """`_apply`, with its arithmetic errors raised as recsolve's."""
    try:
        return _apply(e, *operands)
    except ZeroDivisionError:
        raise DivisionByZero(f"{operands}") from None
    except ValueError as err:
        raise ExprError(str(err)) from None


def eval_expr_naive(e, env):
    """Value of call-free `e` under the mapping `env`, node by node."""
    if isinstance(e, Const):
        v = e.value
        return v.numerator if v.denominator == 1 else v
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, Call):
        raise UnexpandedCall(e.fname)
    if isinstance(e, Ite):
        return eval_expr_naive(e.then if eval_constraint_naive(e.cond, env) else e.other, env)
    return _apply_exact(e, *(eval_expr_naive(k, env) for k in children(e)))


def eval_constraint_naive(c, env):
    if isinstance(c, BoolLit):
        return c.value
    if isinstance(c, Cmp):
        a, b = eval_expr_naive(c.lhs, env), eval_expr_naive(c.rhs, env)
        return {"=": a == b, "!=": a != b, "<": a < b, "<=": a <= b,
                ">": a > b, ">=": a >= b}[c.op]
    if isinstance(c, And):
        return eval_constraint_naive(c.lhs, env) and eval_constraint_naive(c.rhs, env)
    if isinstance(c, Or):
        return eval_constraint_naive(c.lhs, env) or eval_constraint_naive(c.rhs, env)
    if isinstance(c, Not):
        return not eval_constraint_naive(c.arg, env)
    raise TypeError(f"unknown constraint node {c!r}")


class _Limit(Exception):
    def __init__(self, which):
        self.which = which


class _Fallthrough(Exception):
    def __init__(self, point):
        self.point = point


# The oracle's own default budget: its steps are body nodes visited, not
# the evaluator's body evaluations, so it keeps a budget of its own
NAIVE_LIMITS = EvalLimits(max_steps=1_000_000)


def eval_fun_naive(rdef, point, limits=NAIVE_LIMITS):
    """Reference evaluator without memoization.  Recursion is direct, so
    keep the limits small.  A step is one body node visited."""
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
            branch = e.then if eval_constraint_naive(e.cond, env) else e.other
            return ev_body(branch, env, depth)
        if isinstance(e, (Const, Var)):
            return eval_expr_naive(e, env)
        kids = children(e)
        if len(kids) == 2:
            return _apply_exact(e, ev_body(kids[0], env, depth), ev_body(kids[1], env, depth))
        return _apply_exact(e, ev_body(kids[0], env, depth))

    def ev_call(args, depth):
        if depth > limits.max_depth:
            raise _Limit("depth")
        if time.monotonic() > deadline:
            raise _Limit("timeout")
        env = dict(zip(rdef.arg_names, args))
        for case in rdef.cases:
            if eval_constraint_naive(case.guard, env):
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
