"""Random input generation and training-set construction.

Inputs are integer tuples drawn uniformly (without replacement) from a
per-variable box, rejecting points that violate the precondition, which
is compiled once per call; a solve asks for at least `MIN_POINTS` of
them.  The base-function dictionary (`default_base_set`) is a tuple of
call-free expressions over the argument names, and a column is named by
the expression's text.  The training set pairs each surviving input's
recurrence value with the evaluated dictionary, each base function
compiled once and applied to every kept input; values stay exact
(ints and Fractions) throughout.  All inputs of one training set
are evaluated against one shared memo, so neighbouring points reuse each
other's subcalls; the evaluation limits still apply to each point on its
own.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .expr import (
    Ceil, Const, Constraint, Div, Expr, ExprError, Floor, Log2Ceil, Max, Mul,
    Pow, Record, Var, compile_expr, to_text,
)
from .recurrence import EvalLimits, RecurrenceDef, Value, eval_fun


class SamplingError(Exception):
    reason = "guess-error"  # the verdict reason of a report this error ends


class SamplingExhausted(SamplingError):
    reason = "sampling-exhausted"

    def __init__(self, wanted: int, found: int):
        super().__init__(f"found only {found} of {wanted} distinct satisfying inputs")
        self.wanted = wanted
        self.found = found


class LikelyNonterminating(SamplingError):
    """More than half of the sampled inputs hit evaluation limits.  The
    inputs after the one that settled this were not evaluated, so `kept +
    dropped` may be less than `sampled`."""

    reason = "likely-nonterminating"

    def __init__(self, kept: int, dropped: int, sampled: int | None = None):
        evaluated = kept + dropped
        sampled = evaluated if sampled is None else sampled
        super().__init__(f"{dropped} of {evaluated} evaluated inputs hit limits"
                         f" ({sampled} sampled)")
        self.kept = kept
        self.dropped = dropped
        self.sampled = sampled


def _unary_family(v: Var) -> list:
    return [v, Pow(v, Const(Fraction(2))), Pow(v, Const(Fraction(3))),
            Log2Ceil(v), Pow(Const(Fraction(2)), v), Mul(v, Log2Ceil(v))]


@lru_cache(maxsize=64)
def default_base_set(arg_names: tuple) -> tuple:
    """Dictionary of candidate terms covering the common complexity orders,
    as call-free expressions over `arg_names`; a column is named by its
    `to_text`.

    One argument: x, x^2, x^3, log2ceil(x), 2^x, x*log2ceil(x).
    Two arguments: both per-variable families plus the combination terms
    x*y, max(x, y), floor(x/y), ceil(x/y), x*log2ceil(y), y*log2ceil(x).
    There is no min(x, y): it equals x + y - max(x, y) everywhere, so it
    would add nothing to the span but a second spelling of x + y.
    Three or more: per-variable x, x^2, log2ceil(x), 2^x plus all pairwise
    products.  Built once per tuple of names.
    """
    vs = [Var(n) for n in arg_names]
    if len(vs) == 1:
        return tuple(_unary_family(vs[0]))
    if len(vs) == 2:
        x, y = vs
        return tuple(_unary_family(x) + _unary_family(y) + [
            Mul(x, y), Max(x, y), Floor(Div(x, y)), Ceil(Div(x, y)),
            Mul(x, Log2Ceil(y)), Mul(y, Log2Ceil(x))])
    fns = []
    for v in vs:
        fns += [v, Pow(v, Const(Fraction(2))), Log2Ceil(v), Pow(Const(Fraction(2)), v)]
    fns += [Mul(a, b) for a, b in itertools.combinations(vs, 2)]
    return tuple(fns)


MIN_POINTS = 8  # fewer sampled inputs than this cannot be split and fitted


@dataclass(frozen=True)
class SampleConfig:
    n_train: int = 100
    n_test: int = 30
    bounds: tuple = (0, 30)
    seed: int = 0  # the solve's one seed: sampling and the CV split

    def __post_init__(self):
        lo, hi = self.bounds
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("sample counts must be positive")
        if self.n_train + self.n_test < MIN_POINTS:
            raise ValueError(f"sample counts must add up to at least {MIN_POINTS}")
        if lo > hi:
            raise ValueError("empty bounds")


_ENUMERATION_LIMIT = 200_000  # boxes up to this size are enumerated
_MAX_ATTEMPTS = 200_000       # draws of rejection sampling in a larger box


def sample_inputs(pre: Constraint, arity: int, cfg: SampleConfig, count: int,
                  arg_names: Sequence[str]) -> list:
    """Draw up to `count` distinct integer tuples within bounds satisfying
    `pre`, deterministically for a given seed.  Small boxes are enumerated
    and shuffled; large ones use rejection sampling capped at
    `_MAX_ATTEMPTS`, so fewer points come back when few satisfy `pre`."""
    satisfies = compile_expr(pre, arg_names)
    lo, hi = cfg.bounds
    rng = random.Random(cfg.seed)
    box = (hi - lo + 1) ** arity
    if box <= _ENUMERATION_LIMIT:
        points = list(filter(satisfies,
                             itertools.product(range(lo, hi + 1), repeat=arity)))
        rng.shuffle(points)
        return points[:count]
    found: list = []
    seen: set = set()
    for _ in range(_MAX_ATTEMPTS):
        p = tuple(rng.randint(lo, hi) for _ in range(arity))
        if p in seen:
            continue
        seen.add(p)
        if satisfies(p):
            found.append(p)
            if len(found) == count:
                return found
    return found


def sample_train_test(pre: Constraint, arity: int, cfg: SampleConfig,
                      arg_names: Sequence[str]) -> tuple:
    """Disjoint train/test inputs from one seeded stream.  When the
    satisfying set is smaller than the requested total, the split is scaled
    down proportionally; below `MIN_POINTS` it raises SamplingExhausted."""
    total = cfg.n_train + cfg.n_test
    points = sample_inputs(pre, arity, cfg, count=total, arg_names=arg_names)
    if len(points) < MIN_POINTS:
        raise SamplingExhausted(total, len(points))
    if len(points) >= total:
        return points[:cfg.n_train], points[cfg.n_train:total]
    n_test = max(1, min(cfg.n_test, len(points) // 4))
    return points[:len(points) - n_test], points[len(points) - n_test:]


class TrainingSet(Record):
    """Rows of (recurrence value, base-function values) for surviving inputs."""
    __slots__ = ("inputs",          # integer tuples, aligned with rows
                 "values",          # exact recurrence outputs b
                 "columns",         # surviving base-function names
                 "column_exprs",    # their expressions
                 "features",        # row-major exact feature values
                 "dropped_inputs",
                 "dropped_columns")

    def __init__(self, inputs: list, values: list, columns: list, column_exprs: list,
                 features: list, dropped_inputs: int = 0, dropped_columns: list | None = None):
        for row in features:
            if len(row) != len(columns):
                raise ValueError("ragged training set")
        if len(inputs) != len(values) or len(inputs) != len(features):
            raise ValueError("misaligned training set")
        self._set_fields(inputs, values, columns, column_exprs, features, dropped_inputs,
                         [] if dropped_columns is None else dropped_columns)


def build_training_set(rdef: RecurrenceDef, base_set: Sequence[Expr],
                       inputs: Sequence, limits: EvalLimits = EvalLimits()) -> TrainingSet:
    """Evaluate the recurrence and the dictionary on each input, the
    recurrence against one memo shared by all inputs.  Inputs whose
    evaluation exceeds limits are dropped; LikelyNonterminating is raised
    as soon as more than half of the inputs are dropped, without
    evaluating the rest, or when none is kept.  Base functions that are
    undefined somewhere on the kept inputs (e.g. x/y sampled at y=0) are
    dropped as columns and recorded."""
    kept: list = []
    values: list = []
    dropped = 0
    memo: dict = {}
    for p in inputs:
        outcome = eval_fun(rdef, p, limits, memo)
        if isinstance(outcome, Value):
            kept.append(tuple(p))
            values.append(outcome.value)
        else:
            dropped += 1
            if dropped > len(inputs) // 2:  # the majority is dropped already
                raise LikelyNonterminating(len(kept), dropped, len(inputs))
    if not kept:
        raise LikelyNonterminating(0, dropped, len(inputs))

    columns: list = []
    column_exprs: list = []
    feature_cols: list = []
    dropped_columns: list = []
    for expr in base_set:
        try:
            col = list(map(compile_expr(expr, rdef.arg_names), kept))
        except ExprError:
            dropped_columns.append(to_text(expr))
            continue
        columns.append(to_text(expr))
        column_exprs.append(expr)
        feature_cols.append(col)
    rows = [[col[i] for col in feature_cols] for i in range(len(kept))]
    return TrainingSet(kept, values, columns, column_exprs, rows,
                       dropped_inputs=dropped, dropped_columns=dropped_columns)
