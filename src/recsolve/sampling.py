"""Random input generation and training-set construction.

Inputs are integer tuples drawn uniformly (without replacement) from a
per-variable box, rejecting points that violate the precondition, which
is compiled once per call.  The training set pairs each surviving input's
recurrence value with the evaluated base-function dictionary, each base
function compiled once and applied to every kept input; values stay
exact rationals until the regression boundary.  All inputs of one
training set are evaluated against one shared memo, so neighbouring
points reuse each other's subcalls; the evaluation limits still apply to
each point on its own.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .expr import (
    Ceil, Const, Constraint, Div, Expr, ExprError, Floor, Log2Ceil, Max, Mul,
    Pow, Var, compile_expr, contains_calls, simplify, to_text,
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


@dataclass(frozen=True)
class BaseFunction:
    name: str
    expr: Expr


@dataclass(frozen=True)
class BaseFunctionSet:
    functions: tuple

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        seen = set()
        for f in self.functions:
            if contains_calls(f.expr):
                raise ValueError(f"base function {f.name} contains a call")
            canon = simplify(f.expr)
            if canon in seen:
                raise ValueError(f"duplicate base function {f.name}")
            seen.add(canon)

    def names(self) -> list:
        return [f.name for f in self.functions]

    def __len__(self):
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)


def _bf(expr: Expr) -> BaseFunction:
    return BaseFunction(to_text(expr), expr)


def _unary_family(v: Var) -> list:
    return [
        _bf(v),
        _bf(Pow(v, Const(Fraction(2)))),
        _bf(Pow(v, Const(Fraction(3)))),
        _bf(Log2Ceil(v)),
        _bf(Pow(Const(Fraction(2)), v)),
        _bf(Mul(v, Log2Ceil(v))),
    ]


def default_base_set(arity: int, arg_names: Sequence[str] | None = None) -> BaseFunctionSet:
    """Dictionary of candidate terms covering the common complexity orders.

    One argument: x, x^2, x^3, log2ceil(x), 2^x, x*log2ceil(x).
    Two arguments: both per-variable families plus the combination terms
    x*y, max(x, y), floor(x/y), ceil(x/y), x*log2ceil(y), y*log2ceil(x).
    There is no min(x, y): it equals x + y - max(x, y) everywhere, so it
    would add nothing to the span but a second spelling of x + y.
    Three or more: per-variable x, x^2, log2ceil(x), 2^x plus all pairwise
    products.  Built once per tuple of names (the set is frozen).
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if arg_names is None:
        arg_names = ["x", "y", "z"][:arity] if arity <= 3 else [f"x{i+1}" for i in range(arity)]
    if len(arg_names) != arity:
        raise ValueError("arg_names length must match arity")
    return _base_set(tuple(arg_names))


@lru_cache(maxsize=64)
def _base_set(arg_names: tuple) -> BaseFunctionSet:
    vs = [Var(n) for n in arg_names]
    if len(vs) == 1:
        return BaseFunctionSet(tuple(_unary_family(vs[0])))
    if len(vs) == 2:
        x, y = vs
        fns = _unary_family(x) + _unary_family(y) + [
            _bf(Mul(x, y)),
            _bf(Max(x, y)),
            _bf(Floor(Div(x, y))),
            _bf(Ceil(Div(x, y))),
            _bf(Mul(x, Log2Ceil(y))),
            _bf(Mul(y, Log2Ceil(x))),
        ]
        return BaseFunctionSet(tuple(fns))
    fns = []
    for v in vs:
        fns += [_bf(v), _bf(Pow(v, Const(Fraction(2)))), _bf(Log2Ceil(v)),
                _bf(Pow(Const(Fraction(2)), v))]
    for a, b in itertools.combinations(vs, 2):
        fns.append(_bf(Mul(a, b)))
    return BaseFunctionSet(tuple(fns))


@dataclass(frozen=True)
class SampleConfig:
    n_train: int = 100
    n_test: int = 30
    bounds: tuple = (0, 30)
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.bounds
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("sample counts must be positive")
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
    down proportionally; below 8 points it raises SamplingExhausted."""
    total = cfg.n_train + cfg.n_test
    points = sample_inputs(pre, arity, cfg, count=total, arg_names=arg_names)
    if len(points) < 8:
        raise SamplingExhausted(total, len(points))
    if len(points) >= total:
        return points[:cfg.n_train], points[cfg.n_train:total]
    n_test = max(1, min(cfg.n_test, len(points) // 4))
    return points[:len(points) - n_test], points[len(points) - n_test:]


@dataclass
class TrainingSet:
    """Rows of (recurrence value, base-function values) for surviving inputs."""
    inputs: list            # integer tuples, aligned with rows
    values: list            # exact recurrence outputs b
    columns: list           # surviving base-function names
    column_exprs: list      # their expressions
    features: list          # row-major exact feature values
    dropped_inputs: int = 0
    dropped_columns: list = field(default_factory=list)

    def __post_init__(self):
        width = len(self.columns)
        for row in self.features:
            if len(row) != width:
                raise ValueError("ragged training set")
        if len(self.inputs) != len(self.values) or len(self.inputs) != len(self.features):
            raise ValueError("misaligned training set")

    def __len__(self):
        return len(self.inputs)

    def to_arrays(self):
        import numpy as np

        x = np.array([[float(v) for v in row] for row in self.features], dtype=float)
        y = np.array([float(v) for v in self.values], dtype=float)
        return x.reshape(len(self.inputs), len(self.columns)), y


def build_training_set(rdef: RecurrenceDef, base_set: BaseFunctionSet,
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
    for f in base_set:
        try:
            col = list(map(compile_expr(f.expr, rdef.arg_names), kept))
        except ExprError:
            dropped_columns.append(f.name)
            continue
        columns.append(f.name)
        column_exprs.append(f.expr)
        feature_cols.append(col)
    rows = [[col[i] for col in feature_cols] for i in range(len(kept))]
    return TrainingSet(kept, values, columns, column_exprs, rows,
                       dropped_inputs=dropped, dropped_columns=dropped_columns)
