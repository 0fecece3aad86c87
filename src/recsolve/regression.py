"""The guess stage: sparse linear regression over the base-function
dictionary, followed by coefficient rationalization.

The pipeline is one fixed recipe: Lasso with a penalty chosen by
`FOLDS`-fold cross-validation, pruning of terms whose coefficient is
below `EPSILON`, an exact least-squares refit on the survivors, and
rationalization of the refit coefficients to denominators of at most
`MAX_DENOMINATOR` so the verification stage can reason over integers.
Only the penalty grid is configurable (`RegressionConfig.lambdas`).  The
Lasso starts from exact moments of the exact training rows; each mean,
variance and covariance is rounded once from them to a float, and the
path runs in floating point.  The refit and its R^2 are computed over the rationals.

The Lasso objective, on features standardized to zero mean and unit
variance with an unpenalized intercept, is

    (1 / 2n) * sum_i (y_i - b0 - sum_j x_ij b_j)^2 + lambda * sum_j |b_j|

solved exactly along its piecewise-linear path in lambda by the LARS
homotopy.  With this scaling the all-zero solution is optimal exactly when
lambda >= max_j |<x_j, y - mean(y)>| / n, the path's first knot.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index, mul
from typing import Sequence

from .expr import (
    Add, ClosedForm, Const, Expr, Mul, Not, Piece, Record, compile_expr,
    conj, simplify,
)
from .recurrence import EvalLimits, RecurrenceDef
from .sampling import (
    LikelyNonterminating, SampleConfig, build_training_set, default_base_set,
    sample_train_test,
)

FOLDS = 2              # cross-validation folds
EPSILON = 0.05         # pruning threshold on |Lasso coefficient|
MAX_DENOMINATOR = 64   # largest denominator a rationalized coefficient keeps


class RegressionError(Exception):
    reason = "guess-error"  # the verdict reason of a report this error ends


class DegenerateDesign(RegressionError):
    reason = "degenerate-design"


def lambda_grid(count: int = 100, lo: float = 0.001, hi: float = 1.0) -> tuple:
    if count < 1 or lo <= 0 or hi < lo:
        raise ValueError("bad lambda grid")
    if count == 1:
        return (lo,)
    return tuple(lo + (hi - lo) * i / (count - 1) for i in range(count))


@dataclass(frozen=True)
class RegressionConfig:
    lambdas: tuple = field(default_factory=lambda_grid)

    def __post_init__(self):
        if not self.lambdas or any(l <= 0 for l in self.lambdas):
            raise ValueError("lambda grid must be non-empty and positive")


class FitResult(Record):
    __slots__ = ("coefficients",     # exact rationals, aligned with surviving_names
                 "intercept",
                 "surviving_names",
                 "score",            # R^2 on the held-out test set, clamped to [0, 1]
                 "raw_score",
                 "selected_lambda",
                 "rationalization_delta")


# ---------------------------------------------------------------------------
# Lasso by the LARS homotopy, from exact moments
# ---------------------------------------------------------------------------

def _moments(x: Sequence, y: Sequence) -> tuple:
    """(n, sums, cross-products) of the columns of x and then y, exact (floats
    are read exactly); the moments of disjoint rows add up (`_total`)."""
    cols = [col if set(map(type, col)) <= {int, Fraction} else list(map(_exact, col))
            for col in (*zip(*x), y)]
    cross = [[0] * len(cols) for _ in cols]
    for j, a in enumerate(cols):
        for k in range(j, len(cols)):
            cross[j][k] = cross[k][j] = sum(map(mul, a, cols[k]))
    return len(y), [sum(col) for col in cols], cross


def _total(parts: Sequence) -> tuple:
    ns, sums, crosses = zip(*parts)
    return (sum(ns), list(map(sum, zip(*sums))),
            [list(map(sum, zip(*rows))) for rows in zip(*crosses)])


def _path(moments: tuple, lam_min: float) -> tuple:
    """The standardized problem's Lasso path down to lam_min: (kept columns,
    their means and standard deviations, mean of y, knots), each mean,
    variance and covariance rounded once from the exact moments.  A column is left out when it is
    constant (n * sum(x^2) == sum(x)^2, decided exactly) or its variance
    overflows a float."""
    n, s, g = moments
    nn, y = n * n, len(s) - 1
    keep, std = [], []
    for j in range(y):
        try:  # int/int division rounds correctly, and raises on overflow
            var = float((n * g[j][j] - s[j] * s[j]) / nn)
        except OverflowError:
            continue
        if var > 0:
            keep.append(j)
            std.append(math.sqrt(var))
    # covariance / (sj * sk): a Fraction covariance is rounded to a float first
    corr = [[(n * g[j][k] - s[j] * s[k]) / nn / (sj * sk) for k, sk in zip(keep, std)]
            for j, sj in zip(keep, std)]
    b = [(n * g[j][y] - s[j] * s[y]) / nn / sj for j, sj in zip(keep, std)]
    return (keep, [float(s[j] / n) for j in keep], std, float(s[y] / n),
            _lars_knots(corr, b, lam_min))


def _lars_knots(corr: list, b: list, lam_min: float) -> list:
    """Knots of the Lasso path on the standardized problem, expressed
    through corr = Xs'Xs/n and b = Xs'yc/n: a list of (lambda, beta) from
    lambda_max = max|b| down to lam_min.  Between two knots the solution is
    linear in lambda (Efron, Hastie, Johnstone and Tibshirani, 2004, with
    the Lasso modification that drops a coefficient when it crosses zero).

    Along the path every active coefficient j keeps its correlation
    c_j = b_j - corr_j beta at sign(beta_j) * lambda, and every inactive one
    stays within [-lambda, lambda] (the KKT conditions); one that is a
    combination of the active ones moves at a rate of +-1 and never joins."""
    q = len(b)
    beta, c = [0.0] * q, b
    lam = max(map(abs, c), default=0.0)
    knots = [(lam, beta[:])]
    if lam <= lam_min:
        return knots
    active = [max(range(q), key=lambda j: abs(c[j]))]
    for _ in range(20 * q + 20):
        sub = [[row[k] for k in active] for row in corr]  # the active columns
        direction = _solve([sub[k] for k in active], [math.copysign(1.0, c[k]) for k in active])
        rate = [sum(map(mul, row, direction)) for row in sub]  # d c / d(decrease of lambda)
        step, event = lam - lam_min, None
        for j in range(q):
            if j in active:
                continue
            # a column just dropped moves inwards on its old side (the
            # denominator there is negative), so it is not re-added at once
            for num, den in ((lam - c[j], 1.0 - rate[j]), (lam + c[j], 1.0 + rate[j])):
                if den > 1e-12:
                    g = num / den
                    if 0.0 < g < step:
                        step, event = g, (j, False)
        for k, j in enumerate(active):
            if beta[j] * direction[k] < 0.0:
                g = -beta[j] / direction[k]
                if 0.0 < g < step:
                    step, event = g, (j, True)
        for k, d in zip(active, direction):
            beta[k] += step * d
        # afresh, so that rounding does not accumulate
        beta_a = [beta[k] for k in active]
        c = [bj - sum(map(mul, row, beta_a)) for bj, row in zip(b, sub)]
        lam -= step
        if event is None:
            knots.append((lam_min, beta[:]))
            return knots
        j, drop = event
        if drop:
            beta[j] = 0.0
            active.remove(j)
        else:
            active.append(j)
        knots.append((lam, beta[:]))
    raise RegressionError("Lasso path did not reach the requested lambda")


def _at(knots: list, lam: float) -> list:
    """A path's vector at lam, read off its knots, a list of (lambda,
    vector), by linear interpolation between the two that bracket lam."""
    if lam >= knots[0][0]:
        return knots[0][1]
    for (hi, v_hi), (lo, v_lo) in zip(knots, knots[1:]):
        if lam >= lo:
            if hi == lo:
                return v_lo
            t = (lam - lo) / (hi - lo)
            return [a + t * (b - a) for a, b in zip(v_lo, v_hi)]
    return knots[-1][1]


def _solution(moments: tuple, lam: float) -> tuple:
    """(beta, intercept, kept columns) at lam, on the original scale."""
    keep, mean, std, y_mean, knots = _path(moments, lam)
    beta = [0.0] * (len(moments[1]) - 1)
    for j, bj, sj in zip(keep, _at(knots, lam), std):
        beta[j] = bj / sj
    return beta, y_mean - sum(beta[j] * m for j, m in zip(keep, mean)), keep


def lasso_fit(x: Sequence, y: Sequence, lam: float):
    """Minimize the penalized least-squares objective at one lambda.

    Returns (beta, intercept, dropped) on the original feature scale;
    `dropped` lists the indices of the columns left out of the path."""
    if len(y) < 2:
        raise DegenerateDesign("need at least two rows")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    beta, intercept, keep = _solution(_moments(x, y), lam)
    return beta, intercept, [j for j in range(len(beta)) if j not in keep]


def lambda_max(x: Sequence, y: Sequence) -> float:
    """Smallest penalty at which the Lasso solution is identically zero:
    the path's first knot."""
    return _path(_moments(x, y), math.inf)[4][0][0]


def cv_lasso_regression(x: Sequence, y: Sequence, lambdas: Sequence[float],
                        cv_seed: int = 0):
    """Select lambda by `FOLDS`-fold cross-validation on mean squared
    validation error (ties broken towards the larger lambda), then refit on
    all rows.  Each fold's moments are taken once: a fold is fitted on the
    sum of the others' and the refit on the sum of all.

    Returns (beta, intercept, selected_lambda)."""
    n = len(y)
    if n < FOLDS:
        raise DegenerateDesign(f"{n} rows cannot be split into {FOLDS} folds")
    order = list(range(n))
    random.Random(cv_seed).shuffle(order)
    folds = [sorted(order[f::FOLDS]) for f in range(FOLDS)]
    parts = [_moments([x[i] for i in rows], [y[i] for i in rows]) for rows in folds]
    grid = sorted(set(lambdas))
    cv_err = [0.0] * len(grid)
    for f, rows in enumerate(folds):
        keep, mean, std, y_mean, knots = _path(_total(parts[:f] + parts[f + 1:]), grid[0])
        # the validation residuals at each knot, over its nonzero
        # coefficients; between knots they are linear in lambda too
        cols = [[(float(x[i][j]) - m) / sj for i in rows] for j, m, sj in zip(keep, mean, std)]
        yc = [float(y[i]) - y_mean for i in rows]
        resid = []
        for lam, beta in knots:
            r = yc
            for col, bj in zip(cols, beta):
                if bj:
                    r = [a - bj * v for a, v in zip(r, col)]
            resid.append((lam, r))
        for k, lam in enumerate(grid):
            cv_err[k] += sum(v * v for v in _at(resid, lam)) / len(rows)
    best_lam, best_err = None, math.inf
    for lam, err in zip(grid, cv_err):  # ascending: ties go to the larger lambda
        if err <= best_err:
            best_err, best_lam = err, lam
    beta, b0, _ = _solution(_total(parts), best_lam)
    return beta, b0, best_lam


def remove_terms(names: Sequence[str], beta: Sequence[float]):
    """Drop base functions whose |coefficient| < `EPSILON`.

    Returns (surviving indices, their names); both are empty when every
    term is pruned, and the candidate is then a constant."""
    if len(names) != len(beta):
        raise ValueError("coefficient vector does not match the term list")
    keep = [j for j in range(len(beta)) if abs(beta[j]) >= EPSILON]
    return keep, [names[j] for j in keep]


def _exact(v):
    """`v` as an int or a Fraction.  An integer of another type, such as
    numpy's int64, becomes an int, whose arithmetic cannot wrap."""
    if isinstance(v, (int, Fraction)):
        return v
    try:
        return index(v)
    except TypeError:
        return Fraction(v)


def _solve(a: list, rhs: list) -> list:
    """Solve a w = rhs by Gauss-Jordan elimination in the arithmetic of the
    entries: floats on the Lasso path, Fractions in the exact refit.  A zero
    pivot means a column of a is a combination of the ones before it, and
    raises DegenerateDesign."""
    m = len(a)
    rows = [list(r) + [v] for r, v in zip(a, rhs)]
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if piv is None:
            raise DegenerateDesign(f"column {col} depends on the ones before it")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = top = [v / p for v in rows[col]]
        for r in range(m):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [a - f * b for a, b in zip(rows[r], top)]
    return [row[m] for row in rows]


def linear_regression(x_train: Sequence, y_train: Sequence,
                      x_test: Sequence, y_test: Sequence):
    """Exact least squares with an intercept: the normal equations solved
    over the rationals.  Rows are sequences of ints, Fractions or floats;
    floats are read exactly.  The score is R^2 on the held-out test rows,
    clamped to [0, 1] (raw value also returned)."""
    n = len(x_train)
    p = len(x_train[0]) if n else 0
    if n <= p:
        raise DegenerateDesign(f"{n} rows for {p} surviving columns")
    # the normal equations from the moments, column 0 being the intercept
    g = _moments([(1, *row) for row in x_train], y_train)[2]
    w = _solve([[Fraction(v) for v in row[:-1]] for row in g[:-1]], [row[-1] for row in g[:-1]])
    intercept, beta = w[0], w[1:]

    y_test = [_exact(v) for v in y_test]
    pred = [intercept + sum(map(mul, beta, map(_exact, row))) for row in x_test]
    ss_res = sum((a - b) ** 2 for a, b in zip(y_test, pred))
    mean = Fraction(sum(y_test), len(y_test))
    ss_tot = sum((v - mean) ** 2 for v in y_test)
    if ss_tot == 0:
        raw = 1.0 if ss_res == 0 else 0.0
    else:
        raw = float(1 - Fraction(ss_res, ss_tot))
    return beta, intercept, min(max(raw, 0.0), 1.0), raw


def rationalize(beta: Sequence, intercept: Fraction | float):
    """Snap coefficients to the nearest rationals with denominator at most
    `MAX_DENOMINATOR`.

    Returns (rational coefficients, rational intercept, max rounding delta)."""
    exact = [Fraction(b) for b in (*beta, intercept)]
    snapped = [b.limit_denominator(MAX_DENOMINATOR) for b in exact]
    delta = max(abs(r - b) for r, b in zip(snapped, exact))
    return snapped[:-1], snapped[-1], float(delta)


# ---------------------------------------------------------------------------
# End-to-end guess
# ---------------------------------------------------------------------------

class GuessResult(Record):
    __slots__ = ("closed_form",
                 "fit",
                 "exact_fit",        # rationalized candidate reproduces the test set exactly
                 "train_rows",
                 "test_rows",
                 "dropped_inputs",
                 "dropped_columns")


def assemble_candidate(coefficients: Sequence[Fraction], intercept: Fraction,
                       exprs: Sequence[Expr]) -> Expr:
    out: Expr = Const(intercept)
    for coef, term in zip(coefficients, exprs):
        if coef == 0:
            continue
        out = Add(out, Mul(Const(coef), term))
    return simplify(out)


def guess(rdef: RecurrenceDef, reg_cfg: RegressionConfig, sample_cfg: SampleConfig,
          limits: EvalLimits = EvalLimits()) -> GuessResult:
    """Run the full guess stage, over the default dictionary of the
    recurrence's arguments, on points sampled from its recursive region and
    assemble a piecewise candidate: the fitted expression where no base
    guard holds, then the non-recursive cases copied verbatim.  The
    precondition is the closed form's own and is not repeated in the
    guard."""
    train_pts, test_pts = sample_train_test(rdef.recursive_region(), rdef.arity,
                                            sample_cfg, arg_names=rdef.arg_names)
    ts = build_training_set(rdef, default_base_set(rdef.arg_names),
                            list(train_pts) + list(test_pts), limits)
    train_set, test_set = set(train_pts), set(test_pts)
    train_idx = [i for i, p in enumerate(ts.inputs) if p in train_set]
    test_idx = [i for i, p in enumerate(ts.inputs) if p in test_set]
    if len(train_idx) < FOLDS or not test_idx:
        raise LikelyNonterminating(len(ts.inputs), ts.dropped_inputs)

    y_train = [ts.values[i] for i in train_idx]
    beta_cv, _, lam = cv_lasso_regression(
        [ts.features[i] for i in train_idx], y_train, reg_cfg.lambdas, sample_cfg.seed)
    keep, kept_names = remove_terms(ts.columns, beta_cv)

    def rows(idx):
        return [[ts.features[i][j] for j in keep] for i in idx]

    beta, intercept, score, raw = linear_regression(
        rows(train_idx), y_train, rows(test_idx), [ts.values[i] for i in test_idx])
    coefs, b0, delta = rationalize(beta, intercept)

    kept_exprs = [ts.column_exprs[j] for j in keep]
    candidate = assemble_candidate(coefs, b0, kept_exprs)

    exact = _rescore_exact(candidate, rdef.arg_names,
                           [ts.inputs[i] for i in test_idx],
                           [ts.values[i] for i in test_idx])
    base = rdef.base_cases()
    pieces = [Piece(candidate, conj([Not(c.guard) for c in base]))]
    pieces += [Piece(c.body, c.guard) for c in base]
    cf = ClosedForm(rdef.arg_names, rdef.precondition, tuple(pieces))
    fit = FitResult(coefs, b0, kept_names, score, raw, lam, delta)
    return GuessResult(cf, fit, exact, len(train_idx), len(test_idx),
                       ts.dropped_inputs, ts.dropped_columns)


def _rescore_exact(candidate: Expr, arg_names: Sequence[str],
                   inputs: Sequence, values: Sequence) -> bool:
    value = compile_expr(candidate, arg_names)
    return all(value(point) == expected for point, expected in zip(inputs, values))
