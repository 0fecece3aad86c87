"""The guess stage: sparse linear regression over the base-function
dictionary, followed by coefficient rationalization.

The pipeline is Lasso with a cross-validated penalty, epsilon-pruning of
weak terms, an exact least-squares refit on the survivors, and
rationalization of the refit coefficients to bounded denominators so the
verification stage can reason over integers.  Only the Lasso, which picks
the support, runs in floating point; the refit and its R^2 are computed
over the rationals on the exact training rows.

The Lasso objective, on features standardized to zero mean and unit
variance with an unpenalized intercept, is

    (1 / 2n) * sum_i (y_i - b0 - sum_j x_ij b_j)^2 + lambda * sum_j |b_j|

solved exactly along its piecewise-linear path in lambda by the LARS
homotopy.  With this scaling the all-zero solution is optimal exactly when
lambda >= max_j |<x_j, y - mean(y)>| / n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .expr import (
    Add, ClosedForm, Const, Expr, Mul, Not, Piece, compile_expr, conj,
    simplify,
)
from .recurrence import EvalLimits, RecurrenceDef
from .sampling import (
    BaseFunctionSet, LikelyNonterminating, SampleConfig, build_training_set,
    sample_train_test,
)


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
    folds: int = 2
    epsilon: float = 0.05
    max_denominator: int = 64
    cv_seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("k-fold cross-validation needs k >= 2")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not self.lambdas or any(l <= 0 for l in self.lambdas):
            raise ValueError("lambda grid must be non-empty and positive")
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be at least 1")


@dataclass
class FitResult:
    coefficients: list        # exact rationals, aligned with surviving_names
    intercept: Fraction
    surviving_names: list
    score: float              # R^2 on the held-out test set, clamped to [0, 1]
    raw_score: float
    selected_lambda: float
    rationalization_delta: float


# ---------------------------------------------------------------------------
# Lasso by the LARS homotopy
# ---------------------------------------------------------------------------

# A column whose standardized residual variance, after projection on the
# active columns, falls below this is treated as linearly dependent on
# them on the rows at hand (max(x, y) equals x on every row of a region
# such as x >= y).
_DEPENDENT = 1e-10


def _standardize(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    keep = np.where(std > 0)[0]
    xs = (x[:, keep] - mean[keep]) / std[keep]
    return xs, mean, std, keep


def _lars_knots(corr: np.ndarray, b: np.ndarray, lam_min: float) -> list:
    """Knots of the Lasso path on the standardized problem, expressed
    through corr = Xs'Xs/n and b = Xs'yc/n: a list of (lambda, beta) from
    lambda_max = max|b| down to lam_min.  Between two knots the solution is linear
    in lambda (Efron, Hastie, Johnstone and Tibshirani, 2004, with the
    Lasso modification that drops a coefficient when it crosses zero).

    Along the path every active coefficient j keeps its correlation
    c_j = b_j - corr_j beta at sign(beta_j) * lambda, and every inactive one
    stays within [-lambda, lambda]; these are the KKT conditions.  A column
    that would join while linearly dependent on the active ones is held
    out: its correlation is then a fixed combination of theirs, so it
    stays tied at the boundary and zero is still optimal for it.  Such a
    dependence comes from the rows, not the dictionary: on a region such
    as x >= y the column max(x, y) repeats x."""
    q = b.shape[0]
    beta = np.zeros(q)
    c = b.copy()
    lam = float(np.abs(c).max()) if q else 0.0
    knots = [(lam, beta.copy())]
    if lam <= lam_min:
        return knots
    active = [int(np.argmax(np.abs(c)))]
    held_out: set = set()
    for _ in range(20 * q + 20):
        signs = np.sign(c[active])
        direction = np.linalg.solve(corr[np.ix_(active, active)], signs)
        rate = corr[:, active] @ direction  # d c / d(decrease of lambda)
        step, event = lam - lam_min, None
        for j in range(q):
            if j in active or j in held_out:
                continue
            # a column just dropped moves inwards on its old side (the
            # denominator there is negative), so it is not re-added at once
            for num, den in ((lam - c[j], 1.0 - rate[j]), (lam + c[j], 1.0 + rate[j])):
                if den > 1e-12:
                    g = num / den
                    if 0.0 < g < step:
                        step, event = g, ("add", j)
        for k, j in enumerate(active):
            if beta[j] * direction[k] < 0.0:
                g = -beta[j] / direction[k]
                if 0.0 < g < step:
                    step, event = g, ("drop", j)
        beta[active] += step * direction
        c = b - corr @ beta  # afresh, so that rounding does not accumulate
        lam -= step
        if event is None:
            knots.append((lam_min, beta.copy()))
            return knots
        kind, j = event
        if kind == "drop":
            beta[j] = 0.0
            active.remove(j)
            held_out.clear()  # a smaller span may free a held-out column
        elif _is_dependent(corr, active, j):
            held_out.add(j)
        else:
            active.append(j)
        knots.append((lam, beta.copy()))
    raise RegressionError("Lasso path did not reach the requested lambda")


def _is_dependent(corr: np.ndarray, active: list, j: int) -> bool:
    g = corr[np.ix_(active, active)]
    z = np.linalg.solve(g, corr[active, j])
    return float(corr[j, j] - corr[j, active] @ z) < _DEPENDENT


def _beta_at(knots: list, lam: float) -> np.ndarray:
    """The path's solution at lam, read off by linear interpolation between
    the two knots that bracket it."""
    if lam >= knots[0][0]:
        return np.zeros_like(knots[0][1])
    for (hi, b_hi), (lo, b_lo) in zip(knots, knots[1:]):
        if lam >= lo:
            if hi == lo:
                return b_lo.copy()
            t = (lam - lo) / (hi - lo)
            return b_lo + t * (b_hi - b_lo)
    return knots[-1][1].copy()


def _lasso_path(x: np.ndarray, y: np.ndarray, lambdas: Sequence[float]) -> dict:
    """Lasso solutions at every requested lambda from one homotopy path.
    Returns {lambda: (beta, intercept)} on the original feature scale."""
    n, p = x.shape
    xs, mean, std, keep = _standardize(x)
    y_mean = float(y.mean())
    yc = y - y_mean
    corr = (xs.T @ xs) / n
    b = (xs.T @ yc) / n
    knots = _lars_knots(corr, b, min(lambdas))
    out = {}
    for lam in lambdas:
        full = np.zeros(p)
        full[keep] = _beta_at(knots, lam) / std[keep]
        out[lam] = (full, y_mean - float(full[keep] @ mean[keep]))
    return out


def lasso_fit(x: np.ndarray, y: np.ndarray, lam: float):
    """Minimize the penalized least-squares objective at one lambda.

    Returns (beta, intercept, dropped) on the original feature scale;
    `dropped` lists indices of constant columns removed before the fit.
    """
    n, p = x.shape
    if n < 2:
        raise DegenerateDesign("need at least two rows")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    keep = set(_standardize(x)[3].tolist())
    dropped = [j for j in range(p) if j not in keep]
    beta, intercept = _lasso_path(x, y, [lam])[lam]
    return beta, intercept, dropped


def lambda_max(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty at which the Lasso solution is identically zero."""
    xs, _, _, _ = _standardize(x)
    if xs.shape[1] == 0:
        return 0.0
    yc = y - y.mean()
    return float(np.abs(xs.T @ yc).max()) / x.shape[0]


def cv_lasso_regression(x: np.ndarray, y: np.ndarray, lambdas: Sequence[float],
                        folds: int, cv_seed: int = 0):
    """Select lambda by k-fold cross-validation on mean squared validation
    error (ties broken towards the larger lambda), then refit on all rows.

    Returns (beta, intercept, selected_lambda)."""
    n = x.shape[0]
    if n < folds:
        raise DegenerateDesign(f"{n} rows cannot be split into {folds} folds")
    import random

    order = list(range(n))
    random.Random(cv_seed).shuffle(order)
    fold_of = {row: i % folds for i, row in enumerate(order)}
    masks = [np.array([fold_of[r] == f for r in range(n)]) for f in range(folds)]

    grid = sorted(set(lambdas))
    cv_err = {lam: [] for lam in grid}
    for mask in masks:
        if mask.all() or (~mask).all():
            continue
        path = _lasso_path(x[~mask], y[~mask], grid)
        for lam, (beta, b0) in path.items():
            pred = x[mask] @ beta + b0
            cv_err[lam].append(float(((y[mask] - pred) ** 2).mean()))

    best_lam, best_err = None, math.inf
    for lam in grid:  # ascending, so ties resolve to the larger lambda
        err = float(np.mean(cv_err[lam]))
        if err <= best_err:
            best_err, best_lam = err, lam
    beta, b0 = _lasso_path(x, y, [best_lam])[best_lam]
    return beta, b0, best_lam


def remove_terms(names: Sequence[str], beta: np.ndarray, epsilon: float):
    """Drop base functions whose |coefficient| < epsilon.

    Returns (surviving indices, their names); both are empty when every
    term is pruned, and the candidate is then a constant."""
    if len(names) != len(beta):
        raise ValueError("coefficient vector does not match the term list")
    keep = [j for j in range(len(beta)) if abs(beta[j]) >= epsilon]
    return keep, [names[j] for j in keep]


def _exact(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _solve_exact(gram: list, rhs: list) -> list:
    """Solve gram w = rhs over the rationals by Gauss-Jordan elimination.
    A zero pivot means a design column is a combination of the ones before
    it (column 0 is the intercept), and raises DegenerateDesign."""
    m = len(gram)
    rows = [list(r) + [b] for r, b in zip(gram, rhs)]
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if piv is None:
            raise DegenerateDesign(f"design column {col} depends on the ones before it")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        top = [Fraction(v, p) for v in rows[col]]
        rows[col] = top
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
    cols = [[1] * n] + [[_exact(v) for v in col] for col in zip(*x_train)]
    y = [_exact(v) for v in y_train]
    gram = [[sum(map(mul, a, b)) for b in cols] for a in cols]
    w = _solve_exact(gram, [sum(map(mul, a, y)) for a in cols])
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


def rationalize(beta: Sequence, intercept: Fraction | float, max_denominator: int):
    """Snap coefficients to the nearest rationals with bounded denominator.

    Returns (rational coefficients, rational intercept, max rounding delta)."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    exact = [Fraction(b) for b in (*beta, intercept)]
    snapped = [b.limit_denominator(max_denominator) for b in exact]
    delta = max(abs(r - b) for r, b in zip(snapped, exact))
    return snapped[:-1], snapped[-1], float(delta)


# ---------------------------------------------------------------------------
# End-to-end guess
# ---------------------------------------------------------------------------

@dataclass
class GuessResult:
    closed_form: ClosedForm
    fit: FitResult
    exact_fit: bool           # rationalized candidate reproduces the test set exactly
    train_rows: int
    test_rows: int
    dropped_inputs: int
    dropped_columns: list


def assemble_candidate(coefficients: Sequence[Fraction], intercept: Fraction,
                       exprs: Sequence[Expr]) -> Expr:
    out: Expr = Const(intercept)
    for coef, term in zip(coefficients, exprs):
        if coef == 0:
            continue
        out = Add(out, Mul(Const(coef), term))
    return simplify(out)


def guess(rdef: RecurrenceDef, base_set: BaseFunctionSet, reg_cfg: RegressionConfig,
          sample_cfg: SampleConfig, limits: EvalLimits = EvalLimits()) -> GuessResult:
    """Run the full guess stage on points sampled from the recursive region
    of the recurrence and assemble a piecewise candidate: the fitted
    expression where no base guard holds, then the non-recursive cases
    copied verbatim.  The precondition is the closed form's own and is not
    repeated in the guard."""
    train_pts, test_pts = sample_train_test(rdef.recursive_region(), rdef.arity,
                                            sample_cfg, arg_names=rdef.arg_names)
    ts = build_training_set(rdef, base_set, list(train_pts) + list(test_pts), limits)
    train_set, test_set = set(train_pts), set(test_pts)
    train_idx = [i for i, p in enumerate(ts.inputs) if p in train_set]
    test_idx = [i for i, p in enumerate(ts.inputs) if p in test_set]
    if len(train_idx) < max(2, reg_cfg.folds) or not test_idx:
        raise LikelyNonterminating(len(ts.inputs), ts.dropped_inputs)

    x_all, y_all = ts.to_arrays()
    beta_cv, _, lam = cv_lasso_regression(
        x_all[train_idx], y_all[train_idx], reg_cfg.lambdas, reg_cfg.folds,
        reg_cfg.cv_seed)
    keep, kept_names = remove_terms(ts.columns, beta_cv, reg_cfg.epsilon)

    def rows(idx):
        return [[ts.features[i][j] for j in keep] for i in idx]

    beta, intercept, score, raw = linear_regression(
        rows(train_idx), [ts.values[i] for i in train_idx],
        rows(test_idx), [ts.values[i] for i in test_idx])
    coefs, b0, delta = rationalize(beta, intercept, reg_cfg.max_denominator)

    kept_exprs = [ts.column_exprs[j] for j in keep]
    candidate = assemble_candidate(coefs, b0, kept_exprs)

    exact = _rescore_exact(candidate, rdef.arg_names,
                           [ts.inputs[i] for i in test_idx],
                           [ts.values[i] for i in test_idx])
    base = rdef.base_cases()
    pieces = [Piece(candidate, conj([Not(c.guard) for c in base]))]
    pieces += [Piece(c.body, c.guard) for c in base]
    cf = ClosedForm(rdef.arg_names, rdef.precondition, tuple(pieces),
                    provenance="regression")
    fit = FitResult(coefs, b0, kept_names, score, raw, lam, delta)
    return GuessResult(cf, fit, exact, len(train_idx), len(test_idx),
                       ts.dropped_inputs, ts.dropped_columns)


def _rescore_exact(candidate: Expr, arg_names: Sequence[str],
                   inputs: Sequence, values: Sequence) -> bool:
    value = compile_expr(candidate, arg_names)
    return all(value(point) == expected for point, expected in zip(inputs, values))
