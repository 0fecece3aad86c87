from fractions import Fraction

import numpy as np
import pytest

from recsolve import regression
from recsolve.cli import BENCHMARKS
from recsolve.expr import And, ClosedForm, Not, Piece, Var, con, conj, to_text
from recsolve.parser import parse_constraint, parse_recurrence
from recsolve.recurrence import eval_fun, inline_function, Value
from recsolve.regression import (
    P, P_WIDE, DegenerateDesign, RegressionConfig, assemble_candidate,
    cv_lasso_regression, guess, lambda_grid, lambda_max, lasso_fit,
    linear_regression, rationalize, remove_terms, span_fit,
)
from recsolve.sampling import SampleConfig, TrainingSet, sample_train_test

from conftest import brute_entails, grid_points, load_bench


def subgradient_violation(x, y, beta, intercept, lam):
    """Independent KKT check for the standardized Lasso problem.  Returns
    the largest violation of the stationarity conditions."""
    beta = np.asarray(beta)
    mean, std = x.mean(axis=0), x.std(axis=0)
    keep = std > 0
    xs = (x[:, keep] - mean[keep]) / std[keep]
    beta_std = beta[keep] * std[keep]
    yc = y - y.mean()
    n = x.shape[0]
    grad = xs.T @ (yc - xs @ beta_std) / n
    worst = 0.0
    for g, b in zip(grad, beta_std):
        if b != 0.0:
            worst = max(worst, abs(g - lam * np.sign(b)))
        else:
            worst = max(worst, max(0.0, abs(g) - lam))
    return worst


class TestLassoFit:
    def test_relevant_term_found_irrelevant_zeroed(self):
        xs = np.arange(0, 21, dtype=float)
        x = np.column_stack([xs, xs ** 3])
        y = 3.0 * xs
        beta, b0, _ = lasso_fit(x, y, 0.01)
        assert abs(beta[0] - 3.0) < 0.05
        assert beta[1] == 0.0
        assert subgradient_violation(x, y, beta, b0, 0.01) < 1e-6

    def test_null_model_at_large_lambda(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4))
        y = x @ np.array([1.0, -2.0, 0.0, 0.5]) + 1.0
        lam = lambda_max(x, y)
        for factor in (1.0, 1.5, 10.0):
            beta, b0, _ = lasso_fit(x, y, lam * factor)
            assert np.all(np.asarray(beta) == 0.0)
            assert b0 == pytest.approx(y.mean())

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        y = np.full(20, 7.0)
        beta, b0, _ = lasso_fit(x, y, 0.05)
        assert np.all(np.asarray(beta) == 0.0)
        assert b0 == pytest.approx(7.0)

    def test_constant_column_dropped(self):
        x = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        y = 2.0 * np.arange(10.0)
        beta, b0, dropped = lasso_fit(x, y, 0.001)
        assert dropped == [1]
        assert beta[1] == 0.0

    def test_subgradient_optimality_on_random_data(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n, p = 40, 6
            x = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p)
            w = rng.choice([0.0, 1.0, -2.0, 0.5], size=p)
            y = x @ w + rng.normal(scale=0.1, size=n)
            lam = float(rng.uniform(0.005, 0.8))
            beta, b0, _ = lasso_fit(x, y, lam)
            assert subgradient_violation(x, y, beta, b0, lam) < 1e-6, trial

    def test_column_past_float_precision_kept(self):
        # the moments are exact, so 2^60 + i%2 varies; a float standard
        # deviation of its values reads 0
        x = [[2 ** 60 + i % 2] for i in range(20)]
        y = [i % 2 for i in range(20)]
        beta, b0, dropped = lasso_fit(x, y, 0.01)
        assert dropped == []
        assert beta[0] == pytest.approx(0.98)

    def test_path_past_a_dependent_column(self):
        # the third column is the sum of the first two: the path completes
        # and still reproduces y
        rng = np.random.default_rng(4)
        for trial in range(30):
            ab = rng.integers(0, 31, size=(40, 2)).astype(float)
            x = np.column_stack([ab, ab.sum(axis=1)])
            y = 5.0 + x @ rng.choice([-2.0, 0.0, 1.0, 3.0], size=3)
            beta, b0, _ = lasso_fit(x, y, 1e-3)
            assert subgradient_violation(x, y, beta, b0, 1e-3) < 1e-6, trial
            resid = y - (x @ np.asarray(beta) + b0)
            assert np.abs(resid).max() <= 0.01 * max(y.std(), 1.0), trial


class TestCvLasso:
    def test_identity_data_keeps_x(self):
        xs = np.arange(0, 25, dtype=float)
        x = np.column_stack([xs, xs ** 2, np.log2(xs + 1)])
        y = xs.copy()
        beta, b0, lam = cv_lasso_regression(x, y, lambda_grid(), cv_seed=0)
        assert abs(beta[0] - 1.0) < 0.05
        assert abs(beta[1]) < 0.01 and abs(beta[2]) < 0.05

    def test_pure_noise_prefers_null_model(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        beta, b0, lam = cv_lasso_regression(x, y, lambda_grid(), cv_seed=0)
        # intercept-only within tolerance: tiny coefficients at a large lambda
        assert float(np.abs(beta).sum()) < 0.3

    def test_needs_enough_rows(self):
        with pytest.raises(DegenerateDesign):
            cv_lasso_regression(np.ones((1, 2)), np.ones(1), (0.1,))


class TestRemoveTerms:
    def test_prunes_small_coefficients(self):
        keep, names = remove_terms(["x", "x^2", "x^3"], np.array([1.02, 0.003, 0.0]))
        assert names == ["x"]
        assert keep == [0]

    def test_keeps_everything_above_threshold(self):
        keep, names = remove_terms(["a", "b"], np.array([0.05, -1.0]))
        assert names == ["a", "b"]

    def test_all_pruned(self):
        assert remove_terms(["a"], np.array([0.0])) == ([], [])


class TestLinearRegression:
    def test_exact_line(self):
        xs = np.arange(0, 10, dtype=float).reshape(-1, 1)
        beta, b0, s, raw = linear_regression(xs, xs[:, 0], xs, xs[:, 0])
        assert beta[0] == pytest.approx(1.0, abs=1e-10)
        assert b0 == pytest.approx(0.0, abs=1e-9)
        assert s == 1.0

    def test_exact_quadratic_with_intercept(self):
        xs = np.arange(0, 12, dtype=float)
        x = (xs ** 2).reshape(-1, 1)
        y = xs ** 2 + 5
        beta, b0, s, raw = linear_regression(x, y, x, y)
        assert beta[0] == pytest.approx(1.0, abs=1e-10)
        assert b0 == pytest.approx(5.0, abs=1e-8)
        assert s == 1.0

    def test_noise_scores_below_one(self):
        rng = np.random.default_rng(3)
        xs = np.arange(0, 30, dtype=float).reshape(-1, 1)
        y = xs[:, 0] + rng.normal(scale=2.0, size=30)
        beta, b0, s, raw = linear_regression(xs[:20], y[:20], xs[20:], y[20:])
        assert s < 1.0

    @staticmethod
    def rational_rows(rng, n, p):
        return [[Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 7)))
                 for _ in range(p)] for _ in range(n)]

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = self.rational_rows(rng, 50, 4)
            y = [Fraction(int(rng.integers(-1000, 1001)), 7) for _ in range(50)]
            beta, b0, _, _ = linear_regression(x, y, x, y)
            resid = [v - b0 - sum(c * b for c, b in zip(row, beta))
                     for row, v in zip(x, y)]
            assert sum(resid) == 0  # the intercept column
            for j in range(4):
                assert sum(row[j] * r for row, r in zip(x, resid)) == 0

    def test_target_in_span_recovered_exactly(self):
        rng = np.random.default_rng(12)
        x = self.rational_rows(rng, 30, 3)
        w = [Fraction(3, 7), Fraction(-2), Fraction(5, 64)]
        y = [Fraction(-1, 3) + sum(c * b for c, b in zip(row, w)) for row in x]
        beta, b0, s, raw = linear_regression(x[:20], y[:20], x[20:], y[20:])
        assert beta == w
        assert b0 == Fraction(-1, 3)
        assert s == raw == 1.0

    def test_int64_rows_read_as_ints(self):
        # the moments of columns near 2**60 pass 2**63, where int64 wraps
        x = [[2 ** 60 + i, i % 3] for i in range(20)]
        y = [3 * a - 2 * b + 7 for a, b in x]
        exact = linear_regression(x, y, x, y)
        assert exact[:2] == ([3, -2], 7)
        x64, y64 = np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)
        assert linear_regression(x64, y64, x64, y64) == exact

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesign):
            linear_regression(np.ones((2, 3)), np.ones(2), np.ones((1, 3)), np.ones(1))
        rows = [[x, y, x + y] for x in range(5) for y in range(5)]  # collinear
        with pytest.raises(DegenerateDesign):
            linear_regression(rows, [r[0] for r in rows], rows, [r[0] for r in rows])


class TestRationalize:
    @pytest.mark.parametrize("value,expected", [
        (0.9999997, Fraction(1)),
        (0.4999996, Fraction(1, 2)),
        (1.4999989, Fraction(3, 2)),
        (0.0, Fraction(0)),
        (-2.0000001, Fraction(-2)),
    ])
    def test_nearest_small_rational(self, value, expected):
        coefs, b0, delta = rationalize([value], 0.0)
        assert coefs[0] == expected

    def test_exact_on_representable_inputs(self):
        coefs, b0, delta = rationalize([0.5, 0.25, 3.0], 1.0)
        assert coefs == [Fraction(1, 2), Fraction(1, 4), Fraction(3)]
        assert b0 == 1
        assert delta == 0.0


class TestSpanFit:
    def test_target_in_span_recovered_exactly(self):
        x = [[v, v * v, 2 ** v] for v in range(12)]
        y = [Fraction(2, 3) * a - Fraction(1, 6) * b + 5 for a, b, _ in x]
        assert span_fit(x, y) == ([Fraction(2, 3), Fraction(-1, 6), 0], 5)

    def test_dependent_column_gets_zero(self):
        x = [[v, 2 * v, v * v] for v in range(10)]
        assert span_fit(x, [3 * v + 1 for v in range(10)]) == ([3, 0, 0], 1)

    def test_target_outside_span(self):
        assert span_fit([[v, v * v] for v in range(10)], [v ** 3 for v in range(10)]) is None

    def test_denominator_divisible_by_p(self):
        assert span_fit([[v] for v in range(10)], [Fraction(v, P) for v in range(10)]) is None

    def test_coefficient_that_does_not_reconstruct(self):
        # 10^10 + 2 = r/s modulo P has no solution with |r| and s below sqrt(P/2)
        assert span_fit([[v] for v in range(10)], [(10 ** 10 + 2) * v for v in range(10)]) is None

    def test_wide_prime_reaches_large_coefficients(self):
        # beyond sqrt(P/2) ~ 1.07e9, within sqrt(P_WIDE/2) ~ 9.2e18
        x = [[v] for v in range(10)]
        for coef in (10 ** 10 + 2, Fraction(10 ** 10 + 1, 3)):
            assert span_fit(x, [coef * v for v in range(10)], P_WIDE) == ([coef], 0)

    def test_wide_prime_agrees_on_small_coefficients(self):
        x = [[v, v * v, 2 ** v] for v in range(12)]
        y = [Fraction(2, 3) * a - Fraction(1, 6) * b + 5 for a, b, _ in x]
        assert span_fit(x, y, P_WIDE) == span_fit(x, y)
        assert span_fit([[v, v * v] for v in range(10)], [v ** 3 for v in range(10)],
                        P_WIDE) is None

    def test_too_few_rows_for_the_pivots(self):
        # three rows, and three independent columns with the intercept:
        # any target is in their span; with a fourth row, x is found
        x = [[v, v * v] for v in range(3)]
        assert span_fit(x, [v ** 3 for v in range(3)]) is None
        assert span_fit(x + [[3, 9]], [v for v in range(4)]) == ([1, 0], 0)


class TestAssembleCandidate:
    def test_normalizes_unit_coefficients(self):
        from recsolve.expr import Var
        e = assemble_candidate([Fraction(1)], Fraction(0), [Var("x")])
        assert to_text(e) == "x"

    def test_zero_coefficients_dropped(self):
        from recsolve.expr import Var
        e = assemble_candidate([Fraction(0), Fraction(2)], Fraction(1),
                               [Var("x"), Var("y")])
        assert to_text(e) == "2*y + 1"


def _conjuncts(c):
    return [*_conjuncts(c.lhs), *_conjuncts(c.rhs)] if isinstance(c, And) else [c]


class TestGuess:
    def test_nested_yields_identity(self, monkeypatch):
        def no_lasso(*args):
            raise AssertionError("the CV-Lasso ran on an exact fit")

        monkeypatch.setattr(regression, "cv_lasso_regression", no_lasso)
        rdef = load_bench("nested")
        res = guess(rdef, RegressionConfig(), SampleConfig(seed=0))
        assert to_text(res.closed_form.pieces[0].expr) == "x"
        assert (res.fit.score, res.fit.raw_score) == (1.0, 1.0)
        assert (res.fit.selected_lambda, res.fit.rationalization_delta) == (None, 0.0)
        assert res.exact_fit

    @staticmethod
    def bumped_guess(monkeypatch, rdef, part, bump=1):
        """guess(rdef) with `bump` added to the recurrence's value at the
        last sampled point of `part` (0: training, 1: test), and the number
        of CV-Lasso runs it made."""
        sample, build, cv = (regression.sample_train_test, regression.build_training_set,
                             regression.cv_lasso_regression)
        split, runs = [], []

        def kept_split(*args):
            split[:] = sample(*args)
            return split

        def bumped(*args):
            ts = build(*args)
            values = list(ts.values)
            values[ts.inputs.index(split[part][-1])] += bump
            return TrainingSet(ts.inputs, values, ts.columns, ts.column_exprs,
                               ts.features, ts.dropped_inputs, ts.dropped_columns)

        def counted(*args):
            runs.append(args)
            return cv(*args)

        monkeypatch.setattr(regression, "sample_train_test", kept_split)
        monkeypatch.setattr(regression, "build_training_set", bumped)
        monkeypatch.setattr(regression, "cv_lasso_regression", counted)
        return guess(rdef, RegressionConfig(), SampleConfig(seed=0)), len(runs)

    def test_proposal_missing_a_test_row_falls_through_to_the_lasso(self, monkeypatch):
        res, lasso_runs = self.bumped_guess(monkeypatch, load_bench("nested"), 1)
        assert not res.exact_fit
        assert lasso_runs == 1
        assert res.fit.selected_lambda is not None

    @pytest.mark.parametrize("name, bump", [("merge-sz", 1), ("nested", Fraction(1, 1000))])
    def test_candidate_missing_a_training_row_is_not_exact(self, monkeypatch, name, bump):
        # the Lasso's refit, rationalized, still reproduces every test row
        res, lasso_runs = self.bumped_guess(monkeypatch, load_bench(name), 0, bump)
        assert not res.exact_fit
        assert lasso_runs == 1

    @staticmethod
    def spied_guess(monkeypatch, rdef, seed=0, points=None):
        """guess(rdef) with its span fits recorded as (rows, prime, proposal),
        its CV-Lasso runs counted, and its training set and training points
        kept; `points`, if given, is the (train, test) split to use."""
        fit, build, cv = regression.span_fit, regression.build_training_set, \
            regression.cv_lasso_regression
        seen = {"fits": [], "lasso": 0}

        def spied_fit(x, y, prime=P):
            proposal = fit(x, y, prime)
            seen["fits"].append((len(y), prime, proposal))
            return proposal

        def kept_split(pre, names, cfg):
            seen["split"] = points or sample_train_test(pre, names, cfg)
            return seen["split"]

        def kept_set(*args):
            seen["ts"] = build(*args)
            return seen["ts"]

        def counted(*args):
            seen["lasso"] += 1
            return cv(*args)

        monkeypatch.setattr(regression, "span_fit", spied_fit)
        monkeypatch.setattr(regression, "sample_train_test", kept_split)
        monkeypatch.setattr(regression, "build_training_set", kept_set)
        monkeypatch.setattr(regression, "cv_lasso_regression", counted)
        return guess(rdef, RegressionConfig(), SampleConfig(seed=seed)), seen

    @pytest.mark.parametrize("name", [*BENCHMARKS, "size", "fib"])
    def test_exact_fit_is_proposed_from_the_prefix(self, monkeypatch, name):
        for seed in range(4):
            res, seen = self.spied_guess(monkeypatch, load_bench(name), seed)
            ts, train = seen["ts"], set(seen["split"][0])
            rows = [i for i, p in enumerate(ts.inputs) if p in train]
            x, y = [ts.features[i] for i in rows], [ts.values[i] for i in rows]
            prefix = len(ts.columns) + 2
            if res.exact_fit:
                assert seen["fits"] == [(prefix, P, span_fit(x, y))]
                assert seen["lasso"] == 0
            else:  # the prefix fit, the all-row fit and the Lasso
                assert [f[:2] for f in seen["fits"]] == [(prefix, P), (len(y), P_WIDE)]
                assert seen["lasso"] == 1

    def test_rejected_prefix_proposal_falls_back_to_all_rows(self, monkeypatch):
        # log2ceil(x) is 4 on the first 8 training rows, 9..16, so their
        # proposal is the constant 4, which the other rows reject
        rdef = parse_recurrence("def f(x);\npre x >= 1;\nf(x) = 0 if x <= 1;\n"
                                "f(x) = f(ceil(x/2)) + 1 if x > 1;\n")
        train = [(v,) for v in [*range(9, 17), *range(2, 9), *range(17, 25)]]
        test = [(v,) for v in range(25, 31)]
        res, seen = self.spied_guess(monkeypatch, rdef, points=(train, test))
        assert len(seen["ts"].columns) + 2 == 8
        assert [(n, prime) for n, prime, _ in seen["fits"]] == [(8, P), (len(train), P_WIDE)]
        assert seen["fits"][0][2] == ([0] * 6, 4)
        assert to_text(res.closed_form.pieces[0].expr) == "log2ceil(x)"
        assert res.exact_fit and seen["lasso"] == 0

    def test_large_coefficient_is_exact_without_the_lasso(self, monkeypatch):
        # 10000000002 does not reconstruct modulo P; the all-row fit modulo
        # P_WIDE proposes it
        rdef = parse_recurrence("def f(x);\npre x >= 0;\nf(x) = 0 if x = 0;\n"
                                "f(x) = f(x-1) + 10000000002 if x > 0;\n")
        res, seen = self.spied_guess(monkeypatch, rdef)
        assert [(prime, proposal is None) for _, prime, proposal in seen["fits"]] == \
            [(P, True), (P_WIDE, False)]
        assert to_text(res.closed_form.pieces[0].expr) == "10000000002*x"
        assert res.exact_fit and res.fit.selected_lambda is None
        assert seen["lasso"] == 0

    def test_s_max_1_matches_reference_pointwise(self):
        rdef = load_bench("s-max-1")
        res = guess(rdef, RegressionConfig(), SampleConfig(seed=0))
        assert res.exact_fit
        from recsolve.recurrence import eval_closed_form
        for p in grid_points(rdef.precondition, rdef.arg_names, 0, 10):
            out = eval_fun(rdef, p)
            assert isinstance(out, Value)
            assert eval_closed_form(res.closed_form, p) == out.value

    def test_sum_osc_is_piecewise_with_halves(self):
        rdef = load_bench("sum-osc")
        res = guess(rdef, RegressionConfig(), SampleConfig(seed=0))
        assert res.exact_fit
        assert len(res.closed_form.pieces) == 2  # fitted region + base case
        denominators = {c.denominator for c in res.fit.coefficients}
        assert 2 in denominators  # the y^2/2 and 3y/2 structure

    @pytest.mark.parametrize("hi", [50, 80])
    def test_chained_cost_exact_past_float_precision(self, hi):
        # 2^(x+1) - 1 passes 2^53 on these bounds, where floats drop the - 1
        size_cf = ClosedForm(("x",), parse_constraint("x >= 0"),
                             (Piece(Var("x"), parse_constraint("x > 0")),
                              Piece(con(0), parse_constraint("x = 0"))))
        cost = inline_function(load_bench("cost"), "s", size_cf, brute_entails)
        res = guess(cost, RegressionConfig(), SampleConfig(bounds=(0, hi)))
        assert to_text(res.closed_form.pieces[0].expr) == "2*2^x - 1"
        assert res.exact_fit

    @pytest.mark.parametrize("name, main", [
        ("merge-sz", "x + y"), ("merge", "x + y - 1"), ("s-max", "x + y"),
        ("s-max-1", "2*x + y")])
    def test_main_piece_spells_sums_without_extrema(self, name, main):
        rdef = load_bench(name)
        res = guess(rdef, RegressionConfig(), SampleConfig(seed=0))
        assert to_text(res.closed_form.pieces[0].expr) == main

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_main_guard_is_the_negated_base_guards(self, name):
        rdef = load_bench(name)
        res = guess(rdef, RegressionConfig(), SampleConfig(seed=0))
        main, *rest = res.closed_form.pieces
        base = rdef.base_cases()
        assert main.guard == conj([Not(c.guard) for c in base])
        assert rest == [Piece(c.body, c.guard) for c in base]
        # the precondition belongs to the closed form, not to the guard
        assert res.closed_form.precondition == rdef.precondition
        assert not set(_conjuncts(rdef.precondition)) & set(_conjuncts(main.guard))
        assert "min(" not in res.closed_form.to_text()

    def test_determinism(self):
        for name in ("div", "fib"):  # an exact span fit, and a Lasso approximation
            args = (load_bench(name), RegressionConfig(), SampleConfig(seed=9))
            a, b = guess(*args), guess(*args)
            assert a.closed_form == b.closed_form
            assert a.fit.score == b.fit.score
            assert a.fit.selected_lambda == b.fit.selected_lambda
