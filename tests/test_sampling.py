from fractions import Fraction

import pytest

from recsolve.expr import eval_expr
from recsolve.parser import parse_constraint
from recsolve.cli import BENCHMARKS
from recsolve.parser import parse_recurrence
from recsolve.recurrence import EvalLimits, LimitExceeded, Value, eval_fun
from recsolve.sampling import (
    BaseFunction, BaseFunctionSet, LikelyNonterminating, SampleConfig,
    SamplingExhausted, TrainingSet, build_training_set, default_base_set,
    sample_inputs, sample_train_test,
)

from conftest import load_bench
from oracle import eval_fun_naive


class TestDefaultBaseSet:
    def test_arity_one_is_the_six_standard_terms(self):
        t = default_base_set(1, ("x",))
        assert t.names() == ["x", "x^2", "x^3", "log2ceil(x)", "2^x",
                             "x*log2ceil(x)"]

    def test_arity_two_contains_division_and_extrema(self):
        names = set(default_base_set(2, ("x", "y")).names())
        for required in ("floor(x/y)", "ceil(x/y)", "max(x, y)", "min(x, y)",
                         "x*y", "x*log2ceil(y)", "y*log2ceil(x)"):
            assert required in names
        assert len(names) == 19

    def test_arity_three_has_pairwise_products(self):
        names = set(default_base_set(3, ("x", "y", "z")).names())
        assert {"x*y", "x*z", "y*z", "2^x", "z^2"} <= names

    def test_duplicates_rejected(self):
        from recsolve.expr import Var
        f = BaseFunction("x", Var("x"))
        with pytest.raises(ValueError):
            BaseFunctionSet((f, BaseFunction("also-x", Var("x"))))


class TestSampleInputs:
    def test_contract(self):
        pts = sample_inputs(parse_constraint("x >= 0"), 1,
                            SampleConfig(seed=1), count=20, arg_names=("x",))
        assert len(pts) == len(set(pts)) == 20
        assert all(p[0] >= 0 for p in pts)

    def test_guard_respected(self):
        pre = parse_constraint("x >= y and y > 0")
        pts = sample_inputs(pre, 2, SampleConfig(seed=3), count=20,
                            arg_names=("x", "y"))
        assert len(pts) == 20
        assert all(x >= y and y > 0 for x, y in pts)

    def test_unsatisfiable_raises(self):
        with pytest.raises(SamplingExhausted):
            sample_inputs(parse_constraint("x < 0"), 1, SampleConfig(seed=0),
                          count=5, arg_names=("x",))

    def test_deterministic(self):
        pre = parse_constraint("x >= 0")
        cfg = SampleConfig(seed=42)
        a = sample_inputs(pre, 1, cfg, count=15, arg_names=("x",))
        b = sample_inputs(pre, 1, cfg, count=15, arg_names=("x",))
        assert a == b

    def test_train_test_disjoint_and_adaptive(self):
        pre = parse_constraint("x >= 1")  # only 30 points in [0, 30]
        train, test = sample_train_test(pre, 1, SampleConfig(seed=0),
                                        arg_names=("x",))
        assert set(train).isdisjoint(test)
        assert len(train) + len(test) == 30
        assert len(test) >= 1


class TestBuildTrainingSet:
    def test_nested_training_case(self):
        # the row at x = 5: (5, 5, 25, 125, 3, 32, 15)
        rdef = load_bench("nested")
        ts = build_training_set(rdef, default_base_set(1, ("x",)), [(5,)])
        assert ts.values == [5]
        assert ts.features[0] == [5, 25, 125, 3, 32, 15]

    def test_nonterminating_majority_raises(self):
        rdef = load_bench("nonterm")
        with pytest.raises(LikelyNonterminating):
            build_training_set(rdef, default_base_set(1, ("x",)),
                               [(1,), (2,), (3,), (4,)],
                               EvalLimits(max_depth=100, max_steps=10_000))

    def test_constant_recurrence(self):
        from recsolve.parser import parse_recurrence
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 4 if x = 0;\n"
            "f(x) = f(x-1) if x > 0;\n")
        ts = build_training_set(rdef, default_base_set(1, ("x",)),
                                [(0,), (1,), (5,), (9,)])
        assert all(b == 4 for b in ts.values)

    def test_undefined_base_functions_become_dropped_columns(self):
        # s-max samples points with y = 0, where x/y is undefined
        rdef = load_bench("s-max")
        ts = build_training_set(rdef, default_base_set(2, ("x", "y")),
                                [(1, 0), (2, 3), (4, 1)])
        assert "floor(x/y)" in ts.dropped_columns
        assert "ceil(x/y)" in ts.dropped_columns
        assert "floor(x/y)" not in ts.columns

    def test_row_values_cross_checked_against_naive_oracle(self):
        rdef = load_bench("sum-osc")
        pts = [(1, 2), (0, 3), (4, 4), (2, 0), (5, 3), (0, 0), (3, 1),
               (6, 2), (1, 1), (2, 5)]
        ts = build_training_set(rdef, default_base_set(2, ("x", "y")), pts)
        for p, b in zip(ts.inputs, ts.values):
            oracle = eval_fun_naive(rdef, p)
            assert isinstance(oracle, Value) and oracle.value == b

    def test_feature_columns_cross_checked(self):
        rdef = load_bench("div")
        base = default_base_set(2, ("x", "y"))
        pts = [(7, 2), (9, 3), (4, 4), (0, 1)]
        ts = build_training_set(rdef, base, pts)
        for i, p in enumerate(ts.inputs):
            env = dict(zip(("x", "y"), p))
            for j, expr in enumerate(ts.column_exprs):
                assert ts.features[i][j] == eval_expr(expr, env)

    def test_reproducible_end_to_end(self):
        rdef = load_bench("merge")
        cfg = SampleConfig(seed=7, n_train=25, n_test=5)
        region = rdef.recursive_region()
        a = sample_train_test(region, 2, cfg, arg_names=rdef.arg_names)
        b = sample_train_test(region, 2, cfg, arg_names=rdef.arg_names)
        assert a == b
        ts1 = build_training_set(rdef, default_base_set(2, rdef.arg_names),
                                 list(a[0]) + list(a[1]))
        ts2 = build_training_set(rdef, default_base_set(2, rdef.arg_names),
                                 list(b[0]) + list(b[1]))
        assert ts1.values == ts2.values
        assert ts1.features == ts2.features


class TestSharedMemo:
    """`build_training_set` evaluates all its inputs against one memo."""

    @pytest.mark.parametrize("name", list(BENCHMARKS) + ["fib", "size"])
    def test_rows_equal_per_point_evaluation(self, name):
        # the points the guess stage samples, in its order
        rdef = load_bench(name)
        train, test = sample_train_test(rdef.recursive_region(), rdef.arity,
                                        SampleConfig(), arg_names=rdef.arg_names)
        inputs = list(train) + list(test)
        ts = build_training_set(rdef, default_base_set(rdef.arity, rdef.arg_names),
                                inputs)
        alone = [(p, eval_fun(rdef, p)) for p in inputs]
        assert ts.inputs == [p for p, out in alone if isinstance(out, Value)]
        assert ts.values == [out.value for _, out in alone if isinstance(out, Value)]
        # the naive oracle is exponential on merge, merge-sz, fib, nested
        # and size, so it is asked only where it finishes in 2000 steps
        compared = 0
        for p, b in zip(ts.inputs, ts.values):
            out = eval_fun_naive(rdef, p, EvalLimits(max_steps=2000))
            if out != LimitExceeded("steps"):
                assert out == Value(b), (name, p)
                compared += 1
        assert compared >= 7

    def test_step_budget_resets_per_point(self):
        # (12, 12) alone needs more than 500 steps; the cheap points after
        # it are kept, and the entries it memoized before stopping are right
        rdef = load_bench("merge-sz")
        limits = EvalLimits(max_steps=500)
        memo: dict = {}
        assert eval_fun(rdef, (12, 12), limits, memo) == LimitExceeded("steps")
        assert memo
        assert eval_fun(rdef, (2, 1), limits, memo) == Value(3)
        for key, v in memo.items():
            assert eval_fun_naive(rdef, key) == Value(v), key
        ts = build_training_set(rdef, default_base_set(2, rdef.arg_names),
                                [(12, 12), (1, 1), (2, 1), (1, 2)], limits)
        assert ts.dropped_inputs == 1
        assert ts.inputs == [(1, 1), (2, 1), (1, 2)]
        assert ts.values == [2, 3, 3]

    def test_max_depth_counts_only_unmemoized_frames(self):
        # alone, f(80) needs 80 pending frames and stops at max_depth 50;
        # after f(40) is memoized it needs 40 and finishes
        rdef = parse_recurrence(
            "def f(x);\npre x >= 0;\n"
            "f(x) = 0 if x = 0;\n"
            "f(x) = f(x-1) + 1 if x > 0;\n")
        limits = EvalLimits(max_depth=50)
        base = default_base_set(1, ("x",))
        assert eval_fun(rdef, (80,), limits) == LimitExceeded("depth")
        ts = build_training_set(rdef, base, [(40,), (80,)], limits)
        assert ts.inputs == [(40,), (80,)] and ts.values == [40, 80]
        ts = build_training_set(rdef, base, [(80,), (40,)], limits)
        assert ts.inputs == [(40,)] and ts.dropped_inputs == 1


class TestTrainingSetInvariants:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            TrainingSet([(1,)], [Fraction(1)], ["a", "b"], [None, None], [[1]])

    def test_to_arrays_is_float(self):
        rdef = load_bench("nested")
        ts = build_training_set(rdef, default_base_set(1, ("x",)), [(2,), (3,)])
        x, y = ts.to_arrays()
        assert x.shape == (2, 6)
        assert y.tolist() == [2.0, 3.0]
