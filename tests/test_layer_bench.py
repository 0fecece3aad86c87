"""Layer microbenchmarks (pytest-benchmark), kept out of the default run
by the `layerbench` marker:

    pytest -m layerbench tests/test_layer_bench.py

They time the evaluation layer alone: `build_training_set` on the points
the guess stage samples, cold `eval_fun` calls (each with a fresh memo),
and a grid sweep through one shared memo."""
import pytest

from recsolve.recurrence import EvalLimits, Value, eval_fun
from recsolve.sampling import (
    SampleConfig, build_training_set, default_base_set, sample_train_test,
)

from conftest import grid_points, load_bench

pytestmark = pytest.mark.layerbench


@pytest.mark.parametrize("name", ["merge-sz", "sum-osc"])
def test_build_training_set(benchmark, name):
    rdef = load_bench(name)
    train, test = sample_train_test(rdef.recursive_region(), rdef.arity,
                                    SampleConfig(), arg_names=rdef.arg_names)
    inputs = list(train) + list(test)
    base = default_base_set(rdef.arity, rdef.arg_names)
    ts = benchmark(build_training_set, rdef, base, inputs)
    assert len(ts) == len(inputs)


def test_eval_fun_merge_30_30(benchmark):
    rdef = load_bench("merge")
    assert benchmark(eval_fun, rdef, (30, 30)) == Value(59)


def test_eval_fun_merge_100_100(benchmark):
    rdef = load_bench("merge")
    assert benchmark(eval_fun, rdef, (100, 100)) == Value(199)


def test_eval_merge_sz_grid_shared_memo(benchmark):
    rdef = load_bench("merge-sz")
    points = grid_points(rdef.precondition, rdef.arg_names, 0, 30)

    def sweep():
        memo: dict = {}
        return [eval_fun(rdef, p, EvalLimits(), memo) for p in points]

    assert benchmark(sweep) == [Value(x + y) for x, y in points]
