"""Layer microbenchmarks (pytest-benchmark), kept out of the default run
by the `layerbench` marker:

    pytest -m layerbench tests/test_layer_bench.py

They time one layer each: sampling merge-sz's recursive region, its
dictionary columns alone on the 130 sampled points (compiled code cached
and not), `build_training_set` on those points, the CV-Lasso path on its
training rows, the exact span fit on its first training rows and on all
of them (the guess stage's proposal and its fallback), `encode` and the whole `check_solution` of its candidate
on the in-process prover, cold `eval_fun` calls (each with a fresh memo)
on merge and on size's one-argument chain, a grid sweep through one
shared memo, and what one `recsolve eval` op does with its fresh
definition (parse, compile, evaluate a small point) with the generated
code cached and not; `parse_recurrence` over the nine corpus texts; and
`import recsolve.cli` in a fresh interpreter that compiles recsolve's
source (interpreter start-up included)."""
import os
import shutil
import subprocess
import sys

import pytest

from recsolve.checker import (
    BUILTIN, SolverConfig, Verified, absorb_covered_pieces, check_solution, encode,
    make_domain_checker,
)
from recsolve.cli import BENCHMARKS
from recsolve.expr import _code, compile_expr
from recsolve.parser import parse_recurrence
from recsolve.recurrence import EvalLimits, Value, eval_fun
from recsolve.regression import (
    P, P_WIDE, RegressionConfig, cv_lasso_regression, guess, span_fit,
)
from recsolve.sampling import (
    SampleConfig, build_training_set, default_base_set, sample_train_test,
)

from conftest import BENCH_DIR, grid_points, load_bench

pytestmark = pytest.mark.layerbench


def guess_points(rdef) -> list:
    train, test = sample_train_test(rdef.recursive_region(), rdef.arg_names,
                                    SampleConfig())
    return list(train) + list(test)


def test_sample_train_test_merge_sz(benchmark):
    rdef = load_bench("merge-sz")
    train, test = benchmark(sample_train_test, rdef.recursive_region(), rdef.arg_names,
                            SampleConfig())
    assert (len(train), len(test)) == (100, 30)


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_feature_columns_merge_sz(benchmark, cache):
    # the column loop of build_training_set, without the recurrence
    rdef = load_bench("merge-sz")
    points = guess_points(rdef)
    base = default_base_set(rdef.arg_names)

    def columns():
        if cache == "cold":
            _code.cache_clear()
        return [list(map(compile_expr(e, rdef.arg_names), points)) for e in base]

    assert [len(c) for c in benchmark(columns)] == [130] * len(base)


def test_cv_lasso_regression_merge_sz(benchmark):
    rdef = load_bench("merge-sz")
    ts = build_training_set(rdef, default_base_set(rdef.arg_names),
                            guess_points(rdef))
    beta, _, _ = benchmark(cv_lasso_regression, ts.features[:100], ts.values[:100],
                           RegressionConfig().lambdas, SampleConfig().seed)
    assert len(beta) == len(ts.columns)


@pytest.mark.parametrize("rows", ["prefix", "all"])
def test_span_fit_merge_sz(benchmark, rows):
    # as `regression._fits` calls it: the prefix modulo P, or all training
    # rows modulo P_WIDE
    rdef = load_bench("merge-sz")
    ts = build_training_set(rdef, default_base_set(rdef.arg_names),
                            guess_points(rdef))
    n, prime = (len(ts.columns) + 2, P) if rows == "prefix" else (100, P_WIDE)
    coefs, _ = benchmark(span_fit, ts.features[:n], ts.values[:n], prime)
    assert len(coefs) == len(ts.columns)


def merge_sz_candidate():
    rdef = load_bench("merge-sz")
    res = guess(rdef, RegressionConfig(), SampleConfig())
    return rdef, absorb_covered_pieces(res.closed_form)


def test_encode_merge_sz(benchmark):
    # the domain queries come from the entailment cache after the first round
    rdef, cf = merge_sz_candidate()
    ef = benchmark(encode, rdef, cf, make_domain_checker(SolverConfig((BUILTIN,))))
    assert len(ef.implications) == len(rdef.cases)


def test_check_solution_merge_sz(benchmark):
    rdef, cf = merge_sz_candidate()
    assert benchmark(check_solution, rdef, cf, SolverConfig((BUILTIN,))) == Verified()


@pytest.mark.parametrize("name", ["merge-sz", "sum-osc"])
def test_build_training_set(benchmark, name):
    rdef = load_bench(name)
    inputs = guess_points(rdef)
    base = default_base_set(rdef.arg_names)
    ts = benchmark(build_training_set, rdef, base, inputs)
    assert len(ts.inputs) == len(inputs)


def test_eval_fun_merge_30_30(benchmark):
    rdef = load_bench("merge")
    assert benchmark(eval_fun, rdef, (30, 30)) == Value(59)


def test_eval_fun_merge_100_100(benchmark):
    rdef = load_bench("merge")
    assert benchmark(eval_fun, rdef, (100, 100)) == Value(199)


def test_eval_fun_size_5000(benchmark):
    # a one-argument chain: 5,001 bodies begun, each resumed once
    rdef = load_bench("size")
    assert benchmark(eval_fun, rdef, (5_000,)) == Value(5_000)


def test_eval_merge_sz_grid_shared_memo(benchmark):
    rdef = load_bench("merge-sz")
    points = grid_points(rdef.precondition, rdef.arg_names, 0, 30)

    def sweep():
        memo: dict = {}
        return [eval_fun(rdef, p, EvalLimits(), memo) for p in points]

    assert benchmark(sweep) == [Value(x + y) for x, y in points]


def test_parse_corpus(benchmark):
    texts = []
    for name in BENCHMARKS:
        with open(os.path.join(BENCH_DIR, f"{name}.rec"), encoding="utf-8") as fh:
            texts.append(fh.read())
    rdefs = benchmark(lambda: [parse_recurrence(t) for t in texts])
    assert len(rdefs) == len(BENCHMARKS) == 9


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_eval_op_fresh_definition_merge(benchmark, cache):
    with open(os.path.join(BENCH_DIR, "merge.rec"), encoding="utf-8") as fh:
        text = fh.read()

    def op():
        if cache == "cold":
            _code.cache_clear()
        return eval_fun(parse_recurrence(text), (3, 4))

    assert benchmark(op) == Value(6)


def test_import_cold(benchmark, tmp_path):
    # a copy of the package holds no bytecode and -B writes none, so every
    # import compiles recsolve's source, as the benchmark's set-up probe does
    # where PYTHONDONTWRITEBYTECODE is set; the standard library's bytecode
    # is read as usual, and the interpreter's own start-up is in the time
    src = os.path.join(os.path.dirname(__file__), "..", "src", "recsolve")
    shutil.copytree(src, tmp_path / "recsolve", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    argv = [sys.executable, "-B", "-c", "import recsolve.cli"]
    proc = benchmark.pedantic(subprocess.run, args=(argv,), rounds=5,
                              kwargs={"env": env, "capture_output": True, "timeout": 60})
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.rglob("__pycache__"))
