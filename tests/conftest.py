import itertools
import os
import sys
from fractions import Fraction

import pytest

from recsolve.checker import SolverConfig, resolve_solver
from recsolve.expr import compile_expr, free_vars
from recsolve.parser import parse_recurrence

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "recsolve", "bench")


def load_bench(name: str):
    with open(os.path.join(BENCH_DIR, f"{name}.rec"), "r", encoding="utf-8") as fh:
        return parse_recurrence(fh.read())


def bench_sidecar(name: str) -> dict:
    import json

    with open(os.path.join(BENCH_DIR, f"{name}.expected.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def solver() -> SolverConfig:
    return resolve_solver()


def stub_solver(main_query: str, timeout_ms: int = 10_000) -> SolverConfig:
    """An external solver that is a Python subprocess: it answers `unsat`
    to every entailment query and runs the statement `main_query` on the
    main query, the only script that asks `(get-model)`."""
    code = ("import sys, time\n"
            "if '(get-model)' not in sys.stdin.read():\n"
            "    print('unsat')\n"
            "else:\n"
            f"    {main_query}\n")
    return SolverConfig((sys.executable, "-c", code), timeout_ms)


def grid_points(constraint, arg_names, lo=0, hi=12):
    """All integer tuples in the box satisfying the constraint: the
    brute-force domain used by sweep oracles."""
    satisfies = compile_expr(constraint, arg_names)
    return [p for p in itertools.product(range(lo, hi + 1), repeat=len(arg_names))
            if satisfies(tuple(map(Fraction, p)))]


def brute_entails(hyp, concl, lo=-4, hi=16):
    """Entailment by enumeration over a small integer box; an independent
    stand-in for the SMT-backed domain checker in unit tests."""
    names = sorted(free_vars(hyp) | free_vars(concl))
    hyp, concl = compile_expr(hyp, names), compile_expr(concl, names)
    return not any(hyp(p) and not concl(p)
                   for p in itertools.product(map(Fraction, range(lo, hi + 1)),
                                              repeat=len(names)))
