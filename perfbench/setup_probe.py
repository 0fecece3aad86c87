"""Time the program's set-up in a fresh interpreter and print it in seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD

The clock covers importing recsolve, loading the workload's recurrences
and building the solve config through `resolve_solver`; it leaves out
interpreter start-up and the benchmark's backend probe. `run.py` calls
this several times per run and reports the median as `setup_s`.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(sys.argv[1])
    print(time.perf_counter() - T0)
