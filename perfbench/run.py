"""The recsolve benchmark: run one workload for a while and report it.

Usage:
    python3 perfbench/run.py --workload {guess,eval} --seed N
                             --seconds S --trace {0,1}

Each workload is a closed loop: one client in this process sends one op,
waits for its result, checks it against the hand-written reference, then
sends the next. Ops come in passes (see workloads.py). An untraced run
makes at least MIN_PASSES passes; after that a new pass starts only if one
more pass as long as the longest so far still ends within S seconds.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the `end_to_end` metrics of BENCHMARK.json, computed from each op's
median run (see end_to_end). With --trace 1 every pass runs twice,
plain and then traced, and the metrics are the `per_layer` ones.
Lines before it give the environment fingerprint, the failures by cause
and the layer table. A record of the run, and in a traced run its spans,
are written under .perfbench/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
MIN_PASSES = 3   # passes of an untraced run, at least


def measure_setup(workload: str) -> list:
    """Set-up seconds from SETUP_PROBES fresh interpreters, run one after
    another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def fingerprint(backend: str) -> dict:
    """Results are comparable only when these fields are equal."""
    import numpy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "recsolve").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def run_passes(wl, seconds: float, tracer):
    """Plain passes, each followed by a traced pass of the same ops when
    `tracer` is given. Returns (plain passes, traced passes), each a list
    of lists of Outcome."""
    from workloads import run_op

    min_passes = 1 if tracer is not None else MIN_PASSES
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    op_id = 0
    while True:
        t0 = time.perf_counter()
        ops = wl.pass_ops(len(plain))
        plain.append([run_op(wl, op) for op in ops])
        if tracer is not None:
            outcomes = []
            with tracer.installed():
                for op in ops:
                    outcomes.append(run_op(wl, op, around=tracer.op(wl.root, op_id)))
                    op_id += 1
            traced.append(outcomes)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if len(plain) >= min_passes and now - start + longest > seconds:
            return plain, traced


def pass_s(outcomes) -> float:
    """A pass's time is the sum of its ops' times: the benchmark's own
    output checks between ops are left out."""
    return sum(o.ms for o in outcomes) / 1000


def end_to_end(plain, setup_samples) -> dict:
    """Every pass runs the same ops, and an op's time is the median of its
    runs, taken from passes spread over the whole run: the speed of a
    shared host's cores comes and goes in spells of seconds to a minute,
    and the median over the run evens them out. `pass_s` is the sum of
    these times; the op percentiles are over the distinct ops."""
    runs = {}
    for outcomes in plain:
        for o in outcomes:
            runs.setdefault(o.op, []).append(o.ms)
    ms = sorted(statistics.median(v) for v in runs.values())
    return {
        "pass_s": sum(ms) / 1000,
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": statistics.quantiles(ms, n=100, method="inclusive")[98],
        "op_geomean_ms": math.exp(statistics.fmean(math.log(v) for v in ms)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, plain, traced) -> dict:
    out = tracer.metrics(len(traced))
    out["regression.candidate_terms"] = sum(o.terms for p in traced for o in p) / len(traced)
    out["trace.overhead_ratio"] = (sum(pass_s(p) for p in traced)
                                   / sum(pass_s(p) for p in plain))
    return out


def print_summary(args, fp, setup_samples, plain, traced, e2e, tracer, specs):
    ops = [o for p in plain + traced for o in p]
    print(f"fingerprint {json.dumps(fp, sort_keys=True)}")
    print(f"workload {args.workload}: seed {args.seed}, closed loop with one client, "
          f"{len(plain)} passes of {len(plain[0])} ops"
          + (", each also run traced" if traced else ""))
    samples = {"setup_s": f"median of {len(setup_samples)} set-ups",
               "peak_rss_mb": "1 process"}
    per_op = f"{len(plain[0])} ops, each the median of its {len(plain)} runs"
    for spec in specs["end_to_end"]:
        name = spec["name"]
        note = samples.get(name, per_op)
        print(f"  {name:<16} {e2e[name]:>12.4f} {spec['unit']:<6} ({note})")
    by_cause = {c: [o for o in ops if o.status == c] for c in ("error", "limit", "wrong")}
    failed = sum(len(v) for v in by_cause.values())
    print(f"  failed_share     {failed / len(ops):>12.4f}        ({failed} of {len(ops)} ops: "
          + ", ".join(f"{len(v)} {c}" for c, v in by_cause.items()) + ")")
    for cause, outcomes in by_cause.items():
        for o in outcomes:
            print(f"  FAILED {cause}: {o.op.name}{o.op.point or ''}: {o.detail}")
    if tracer is None:
        return
    pass_ms = statistics.fmean(pass_s(p) for p in traced) * 1000
    print(f"layers (self time per traced pass; share of a traced pass of {pass_ms / 1000:.3f} s):")
    table = tracer.layer_table()
    for name, (ms, n) in sorted(table.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:<28} {ms / len(traced):>12.2f} ms {n / len(traced):>9.1f} spans "
              f"{ms / len(traced) / pass_ms:>8.1%}")
    if fp["backend"].startswith("none"):
        print(f"  checker.*: absent, no backend ({fp['backend']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("guess", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recsolve" / "__init__.py").is_file():
        print(f"error: no recsolve sources under {SRC}", file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup_samples = measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    rdefs, cfg = workloads.setup(args.workload)
    cfg, backend = workloads.probe_backend(cfg)
    fp = fingerprint(backend)
    wl = workloads.make(args.workload, args.seed, rdefs, cfg)
    tracer = Tracer() if args.trace else None
    plain, traced = run_passes(wl, args.seconds, tracer)

    e2e = end_to_end(plain, setup_samples)
    layers = per_layer(tracer, plain, traced) if tracer is not None else None
    print_summary(args, fp, setup_samples, plain, traced, e2e, tracer, specs)

    ops = [o for p in plain + traced for o in p]
    # a layer no op reached reports 0
    metrics = {s["name"]: {"value": (layers or e2e).get(s["name"], 0.0), "unit": s["unit"]}
               for s in specs["per_layer" if tracer is not None else "end_to_end"]}
    result = {
        "correct": not any(o.status in ("error", "wrong") for o in ops),
        "attempted": len(ops),
        "failed": sum(o.status != "ok" for o in ops),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, fingerprint=fp, setup_samples=setup_samples,
                  end_to_end=e2e, ops=[
                      {"op": o.op.name, "point": o.op.point, "ms": o.ms,
                       "status": o.status, "detail": o.detail} for o in ops])
    if tracer is not None:
        record["per_layer"] = layers
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
