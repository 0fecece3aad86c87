"""Spans and counters recorded at recsolve's layer boundaries.

The tracer replaces public functions at the module attributes their
callers resolve, so a call such as `regression.guess` -> `build_training_set`
goes through the wrapper. Each call records a span (name, start, end,
parent, op id) in memory, and its return value or exception feeds the
layer counters. Nothing inside recsolve is edited; calls between functions
of one module that bypass the attribute (for example `expr` helpers) count
in the self time of the span that made them.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

WRAPPED = (
    ("recsolve.pipeline", ("guess", "validate_coverage", "check_solution")),
    ("recsolve.regression", ("sample_train_test", "build_training_set",
                             "cv_lasso_regression", "remove_terms",
                             "linear_regression", "rationalize",
                             "assemble_candidate")),
    ("recsolve.sampling", ("eval_fun",)),
    ("recsolve.cli", ("eval_fun",)),
    ("recsolve.checker", ("eval_fun", "encode", "run_solver", "entails")),
    ("recsolve.parser", ("parse_recurrence",)),
)

# span name -> the layer metric its self time adds to; the first two are
# the op roots the benchmark opens itself
LAYER_MS = {
    "pipeline.solve": "pipeline.self_ms",
    "cli.main": "cli.self_ms",
    "pipeline.guess": "regression.guess_self_ms",
    "pipeline.validate_coverage": "checker.validate_ms",
    "pipeline.check_solution": "checker.check_ms",
    "regression.sample_train_test": "sampling.sample_ms",
    "regression.build_training_set": "sampling.features_ms",
    "regression.cv_lasso_regression": "regression.cv_ms",
    "regression.remove_terms": "regression.refit_ms",
    "regression.linear_regression": "regression.refit_ms",
    "regression.rationalize": "regression.refit_ms",
    "regression.assemble_candidate": "regression.refit_ms",
    "sampling.eval_fun": "recurrence.eval_ms",
    "cli.eval_fun": "recurrence.eval_ms",
    "checker.eval_fun": "recurrence.eval_ms",
    "checker.encode": "checker.encode_ms",
    "checker.entails": "checker.query_ms",
    "checker.run_solver": "checker.query_ms",
    "parser.parse_recurrence": "parser.parse_ms",
}


def _count_eval(t, out, err):
    t.counts["recurrence.eval_calls"] += 1
    kind = type(out).__name__
    if kind == "Value":
        t.counts["recurrence.values"] += 1
    elif kind == "LimitExceeded":
        t.counts[f"recurrence.limit_{out.limit}"] += 1
    elif kind == "GuardFallthrough":
        t.counts["recurrence.fallthrough"] += 1


def _count_sample(t, out, err):
    if out is not None:
        t.counts["sampling.points"] += len(out[0]) + len(out[1])


def _count_features(t, out, err):
    if out is not None:
        t.counts["sampling.feature_cells"] += len(out.inputs) * len(out.columns)
        t.counts["sampling.dropped_inputs"] += out.dropped_inputs
        t.counts["sampling.dropped_columns"] += len(out.dropped_columns)
    elif hasattr(err, "dropped"):  # LikelyNonterminating
        t.counts["sampling.dropped_inputs"] += err.dropped


def _count_cv(t, out, err):
    if out is not None:
        t.values["regression.selected_lambda"].append(out[2])


def _count_prune(t, out, err):
    if out is not None:
        t.counts["regression.support"] += len(out[0])


def _count_rationalize(t, out, err):
    if out is not None:
        t.values["regression.rationalization_delta"].append(out[2])


def _count_guess(t, out, err):
    t.counts["regression.guesses"] += 1
    if out is not None and out.exact_fit:
        t.counts["regression.exact_fits"] += 1


def _count_query(t, out, err):
    t.counts["checker.solver_queries"] += 1


COUNTERS = {
    "sampling.eval_fun": _count_eval,
    "cli.eval_fun": _count_eval,
    "checker.eval_fun": _count_eval,
    "regression.sample_train_test": _count_sample,
    "regression.build_training_set": _count_features,
    "regression.cv_lasso_regression": _count_cv,
    "regression.remove_terms": _count_prune,
    "regression.rationalize": _count_rationalize,
    "pipeline.guess": _count_guess,
    "checker.run_solver": _count_query,
}


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, op id]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.values = {"regression.selected_lambda": [],
                       "regression.rationalization_delta": []}
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def op(self, root: str, op_id: int):
        """Context manager factory for one op's root span."""
        def around():
            self.op_id = op_id
            self.stack.clear()  # an op stopped at its limit may leave spans open
            return self.span(root)
        return around

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    out = fn(*args, **kwargs)
                except Exception as err:
                    if count:
                        count(self, None, err)
                    raise
            if count:
                count(self, out, None)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = []
        try:
            for mod_name, attrs in WRAPPED:
                mod = importlib.import_module(mod_name)
                short = mod_name.rsplit(".", 1)[1]
                for attr in attrs:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(f"{short}.{attr}", fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def entailment_counts(self) -> tuple:
        """(entails calls, of which answered by the cache): a call whose
        span has no run_solver child was a cache hit."""
        asked = {i for i, s in enumerate(self.spans) if s[0] == "checker.entails"}
        queried = {s[3] for s in self.spans if s[0] == "checker.run_solver"}
        return len(asked), len(asked - queried)

    def layer_table(self) -> dict:
        """layer metric -> (self ms, span count), summed over all spans. A
        span's self time is its duration minus that of its direct children;
        a span left open by an op stopped at its limit counts as nothing."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        table: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            ms, n = table.get(LAYER_MS[name], (0.0, 0))
            table[LAYER_MS[name]] = (ms + (end - start - child[i]) * 1000, n + 1)
        return table

    def metrics(self, passes: int) -> dict:
        """Per-pass layer metrics over `passes` traced passes."""
        out = {name: ms / passes for name, (ms, _) in self.layer_table().items()}
        for name in ("recurrence.eval_calls", "recurrence.limit_depth",
                     "recurrence.limit_steps", "recurrence.limit_timeout",
                     "recurrence.fallthrough", "sampling.points",
                     "sampling.feature_cells", "sampling.dropped_inputs",
                     "sampling.dropped_columns", "regression.support",
                     "checker.solver_queries"):
            out[name] = self.counts[name] / passes
        c = self.counts
        out["recurrence.value_ratio"] = (
            c["recurrence.values"] / c["recurrence.eval_calls"]
            if c["recurrence.eval_calls"] else 0.0)
        out["regression.exact_fit_ratio"] = (
            c["regression.exact_fits"] / c["regression.guesses"]
            if c["regression.guesses"] else 0.0)
        lams = self.values["regression.selected_lambda"]
        out["regression.selected_lambda"] = statistics.median(lams) if lams else 0.0
        deltas = self.values["regression.rationalization_delta"]
        out["regression.rationalization_delta"] = max(deltas) if deltas else 0.0
        asked, hits = self.entailment_counts()
        out["checker.entailment_cache_hit_ratio"] = hits / asked if asked else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
