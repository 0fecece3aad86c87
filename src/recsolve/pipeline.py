"""End-to-end orchestration: guess, gate on the score, simplify, check.

A solve is one guess, one absorption and one check.  A candidate goes to
the verifier only when the guess is exact (it reproduces every sampled
train and test row); otherwise the report carries the candidate as an
approximation, clearly labelled possibly unsafe.  An exact one first loses the base pieces its main piece covers
(`checker.absorb_covered_pieces`).  A refuted candidate is reported with
the counterexample that evaluation confirmed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .checker import (
    CheckVerdict, Refuted, SolverConfig, SolverProcessFailure, SolverTimeout,
    Unknown, Verified, absorb_covered_pieces, check_solution,
    make_domain_checker,
)
from .expr import ClosedForm, to_text
from .recurrence import (
    EvalLimits, RecurrenceDef, UnknownFunction, foreign_names, validate_coverage,
)
from .regression import RegressionConfig, RegressionError, guess
from .sampling import SampleConfig, SamplingError


@dataclass(frozen=True)
class SolveConfig:
    sample: SampleConfig = field(default_factory=SampleConfig)
    regression: RegressionConfig = field(default_factory=RegressionConfig)
    limits: EvalLimits = field(default_factory=EvalLimits)
    solver: SolverConfig | None = None
    emit_dir: str | None = None


APPROXIMATION_NOTE = "approximation, possibly unsafe"


@dataclass
class SolveReport:
    name: str
    recurrence: str
    closed_form: ClosedForm | None
    score: float | None
    raw_score: float | None
    exact_fit: bool | None
    verdict: str                  # verified | refuted | unknown | skipped
    verdict_reason: str = ""
    counterexample: dict | None = None
    error: str | None = None
    note: str = ""
    timings_ms: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    verdict_from_checker: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.verdict not in ("verified", "refuted", "unknown", "skipped"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "verified" and not self.verdict_from_checker:
            raise ValueError("a verified verdict must come from the checker")

    def exit_status(self) -> int:
        if self.verdict == "verified":
            return 0
        if self.verdict == "skipped" and self.closed_form is not None \
                and self.verdict_reason == "score-below-threshold":
            return 2
        return 3

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "recurrence": self.recurrence,
            "closed_form": self.closed_form.to_text() if self.closed_form else None,
            "closed_form_pieces": (
                [[to_text(p.expr), to_text(p.guard)]
                 for p in self.closed_form.pieces] if self.closed_form else None),
            "score": self.score,
            "raw_score": self.raw_score,
            "exact_fit": self.exact_fit,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
            "counterexample": self.counterexample,
            "error": self.error,
            "note": self.note,
            "config": self.config,
            "timings_ms": self.timings_ms,
        }


def verdict_fields(verdict: CheckVerdict) -> tuple:
    """(verdict, reason, counterexample, detail) as reports print them."""
    if isinstance(verdict, Verified):
        return "verified", "", None, ""
    if isinstance(verdict, Refuted):
        ce = {
            "point": [int(v) for v in verdict.counterexample],
            "recurrence_value": str(verdict.recurrence_value),
            "candidate_value": str(verdict.candidate_value),
        }
        return "refuted", "", ce, ""
    if isinstance(verdict, Unknown):
        return "unknown", verdict.reason, None, verdict.detail
    raise TypeError(f"unknown verdict {verdict!r}")


def _config_snapshot(cfg: SolveConfig) -> dict:
    lams = cfg.regression.lambdas
    return {
        "seed": cfg.sample.seed,
        "n_train": cfg.sample.n_train,
        "n_test": cfg.sample.n_test,
        "bounds": list(cfg.sample.bounds),
        "lambda_count": len(lams),
        "lambda_lo": min(lams),
        "lambda_hi": max(lams),
        "max_depth": cfg.limits.max_depth,
        "max_steps": cfg.limits.max_steps,
        "eval_timeout_ms": cfg.limits.timeout_ms,
        "solver": list(cfg.solver.argv) if cfg.solver else None,
        "solver_timeout_ms": cfg.solver.timeout_ms if cfg.solver else None,
    }


def solve(rdef: RecurrenceDef, cfg: SolveConfig, name: str | None = None) -> SolveReport:
    """Run the full pipeline on one recurrence and report every outcome
    (including stage errors) in a structured, reproducible record."""
    t_start = time.monotonic()
    timings: dict = {}
    report = SolveReport(
        name=name or rdef.name, recurrence=rdef.to_text(), closed_form=None,
        score=None, raw_score=None, exact_fit=None, verdict="skipped",
        config=_config_snapshot(cfg))

    t0 = time.monotonic()
    solver_failure = None
    try:
        # a call to an unresolved function cannot be evaluated or sampled
        foreign = foreign_names(rdef)
        if foreign:
            raise UnknownFunction(", ".join(sorted(foreign)))
        if cfg.solver is not None:
            validate_coverage(rdef, make_domain_checker(cfg.solver))
    except SolverProcessFailure as err:
        # the solver is broken, not the recurrence: guess anyway, and
        # report the failure where a check would be needed
        solver_failure = err
    except Exception as err:
        if isinstance(err, SolverTimeout):  # coverage is undecided, not refuted
            report.error, report.verdict_reason = str(err), "solver-timeout"
        else:
            report.error = f"{type(err).__name__}: {err}"
            report.verdict_reason = "validation-failed"
        timings["validate"] = (time.monotonic() - t0) * 1000
        timings["total"] = (time.monotonic() - t_start) * 1000
        report.timings_ms = timings
        return report
    timings["validate"] = (time.monotonic() - t0) * 1000

    verdict = _guess_and_check(rdef, cfg, timings, report, solver_failure)
    if verdict is not None:
        report.verdict_from_checker = isinstance(verdict, Verified)
        report.verdict, report.verdict_reason, report.counterexample, detail = \
            verdict_fields(verdict)
        report.error = detail or None
    timings["total"] = (time.monotonic() - t_start) * 1000
    report.timings_ms = timings
    report.validate()
    return report


def _guess_and_check(rdef: RecurrenceDef, cfg: SolveConfig, timings: dict,
                     report: SolveReport, solver_failure: Exception | None):
    """One guess, one absorption and one check: the guess fills the
    report's candidate and scores, and the checker's verdict is returned,
    None where the check did not run."""
    t0 = time.monotonic()
    try:
        result = guess(rdef, cfg.regression, cfg.sample, cfg.limits)
    except (SamplingError, RegressionError, OverflowError) as err:
        # OverflowError: a value or a mean beyond the range of the Lasso's floats
        report.error = f"{type(err).__name__}: {err}"
        report.verdict_reason = getattr(err, "reason", "guess-error")
        return None
    finally:
        timings["guess"] = (time.monotonic() - t0) * 1000

    report.closed_form = result.closed_form
    report.score, report.raw_score = result.fit.score, result.fit.raw_score
    report.exact_fit = result.exact_fit
    if not result.exact_fit:
        report.verdict_reason = "score-below-threshold"
        report.note = APPROXIMATION_NOTE
        return None
    t0 = time.monotonic()
    report.closed_form = absorb_covered_pieces(result.closed_form)
    timings["simplify"] = (time.monotonic() - t0) * 1000
    if cfg.solver is None or solver_failure is not None:
        return _unchecked(report, solver_failure)

    t0 = time.monotonic()
    try:
        return check_solution(rdef, report.closed_form, cfg.solver,
                              cfg.limits, cfg.emit_dir, report.name)
    except SolverProcessFailure as err:
        return _unchecked(report, err)
    finally:
        timings["check"] = (time.monotonic() - t0) * 1000


def _unchecked(report: SolveReport, failure: Exception | None):
    """An exact candidate that no solver could check."""
    report.verdict_reason = "solver-unavailable"
    report.note = APPROXIMATION_NOTE
    if failure is not None:
        report.error = f"SolverProcessFailure: {failure}"
    return None
