"""The check stage: encode the recurrence with the candidate substituted
in, emit SMT-LIB2, and ask a solver whether the negation is satisfiable:
an external SMT-LIB2 solver over stdin/stdout, or the in-process prover
of `prover.py` (`builtin`), which reads and answers the same text.

`unsat` certifies the candidate as an exact solution (for every domain
point where evaluation terminates); a model is turned into a concrete
counterexample, at the model itself or at the arguments of a recursive
call made there, and confirmed by direct evaluation before reporting
Refuted.  Everything the solver sees is integer arithmetic: rational
coefficients are cleared by multiplying each equation through by the
least common denominator, floors and ceilings of divisions become
integer `div` (with the sign-correct ceiling encoding -((-a) div b),
valid for divisors entailed positive), and max/min/piecewise terms
become `ite`.  An equation the emitter cannot translate is reported as
`unsupported-operator`.
"""
from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .expr import (
    Add, And, BoolLit, Call, Ceil, ClosedForm, Cmp, Const, Constraint, Div,
    Expr, Floor, Ite, Log2Ceil, Max, Min, Mul, Not, Or, Piece, Pow, Sub, Var,
    conj, constraint_exprs, constraint_free_vars, contains_calls,
    eval_constraint, eval_expr, nodes, replace_calls, simplify, to_text,
)
from .recurrence import (
    EvalLimits, GuardFallthroughError, RecurrenceDef, Value, eval_closed_form,
    eval_fun,
)


class CheckerError(Exception):
    pass


class ResidualCall(CheckerError):
    """Some occurrence of the recurrence could not be replaced."""


class UnsupportedOperator(CheckerError):
    """The encoded equation falls outside the solver fragment."""


class SolverProcessFailure(CheckerError):
    pass


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckVerdict:
    pass


@dataclass(frozen=True)
class Verified(CheckVerdict):
    pass


@dataclass(frozen=True)
class Refuted(CheckVerdict):
    counterexample: tuple
    recurrence_value: Fraction
    candidate_value: Fraction


@dataclass(frozen=True)
class Unknown(CheckVerdict):
    reason: str  # residual-call | unsupported-operator | solver-timeout | solver-unknown
    detail: str = ""


# ---------------------------------------------------------------------------
# Solver process driver
# ---------------------------------------------------------------------------

LOGIC = "QF_NIA"  # declared by every emitted script


@dataclass(frozen=True)
class SolverConfig:
    argv: tuple
    timeout_ms: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "argv", tuple(self.argv))
        if self.timeout_ms <= 0:
            raise ValueError("solver timeout must be positive")


def _argv_for(path: str) -> tuple:
    parts = shlex.split(path) if " " in path else [path]
    head = os.path.basename(parts[0])
    if head.endswith((".cjs", ".js", ".mjs")):
        return ("node", *parts)
    if head.startswith("z3") and len(parts) == 1:
        return (parts[0], "-in")
    return tuple(parts)


BUILTIN = "builtin"


def resolve_solver(path: str | None = None, timeout_ms: int = 10_000) -> SolverConfig:
    """Build a SolverConfig from an explicit path, $RECSOLVE_SOLVER, a z3 on
    $PATH, or the in-process prover (`builtin`), in that order.  Nothing is
    started here: a named solver that cannot run fails at its first query
    with SolverProcessFailure, and is never replaced by `builtin`."""
    cand = path or os.environ.get("RECSOLVE_SOLVER") or shutil.which("z3") or BUILTIN
    return SolverConfig(_argv_for(cand), timeout_ms=timeout_ms)


@dataclass(frozen=True)
class SolverResult:
    status: str  # sat | unsat | unknown | timeout
    output: str


def run_solver(script: str, cfg: SolverConfig) -> SolverResult:
    if cfg.argv == (BUILTIN,):
        from .prover import solve_script

        return SolverResult(*solve_script(script, cfg.timeout_ms))
    env = dict(os.environ)
    env["RECSOLVE_SMT_TIMEOUT_MS"] = str(cfg.timeout_ms)
    try:
        proc = subprocess.run(
            list(cfg.argv), input=script.encode(), capture_output=True,
            timeout=cfg.timeout_ms / 1000.0, env=env)
    except subprocess.TimeoutExpired:
        return SolverResult("timeout", "")
    except OSError as err:
        raise SolverProcessFailure(f"cannot run {cfg.argv}: {err}") from None
    out = proc.stdout.decode(errors="replace")
    for line in out.splitlines():
        line = line.strip()
        if line in ("sat", "unsat", "unknown"):
            return SolverResult(line, out)
    raise SolverProcessFailure(
        f"solver produced no verdict (exit {proc.returncode}): "
        f"{out.strip()[:500]} {proc.stderr.decode(errors='replace').strip()[:500]}")


_ENTAILMENT_CACHE: dict = {}


def clear_entailment_cache():
    _ENTAILMENT_CACHE.clear()


def entails(hypothesis: Constraint, conclusion: Constraint, cfg: SolverConfig) -> bool:
    """True iff hypothesis and not(conclusion) is unsatisfiable over the
    integers.  Solver timeouts and unknowns count as not entailed."""
    names = sorted(constraint_free_vars(hypothesis) | constraint_free_vars(conclusion))
    lines = [f"(set-logic {LOGIC})"]
    lines += [f"(declare-const {n} Int)" for n in names]
    lines.append(f"(assert {emit_constraint(hypothesis)})")
    lines.append(f"(assert (not {emit_constraint(conclusion)}))")
    lines.append("(check-sat)")
    script = "\n".join(lines) + "\n"
    key = (cfg.argv, script)
    if key not in _ENTAILMENT_CACHE:
        _ENTAILMENT_CACHE[key] = run_solver(script, cfg).status == "unsat"
    return _ENTAILMENT_CACHE[key]


def make_domain_checker(cfg: SolverConfig) -> Callable[[Constraint, Constraint], bool]:
    return lambda hyp, concl: entails(hyp, concl, cfg)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Implication:
    antecedent: Constraint
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class EncodedFormula:
    """The implications and, aligned with them, their SMT-LIB2 text
    (`emit_implication`), which is computed here unless `encode` already
    has it."""
    variables: tuple
    implications: tuple
    emitted: tuple | None = None

    def __post_init__(self):
        if self.emitted is None:
            object.__setattr__(self, "emitted",
                               tuple(emit_implication(i) for i in self.implications))


def encode(rdef: RecurrenceDef, fhat: ClosedForm,
           domain_checker: Callable[[Constraint, Constraint], bool]) -> EncodedFormula:
    """Build one implication per case, in case order: the antecedent is the
    precondition plus the negations of the earlier guards plus the case
    guard; the consequent equates the candidate at the arguments with the
    case body after every call has been replaced by the candidate.  An
    implication that `emit_implication` cannot translate, or whose
    divisors the antecedent does not prove positive, raises
    UnsupportedOperator."""
    arg_vars = tuple(Var(n) for n in rdef.arg_names)
    fhat_region = ClosedForm(fhat.arg_names, fhat.precondition,
                             (Piece(fhat.single_region_body(), BoolLit(True)),),
                             fhat.provenance)
    implications = []
    emitted = []
    previous: list = []
    for i, case in enumerate(rdef.cases):
        antecedent = conj([rdef.precondition] + previous + [case.guard])
        equation = Sub(Call(rdef.name, arg_vars), case.body)
        replaced = replace_calls(equation, rdef.name, fhat_region,
                                 rdef.precondition, case.guard, domain_checker)
        if contains_calls(replaced):
            raise ResidualCall(
                f"case {i + 1}: could not replace every call in {to_text(case.body)}")
        assert isinstance(replaced, Sub)
        impl = Implication(antecedent, simplify(replaced.lhs), simplify(replaced.rhs))
        try:
            text = emit_implication(impl)  # emission decides the solver fragment
        except UnsupportedOperator as err:
            raise UnsupportedOperator(f"case {i + 1}: {err}") from None
        _check_divisor_positivity(antecedent, (impl.lhs, impl.rhs), domain_checker)
        implications.append(impl)
        emitted.append(text)
        previous.append(Not(case.guard))
    return EncodedFormula(tuple(rdef.arg_names), tuple(implications), tuple(emitted))


def _nonconst_divisors(e: Expr) -> list:
    """Divisors of the floor/ceil quotients in `e` that are not constants."""
    return [n.arg.rhs for n in nodes(e)
            if isinstance(n, (Floor, Ceil)) and isinstance(n.arg, Div)
            and not isinstance(n.arg.rhs, Const)]


def _check_divisor_positivity(antecedent: Constraint, sides, domain_checker):
    # the div/ceil encodings assume positive divisors; demand the antecedent
    # proves it for every non-constant divisor
    divisors = [d for e in (*sides, *constraint_exprs(antecedent))
                for d in _nonconst_divisors(e)]
    for d in divisors:
        if not domain_checker(antecedent, Cmp(">", d, Const(Fraction(0)))):
            raise UnsupportedOperator(
                f"cannot prove divisor positivity for {to_text(d)}")


# ---------------------------------------------------------------------------
# SMT-LIB2 emission
# ---------------------------------------------------------------------------

def _denominators(e: Expr) -> list:
    """Denominators of rational coefficients at positions the
    equation-level clearing can reach (mirrors `_scale`).  Coefficients
    that multiply compose their denominators multiplicatively, so the lcm
    of the result always clears them."""
    if isinstance(e, Const):
        return [e.value.denominator]
    if isinstance(e, (Add, Sub, Max, Min)):
        return _denominators(e.lhs) + _denominators(e.rhs)
    if isinstance(e, Mul):
        if isinstance(e.lhs, Const):
            d = e.lhs.value.denominator
            return [d] + [d * x for x in _denominators(e.rhs)]
        if isinstance(e.rhs, Const):
            d = e.rhs.value.denominator
            return [d] + [d * x for x in _denominators(e.lhs)]
        return []
    if isinstance(e, Div) and isinstance(e.rhs, Const):
        d = (1 / e.rhs.value).denominator
        return [d] + [d * x for x in _denominators(e.lhs)]
    if isinstance(e, Ite):
        return _denominators(e.then) + _denominators(e.other)
    return []


def _scale(e: Expr, s: int) -> Expr:
    """Multiply by a positive integer, distributing where this is exact."""
    if s == 1:
        return e
    if isinstance(e, Const):
        return Const(e.value * s)
    if isinstance(e, (Add, Sub)):
        return type(e)(_scale(e.lhs, s), _scale(e.rhs, s))
    if isinstance(e, Mul):
        if isinstance(e.lhs, Const):
            return Mul(Const(e.lhs.value * s), e.rhs)
        if isinstance(e.rhs, Const):
            return Mul(e.lhs, Const(e.rhs.value * s))
        return Mul(Const(Fraction(s)), e)
    if isinstance(e, Div) and isinstance(e.rhs, Const):
        return _scale(Mul(Const(1 / e.rhs.value), e.lhs), s)
    if isinstance(e, (Max, Min)):  # s > 0 preserves the order
        return type(e)(_scale(e.lhs, s), _scale(e.rhs, s))
    if isinstance(e, Ite):
        return Ite(e.cond, _scale(e.then, s), _scale(e.other, s))
    return Mul(Const(Fraction(s)), e)


def _cleared(lhs: Expr, rhs: Expr) -> tuple:
    denom = lcm(*(_denominators(lhs) + _denominators(rhs) + [1, 1]))
    return simplify(_scale(lhs, denom)), simplify(_scale(rhs, denom))


def _smt_int(v: Fraction) -> str:
    if v.denominator != 1:
        raise UnsupportedOperator(f"residual rational constant {v}")
    n = v.numerator
    return str(n) if n >= 0 else f"(- {-n})"


def emit_term(e: Expr) -> str:
    if isinstance(e, Const):
        return _smt_int(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"(+ {emit_term(e.lhs)} {emit_term(e.rhs)})"
    if isinstance(e, Sub):
        return f"(- {emit_term(e.lhs)} {emit_term(e.rhs)})"
    if isinstance(e, Mul):
        return f"(* {emit_term(e.lhs)} {emit_term(e.rhs)})"
    if isinstance(e, Pow):
        k = e.exponent
        if not isinstance(k, Const) or k.value.denominator != 1 or k.value < 0:
            raise UnsupportedOperator(to_text(e))
        n = int(k.value)
        if n == 0:
            return "1"
        base = emit_term(e.base)
        return base if n == 1 else f"(* {' '.join([base] * n)})"
    if isinstance(e, (Floor, Ceil)):
        return _emit_floor_ceil(e)
    if isinstance(e, Max):
        a, b = emit_term(e.lhs), emit_term(e.rhs)
        return f"(ite (>= {a} {b}) {a} {b})"
    if isinstance(e, Min):
        a, b = emit_term(e.lhs), emit_term(e.rhs)
        return f"(ite (<= {a} {b}) {a} {b})"
    if isinstance(e, Ite):
        return f"(ite {emit_constraint(e.cond)} {emit_term(e.then)} {emit_term(e.other)})"
    if isinstance(e, Div):
        raise UnsupportedOperator(f"bare division {to_text(e)}")
    if isinstance(e, Log2Ceil):
        raise UnsupportedOperator(to_text(e))
    if isinstance(e, Call):
        raise UnsupportedOperator(f"unreplaced call {to_text(e)}")
    raise TypeError(f"unknown expression node {e!r}")


def _emit_floor_ceil(e: Expr) -> str:
    ceil = isinstance(e, Ceil)
    arg = e.arg
    if isinstance(arg, Div) and not isinstance(arg.rhs, Const):
        num, den = emit_term(simplify(arg.lhs)), emit_term(simplify(arg.rhs))
    else:
        q = lcm(*(_denominators(arg) + [1, 1]))
        num_expr = simplify(_scale(arg, q))
        if q == 1:
            return emit_term(num_expr)  # integer-valued argument
        num, den = emit_term(num_expr), str(q)
    if ceil:
        return f"(- (div (- {num}) {den}))"  # ceil(a/b) = -((-a) div b), b > 0
    return f"(div {num} {den})"


def emit_constraint(c: Constraint) -> str:
    if isinstance(c, BoolLit):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        lhs, rhs = _cleared(simplify(c.lhs), simplify(c.rhs))
        a, b = emit_term(lhs), emit_term(rhs)
        if c.op == "=":
            return f"(= {a} {b})"
        if c.op == "!=":
            return f"(not (= {a} {b}))"
        return f"({c.op} {a} {b})"
    if isinstance(c, And):
        return f"(and {emit_constraint(c.lhs)} {emit_constraint(c.rhs)})"
    if isinstance(c, Or):
        return f"(or {emit_constraint(c.lhs)} {emit_constraint(c.rhs)})"
    if isinstance(c, Not):
        return f"(not {emit_constraint(c.arg)})"
    raise TypeError(f"unknown constraint node {c!r}")


def emit_implication(impl: Implication) -> str:
    """One implication as an SMT-LIB2 term, its equation cleared of
    rational coefficients.  Raises UnsupportedOperator outside the solver
    fragment: integer arithmetic with constant powers, floor/ceil over
    divisions, ite-encoded max/min and conditionals."""
    lhs, rhs = _cleared(impl.lhs, impl.rhs)
    return (f"(=> {emit_constraint(impl.antecedent)}"
            f" (= {emit_term(lhs)} {emit_term(rhs)}))")


def emit_smtlib(ef: EncodedFormula) -> str:
    """Deterministic SMT-LIB2 script asserting the negation of the encoded
    conjunction of implications."""
    lines = [f"(set-logic {LOGIC})"]
    lines += [f"(declare-const {n} Int)" for n in ef.variables]
    impls = ef.emitted
    body = impls[0] if len(impls) == 1 else "(and " + " ".join(impls) + ")"
    lines.append(f"(assert (not {body}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model extraction and the full check
# ---------------------------------------------------------------------------

_MODEL_RE = re.compile(
    r"define-fun\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*\)\s*Int\s*"
    r"(\(-\s*\d+\s*\)|-?\d+)")


def parse_model(output: str, variables: Sequence[str]) -> tuple:
    """Integer assignment for the declared variables (missing ones are 0)."""
    values = {}
    for name, lit in _MODEL_RE.findall(output):
        lit = lit.strip()
        if lit.startswith("("):
            values[name] = -int(lit.strip("()- \t"))
        else:
            values[name] = int(lit)
    return tuple(values.get(n, 0) for n in variables)


def check_solution(rdef: RecurrenceDef, fhat: ClosedForm, solver: SolverConfig,
                   limits: EvalLimits = EvalLimits(),
                   emit_dir: str | None = None,
                   label: str = "query") -> CheckVerdict:
    """Encode, emit and run the solver on the negation.  `unsat` means
    Verified.  A model is confirmed by evaluating both sides, at the model
    or else at the arguments of a call its case makes (`_call_sites`),
    before reporting Refuted; anything else is Unknown with a reason."""
    domain_checker = make_domain_checker(solver)
    try:
        ef = encode(rdef, fhat, domain_checker)
        script = emit_smtlib(ef)
    except ResidualCall as err:
        return Unknown("residual-call", str(err))
    except UnsupportedOperator as err:
        return Unknown("unsupported-operator", str(err))
    if emit_dir:
        os.makedirs(emit_dir, exist_ok=True)
        with open(os.path.join(emit_dir, f"{label}.smt2"), "w", encoding="utf-8") as fh:
            fh.write(script)
    result = run_solver(script, solver)
    if result.status == "unsat":
        return Verified()
    if result.status == "timeout":
        return Unknown("solver-timeout")
    if result.status == "unknown":
        return Unknown("solver-unknown")
    point = parse_model(result.output, ef.variables)
    memo: dict = {}
    for p in (point, *_call_sites(rdef, point)):
        rec = eval_fun(rdef, p, limits, memo)
        try:
            cand = eval_closed_form(fhat, p)
        except GuardFallthroughError:
            continue
        if isinstance(rec, Value) and rec.value != cand:
            return Refuted(p, rec.value, cand)
    return Unknown("solver-unknown",
                   f"model {point} did not yield a confirmed counterexample")


def _call_sites(rdef: RecurrenceDef, point: tuple) -> list:
    """The argument tuples of the recursive calls made at `point`: the
    calls of the first case whose guard holds there, in preorder, skipping
    calls whose arguments contain a call.  Only integer tuples inside the
    precondition are kept, since counterexamples are integer inputs.

    A model can violate an implication through a call alone: the
    candidate is right at the model but wrong at a call's arguments,
    which then confirm the refutation."""
    env = dict(zip(rdef.arg_names, point))
    case = next((c for c in rdef.cases if eval_constraint(c.guard, env)), None)
    if case is None:
        return []
    sites = []
    for node in nodes(case.body):
        if isinstance(node, Call) and node.fname == rdef.name \
                and not any(contains_calls(a) for a in node.args):
            args = tuple(eval_expr(a, env) for a in node.args)
            if all(v.denominator == 1 for v in args):
                site = tuple(int(v) for v in args)
                if eval_constraint(rdef.precondition, dict(zip(rdef.arg_names, site))):
                    sites.append(site)
    return sites
