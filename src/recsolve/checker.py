"""The check stage: encode the recurrence with the candidate substituted
in, emit SMT-LIB2, and ask a solver whether the negation is satisfiable:
an external SMT-LIB2 solver over stdin/stdout, or the in-process prover
of `prover.py` (`builtin`), which reads and answers the same text.
`absorb_covered_pieces` first drops the base pieces the main one covers.

`unsat` certifies the candidate as an exact solution (for every domain
point where evaluation terminates); a model is turned into a concrete
counterexample, at the model itself or at the arguments of a recursive
call made there, and confirmed by direct evaluation before reporting
Refuted.  Everything the solver sees is integer arithmetic.  One walk,
`_clear`, decides where clearing reaches (through + - max min ite, into
the operand of a constant factor and into the base of a positive integer
power) and returns the least factor that makes every constant there whole
together with the expression multiplied by it; each equation, comparison
and floor or ceiling argument is cleared that way.  Floors and ceilings of
divisions become integer `div` (with the sign-correct ceiling encoding
-((-a) div b), valid for divisors entailed positive), max and min become
an `ite` over their operands, each bound once by `let`, and piecewise
terms become `ite`.  One emitter, `emit_term`, writes terms and
constraints alike.  An equation the emitter cannot translate, or one
with a divisor that folds to 0 once the candidate is substituted, is
reported as `unsupported-operator`.
"""
from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .expr import (
    Add, And, BoolLit, Call, Ceil, ClosedForm, Cmp, Const, Constraint, Div,
    DomainChecker, Expr, Floor, Ite, Log2Ceil, Max, Min, Mul, Not, Or, Piece,
    Pow, Record, Sub, Var, children, compile_expr, conj, constant_factor,
    contains_calls, free_vars, nodes, replace_calls, simplify, to_text,
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


class SolverTimeout(CheckerError):
    """The solver gave no answer to an entailment query in time."""


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class CheckVerdict(Record):
    __slots__ = ()


class Verified(CheckVerdict):
    __slots__ = ()


class Refuted(CheckVerdict):
    __slots__ = ("counterexample", "recurrence_value", "candidate_value")


class Unknown(CheckVerdict):
    __slots__ = ("reason",  # residual-call | unsupported-operator | solver-timeout | solver-unknown
                 "detail")

    def __init__(self, reason: str, detail: str = ""):
        self._set_fields(reason, detail)


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
    if " " in path:
        import shlex  # only a solver path with a space needs it

        parts = shlex.split(path)
    else:
        parts = [path]
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


class SolverResult(Record):
    __slots__ = ("status",  # sat | unsat | unknown | timeout
                 "output")


def run_solver(script: str, cfg: SolverConfig) -> SolverResult:
    if cfg.argv == (BUILTIN,):
        from .prover import solve_script

        return SolverResult(*solve_script(script, cfg.timeout_ms))
    import subprocess  # imported only to start an external solver

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


def entails(hypothesis: Constraint, conclusion: Constraint, cfg: SolverConfig) -> bool:
    """True iff hypothesis and not(conclusion) is unsatisfiable over the
    integers.  An `unknown` counts as not entailed; a timeout raises
    SolverTimeout, which names the query.  An answer is cached per solver
    configuration and pair of constraints, so a repeated query is neither
    emitted nor sent again; a timeout is not cached."""
    key = (cfg, hypothesis, conclusion)
    if key not in _ENTAILMENT_CACHE:
        names = sorted(free_vars(hypothesis) | free_vars(conclusion))
        script = _script(names, (emit_term(hypothesis), f"(not {emit_term(conclusion)})"))
        status = run_solver(script, cfg).status
        if status == "timeout":
            raise SolverTimeout(f"no answer in {cfg.timeout_ms} ms to whether "
                                f"{to_text(hypothesis)} entails {to_text(conclusion)}")
        _ENTAILMENT_CACHE[key] = status == "unsat"
    return _ENTAILMENT_CACHE[key]


def make_domain_checker(cfg: SolverConfig) -> DomainChecker:
    return lambda hyp, concl: entails(hyp, concl, cfg)


def absorb_covered_pieces(cf: ClosedForm) -> ClosedForm:
    """Drop the base pieces that the main piece (first, as `regression.guess`
    lays it out) covers.  From last to first, piece i goes when the in-process
    prover shows that the precondition and its guard entail main = body_i and
    the negation of every later kept guard, so the result equals `cf` on the
    precondition.  A query outside the solver fragment, or one that times
    out, keeps its piece."""
    main, *base = cf.pieces
    prover = make_domain_checker(SolverConfig((BUILTIN,)))
    kept: list = []
    for piece in reversed(base):
        hypothesis = conj([cf.precondition, piece.guard])
        covered = conj([Cmp("=", main.expr, piece.expr)] + [Not(k.guard) for k in kept])
        try:
            _check_divisor_positivity(hypothesis, (covered,), prover)
            absorbed = prover(hypothesis, covered)
        except (UnsupportedOperator, SolverTimeout):
            absorbed = False
        if not absorbed:
            kept.insert(0, piece)
    return ClosedForm(cf.arg_names, cf.precondition,
                      (Piece(main.expr, conj([Not(k.guard) for k in kept])), *kept))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

class Implication(Record):
    __slots__ = ("antecedent", "lhs", "rhs")


class EncodedFormula(Record):
    """The implications and, aligned with them, the SMT-LIB2 text that
    `encode` emitted for each (`emit_implication`)."""
    __slots__ = ("variables", "implications", "emitted")


def encode(rdef: RecurrenceDef, fhat: ClosedForm,
           domain_checker: DomainChecker) -> EncodedFormula:
    """Build one implication per case, in case order: the antecedent is the
    case's region (`RecurrenceDef.case_regions`), the precondition plus the
    negations of the earlier guards plus the case guard; the consequent
    equates the candidate at the arguments with the case body after every
    call has been replaced by the candidate.  An
    implication that `emit_implication` cannot translate, one with a
    divisor that folds to 0 once the candidate is substituted, or one
    whose divisors the antecedent does not prove positive, raises
    UnsupportedOperator."""
    arg_vars = tuple(Var(n) for n in rdef.arg_names)
    implications = []
    emitted = []
    for i, (case, antecedent) in enumerate(zip(rdef.cases, rdef.case_regions())):
        equation = Sub(Call(rdef.name, arg_vars), case.body)
        try:
            replaced = replace_calls(equation, rdef.name, fhat, antecedent, domain_checker)
            if contains_calls(replaced):
                raise ResidualCall(
                    f"case {i + 1}: could not replace every call in {to_text(case.body)}")
            assert isinstance(replaced, Sub)
            impl = Implication(antecedent, simplify(replaced.lhs), simplify(replaced.rhs))
            text = emit_implication(impl)  # emission decides the solver fragment
        except (UnsupportedOperator, ValueError) as err:
            # ValueError: a divisor that becomes the literal 0 once a call's
            # arguments are substituted (y - y at y = x - 1) and simplified
            raise UnsupportedOperator(f"case {i + 1}: {err}") from None
        _check_divisor_positivity(antecedent, (impl.lhs, impl.rhs), domain_checker)
        implications.append(impl)
        emitted.append(text)
    return EncodedFormula(tuple(rdef.arg_names), tuple(implications), tuple(emitted))


def _nonconst_divisors(e: Expr) -> list:
    """Divisors of the floor/ceil quotients in `e` that are not constants."""
    return [n.arg.rhs for n in nodes(e)
            if isinstance(n, (Floor, Ceil)) and isinstance(n.arg, Div)
            and not isinstance(n.arg.rhs, Const)]


def _check_divisor_positivity(antecedent: Constraint, sides, domain_checker):
    # the div/ceil encodings assume positive divisors; demand the antecedent
    # proves it for every non-constant divisor
    divisors = [d for e in (*sides, antecedent) for d in _nonconst_divisors(e)]
    for d in divisors:
        if not domain_checker(antecedent, Cmp(">", d, Const(Fraction(0)))):
            raise UnsupportedOperator(
                f"cannot prove divisor positivity for {to_text(d)}")


# ---------------------------------------------------------------------------
# SMT-LIB2 emission
# ---------------------------------------------------------------------------

def _linear(e: Expr):
    """(operands, rebuild) when a positive factor distributes over `e`:
    both sides of + - max min (it keeps the order) and both branches of
    an ite."""
    t = type(e)
    if t is Add or t is Sub or t is Max or t is Min:
        return (e.lhs, e.rhs), t
    if t is Ite:
        return (e.then, e.other), lambda then, other: Ite(e.cond, then, other)
    return None


def _clear(e: Expr) -> tuple:
    """(d*e, d) for the least d that makes whole every constant the
    clearing reaches: the operands of `_linear`, the operand of a constant
    factor (whose denominator multiplies the operand's d) and the base of
    a positive integer power (d^k).  With d = 1, `e` comes back as written,
    so a whole factor is carried into its operand only by `_times`."""
    t = type(e)
    if t is Var:
        return e, 1
    if t is Const:
        d = e.value.denominator
        return (e, 1) if d == 1 else (Const(Fraction(e.value.numerator)), d)
    linear = _linear(e)
    if linear is not None:
        operands, rebuild = linear
        (x, a), (y, b) = map(_clear, operands)
        d = lcm(a, b)
        return (e, 1) if d == 1 else (rebuild(_times(x, d // a), _times(y, d // b)), d)
    factor = constant_factor(e)
    if factor is not None:
        c, operand = factor
        x, a = _clear(operand)
        d = c.denominator * a
        return (e, 1) if d == 1 else (_carry(c.numerator, x), d)
    if t is Pow and type(e.exponent) is Const and e.exponent.value.denominator == 1 \
            and e.exponent.value > 0:
        base, d = _clear(e.base)
        return (e, 1) if d == 1 else (Pow(base, e.exponent), d ** int(e.exponent.value))
    return e, 1


def _times(e: Expr, k) -> Expr:
    """`k * e` for a positive k: spread over the operands of `_linear` and
    carried into the operand of a constant factor; any other node is
    multiplied as a whole."""
    if k == 1:
        return e
    if type(e) is Const:
        return Const(e.value * k)
    linear = _linear(e)
    if linear is not None:
        operands, rebuild = linear
        return rebuild(*(_times(x, k) for x in operands))
    factor = constant_factor(e)
    if factor is not None:
        return _carry(factor[0] * k, factor[1])
    return Mul(Const(Fraction(k)), e)


def _carry(k, operand: Expr) -> Expr:
    """`k * operand`, the factor carried into the operand unless it is 0."""
    if k == 0:
        return Mul(Const(Fraction(0)), operand)
    if k < 0:
        return Sub(Const(Fraction(0)), _times(operand, -k))
    return _times(operand, k)


def _cleared(lhs: Expr, rhs: Expr) -> tuple:
    """Both sides of an equation or comparison times the one factor that
    clears them."""
    both, _ = _clear(Sub(lhs, rhs))
    return simplify(both.lhs), simplify(both.rhs)


def _smt_int(v: Fraction) -> str:
    if v.denominator != 1:
        raise UnsupportedOperator(f"residual rational constant {v}")
    n = v.numerator
    return str(n) if n >= 0 else f"(- {-n})"


# The nodes written as the SMT-LIB2 operator of the same meaning applied
# to their children.
_APPLY = {Add: "+", Sub: "-", Mul: "*", And: "and", Or: "or", Not: "not"}
# max and min as ite over their operands bound by `let` (`?` occurs in no
# recsolve name): the test that picks lhs
_PICK = {Max: ">=", Min: "<="}


def emit_term(e: Expr) -> str:
    """`e`, an expression or a constraint, as an SMT-LIB2 term; each
    comparison is cleared of rational coefficients."""
    t = type(e)
    if t in _APPLY:
        return f"({_APPLY[t]} {' '.join(map(emit_term, children(e)))})"
    if t is Const:
        return _smt_int(e.value)
    if t is Var:
        return e.name
    if t is Pow:
        k = e.exponent
        if type(k) is not Const or k.value.denominator != 1 or k.value < 0:
            raise UnsupportedOperator(to_text(e))
        n = int(k.value)
        if n == 0:
            return "1"
        base = emit_term(e.base)
        return base if n == 1 else f"(* {' '.join([base] * n)})"
    if t is Floor or t is Ceil:
        return _emit_floor_ceil(e)
    if t in _PICK:  # each operand written once, so nesting stays linear
        return (f"(let ((?a {emit_term(e.lhs)}) (?b {emit_term(e.rhs)}))"
                f" (ite ({_PICK[t]} ?a ?b) ?a ?b))")
    if t is Ite:
        return f"(ite {emit_term(e.cond)} {emit_term(e.then)} {emit_term(e.other)})"
    if t is Cmp:
        a, b = map(emit_term, _cleared(simplify(e.lhs), simplify(e.rhs)))
        return f"(not (= {a} {b}))" if e.op == "!=" else f"({e.op} {a} {b})"
    if t is BoolLit:
        return "true" if e.value else "false"
    if t is Div:
        raise UnsupportedOperator(f"bare division {to_text(e)}")
    if t is Log2Ceil:
        raise UnsupportedOperator(to_text(e))
    if t is Call:
        raise UnsupportedOperator(f"unreplaced call {to_text(e)}")
    raise TypeError(f"unknown expression node {e!r}")


def _emit_floor_ceil(e: Expr) -> str:
    ceil = type(e) is Ceil
    arg = e.arg
    if type(arg) is Div and type(arg.rhs) is not Const:
        num, den = emit_term(simplify(arg.lhs)), emit_term(simplify(arg.rhs))
    else:
        num_expr, q = _clear(arg)
        num = emit_term(simplify(num_expr))
        if q == 1:
            return num  # integer-valued argument
        den = str(q)
    if ceil:
        return f"(- (div (- {num}) {den}))"  # ceil(a/b) = -((-a) div b), b > 0
    return f"(div {num} {den})"


def emit_implication(impl: Implication) -> str:
    """One implication as an SMT-LIB2 term, its equation cleared of
    rational coefficients.  Raises UnsupportedOperator outside the solver
    fragment: integer arithmetic with constant powers, floor/ceil over
    divisions, ite-encoded max/min and conditionals."""
    lhs, rhs = _cleared(impl.lhs, impl.rhs)
    return (f"(=> {emit_term(impl.antecedent)}"
            f" (= {emit_term(lhs)} {emit_term(rhs)}))")


def emit_smtlib(ef: EncodedFormula) -> str:
    """Deterministic SMT-LIB2 script asserting the negation of the encoded
    conjunction of implications."""
    impls = ef.emitted
    body = impls[0] if len(impls) == 1 else "(and " + " ".join(impls) + ")"
    return _script(ef.variables, (f"(not {body})",), "(get-model)")


def _script(names, assertions, *tail: str) -> str:
    """The layout of every script: the logic, one integer constant per
    name, the assertions, `check-sat`, then `tail`."""
    lines = [f"(set-logic {LOGIC})", *(f"(declare-const {n} Int)" for n in names),
             *(f"(assert {a})" for a in assertions), "(check-sat)", *tail]
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
    except SolverTimeout as err:
        return Unknown("solver-timeout", str(err))
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
    names = rdef.arg_names
    case = next((c for c in rdef.cases if compile_expr(c.guard, names)(point)), None)
    if case is None:
        return []
    pre = compile_expr(rdef.precondition, names)
    sites = []
    for node in nodes(case.body):
        if isinstance(node, Call) and node.fname == rdef.name \
                and not any(contains_calls(a) for a in node.args):
            args = tuple(compile_expr(a, names)(point) for a in node.args)
            if all(v.denominator == 1 for v in args):
                site = tuple(int(v) for v in args)
                if pre(site):
                    sites.append(site)
    return sites
