"""An in-process exact prover for the SMT-LIB2 scripts the checker emits.

`solve_script` reads the SMT-LIB2 subset that `emit_smtlib` and `entails`
produce (`set-logic`, `declare-const` of Int constants, `assert`,
`check-sat`, `get-model`; terms built from integer literals, `+ - *`,
`div`, `ite` and `let`; comparisons, `and`, `or`, `not`, `=>`) and
answers in the text a solver would print: `sat` with a `define-fun`
model, `unsat`, or `unknown`.  `div` keeps its SMT-LIB meaning (the remainder lies in
[0, |b|); division by zero is an unspecified function).

The answers are never guesses:

* `sat` only with a model that satisfies every assertion under exact
  integer evaluation.  Models are searched in order of increasing
  max-norm, so the smallest counterexample comes first.
* `unsat` only with a proof.  Every `ite` (hence every max and min) is
  case-split; every `div` becomes a fresh integer bounded by its defining
  inequalities, after div(a + k*b, b) is rewritten to div(a, b) + k; both
  sides of every comparison are normalized to polynomials over Z; and the
  formula is expanded into a disjunction of cells, conjunctions of
  `p >= 0` and `p = 0`.  A cell is closed when its interval bounds cross,
  or when Fourier-Motzkin elimination over Q derives a contradiction, with
  strict inequalities and constant terms tightened to integers (`p > 0`
  becomes `p - 1 >= 0`, the Omega test's normalization).  Nonlinear
  monomials take part as extra unknowns, bounded by interval arithmetic
  and by the products of bound constraints.  Real infeasibility implies
  integer infeasibility, so a closed cell has no integer point.  The
  formula is unsat when every cell is closed.
* `unknown` for everything else, such as a bounded cell with rational
  points but no integer point (`0 <= x <= 3 and 0 <= y <= 3 and x*y = 5`),
  a script nested past Python's recursion limit, or a bound no float
  holds.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import time

__all__ = ["solve_script"]

SEARCH_RADIUS = 2        # model search before the refutation is tried
SEARCH_POINTS = 4096     # points the full model search may visit
SEARCH_MAX_RADIUS = 100
FM_CONSTRAINTS = 2000    # Fourier-Motzkin gives up beyond this many


class Unsupported(Exception):
    """The script uses syntax outside the subset this prover reads."""


class _Undefined(Exception):
    """Division by zero: the value is unspecified, so nothing follows."""


class _Timeout(Exception):
    pass


# ---------------------------------------------------------------------------
# Reading the script
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_CMP = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def _sexprs(text: str) -> list:
    stack: list = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise Unsupported("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise Unsupported("unbalanced '('")
    return stack[0]


class _Reader:
    """Turns s-expressions into term and formula tuples.  A leaf is
    (kind, value): ("num", n), ("var", name), ("bool", b).  Every other
    node is (kind, *children): terms ("add", *terms), ("mul", *terms),
    ("neg", t), ("div", a, b), ("ite", f, a, b); formulas ("and", *fs),
    ("or", *fs), ("not", f), and the comparison ("cmp", op, a, b), whose
    operator comes first.  A `let` is read as its body, each bound name
    standing for the one tuple of its term, shared wherever it occurs."""

    def __init__(self):
        self.names: list = []
        self.bound: dict = {}   # the `let` names in scope and their terms

    def term(self, s):
        if isinstance(s, str):
            if s.isdigit():
                return ("num", int(s))
            if s in self.bound:
                return self.bound[s]
            if s in self.names:
                return ("var", s)
            raise Unsupported(f"unknown symbol {s}")
        if not s or not isinstance(s[0], str):
            raise Unsupported(f"bad term {s}")
        head, args = s[0], s[1:]
        if head == "-" and len(args) == 1:
            return ("neg", self.term(args[0]))
        if head == "-" and len(args) > 1:
            return ("add", self.term(args[0]), *(("neg", self.term(a)) for a in args[1:]))
        if head in ("+", "*") and args:
            return ("add" if head == "+" else "mul", *map(self.term, args))
        if head == "div" and len(args) == 2:
            return ("div", self.term(args[0]), self.term(args[1]))
        if head == "ite" and len(args) == 3:
            return ("ite", self.formula(args[0]), self.term(args[1]), self.term(args[2]))
        if head == "let" and len(args) == 2 and isinstance(args[0], list) \
                and all(isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)
                        for b in args[0]):
            outer = self.bound
            self.bound = {**outer, **{name: self.term(value) for name, value in args[0]}}
            body = self.term(args[1])
            self.bound = outer
            return body
        raise Unsupported(f"unsupported term {head}")

    def formula(self, s):
        if s in ("true", "false"):
            return ("bool", s == "true")
        if isinstance(s, str) or not s or not isinstance(s[0], str):
            raise Unsupported(f"bad formula {s}")
        head, args = s[0], s[1:]
        if head in ("and", "or"):
            return (head, *map(self.formula, args))
        if head == "not" and len(args) == 1:
            return ("not", self.formula(args[0]))
        if head == "=>" and len(args) == 2:
            return ("or", ("not", self.formula(args[0])), self.formula(args[1]))
        if head in _CMP and len(args) == 2:
            return ("cmp", head, self.term(args[0]), self.term(args[1]))
        raise Unsupported(f"unsupported formula {head}")


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------

def _div(a: int, b: int) -> int:
    if b == 0:
        raise _Undefined
    return a // b if b > 0 else -(a // -b)


_LEAVES = ("num", "var")
_APPLY = {"add": sum, "mul": math.prod, "neg": lambda a: -a[0], "div": lambda a: _div(*a)}


def _eval_term(t, env, ites) -> int:
    """The value of `t` at `env`; `ites` holds the value of each ite node
    evaluated so far, by identity, so a term that a `let` shares is
    evaluated once however often its ite reads it."""
    kind = t[0]
    if kind == "num":
        return t[1]
    if kind == "var":
        return env[t[1]]
    if kind == "ite":  # only the branch taken: the other may divide by zero
        key = id(t)
        if key not in ites:
            ites[key] = _eval_term(t[2] if _eval_formula(t[1], env, ites) else t[3], env, ites)
        return ites[key]
    return _APPLY[kind]([_eval_term(a, env, ites) for a in t[1:]])


def _eval_formula(f, env, ites) -> bool:
    kind = f[0]
    if kind == "bool":
        return f[1]
    if kind == "and":
        return all(_eval_formula(a, env, ites) for a in f[1:])
    if kind == "or":
        return any(_eval_formula(a, env, ites) for a in f[1:])
    if kind == "not":
        return not _eval_formula(f[1], env, ites)
    return _CMP[f[1]](_eval_term(f[2], env, ites), _eval_term(f[3], env, ites))


# ---------------------------------------------------------------------------
# Polynomials over Z: {monomial: coefficient}, a monomial being the sorted
# tuple of its variables with repetition (() is the constant term)
# ---------------------------------------------------------------------------

def _padd(p: dict, q: dict, k: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + k * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _const(c: int) -> dict:
    return {(): c} if c else {}


def _var(name: str) -> dict:
    return {(name,): 1}


def _key(p: dict) -> tuple:
    return tuple(sorted(p.items()))


# ---------------------------------------------------------------------------
# Normal form: NNF over atoms ("ge", key) for p >= 0 and ("eq", key) for
# p = 0, with ite case-split and div replaced by fresh variables
# ---------------------------------------------------------------------------

_TRUE, _FALSE = ("bool", True), ("bool", False)


def _atom(op: str, p: dict):
    coefs = [c for m, c in p.items() if m]
    const = p.get((), 0)
    if not coefs:
        return _TRUE if (const >= 0 if op == "ge" else const == 0) else _FALSE
    g = math.gcd(*coefs)
    if op == "eq":
        if const % g:
            return _FALSE
        if p[min(m for m in p if m)] < 0:
            g = -g  # one sign per equation, so equal atoms compare equal
    return (op, _key({m: c // g for m, c in p.items()}))


def _and(items) -> tuple:
    items = tuple(items)
    if _FALSE in items:
        return _FALSE
    items = tuple(i for i in items if i != _TRUE)
    return items[0] if len(items) == 1 else ("and", *items) if items else _TRUE


def _or(items) -> tuple:
    items = tuple(items)
    if _TRUE in items:
        return _TRUE
    items = tuple(i for i in items if i != _FALSE)
    return items[0] if len(items) == 1 else ("or", *items) if items else _FALSE


def _compare(op: str, p: dict):
    """The formula p op 0 over the integers, op one of = != < <= > >=."""
    if op == "=":
        return _atom("eq", p)
    if op == "!=":
        return _or([_atom("ge", _padd(p, _const(-1))),
                    _atom("ge", _padd(_const(-1), p, -1))])
    neg = _padd({}, p, -1)
    return {"<": _atom("ge", _padd(neg, _const(-1))), "<=": _atom("ge", neg),
            ">": _atom("ge", _padd(p, _const(-1))), ">=": _atom("ge", p)}[op]


_NEGATED = {"=": "!=", "<": ">=", "<=": ">", ">": "<=", ">=": "<", "!=": "="}
_ZERO = ("num", 0)


def _first_ite(t):
    """The outermost ite of a term (not looking into conditions), or None."""
    if t[0] == "ite":
        return t
    if t[0] in _LEAVES:
        return None
    for a in t[1:]:
        found = _first_ite(a)
        if found is not None:
            return found
    return None


def _replace(t, old, new):
    """The term with every occurrence of the subterm `old` replaced,
    looking into no other ite."""
    if t == old:
        return new
    if t[0] in _LEAVES or t[0] == "ite":
        return t
    return (t[0], *(_replace(a, old, new) for a in t[1:]))


class _Normalizer:
    """Polynomials of ite-free terms, each div replaced by a fresh
    variable whose defining constraints are returned alongside."""

    def __init__(self):
        self.divs: dict = {}    # (numerator key, divisor key) -> fresh name

    def poly(self, t):
        """(polynomial, conditions) for an ite-free term: the term equals
        the polynomial wherever the conditions hold, and they hold at every
        point once each fresh variable takes its quotient's value."""
        kind = t[0]
        if kind == "num":
            return _const(t[1]), []
        if kind == "var":
            return _var(t[1]), []
        polys, conds = [], []
        for child in t[1:]:
            p, c = self.poly(child)
            polys.append(p)
            conds += c
        if kind == "neg":
            return _padd({}, polys[0], -1), conds
        if kind == "add":
            return functools.reduce(_padd, polys, {}), conds
        if kind == "mul":
            return functools.reduce(_pmul, polys, _const(1)), conds
        cd, p = self.div(*polys)
        return p, conds + list(cd)

    def div(self, a: dict, b: dict):
        """(conditions, polynomial) for div(a, b)."""
        if set(b) <= {()}:
            c = b.get((), 0)
            if c < 0:
                conds, p = self.div(a, _const(-c))
                return conds, _padd({}, p, -1)
            if c > 0:  # reduce every coefficient into [0, c)
                k = {m: v // c for m, v in a.items() if v // c}
                a = _padd(a, k, -c)
                if set(a) <= {()}:
                    return (), k
                q = self.fresh(a, b)
                cq = _padd({}, _var(q), c)
                return (_and([_atom("ge", _padd(a, cq, -1)),
                              _atom("ge", _padd(_padd(cq, _const(c - 1)), a, -1))]),), \
                    _padd(k, _var(q))
            return (), _var(self.fresh(a, b))
        lead = max(m for m in b if m)
        k = a.get(lead, 0) // b[lead]
        a = _padd(a, b, -k)
        q = self.fresh(a, b)
        bq = _pmul(b, _var(q))
        below = _atom("ge", _padd(a, bq, -1))                 # b*q <= a
        positive = _and([
            _atom("ge", _padd(b, _const(-1))), below,
            _atom("ge", _padd(_padd(bq, b), _padd(a, _const(1)), -1))])
        negative = _and([
            _atom("ge", _padd(_const(-1), b, -1)), below,
            _atom("ge", _padd(_padd(bq, b, -1), _padd(a, _const(1)), -1))])
        definition = _or([positive, negative, _atom("eq", b)])
        return (definition,), _padd(_var(q), _const(k))

    def fresh(self, a: dict, b: dict) -> str:
        key = (_key(a), _key(b))
        if key not in self.divs:
            # a space keeps the name apart from SMT symbols
            self.divs[key] = f" q{len(self.divs)}"
        return self.divs[key]


# ---------------------------------------------------------------------------
# Deciding one cell
# ---------------------------------------------------------------------------

def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _mul_bound(a, b):
    return 0 if a == 0 or b == 0 else a * b


def _power_interval(lo, hi, e: int):
    if e % 2 or lo >= 0:
        return lo ** e, hi ** e
    if hi <= 0:
        return hi ** e, lo ** e
    return 0, max(lo ** e, hi ** e)


def _monomial_interval(m: tuple, lo: dict, hi: dict):
    out = (1, 1)
    for v, group in itertools.groupby(m):
        a, b = _power_interval(lo[(v,)], hi[(v,)], len(list(group)))
        corners = [_mul_bound(x, y) for x in out for y in (a, b)]
        out = (min(corners), max(corners))
    return out


def _propagate(cons: list, cols):
    """Interval bounds for every column, or None when they cross.  The
    columns are visited in sorted order, so the bounds reached within the
    rounds do not depend on the order (or the hashing) of `cols`."""
    cols = sorted(cols)
    lo = {m: -math.inf for m in cols}
    hi = {m: math.inf for m in cols}
    for v in sorted({(v,) for m in cols for v in m}):
        lo.setdefault(v, -math.inf)
        hi.setdefault(v, math.inf)
    for _ in range(8):
        changed = False
        for p in cons:
            const = p.get((), 0)
            terms = [(m, a) for m, a in p.items() if m]
            sups = [a * hi[m] if a > 0 else a * lo[m] for m, a in terms]
            for j, (m, a) in enumerate(terms):
                rest = sum(s for i, s in enumerate(sups) if i != j)
                if math.isinf(rest):
                    continue
                bound = -const - rest  # a*m >= bound
                if a > 0:
                    new = _ceil_div(bound, a)
                    if new > lo[m]:
                        lo[m], changed = new, True
                else:
                    new = bound // a
                    if new < hi[m]:
                        hi[m], changed = new, True
        for m in cols:
            if len(m) > 1:
                a, b = _monomial_interval(m, lo, hi)
                if a > lo[m]:
                    lo[m], changed = a, True
                if b < hi[m]:
                    hi[m], changed = b, True
        if any(lo[m] > hi[m] for m in lo):
            return None
        if not changed:
            break
    return lo, hi


def _bound_products(cols: list, lo: dict, hi: dict) -> list:
    """Valid inequalities (u - l_u)(v - l_v) >= 0 and the like for every
    quadratic monomial u*v whose factors have finite bounds."""
    out = []
    for m in cols:
        if len(m) != 2:
            continue
        u, v = _bound_factors(m[0], lo, hi), _bound_factors(m[1], lo, hi)
        out += [_pmul(fu, fv) for fu in u for fv in v]
    return out


def _bound_factors(name: str, lo: dict, hi: dict) -> list:
    """x - l >= 0 and h - x >= 0 for the finite bounds l, h of x."""
    col = (name,)
    out = []
    if not math.isinf(lo[col]):
        out.append(_padd(_var(name), _const(-lo[col])))
    if not math.isinf(hi[col]):
        out.append(_padd(_const(hi[col]), _var(name), -1))
    return out


def _fourier_motzkin(polys: list, deadline: float) -> bool:
    """True when the system p >= 0 (p in polys, every monomial an integer
    unknown) has no rational solution; False when elimination ends
    without a contradiction or gives up past FM_CONSTRAINTS."""
    system: dict = {}

    def add(p: dict, into: dict) -> bool:
        """Adds the tightened constraint; True if it is a contradiction."""
        coefs = tuple(sorted((m, c) for m, c in p.items() if m))
        const = p.get((), 0)
        if not coefs:
            return const < 0
        g = math.gcd(*(c for _, c in coefs))
        if g > 1:
            coefs = tuple((m, c // g) for m, c in coefs)
            const //= g
        if coefs not in into or const < into[coefs]:
            into[coefs] = const
        return False

    for p in polys:
        if add(p, system):
            return True
    while system:
        if time.monotonic() > deadline:
            raise _Timeout
        occurs: dict = {}
        for coefs in system:
            for m, c in coefs:
                pos, neg = occurs.get(m, (0, 0))
                occurs[m] = (pos + 1, neg) if c > 0 else (pos, neg + 1)
        col = min(occurs, key=lambda m: (occurs[m][0] * occurs[m][1] - sum(occurs[m]), m))
        upper, lower, rest = [], [], {}
        for coefs, const in system.items():
            c = dict(coefs).get(col, 0)
            p = dict(coefs)
            p[()] = const
            if c > 0:
                upper.append((c, p))
            elif c < 0:
                lower.append((-c, p))
            else:
                rest[coefs] = const
        for a, p in upper:
            for b, n in lower:
                l = a * b // math.gcd(a, b)
                combined = _padd(_padd({}, p, l // a), n, l // b)
                if add(combined, rest):
                    return True
            if len(rest) > FM_CONSTRAINTS:
                return False
        system = rest
    return False


def _closed(atoms, deadline: float) -> bool:
    """True when the conjunction of atoms has no integer point: its
    interval bounds cross, or Fourier-Motzkin elimination refutes it
    together with the finite bounds and their products."""
    polys = []
    for op, key in sorted(atoms):  # in an order no hash decides
        p = dict(key)
        polys.append(p)
        if op == "eq":
            polys.append(_padd({}, p, -1))
    cols = sorted({m for p in polys for m in p if m})
    bounds = _propagate(polys, cols)
    if bounds is None:
        return True
    lo, hi = bounds
    extra = [{m: 1, (): -lo[m]} for m in cols if not math.isinf(lo[m])]
    extra += [{m: -1, (): hi[m]} for m in cols if not math.isinf(hi[m])]
    extra += _bound_products(cols, lo, hi)
    return _fourier_motzkin(polys + extra, deadline)


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

class _Problem:
    def __init__(self, names: list, assertions: list, deadline: float):
        self.names = names
        self.formula = ("and", *assertions)
        self.deadline = deadline

    def holds(self, env) -> bool:
        try:
            return _eval_formula(self.formula, env, {})
        except _Undefined:
            return False

    def search(self, radius_from: int, radius_to: int, budget: int):
        """First point, by max-norm, that satisfies the assertions."""
        n = len(self.names)
        visited = 0
        for r in range(radius_from, radius_to + 1):
            axis = [0] + [s * i for i in range(1, r + 1) for s in (1, -1)]
            for point in itertools.product(axis, repeat=n):
                if max(map(abs, point), default=0) != r:
                    continue
                visited += 1
                if visited > budget:
                    return None
                if visited % 256 == 0 and time.monotonic() > self.deadline:
                    raise _Timeout
                env = dict(zip(self.names, point))
                if self.holds(env):
                    return env
            if n == 0:
                return None
        return None

    def refute(self) -> bool:
        """True when every cell of the formula is closed.  The cells are
        explored depth first from a stack of alternatives, each with the
        atoms and the branch points left on its path, so a deep case split
        meets the deadline, not Python's recursion limit.  Each branch is
        pruned as soon as its atoms are refuted, and the exploration stops
        at the first open cell, after which the formula cannot be refuted."""
        self.norm = _Normalizer()
        self.cells: dict = {}    # frozenset of atoms -> closed
        stack = [([(self.formula, True)], [], [])]
        while stack:
            if time.monotonic() > self.deadline:
                raise _Timeout  # cells that close without elimination check no clock
            todo, atoms, branches = map(list, stack.pop())
            if self.expand(todo, atoms, branches):
                continue
            if not branches:
                return False
            stack += [(alternative, atoms, branches[1:])
                      for alternative in reversed(branches[0])]
        return True

    def expand(self, todo: list, atoms: list, branches: list) -> bool:
        """True when the cell that `todo` adds to `atoms` is closed; reads
        `todo` into `atoms` and `branches` in place.  A pending item is a
        parsed formula with its polarity or a normalized node ("and",
        "or", "bool", "ge", "eq"), which all read positively.
        Disjunctions, and the two sides of an ite inside a comparison,
        become branch points."""
        while todo:
            f, positive = todo.pop()
            kind = f[0]
            if kind in ("ge", "eq"):
                atoms.append(f)
            elif kind == "bool":
                if f[1] != positive:
                    return True
            elif kind == "not":
                todo.append((f[1], not positive))
            elif kind in ("and", "or"):
                if (kind == "and") == positive:
                    todo += [(g, positive) for g in f[1:]]
                else:
                    branches.append([[(g, positive)] for g in f[1:]])
            else:
                op = f[1] if positive else _NEGATED[f[1]]
                diff = ("add", f[2], ("neg", f[3]))
                ite = _first_ite(diff)
                if ite is None:
                    p, conds = self.norm.poly(diff)
                    todo += [(c, True) for c in conds]
                    todo.append((_compare(op, p), True))
                else:
                    cond, then, other = ite[1:]
                    branches.append([
                        [(cond, True), (("cmp", op, _replace(diff, ite, then), _ZERO), True)],
                        [(cond, False), (("cmp", op, _replace(diff, ite, other), _ZERO), True)]])
        key = frozenset(atoms)
        if key not in self.cells:
            self.cells[key] = _closed(key, self.deadline)
        return self.cells[key]

    def check(self):
        model = self.search(0, SEARCH_RADIUS, SEARCH_POINTS)
        if model is not None:
            return "sat", model
        if self.refute():
            return "unsat", None
        model = self.search(SEARCH_RADIUS + 1, SEARCH_MAX_RADIUS, SEARCH_POINTS)
        return ("sat", model) if model is not None else ("unknown", None)


def _model_text(names: list, env: dict) -> str:
    lines = ["("]
    for n in names:
        v = env[n]
        lines.append(f"  (define-fun {n} () Int {v if v >= 0 else f'(- {-v})'})")
    lines.append(")")
    return "\n".join(lines)


def solve_script(script: str, timeout_ms: int = 10_000) -> tuple:
    """Run an SMT-LIB2 script.  Returns (status, output), status being
    sat, unsat, unknown or timeout, and output the text a solver prints."""
    deadline = time.monotonic() + timeout_ms / 1000.0
    reader = _Reader()
    assertions: list = []
    out: list = []
    status, model = "unknown", None
    try:
        for cmd in _sexprs(script):
            if not isinstance(cmd, list) or not cmd or not isinstance(cmd[0], str):
                raise Unsupported(f"bad command {cmd}")
            head = cmd[0]
            if head == "set-logic":
                continue
            if head == "declare-const":
                if cmd[2:] != ["Int"]:
                    raise Unsupported(f"unsupported declaration {cmd}")
                reader.names.append(cmd[1])
            elif head == "assert" and len(cmd) == 2:
                assertions.append(reader.formula(cmd[1]))
            elif head == "check-sat":
                status, model = _Problem(list(reader.names), assertions, deadline).check()
                out.append(status)
            elif head == "get-model":
                if status == "sat":
                    out.append(_model_text(reader.names, model))
            else:
                raise Unsupported(f"unsupported command {head}")
    except (Unsupported, RecursionError, OverflowError) as err:
        return "unknown", "\n".join(out + ["unknown", f'(error "{err}")']) + "\n"
    except _Timeout:
        return "timeout", ""
    return status, "\n".join(out) + "\n"
