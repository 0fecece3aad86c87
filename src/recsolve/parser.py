"""Parser for the recurrence DSL and its expression/constraint syntax.

Grammar (one definition per `.rec` file, `#` comments):

    recdef    := "def" name "(" args ")" ";" "pre" constraint ";" case+
    case      := name "(" args ")" "=" expr "if" constraint ";"

Expressions and constraints are one grammar, read by one precedence-
climbing loop (`_Parser.formula`) over the binding powers of `expr`,
loosest first:

    or                    `expr.CONNECTIVES`, at `expr.OR`
    and                   at `expr.AND`
    not                   prefix, at `expr.NOT`
    = != < <= > >=        `expr.CMP`, at `expr.COMPARE`; they do not chain
    + -                   `expr.INFIX`, left-associative, at `expr.ADD`
    * /                   at `expr.MUL`

Tighter still are unary minus, `^` for powers (right-associative, tighter
than unary minus) and the atoms: literals, with `p/q` read as one rational
literal; names; `true` and `false`; a parenthesized formula of either
kind; the functions of `expr.FUNCTIONS` (`floor(e)`, `ceil(e)`,
`log2ceil(e)`, `max(e,e)`, `min(e,e)`; the arity is the node's field
count); `ite(c,e,e)` and function application `f(e,...)`.  Names are
ASCII, `[A-Za-z_][A-Za-z0-9_]*`, and literals ASCII digits.  The kinds
are checked where a node is built: `and`, `or`, `not` and an `ite`
condition take constraints, every other operand an expression.  The
printer (`expr.to_text`) reads the same tables, so printing and parsing
agree on every operator.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import partial

from .expr import (
    CMP, COMPARE, COND, CONNECTIVES, FUNCTIONS, INFIX, NOT, BoolLit, Call, Cmp,
    Const, Constraint, Div, Expr, Ite, Not, Pow, Sub, Var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token:
    """A token of the text, at a 1-based line and column.  It is not a
    `Record`: a parse makes one per token, and plain attribute stores keep
    that cheaper than a frozen record's slot setters."""
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # NAME INT OP EOF
        self.text = text
        self.line = line
        self.col = col


# One token per match on a line, the two-character operators first.
# Literals and names are ASCII only: `[0-9]`, not `\d`, which takes every
# script's digits, and a solver model names its variables in ASCII.
_TOKEN = re.compile(r"[ \t\r]+|#.*|(?P<OP><=|>=|!=|[-+*/^(),;=<>])|(?P<INT>[0-9]+)"
                    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<BAD>.)")
_KEYWORDS = {"def", "pre", "if", "and", "or", "not", "true", "false"}

# The binding power and node of every infix operator
_BINDING = {**{op: (COMPARE, partial(Cmp, op)) for op in CMP},
            **{word: (power, node)
               for node, (word, power) in (*CONNECTIVES.items(), *INFIX.items())}}
_KINDS = ("an expression", "a constraint")
_ARGUMENTS = {1: "one argument", 2: "two arguments"}

# The deepest nesting of operands (`unary`: an atom, or `-` or `not` with
# its operand) the parser accepts; a division nests its whole chain, as
# generated code calls it.  That code spends at most 3 of Python's 200
# nested parentheses on a level (a recursive call as an operand), so every
# accepted tree compiles.
MAX_NESTING = 60
_TOO_DEEP = f"nested more than {MAX_NESTING} levels deep"

# The most infix operators and connectives on one path from the root of a
# tree: `a + b + c` is a chain of two, and a parenthesized chain adds its
# operators to the chain around it.  Every walker of the trees (printer,
# simplifier, substitution, SMT-LIB2 emitter, tree equality) recurses at
# least once per node on a path, and the checker substitutes a candidate
# into a body, which stacks two such paths; this bound keeps both within
# Python's recursion limit, with room for the caller's frames.
MAX_CHAIN = 100
_TOO_LONG = f"operators chained more than {MAX_CHAIN} deep"


def tokenize(text: str) -> list:
    toks = []
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars):
            kind = m.lastgroup
            if kind == "BAD":
                raise ParseError(f"unexpected character {m.group()!r}", line, m.start() + 1)
            if kind:
                toks.append(Token(kind, m.group(), line, m.start() + 1))
    toks.append(Token("EOF", "", line, len(chars) + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0    # levels open at the current token
        self.deepest = 0  # the deepest level reached, divisions included
        self.links = 0    # the most operators on a path down from the formula

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def expect_name(self) -> Token:
        t = self.peek()
        if t.kind != "NAME" or t.text in _KEYWORDS:
            self.fail(f"expected a name, found {t.text or 'end of input'!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def enter(self):
        """Open a level, closed by `self.depth -= 1` (see `MAX_NESTING`)."""
        self.depth += 1
        self.deepest = max(self.deepest, self.depth)
        if self.depth > MAX_NESTING:
            self.fail(_TOO_DEEP)

    # -- formulas ----------------------------------------------------------

    @staticmethod
    def kind(e: Expr, constraint: bool, start: Token) -> Expr:
        """`e`, which begins at `start`, if it is a constraint exactly when
        `constraint` is true."""
        if isinstance(e, Constraint) != constraint:
            raise ParseError(f"expected {_KINDS[constraint]}, found {_KINDS[not constraint]}",
                             start.line, start.col)
        return e

    @staticmethod
    def build(node, tok: Token, *operands) -> Expr:
        try:
            return node(*operands)
        except ValueError as err:
            raise ParseError(str(err), tok.line, tok.col) from None

    def formula(self, bp: int = COND, want: bool | None = None) -> Expr:
        """An operand and every infix operator after it that binds tighter
        than `bp`, folded left to right, checked to be a constraint when
        `want` is true and an expression when it is false.  The right
        operand of each operator is a formula at its binding power.  Each
        operator but a comparison nests the formula so far one link deeper
        (see `MAX_CHAIN`), and a division one level deeper too, as
        generated code calls it (see `MAX_NESTING`)."""
        outer_deepest, outer_links = self.deepest, self.links
        self.deepest, self.links = self.depth, 0
        start = self.peek()
        e = self.unary()
        while True:
            tok = self.peek()
            power, node = _BINDING.get(tok.text, (COND, None))
            if power <= bp:
                break
            self.next()
            constraints = node in CONNECTIVES
            self.kind(e, constraints, start)
            rhs = self.formula(power, constraints)
            if node is Div and isinstance(e, Const) and isinstance(rhs, Const) and rhs.value:
                e = Const(e.value / rhs.value)  # rational literal p/q
                continue
            e = self.build(node, tok, e, rhs)
            if power == COMPARE:
                continue
            self.links += 1
            if self.links > MAX_CHAIN:
                raise ParseError(_TOO_LONG, tok.line, tok.col)
            if node is Div:
                self.deepest += 1
                if self.deepest > MAX_NESTING:
                    raise ParseError(_TOO_DEEP, tok.line, tok.col)
        if outer_deepest > self.deepest:
            self.deepest = outer_deepest
        if outer_links > self.links:
            self.links = outer_links
        return e if want is None else self.kind(e, want, start)

    def unary(self) -> Expr:
        """An operand one level deeper (see `MAX_NESTING`): `not` or `-`
        and its operand, or an atom and the exponent after `^`."""
        self.enter()
        t = self.peek()
        if t.text == "not":
            self.next()
            e = Not(self.formula(NOT, True))
        elif t.text == "-":
            self.next()
            start = self.peek()
            e = self.kind(self.unary(), False, start)
            e = Const(-e.value) if isinstance(e, Const) else Sub(Const(Fraction(0)), e)
        else:
            e = self.atom()
            if self.at("^"):
                tok = self.next()
                exponent = self.peek()
                e = self.build(Pow, tok, self.kind(e, False, t),
                               self.kind(self.unary(), False, exponent))
        self.depth -= 1
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Const(Fraction(int(t.text)))
        if t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true")
        if t.text == "(":
            self.next()
            e = self.formula()
            self.expect(")")
            return e
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            name = self.next().text
            if not self.at("("):
                return Var(name)
            self.next()
            if name == "ite":
                cond = self.formula(want=True)
                self.expect(",")
                then = self.formula(want=False)
                self.expect(",")
                other = self.formula(want=False)
                self.expect(")")
                return Ite(cond, then, other)
            args = [self.formula(want=False)]
            while self.at(","):
                self.next()
                args.append(self.formula(want=False))
            self.expect(")")
            if name not in FUNCTIONS:
                return Call(name, tuple(args))
            node = FUNCTIONS[name]
            arity = len(node.__slots__)
            if len(args) != arity:
                raise ParseError(f"{name} takes {_ARGUMENTS[arity]}", t.line, t.col)
            return node(*args)
        self.fail(f"expected an expression, found {t.text or 'end of input'!r}")

    # -- recurrence definitions ----------------------------------------------

    def arg_list(self) -> tuple:
        self.expect("(")
        names = [self.expect_name().text]
        while self.at(","):
            self.next()
            names.append(self.expect_name().text)
        self.expect(")")
        return tuple(names)

    def recdef(self):
        from .recurrence import Case, RecurrenceDef

        self.expect("def")
        head = self.expect_name()
        name = head.text
        args = self.arg_list()
        if len(set(args)) != len(args):
            raise ParseError("duplicate argument name", head.line, head.col)
        self.expect(";")
        self.expect("pre")
        pre = self.formula(want=True)
        self.expect(";")
        cases = []
        while not self.at(""):
            t = self.expect_name()
            if t.text != name:
                raise ParseError(f"case defines {t.text!r}, expected {name!r}", t.line, t.col)
            case_args = self.arg_list()
            if case_args != args:
                raise ParseError("case arguments differ from the definition header",
                                 t.line, t.col)
            self.expect("=")
            body = self.formula(want=False)
            self.expect("if")
            guard = self.formula(want=True)
            self.expect(";")
            cases.append(Case(body, guard))
        if not cases:
            self.fail("expected at least one case")
        return RecurrenceDef(name, args, pre, tuple(cases))


def parse_expression(text: str) -> Expr:
    p = _Parser(text)
    e = p.formula(want=False)
    if p.peek().kind != "EOF":
        p.fail("trailing input after expression")
    return e


def parse_constraint(text: str) -> Constraint:
    p = _Parser(text)
    c = p.formula(want=True)
    if p.peek().kind != "EOF":
        p.fail("trailing input after constraint")
    return c


def parse_recurrence(text: str):
    """Parse a full `.rec` definition; returns a validated RecurrenceDef."""
    return _Parser(text).recdef()
