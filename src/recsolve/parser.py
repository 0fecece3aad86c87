"""Parser for the recurrence DSL and its expression/constraint syntax.

Grammar (one definition per `.rec` file, `#` comments):

    recdef    := "def" name "(" args ")" ";" "pre" constraint ";" case+
    case      := name "(" args ")" "=" expr "if" constraint ";"

Expressions use the infix operators of `expr.INFIX` (`+ - * /`, with
their precedence), `^` for powers, the functions of `expr.FUNCTIONS`
(`floor(e)`, `ceil(e)`, `log2ceil(e)`, `max(e,e)`, `min(e,e)`; the arity is
the node's field count), `ite(c,e,e)`, function application `f(e,...)`
and rational literals `p/q`.  Names are ASCII, `[A-Za-z_][A-Za-z0-9_]*`,
and literals ASCII digits.  Constraints combine the comparisons of
`expr.CMP` (`= != < <= > >=`) with `and`, `or`, `not`, `true`, `false`.
The printer (`expr.to_text`) reads the same tables, so printing and
parsing agree on every operator.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .expr import (
    CMP, CONNECTIVES, FUNCTIONS, INFIX, BoolLit, Call, Cmp, Const, Constraint,
    Div, Expr, Ite, Not, Pow, Sub, Var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # NAME INT OP EOF
    text: str
    line: int
    col: int


_TWO_CHAR = ("<=", ">=", "!=")
_ONE_CHAR = "+-*/^(),;=<>"
# Literals and names are ASCII only: str.isdigit also takes digits int()
# rejects, as ², and a solver model names its variables in ASCII
_DIGITS = "0123456789"
_NAME_START = "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_NAME_CHARS = _NAME_START + _DIGITS
_KEYWORDS = {"def", "pre", "if", "and", "or", "not", "true", "false"}


def _by_precedence(table: dict) -> tuple:
    """The symbols of an operator table as one {symbol: node} dict per
    precedence, loosest first."""
    precs = sorted({prec for _, prec in table.values()})
    return tuple({symbol: node for node, (symbol, p) in table.items() if p == prec}
                 for prec in precs)


_INFIX = _by_precedence(INFIX)              # + -, then * /
_CONNECTIVE = _by_precedence(CONNECTIVES)   # or, then and
_ARGUMENTS = {1: "one argument", 2: "two arguments"}

# The deepest nesting of operands (`unary`) and conditions (`negation`) the
# parser accepts; a division nests its whole chain, as generated code calls
# it.  That code spends at most 3 of Python's 200 nested parentheses on a
# level (a recursive call as an operand), so every accepted tree compiles.
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
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            toks.append(Token("OP", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            toks.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            toks.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0    # levels open at the current token
        self.deepest = 0  # the deepest level reached, divisions included
        self.links = 0    # the most operators on a path down from the chain

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

    # -- expressions -------------------------------------------------------

    def chain(self, levels: tuple, operand, prec: int = 0) -> Expr:
        """Operands joined left-associatively by the operators of
        `levels[prec]`; each operand binds tighter, and past the tightest
        level is an `operand()`.  Each operator nests the chain so far
        one link deeper (see `MAX_CHAIN`), and a division one level
        deeper too, as generated code calls it (see `MAX_NESTING`)."""
        if prec == len(levels):
            return operand()
        symbols = levels[prec]
        outer_deepest, outer_links = self.deepest, self.links
        self.deepest, self.links = self.depth, 0
        e = self.chain(levels, operand, prec + 1)
        while self.toks[self.pos].text in symbols:
            tok = self.next()
            node = symbols[tok.text]
            rhs = self.chain(levels, operand, prec + 1)
            if node is Div and isinstance(e, Const) and isinstance(rhs, Const):
                if rhs.value == 0:
                    self.fail("division by the literal constant zero")
                e = Const(e.value / rhs.value)  # rational literal p/q
                continue
            e = node(e, rhs)
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
        return e

    def expression(self) -> Expr:
        return self.chain(_INFIX, self.unary)

    def unary(self) -> Expr:
        self.enter()
        if self.at("-"):
            self.next()
            e = self.unary()
            e = Const(-e.value) if isinstance(e, Const) else Sub(Const(Fraction(0)), e)
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.at("^"):
            tok = self.next()
            exp = self.unary()
            try:
                return Pow(base, exp)
            except ValueError as err:
                raise ParseError(str(err), tok.line, tok.col) from None
        return base

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Const(Fraction(int(t.text)))
        if t.text == "(":
            self.next()
            e = self.expression()
            self.expect(")")
            return e
        if t.kind == "NAME" and t.text not in _KEYWORDS:
            name = self.next().text
            if not self.at("("):
                return Var(name)
            self.next()
            if name == "ite":
                cond = self.constraint()
                self.expect(",")
                then = self.expression()
                self.expect(",")
                other = self.expression()
                self.expect(")")
                return Ite(cond, then, other)
            args = [self.expression()]
            while self.at(","):
                self.next()
                args.append(self.expression())
            self.expect(")")
            if name not in FUNCTIONS:
                return Call(name, tuple(args))
            node = FUNCTIONS[name]
            arity = len(fields(node))
            if len(args) != arity:
                raise ParseError(f"{name} takes {_ARGUMENTS[arity]}", t.line, t.col)
            return node(*args)
        self.fail(f"expected an expression, found {t.text or 'end of input'!r}")

    # -- constraints ---------------------------------------------------------

    def constraint(self) -> Constraint:
        return self.chain(_CONNECTIVE, self.negation)

    def negation(self) -> Constraint:
        self.enter()
        if self.at("not"):
            self.next()
            c = Not(self.negation())
        else:
            c = self.constraint_atom()
        self.depth -= 1
        return c

    def constraint_atom(self) -> Constraint:
        t = self.peek()
        if t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true")
        if t.text == "(":
            # either a parenthesised constraint or a parenthesised expression
            # starting a comparison; try the constraint reading first
            saved = self.pos, self.depth, self.deepest, self.links
            try:
                self.next()
                c = self.constraint()
                self.expect(")")
                if self.peek().text in CMP:
                    raise ParseError("comparison of constraints", t.line, t.col)
                return c
            except ParseError:
                if self.deepest > MAX_NESTING or self.links > MAX_CHAIN:
                    raise  # the other reading nests as deep
                self.pos, self.depth, self.deepest, self.links = saved
        return self.comparison()

    def comparison(self) -> Constraint:
        lhs = self.expression()
        t = self.peek()
        if t.text not in CMP:
            self.fail(f"expected a comparison operator, found {t.text or 'end of input'!r}")
        op = self.next().text
        rhs = self.expression()
        try:
            return Cmp(op, lhs, rhs)
        except ValueError as err:
            raise ParseError(str(err), t.line, t.col) from None

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
        pre = self.constraint()
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
            body = self.expression()
            self.expect("if")
            guard = self.constraint()
            self.expect(";")
            cases.append(Case(body, guard))
        if not cases:
            self.fail("expected at least one case")
        return RecurrenceDef(name, args, pre, tuple(cases))


def parse_expression(text: str) -> Expr:
    p = _Parser(text)
    e = p.expression()
    if p.peek().kind != "EOF":
        p.fail("trailing input after expression")
    return e


def parse_constraint(text: str) -> Constraint:
    p = _Parser(text)
    c = p.constraint()
    if p.peek().kind != "EOF":
        p.fail("trailing input after constraint")
    return c


def parse_recurrence(text: str):
    """Parse a full `.rec` definition; returns a validated RecurrenceDef."""
    return _Parser(text).recdef()
