"""Expression front-end for classical observables.

Grammar (whitespace insensitive, explicit '*' required):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := uint ('/' uint)? | symbol | '(' expr ')' | '-' base

A base that starts with unary '-' takes no exponent: "-x^2" could mean
-(x^2) or (-x)^2, so it is a ParseError that asks for one of those.

The eight legal symbols are i, hbar, omega, sqrt2, x, y, px, py.  Each
rule of the recursive descent returns the canonical PhasePoly of what it
read, so printing a polynomial and parsing it back reproduces the same
value exactly; sums and products are read in loops, not by recursion.

Input is bounded so that no expression runs unbounded.  Each rule also
returns a degree bound (1 for a number or symbol, the max over a sum,
the sum over a product, times the exponent for a power); an exponent
literal and every bound may not exceed MAX_DEGREE, and a product or
power is refused by its bound before anything is multiplied.
Parentheses and unary minus may not nest deeper than MAX_NESTING, no
polynomial read may hold more than MAX_TERMS terms, and no product may
multiply more than MAX_PAIRS pairs of terms.  The first cap broken in
reading order is the one reported, so a rejected input has cost only
the work of the prefix already read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from quantlab.coeffring import Coefficient
from quantlab.phasepoly import PhasePoly, PhaseVar

SYMBOLS = ("i", "hbar", "omega", "sqrt2", "x", "y", "px", "py")

# Largest exponent literal and degree bound: twice the largest m + n the
# commands accept (cli.MAX_SUM), since K has degree m + n.
MAX_DEGREE = 40
# Deepest nesting of parentheses and unary minus.  Each level costs a few
# frames of recursive descent, so this keeps parsing far from the
# interpreter's recursion limit.
MAX_NESTING = 100
# Largest number of terms of the polynomial read, or of any part of it.
MAX_TERMS = 2000
# Largest number of term pairs one product may multiply: a part at the
# term cap times a 50-term factor, under a second of multiplying.  Checked
# before the product, as two parts under the term cap may still have
# millions of pairs.
MAX_PAIRS = 50 * MAX_TERMS


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class UnknownSymbolError(ParseError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    line: int
    column: int


_OP_CHARS = set("+-*^/()")
# ASCII only: str.isdigit() also accepts digits such as '²' that int() rejects
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            start_col = col
            while pos < len(text) and text[pos] in _DIGITS:
                pos += 1
                col += 1
            tokens.append(Token("int", text[start:pos], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            start_col = col
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
                col += 1
            tokens.append(Token("name", text[start:pos], line, start_col))
            continue
        if ch in _OP_CHARS:
            tokens.append(Token("op", ch, line, col))
            pos += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def match_op(self, *ops: str) -> Token | None:
        token = self.peek()
        if token.kind == "op" and token.text in ops:
            return self.advance()
        return None

    def error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self.peek()
        shown = token.text if token.kind != "end" else "end of input"
        return ParseError(f"{message}, got {shown!r}", token.line, token.column)


    # Each rule returns the polynomial it read and an upper bound on its
    # degree, counting every number and symbol as degree 1.

    def expr(self) -> tuple[PhasePoly, int]:
        poly, bound = self.term()
        while op := self.match_op("+", "-"):
            right, right_bound = self.term()
            poly = _capped(poly + right if op.text == "+" else poly - right)
            bound = max(bound, right_bound)
        return poly, bound

    def term(self) -> tuple[PhasePoly, int]:
        factors = [self.factor()]
        while self.match_op("*"):
            factors.append(self.factor())
        bound = _degree_checked(sum(bound for _, bound in factors))
        poly = factors[0][0]
        for right, _ in factors[1:]:
            poly = _product(poly, right)
        return poly, bound

    def factor(self) -> tuple[PhasePoly, int]:
        negated = self.peek().text == "-"
        poly, bound = self.base()
        caret = self.match_op("^")
        if not caret:
            return poly, bound
        if negated:
            raise ParseError(
                "ambiguous unary minus before '^'; write -(x^2) or (-x)^2",
                caret.line,
                caret.column,
            )
        token = self.peek()
        if token.kind != "int":
            raise self.error("exponent must be a nonnegative integer literal")
        self.advance()
        exponent = int(token.text)
        if exponent > MAX_DEGREE:
            raise ParseError(
                f"exponent {exponent} exceeds the maximum {MAX_DEGREE}",
                token.line,
                token.column,
            )
        bound = _degree_checked(bound * exponent)
        out = PhasePoly.one()
        for _ in range(exponent):
            out = _product(out, poly)
        return out, bound

    def base(self) -> tuple[PhasePoly, int]:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            numerator = int(token.text)
            if self.match_op("/"):
                den_token = self.peek()
                if den_token.kind != "int":
                    raise self.error("expected integer denominator")
                self.advance()
                denominator = int(den_token.text)
                if denominator == 0:
                    raise ParseError(
                        "zero denominator in rational literal",
                        den_token.line,
                        den_token.column,
                    )
                return PhasePoly.constant(Fraction(numerator, denominator)), 1
            return PhasePoly.constant(Fraction(numerator)), 1
        if token.kind == "name":
            self.advance()
            if token.text not in SYMBOLS:
                raise UnknownSymbolError(
                    f"unknown symbol {token.text!r}; legal symbols are "
                    + ", ".join(SYMBOLS),
                    token.line,
                    token.column,
                )
            return _SYMBOL_POLYS[token.text], 1
        if token.kind == "op" and token.text in ("(", "-"):
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                message = f"parentheses and unary minus nest deeper than the maximum {MAX_NESTING}"
                raise ParseError(message, token.line, token.column)
            if token.text == "-":
                poly, bound = self.base()
                poly = -poly
            else:
                poly, bound = self.expr()
                if not self.match_op(")"):
                    raise self.error("expected ')'")
            self.depth -= 1
            return poly, bound
        raise self.error("expected a number, symbol, '(' or '-'")


_SYMBOL_POLYS = {
    "i": PhasePoly.constant(Coefficient.i()),
    "hbar": PhasePoly.constant(Coefficient.hbar()),
    "omega": PhasePoly.constant(Coefficient.omega()),
    "sqrt2": PhasePoly.constant(Coefficient.sqrt2()),
    "x": PhasePoly.variable(PhaseVar.X),
    "y": PhasePoly.variable(PhaseVar.Y),
    "px": PhasePoly.variable(PhaseVar.PX),
    "py": PhasePoly.variable(PhaseVar.PY),
}


def _degree_checked(bound: int) -> int:
    if bound > MAX_DEGREE:
        raise ValueError(f"expression degree may reach {bound}; the maximum is {MAX_DEGREE}")
    return bound


def _capped(poly: PhasePoly) -> PhasePoly:
    if len(poly.numerators) > MAX_TERMS:
        raise ValueError(f"expression expands to more than {MAX_TERMS} terms")
    return poly


def _product(left: PhasePoly, right: PhasePoly) -> PhasePoly:
    n, m = len(left.numerators), len(right.numerators)
    if n * m > MAX_PAIRS:
        raise ValueError(f"expression multiplies {n} by {m} terms, more than {MAX_PAIRS} term pairs")
    return _capped(left * right)


def parse_polynomial(text: str) -> PhasePoly:
    """Parse an expression string into its canonical polynomial.

    Raises ParseError on bad input and ValueError as soon as a part of
    it breaks a cap; only the prefix read so far has been multiplied.
    """
    parser = _Parser(_tokenize(text))
    poly, _ = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise parser.error("unexpected token after expression", tail)
    return poly
