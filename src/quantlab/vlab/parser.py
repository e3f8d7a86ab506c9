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
power is refused by its bound before anything is multiplied.  An integer
literal over MAX_DIGITS digits is refused before anything is read.
Parentheses and unary minus may not nest deeper than MAX_NESTING, no
polynomial read may hold more than MAX_TERMS terms, no product may
multiply more than MAX_PAIRS pairs of terms, and no numerator or
denominator read may have more than MAX_COEFFICIENT_DIGITS digits.  The
term and digit caps are checked, in that order, on every number literal,
sum and product as soon as it is built.  The first cap broken in reading
order is the one reported, so a rejected input has cost only the work of
the prefix already read.
"""

from __future__ import annotations

import re
from fractions import Fraction

from quantlab.coeffring import Coefficient
from quantlab.phasepoly import PhasePoly, PhaseVar

SYMBOLS = ("i", "hbar", "omega", "sqrt2", "x", "y", "px", "py")

# Largest m + n the commands accept (cli.MAX_SUM).  Work grows steeply
# with the degree m + n of K, so a larger value would run for an unbounded
# time.
MAX_SUM = 20
# Largest exponent literal and degree bound: twice MAX_SUM, since K has
# degree m + n.
MAX_DEGREE = 2 * MAX_SUM
# Deepest nesting of parentheses and unary minus.  Each level costs a few
# frames of recursive descent, so this keeps parsing far from the
# interpreter's recursion limit.
MAX_NESTING = 100
# Largest number of terms of the polynomial read, or of any part of it.
MAX_TERMS = 2000
# Most digits of a numerator or of the denominator of the polynomial read,
# or of any part of it.  Quantizing adds about 20 digits at most within
# MAX_DEGREE ((x + px)^39 under Born-Jordan adds the most), so every report
# stays far under CPython's 4300-digit bound on printing an int
# (sys.get_int_max_str_digits).
MAX_COEFFICIENT_DIGITS = 4000
_COEFFICIENT_LIMIT = 10**MAX_COEFFICIENT_DIGITS
# Longest integer literal: CPython's default bound on the digits int()
# reads (sys.get_int_max_str_digits), so a longer literal is a ParseError
# with one message on every interpreter, not int()'s own ValueError.
MAX_DIGITS = 4300
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


# One token per match: an ASCII integer literal, a name (\w is str.isalnum()
# or '_'), an operator, or any other non-space character, which is an error.
# finditer skips only what no branch matches, which is whitespace (\s is
# str.isspace()).
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>\w+)|(?P<op>[-+*^/()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of text, closed by an end token
    whose text is what an error shows for it."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("end", "end of input", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # a name starts with a letter (str.isalpha()) or '_'; \w also starts
        # one at a digit or number such as '²', '½' or '٣', which int() rejects
        for kind, chars, offset in self.tokens:
            if kind == "bad" or kind == "name" and not (chars[0].isalpha() or chars[0] == "_"):
                raise self.fail(f"unexpected character {chars[0]!r}", offset)
            if kind == "int" and len(chars) > MAX_DIGITS:
                message = f"integer literal of {len(chars)} digits exceeds the maximum {MAX_DIGITS}"
                raise self.fail(message, offset)

    def fail(self, message: str, offset: int, error=ParseError) -> ParseError:
        """The error for message at a text offset, with its line and column."""
        line = self.text.count("\n", 0, offset) + 1
        return error(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def match_op(self, *ops: str) -> tuple[str, str, int] | None:
        kind, chars, _ = self.peek()
        if kind == "op" and chars in ops:
            return self.advance()
        return None

    def error(self, message: str) -> ParseError:
        _, chars, offset = self.peek()
        return self.fail(f"{message}, got {chars!r}", offset)

    def literal(self, message: str) -> tuple[int, int]:
        """Read the integer literal next and return its value and offset;
        any other token raises message, naming the token."""
        kind, chars, offset = self.peek()
        if kind != "int":
            raise self.error(message)
        self.advance()
        return int(chars), offset

    # Each rule returns the polynomial it read and an upper bound on its
    # degree, counting every number and symbol as degree 1.

    def expr(self) -> tuple[PhasePoly, int]:
        poly, bound = self.term()
        while op := self.match_op("+", "-"):
            right, right_bound = self.term()
            poly = _capped(poly + right if op[1] == "+" else poly - right)
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
        negated = self.peek()[1] == "-"
        poly, bound = self.base()
        caret = self.match_op("^")
        if not caret:
            return poly, bound
        if negated:
            raise self.fail("ambiguous unary minus before '^'; write -(x^2) or (-x)^2", caret[2])
        exponent, offset = self.literal("exponent must be a nonnegative integer literal")
        if exponent > MAX_DEGREE:
            raise self.fail(f"exponent {exponent} exceeds the maximum {MAX_DEGREE}", offset)
        bound = _degree_checked(bound * exponent)
        if not exponent:
            return PhasePoly.one(), bound
        out = poly
        for _ in range(exponent - 1):
            out = _product(out, poly)
        return out, bound

    def base(self) -> tuple[PhasePoly, int]:
        kind, chars, offset = self.peek()
        if kind == "int":
            self.advance()
            value = int(chars)
            if self.match_op("/"):
                denominator, den_offset = self.literal("expected integer denominator")
                if denominator == 0:
                    raise self.fail("zero denominator in rational literal", den_offset)
                value = Fraction(value, denominator)
            return _capped(PhasePoly.constant(value)), 1
        if kind == "name":
            self.advance()
            if chars not in SYMBOLS:
                message = f"unknown symbol {chars!r}; legal symbols are " + ", ".join(SYMBOLS)
                raise self.fail(message, offset, UnknownSymbolError)
            return _SYMBOL_POLYS[chars], 1
        if kind == "op" and chars in ("(", "-"):
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                message = f"parentheses and unary minus nest deeper than the maximum {MAX_NESTING}"
                raise self.fail(message, offset)
            if chars == "-":
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
    """poly, or ValueError if it has more than MAX_TERMS terms or a
    numerator or denominator of more than MAX_COEFFICIENT_DIGITS digits."""
    nums = poly._nums
    if len(nums) > MAX_TERMS:
        raise ValueError(f"expression expands to more than {MAX_TERMS} terms")
    if max([poly.denominator, *map(abs, nums.values())]) >= _COEFFICIENT_LIMIT:
        raise ValueError(f"expression has a coefficient of more than {MAX_COEFFICIENT_DIGITS} digits")
    return poly


def _product(left: PhasePoly, right: PhasePoly) -> PhasePoly:
    n, m = len(left._nums), len(right._nums)
    if n * m > MAX_PAIRS:
        raise ValueError(f"expression multiplies {n} by {m} terms, more than {MAX_PAIRS} term pairs")
    return _capped(left * right)


def parse_polynomial(text: str) -> PhasePoly:
    """Parse an expression string into its canonical polynomial.

    Raises ParseError on bad input and ValueError as soon as a part of
    it breaks a cap; only the prefix read so far has been multiplied.
    """
    parser = _Parser(text)
    poly, _ = parser.expr()
    if parser.peek()[0] != "end":
        raise parser.error("unexpected token after expression")
    return poly
