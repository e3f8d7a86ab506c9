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
last cap is kept like the degree: each rule returns a bound on the bits
of its part's numerators and denominator, and the part itself is
measured only when that bound could break the cap.  The first cap broken
in reading order is the one reported, so a rejected input has cost only
the work of the prefix already read.
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
# Below 2^_SAFE_BITS an int has at most MAX_COEFFICIENT_DIGITS digits.
_SAFE_BITS = _COEFFICIENT_LIMIT.bit_length() - 1
# A product's numerator sums at most MAX_TERMS term pairs, each doubled at
# most by sqrt2 * sqrt2 = 2, so it is below 2^_PAIR_BITS times the factors'.
_PAIR_BITS = MAX_TERMS.bit_length() + 1
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

    # Each rule returns the polynomial it read, an upper bound on its
    # degree, counting every number and symbol as degree 1, and an upper
    # bound on the bit length of its numerators and denominator.

    def expr(self) -> tuple[PhasePoly, int, int]:
        poly, bound, bits = self.term()
        while op := self.match_op("+", "-"):
            right, right_bound, right_bits = self.term()
            poly = _capped(poly + right if op[1] == "+" else poly - right)
            bound = max(bound, right_bound)
            # over the lcm of the denominators, each side's numerator is
            # below 2^(bits + right_bits), and their sum below twice that
            bits += right_bits + 1
            if bits > _SAFE_BITS:
                bits = _measured_bits(poly)
        return poly, bound, bits

    def term(self) -> tuple[PhasePoly, int, int]:
        factors = [self.factor()]
        while self.match_op("*"):
            factors.append(self.factor())
        bound = _degree_checked(sum(bound for _, bound, _ in factors))
        poly, _, bits = factors[0]
        for right, _, right_bits in factors[1:]:
            poly, bits = _product(poly, right, bits + right_bits)
        return poly, bound, bits

    def factor(self) -> tuple[PhasePoly, int, int]:
        negated = self.peek()[1] == "-"
        poly, bound, bits = self.base()
        caret = self.match_op("^")
        if not caret:
            return poly, bound, bits
        if negated:
            raise self.fail("ambiguous unary minus before '^'; write -(x^2) or (-x)^2", caret[2])
        exponent, offset = self.literal("exponent must be a nonnegative integer literal")
        if exponent > MAX_DEGREE:
            raise self.fail(f"exponent {exponent} exceeds the maximum {MAX_DEGREE}", offset)
        bound = _degree_checked(bound * exponent)
        if not exponent:
            return PhasePoly.one(), bound, 1
        out, out_bits = poly, bits
        for _ in range(exponent - 1):
            out, out_bits = _product(out, poly, out_bits + bits)
        return out, bound, out_bits

    def base(self) -> tuple[PhasePoly, int, int]:
        kind, chars, offset = self.peek()
        if kind == "int":
            self.advance()
            value = int(chars)
            if self.match_op("/"):
                denominator, den_offset = self.literal("expected integer denominator")
                if denominator == 0:
                    raise self.fail("zero denominator in rational literal", den_offset)
                value = Fraction(value, denominator)
            poly = PhasePoly.constant(value)
            bits = max(value.numerator, value.denominator).bit_length()
            return poly, 1, bits if bits <= _SAFE_BITS else _measured_bits(poly)
        if kind == "name":
            self.advance()
            if chars not in SYMBOLS:
                message = f"unknown symbol {chars!r}; legal symbols are " + ", ".join(SYMBOLS)
                raise self.fail(message, offset, UnknownSymbolError)
            return _SYMBOL_POLYS[chars], 1, 1
        if kind == "op" and chars in ("(", "-"):
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                message = f"parentheses and unary minus nest deeper than the maximum {MAX_NESTING}"
                raise self.fail(message, offset)
            if chars == "-":
                poly, bound, bits = self.base()
                poly = -poly
            else:
                poly, bound, bits = self.expr()
                if not self.match_op(")"):
                    raise self.error("expected ')'")
            self.depth -= 1
            return poly, bound, bits
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


def _measured_bits(poly: PhasePoly) -> int:
    """The bit length of poly's largest numerator or denominator;
    ValueError if one has more than MAX_COEFFICIENT_DIGITS digits."""
    largest = max([poly.denominator, *map(abs, poly.numerators.values())])
    if largest >= _COEFFICIENT_LIMIT:
        raise ValueError(f"expression has a coefficient of more than {MAX_COEFFICIENT_DIGITS} digits")
    return largest.bit_length()


def _product(left: PhasePoly, right: PhasePoly, bits: int) -> tuple[PhasePoly, int]:
    """left * right and its coefficient bit bound, from bits, the sum of the
    factors' bounds."""
    n, m = len(left.numerators), len(right.numerators)
    if n * m > MAX_PAIRS:
        raise ValueError(f"expression multiplies {n} by {m} terms, more than {MAX_PAIRS} term pairs")
    poly = _capped(left * right)
    bits += _PAIR_BITS
    if bits > _SAFE_BITS:
        bits = _measured_bits(poly)
    return poly, bits


def parse_polynomial(text: str) -> PhasePoly:
    """Parse an expression string into its canonical polynomial.

    Raises ParseError on bad input and ValueError as soon as a part of
    it breaks a cap; only the prefix read so far has been multiplied.
    """
    parser = _Parser(text)
    poly, _, _ = parser.expr()
    if parser.peek()[0] != "end":
        raise parser.error("unexpected token after expression")
    return poly
