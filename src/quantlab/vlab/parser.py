"""Expression front-end for classical observables.

Grammar (whitespace insensitive, explicit '*' required):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := uint ('/' uint)? | symbol | '(' expr ')' | '-' base

A base that starts with unary '-' takes no exponent: "-x^2" could mean
-(x^2) or (-x)^2, so it is a ParseError that asks for one of those.

The eight legal symbols are i, hbar, omega, sqrt2, x, y, px, py.  The
AST lowers to a canonical PhasePoly, so printing a polynomial and
parsing it back reproduces the same value exactly.

Input is bounded so that no expression runs unbounded: an exponent
literal and the AST's degree bound may not exceed MAX_DEGREE,
parentheses and unary minus may not nest deeper than MAX_NESTING, no
lowered polynomial may hold more than MAX_TERMS terms, and no product
may multiply more than MAX_PAIRS pairs of terms.
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
# Largest number of terms of a lowered polynomial, or of any part of it.
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


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAST"


# A sum or product of n operands is a left-deep chain of n - 1 BinOps, so
# repr, == and hash walk the chain in a loop (_chain) where the generated
# methods would recurse once per operand.
@dataclass(frozen=True, repr=False, eq=False)
class BinOp:
    op: str  # '+', '-' or '*'
    left: "ExprAST"
    right: "ExprAST"

    def __repr__(self) -> str:
        head, rest = _chain(self, "+-*")
        return "".join(
            [f"BinOp(op={op!r}, left=" for op, _ in reversed(rest)]
            + [repr(head)]
            + [f", right={right!r})" for _, right in rest]
        )

    def __eq__(self, other) -> bool:
        if type(other) is not BinOp:
            return NotImplemented
        return _chain(self, "+-*") == _chain(other, "+-*")

    def __hash__(self) -> int:
        head, rest = _chain(self, "+-*")
        return hash((head, tuple(rest)))


@dataclass(frozen=True)
class Pow:
    base: "ExprAST"
    exponent: int


ExprAST = Num | Sym | Neg | BinOp | Pow

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

    def expr(self) -> ExprAST:
        node = self.term()
        while True:
            op = self.match_op("+", "-")
            if op is None:
                return node
            node = BinOp(op.text, node, self.term())

    def term(self) -> ExprAST:
        node = self.factor()
        while self.match_op("*"):
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> ExprAST:
        negated = self.peek().text == "-"
        node = self.base()
        caret = self.match_op("^")
        if caret:
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
            return Pow(node, exponent)
        return node

    def base(self) -> ExprAST:
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
                return Num(Fraction(numerator, denominator))
            return Num(Fraction(numerator))
        if token.kind == "name":
            self.advance()
            if token.text not in SYMBOLS:
                raise UnknownSymbolError(
                    f"unknown symbol {token.text!r}; legal symbols are "
                    + ", ".join(SYMBOLS),
                    token.line,
                    token.column,
                )
            return Sym(token.text)
        if token.kind == "op" and token.text in ("(", "-"):
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                message = f"parentheses and unary minus nest deeper than the maximum {MAX_NESTING}"
                raise ParseError(message, token.line, token.column)
            if token.text == "-":
                node = Neg(self.base())
            else:
                node = self.expr()
                if not self.match_op(")"):
                    raise self.error("expected ')'")
            self.depth -= 1
            return node
        raise self.error("expected a number, symbol, '(' or '-'")


def parse(text: str) -> ExprAST:
    """Parse an expression string into an AST; raises ParseError on bad
    input and ValueError when its degree bound exceeds MAX_DEGREE."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise parser.error("unexpected token after expression", tail)
    bound = degree_bound(node)
    if bound > MAX_DEGREE:
        raise ValueError(f"expression degree may reach {bound}; the maximum is {MAX_DEGREE}")
    return node


def _chain(node: BinOp, ops: str) -> tuple[ExprAST, list[tuple[str, ExprAST]]]:
    """A left-deep chain of BinOps with an op in ops, as its leftmost
    operand and the (op, right operand) pairs in source order.  Sums and
    products of any length are chains, walked here without recursion."""
    rest = []
    while isinstance(node, BinOp) and node.op in ops:
        rest.append((node.op, node.right))
        node = node.left
    return node, rest[::-1]


def degree_bound(node: ExprAST) -> int:
    """An upper bound on the degree of the lowered polynomial, counting
    every atom (number or symbol) as degree 1."""
    match node:
        case Num() | Sym():
            return 1
        case Neg(operand):
            return degree_bound(operand)
        case BinOp(op):
            head, rest = _chain(node, "*" if op == "*" else "+-")
            bounds = [degree_bound(head), *(degree_bound(right) for _, right in rest)]
            return sum(bounds) if op == "*" else max(bounds)
        case Pow(base, exponent):
            return degree_bound(base) * exponent
    raise TypeError(f"not an expression node: {node!r}")


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


def lower(node: ExprAST) -> PhasePoly:
    """Lower an AST to its unique canonical polynomial.

    Raises ValueError before a product of more than MAX_PAIRS term pairs
    and as soon as a partial result holds more than MAX_TERMS terms.
    """
    match node:
        case Num(value):
            return PhasePoly.constant(value)
        case Sym(name):
            return _SYMBOL_POLYS[name]
        case Neg(operand):
            return -lower(operand)
        case BinOp("*"):
            head, rest = _chain(node, "*")
            out = lower(head)
            for _, right in rest:
                out = _product(out, lower(right))
            return out
        case BinOp():
            head, rest = _chain(node, "+-")
            out = lower(head)
            for op, right in rest:
                out = _capped(out + lower(right) if op == "+" else out - lower(right))
            return out
        case Pow(base, exponent):
            base = lower(base)
            out = PhasePoly.one()
            for _ in range(exponent):
                out = _product(out, base)
            return out
    raise TypeError(f"not an expression node: {node!r}")


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
    """Parse and lower in one step."""
    return lower(parse(text))
