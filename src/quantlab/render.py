"""Text and LaTeX rendering of scalars, coefficients, polynomials and
operators, from one set of rules.

The two formats differ only in the fixed style records TEXT and LATEX:
fraction format, the joiner between the factors of a term, the
parentheses around a sum, the joiner of a rational and i inside a
Gaussian rational, whether a leading -1 may fold onto a factor carrying
a power, the power format, and the display names of the variables.

This module renders the pieces (a Gaussian rational, the powers of a
monomial, a derivative) and join_terms, the one sum renderer: its caller
names how a key renders (powers for coeffring.TermMap, x^a y^b and a
derivative for the derivative form of weylalgebra), and each value
renders itself as factors (a Coefficient by folding a single term or
parenthesizing a sum; a Scalar, a term map over the powers of i written
as "1/2 - 3*i", through scalar_factors from its ``re`` and ``im``).
Values are read through their public fields, so this module imports
nothing else from the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Style(NamedTuple):
    fraction: str  # |numerator|, denominator of a non-integer rational
    join: str  # between the factors of one term
    open: str  # around a sum used as a factor
    close: str
    imag: str  # between a rational and i inside a Gaussian rational
    fold_powers: bool  # may a leading -1 fold onto a factor carrying '^'
    power: str  # name^exponent, for an exponent above 1
    derivative: str  # numerator, denominators of a partial derivative
    derivative_join: str  # between the denominators
    names: dict[str, tuple[str, ...]]  # display names per kind of monomial


# The grammar rejects a unary minus on the base of a power, so plain text
# may not fold -1 onto a power: "-hbar^2" would not read back.  In display
# math the minus is read as negating the product.
TEXT = Style(
    fraction="%d/%d",
    join=" * ",
    open="(",
    close=")",
    imag="*",
    fold_powers=False,
    power="%s^%d",
    derivative="%s/%s",
    derivative_join=" ",
    names={
        "coefficient": ("hbar", "omega", "sqrt2"),
        "phase": ("x", "y", "px", "py"),
        "operator": ("x", "y", "px", "py"),
        "differential": ("x", "y", "d", "dx", "dy"),
    },
)

LATEX = Style(
    fraction=r"\frac{%d}{%d}",
    join=" ",
    open=r"\left(",
    close=r"\right)",
    imag=" ",
    fold_powers=True,
    power="%s^{%d}",
    derivative=r"\frac{%s}{%s}",
    derivative_join=r" \, ",
    names={
        "coefficient": (r"\hbar", r"\omega", r"\sqrt{2}"),
        "phase": ("x", "y", "p_x", "p_y"),
        "operator": (r"\hat{x}", r"\hat{y}", r"\hat{p}_x", r"\hat{p}_y"),
        "differential": ("x", "y", r"\partial", r"\partial x", r"\partial y"),
    },
)


def fraction(q: Fraction, style: Style) -> str:
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    return ("-" if num < 0 else "") + style.fraction % (abs(num), den)


def power_factors(names, exponents, style: Style) -> list[str]:
    """name^exp for each nonzero exponent, a bare name for exponent 1."""
    out = []
    for name, exp in zip(names, exponents):
        if exp == 1:
            out.append(name)
        elif exp:
            out.append(style.power % (name, exp))
    return out


def _imaginary(q: Fraction, style: Style) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return fraction(q, style) + style.imag + "i"


def scalar(value, style: Style) -> str:
    """A Gaussian rational re + im*i standing alone."""
    if value.im == 0:
        return fraction(value.re, style)
    if value.re == 0:
        return _imaginary(value.im, style)
    sign = " + " if value.im > 0 else " - "
    return fraction(value.re, style) + sign + _imaginary(abs(value.im), style)


def scalar_factors(value, tail: list[str], style: Style) -> list[str]:
    """Factors of value * <tail>, folding a unit scalar into the tail."""
    if value.im == 0:
        if value.re == 1 and tail:
            return tail
        if value.re == -1 and tail and (style.fold_powers or "^" not in tail[0]):
            return ["-" + tail[0]] + tail[1:]
        head = [fraction(value.re, style)]
    elif value.re != 0:
        head = [style.open + scalar(value, style) + style.close]
    elif value.im in (1, -1):
        head = [_imaginary(value.im, style)]
    else:
        head = [fraction(value.im, style), "i"]
    return head + tail


def differential_factors(mono, style: Style) -> list[str]:
    """x^a y^b then the derivative d^(c+d)/dx^c dy^d of an operator word."""
    x, y, d, dx, dy = style.names["differential"]
    out = power_factors((x, y), (mono.a, mono.b), style)
    order = mono.c + mono.d
    if order:
        head = d if order == 1 else style.power % (d, order)
        dens = style.derivative_join.join(power_factors((dx, dy), (mono.c, mono.d), style))
        out.append(style.derivative % (head, dens))
    return out


def join_terms(items, key_factors, style: Style) -> str:
    """Sum of value * key over (key, value) items in `ordered` order, with
    binary +/-; "0" for none.  key_factors(key, style) renders a key."""
    parts = []
    for key, value in ordered(items):
        term = style.join.join(value.factors(key_factors(key, style), style))
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) or "0"


def ordered(items) -> list[tuple]:
    """(key, value) items in the canonical term order, descending key.sort_key()."""
    return sorted(items, key=lambda kv: kv[0].sort_key(), reverse=True)
