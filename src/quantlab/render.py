"""Text and LaTeX rendering of coefficients, polynomials and operators,
from one set of rules.

The two formats differ only in the fixed style records TEXT and LATEX
(fraction and power formats, joiners, parentheses, folding of -1, and
display names).  Term maps are flat, so grouped is the one reader of a
map for output: it groups the numerators by phase part (a, b, c, d),
then by (h, w, r), into the Gaussian rational (re, im), each part a
(numerator, denominator) pair in lowest terms.  The view is nested
tuples, and the map rendered last keeps it (TermMap.groups), so text,
LaTeX and the JSON reports of one map, written one after another, read
one view; derivative_groups relabels an operator's view into that of its
derivative form instead of grouping again, and the operator keeps that
relabel beside its view (Operator.derivative_groups).  join_terms, the
one sum renderer, writes each group as
a coefficient times its key, rendered by its caller (powers, or x^a y^b
and a derivative).  Keys are read by position, so this module imports
nothing from the package.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

# A rational as (numerator, denominator) in lowest terms.
Rational = tuple[int, int]

_ZERO = (0, 1)
_ONE = (1, 1)
_MINUS_ONE = (-1, 1)


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


def fraction(q: Rational, style: Style) -> str:
    num, den = q
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


def grouped(nums: dict, den: int) -> tuple:
    """A flat term map, numerators nums over den, as ((phase, group), ...),
    phase the exponents (a, b, c, d) and group its coefficient
    (((h, w, r), re, im), ...), re and im (numerator, denominator) pairs
    in lowest terms; both levels descending, phase parts by degree first."""
    groups: dict[tuple, dict] = {}
    for key, num in nums.items():
        parts = groups.setdefault(key[:4], {}).setdefault(key[4:7], [_ZERO, _ZERO])
        g = gcd(num, den)
        parts[key[7]] = (num // g, den // g)
    out = []
    for phase in ordered(groups):
        terms = sorted(groups[phase].items(), reverse=True)
        out.append((phase, tuple([(params, re, im) for params, (re, im) in terms])))
    return tuple(out)


def derivative_groups(groups: tuple) -> tuple:
    """The grouped view of an operator's derivative form, x^a y^b
    d^(c+d)/dx^c dy^d, from the operator's own view: read as -i hbar
    d/dq, the momenta of a phase part put (-i hbar)^k on its group, k =
    c + d, so each (h, w, r) becomes (h + k, w, r) and each (re, im) is
    multiplied by (-i)^k.  The shift of h is the same across a group, so
    the order is kept, and the result is grouped(derivative_words(op))
    (weylalgebra), which the action reads."""
    out = []
    for phase, group in groups:
        k = phase[2] + phase[3]
        if k:
            group = tuple(
                [((h + k, w, r), *_times_neg_i(re, im, k)) for (h, w, r), re, im in group]
            )
        out.append((phase, group))
    return tuple(out)


def _times_neg_i(re: Rational, im: Rational, k: int) -> tuple[Rational, Rational]:
    """(re + im i) (-i)^k as (re, im); (re + im i) (-i) = im - re i."""
    for _ in range(k % 4):
        re, im = im, (-re[0], re[1])
    return re, im


def ordered(phases) -> list[tuple]:
    """Phase parts (a, b, c, d) in output order: descending, by degree first."""
    return sorted(phases, key=lambda phase: (sum(phase), phase), reverse=True)


def _imaginary(q: Rational, style: Style) -> str:
    if q == _ONE:
        return "i"
    if q == _MINUS_ONE:
        return "-i"
    return fraction(q, style) + style.imag + "i"


def scalar(re: Rational, im: Rational, style: Style) -> str:
    """A Gaussian rational re + im*i standing alone."""
    if im == _ZERO:
        return fraction(re, style)
    if re == _ZERO:
        return _imaginary(im, style)
    sign = " + " if im[0] > 0 else " - "
    return fraction(re, style) + sign + _imaginary((abs(im[0]), im[1]), style)


def scalar_factors(re: Rational, im: Rational, tail: list[str], style: Style) -> list[str]:
    """Factors of (re + im*i) * <tail>, folding a unit scalar into the tail."""
    if im == _ZERO:
        if re == _ONE and tail:
            return tail
        if re == _MINUS_ONE and tail and (style.fold_powers or "^" not in tail[0]):
            return ["-" + tail[0]] + tail[1:]
        head = [fraction(re, style)]
    elif re != _ZERO:
        head = [style.open + scalar(re, im, style) + style.close]
    elif im in (_ONE, _MINUS_ONE):
        head = [_imaginary(im, style)]
    else:
        head = [fraction(im, style), "i"]
    return head + tail


def coefficient(group, style: Style) -> str:
    """A group's coefficient as a sum; a lone constant is written bare, "1 - 2*i"."""
    if len(group) == 1 and not any(group[0][0]):
        return scalar(group[0][1], group[0][2], style)
    names = style.names["coefficient"]
    return _join(
        (scalar_factors(re, im, power_factors(names, params, style), style)
         for params, re, im in group),
        style,
    )


def coefficient_factors(group, tail: list[str], style: Style) -> list[str]:
    """Factors of a group's coefficient times <tail>: one term folds into
    the tail, a sum is parenthesized."""
    if len(group) == 1:
        ((params, re, im),) = group
        names = style.names["coefficient"]
        return scalar_factors(re, im, power_factors(names, params, style) + tail, style)
    return [style.open + coefficient(group, style) + style.close] + tail


def differential_factors(phase, style: Style) -> list[str]:
    """x^a y^b then the derivative d^(c+d)/dx^c dy^d of an operator word."""
    x, y, d, dx, dy = style.names["differential"]
    out = power_factors((x, y), phase[:2], style)
    order = phase[2] + phase[3]
    if order:
        head = d if order == 1 else style.power % (d, order)
        dens = style.derivative_join.join(power_factors((dx, dy), phase[2:], style))
        out.append(style.derivative % (head, dens))
    return out


def join_terms(groups, key_factors, style: Style) -> str:
    """Sum of coefficient * key over the groups of a flat term map (as
    grouped returns them), with binary +/-; "0" for none.
    key_factors(phase, style) renders a key."""
    return _join(
        (coefficient_factors(group, key_factors(phase, style), style) for phase, group in groups),
        style,
    )


def _join(factor_lists, style: Style) -> str:
    parts = []
    for factors in factor_lists:
        term = style.join.join(factors)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) or "0"
