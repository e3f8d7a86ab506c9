"""Text and LaTeX rendering of coefficients, polynomials and operators,
from one set of rules.

The two formats differ only in the fixed style records TEXT and LATEX
(fraction and power formats, joiners, parentheses, folding of -1, and
display names).  Every format reads a term map's grouped view
(coeffring.grouped, next to the key layout it decodes): the numerators
by phase part (a, b, c, d), then by (h, w, r), as the Gaussian rational
(re, im), each part a (numerator, denominator) pair in lowest terms.
The view is nested tuples, and the map rendered last keeps it
(TermMap.groups), so text, LaTeX and the JSON reports of one map,
written one after another, read one view; derivative_groups relabels an
operator's view into that of its derivative form instead of grouping
again, and the operator keeps that relabel beside its view
(Operator.derivative_groups).

join_terms, the one sum renderer, writes each group as a coefficient
times its key from runs of factors, each a joined string and whether its
first factor carries '^'.  A key is two halves, (a, b) and (c, d), as
powers or, in derivative form, x^a y^b then d^(c+d)/dx^c dy^d; each
half's run, and each coefficient's (h, w, r), is made once per style and
names and kept, never a whole key, so the caches grow with the degree
rendered, not with the terms.  key_text is join_terms on one key with
the unit coefficient.  Only grouped views and phase tuples come in, so
this module imports nothing from the package.
"""

from __future__ import annotations

from functools import partial
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


def derivative_groups(groups: tuple) -> tuple:
    """The grouped view of an operator's derivative form, x^a y^b
    d^(c+d)/dx^c dy^d, from the operator's own view: read as -i hbar
    d/dq, the momenta of a phase part put (-i hbar)^k on its group, k =
    c + d, so each (h, w, r) becomes (h + k, w, r) and each (re, im) is
    multiplied by (-i)^k.  The shift of h is the same across a group, so
    the order is kept, and the result is the grouped view of
    weylalgebra.probe_image(op), whose numerators the action reads."""
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


# A run is the factors of one term joined by style.join, held as (text,
# caret): caret tells whether its first factor carries '^', which is all
# the fold of -1 reads.  The empty run ("", False) is the factor 1.


def _powers(style: Style, names: tuple, exponents: tuple, join: str = "") -> tuple[str, bool]:
    """The run of name^exp, or name for exp 1, joined by join or style.join."""
    factors = [name if exp == 1 else style.power % (name, exp)
               for name, exp in zip(names, exponents) if exp]
    return (join or style.join).join(factors), bool(factors) and "^" in factors[0]


def _derivative(style: Style, names: tuple, exponents: tuple) -> tuple[str, bool]:
    """The one-factor run d^(c+d)/dx^c dy^d; names are (d, dx, dy)."""
    order = exponents[0] + exponents[1]
    if not order:
        return "", False
    d, dx, dy = names
    head = d if order == 1 else style.power % (d, order)
    text = style.derivative % (head, _powers(style, (dx, dy), exponents, style.derivative_join)[0])
    return text, "^" in text


class _Halves(dict):
    """Runs by exponents, each made by make(exponents) on its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, exponents: tuple) -> tuple[str, bool]:
        run = self[exponents] = self.make(exponents)
        return run


# The half-key caches, by maker, style formats and names.
_halves_cache: dict[tuple, _Halves] = {}


def _halves(make, style: Style, names: tuple) -> _Halves:
    key = (make, style[:-1], names)
    if key not in _halves_cache:
        _halves_cache[key] = _Halves(partial(make, style, names))
    return _halves_cache[key]


def _key_halves(kind: str, style: Style) -> tuple[_Halves, _Halves]:
    """The caches of halves (a, b) and (c, d) of a kind of key (style.names)."""
    names = style.names[kind]
    second = _derivative if kind == "differential" else _powers
    return _halves(_powers, style, names[:2]), _halves(second, style, names[2:])


def key_text(phase, kind: str, style: Style) -> str:
    """The key (a, b, c, d) of a kind of term map as text; "1" for the
    constant key.  It is join_terms of the key with the unit coefficient."""
    return join_terms(((phase, (((0, 0, 0), _ONE, _ZERO),)),), kind, style)


def _scaled(re: Rational, im: Rational, run: tuple[str, bool], style: Style) -> str:
    """(re + im*i) times a run: 1 leaves it, -1 negates it unless the style
    may not fold -1 onto its first factor, a power."""
    text, caret = run
    if im == _ZERO:
        if re == _ONE and text:
            return text
        if re == _MINUS_ONE and text and (style.fold_powers or not caret):
            return "-" + text
        head = fraction(re, style)
    elif re != _ZERO:
        head = style.open + scalar(re, im, style) + style.close
    elif im in (_ONE, _MINUS_ONE):
        head = _imaginary(im, style)
    else:
        head = fraction(im, style) + style.join + "i"
    return head + style.join + text if text else head


def coefficient(group, style: Style) -> str:
    """A group's coefficient as a sum; a lone constant is written bare, "1 - 2*i"."""
    if len(group) == 1 and not any(group[0][0]):
        return scalar(group[0][1], group[0][2], style)
    params = _halves(_powers, style, style.names["coefficient"])
    return _sum([_scaled(re, im, params[hwr], style) for hwr, re, im in group])


def join_terms(groups, kind: str, style: Style) -> str:
    """Sum of coefficient * key over the groups of a flat term map (as
    coeffring.grouped returns them), with binary +/-; "0" for none.  kind names the
    keys (style.names); a sum coefficient is parenthesized."""
    firsts, seconds = _key_halves(kind, style)
    params = _halves(_powers, style, style.names["coefficient"])
    join = style.join
    terms = []
    for phase, group in groups:
        # the runs of the key's halves, then of the coefficient's
        # parameters, each left out when empty
        key, caret = firsts[phase[:2]]
        tail, tail_caret = seconds[phase[2:]]
        if not key:
            key, caret = tail, tail_caret
        elif tail:
            key += join + tail
        if len(group) == 1:
            ((hwr, re, im),) = group
            head, head_caret = params[hwr]
            if head:
                key, caret = head + join + key if key else head, head_caret
            terms.append(_scaled(re, im, (key, caret), style))
        else:
            head = style.open + coefficient(group, style) + style.close
            terms.append(head + join + key if key else head)
    return _sum(terms)


def _sum(terms: list[str]) -> str:
    """The terms joined by binary + and -; "0" for none."""
    out = "".join([" - " + term[1:] if term[0] == "-" else " + " + term for term in terms])
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]
