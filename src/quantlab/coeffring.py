"""Exact arithmetic in the coefficient ring Q(i)[sqrt2][hbar, omega], and
TermMap, the one sparse container of the package.

Every constant produced by the oscillator constructions lives in this
ring: Gaussian rationals carry the imaginary unit of the ladder factors
and of the momentum operator, hbar and omega are formal parameters, and
sqrt2 is a ring generator, the only irrationality the constructions
need.  The ring has two reductions, i * i = -1 and sqrt2 * sqrt2 = 2.
Keeping hbar and omega symbolic makes claims such as "every commutator
term carries hbar^2 and omega" checkable as exact exponent bounds.

The ring nests four sparse maps deep: a Scalar maps the power of i to a
rational, a Coefficient maps parameter monomials to Scalars, and the
polynomials and operators of phasepoly and weylalgebra map exponent
quadruples to Coefficients.  TermMap is the map of every level; a level
names its value ring, the key of a constant, its display names and its
product (where the level's reduction lives), and nothing else.

Values are immutable and operations are pure, so sharing between
concurrent tasks is safe.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

from quantlab import render


# Exact types, so a bool is not a rational.
_RATIONALS = (int, Fraction)


def _as_fraction(value) -> Fraction:
    if type(value) not in _RATIONALS:
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    return Fraction(value)


class CoeffMono(namedtuple("CoeffMono", "h_exp w_exp r_exp")):
    """Parameter monomial hbar^h_exp * omega^w_exp * sqrt2^r_exp."""

    __slots__ = ()

    def __new__(cls, h_exp: int = 0, w_exp: int = 0, r_exp: int = 0):
        if h_exp < 0 or w_exp < 0:
            raise ValueError("hbar and omega exponents must be nonnegative")
        if r_exp not in (0, 1):
            raise ValueError("sqrt2 exponent must be reduced to 0 or 1")
        return tuple.__new__(cls, (h_exp, w_exp, r_exp))

    def sort_key(self) -> tuple[int, int, int]:
        return self


def _accumulate(acc: dict, key, value) -> None:
    """Add value into acc[key] in place, dropping the key when the sum is zero.

    Every sparse sum in the package (coefficients, polynomials and
    operators) accumulates through this one rule, which keeps term maps
    canonical.
    """
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _canonical(cls, terms: dict):
    """An instance of term-map class cls over terms that hold no zero value.

    For maps built by _accumulate (or from nonzero values by an operation
    that keeps them nonzero), so the constructor's zero scan is skipped.
    """
    out = cls.__new__(cls)
    out._terms = terms
    return out


class TermMap:
    """Sparse map from monomial keys to nonzero values, kept canonical.

    Canonical form stores no zero values, so equality is structural and
    a - b == zero exactly when a equals b.  A subclass names its value
    ring (``_ring``, whose ``of`` coerces a constant: the rationals for
    Scalar, the level below for every other map), the key of a constant
    (``_unit``), the key of its display names in the render styles
    (``_names``) and the product of two of its maps (``_product``).

    One coercion rule serves every level: ``of`` returns an instance
    unchanged and lifts anything the value ring's ``of`` accepts to a
    constant; ``+``, ``-`` and ``==`` apply it to their other operand.
    ``*`` multiplies two maps of one class, and otherwise scales: a
    rational goes straight to the values, anything else is first
    coerced by the value ring.
    """

    __slots__ = ("_terms",)
    _ring: type
    _unit: object
    _names: str

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            of = self._ring.of
            for key, value in terms.items():
                value = of(value)
                if value:
                    clean[key] = value
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def of(cls, value):
        if isinstance(value, cls):
            return value
        return cls.constant(value)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, value):
        return cls.monomial(cls._unit, value)

    @classmethod
    def monomial(cls, key, value=1):
        value = cls._ring.of(value)
        return _canonical(cls, {key: value} if value else {})

    # -- queries ----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Underlying term map; treat as read-only."""
        return self._terms

    def sorted_terms(self) -> list[tuple]:
        return render.ordered(self._terms.items())

    def coefficient(self, key):
        return self._terms.get(key, self._ring.of(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        return max((sum(key) for key in self._terms), default=0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        try:
            other = self.of(other)
        except TypeError:
            return NotImplemented
        acc = dict(self._terms)
        for key, value in other._terms.items():
            _accumulate(acc, key, value)
        return _canonical(type(self), acc)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = self.of(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _canonical(type(self), {k: -v for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        if type(other) not in _RATIONALS:
            try:
                other = self._ring.of(other)
            except TypeError:
                return NotImplemented
        if not other:
            return self.zero()
        # the ring has no zero divisors, so scaled values stay nonzero
        return _canonical(type(self), {k: v * other for k, v in self._terms.items()})

    # Python reflects * only for a left operand of another class, that is
    # a scalar, and scalars commute with every term map.
    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.one()
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        try:
            other = self.of(other)
        except TypeError:
            return NotImplemented
        return self._terms == other._terms

    # -- rendering -------------------------------------------------------------

    def factors(self, tail: list[str], style: render.Style) -> list[str]:
        """Factors of a nonzero self * <tail>: one term folds into the tail,
        a sum is parenthesized."""
        if len(self._terms) == 1:
            ((key, value),) = self._terms.items()
            names = style.names[self._names]
            return value.factors(render.power_factors(names, key, style) + tail, style)
        return [style.open + self._render(style) + style.close] + tail

    def _render(self, style: render.Style) -> str:
        key_factors = partial(render.power_factors, style.names[self._names])
        return render.join_terms(self._terms.items(), key_factors, style)

    def text(self) -> str:
        return self._render(render.TEXT)

    def latex(self) -> str:
        return self._render(render.LATEX)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"

    def __str__(self) -> str:
        return self.text()


# The value ring of Scalar: TermMap coerces every value through _ring.of.
class _Rationals:
    of = staticmethod(_as_fraction)


class Scalar(TermMap):
    """Gaussian rational re + im*i: a map from the power of i (0 or 1) to a
    nonzero Fraction, with the one reduction i * i = -1."""

    __slots__ = ()
    _ring = _Rationals
    _unit = 0

    def __init__(self, re=0, im=0):
        super().__init__({0: re, 1: im})

    @property
    def re(self) -> Fraction:
        return self.coefficient(0)

    @property
    def im(self) -> Fraction:
        return self.coefficient(1)

    def _product(self, other: "Scalar") -> "Scalar":
        acc: dict[int, Fraction] = {}
        for k1, v1 in self._terms.items():
            for k2, v2 in other._terms.items():
                value = v1 * v2
                key = k1 + k2
                if key == 2:
                    # i * i = -1
                    value = -value
                    key = 0
                _accumulate(acc, key, value)
        return _canonical(Scalar, acc)

    def conjugate(self) -> "Scalar":
        return _canonical(Scalar, {k: -v if k else v for k, v in self._terms.items()})

    def is_real(self) -> bool:
        return 1 not in self._terms

    # A Gaussian rational renders as "1/2 - 3*i", not as a sum of powers.
    def factors(self, tail: list[str], style: render.Style) -> list[str]:
        return render.scalar_factors(self, tail, style)

    def text(self) -> str:
        return render.scalar(self, render.TEXT)

    def latex(self) -> str:
        return render.scalar(self, render.LATEX)


class Coefficient(TermMap):
    """Finite Scalar-weighted sum of parameter monomials hbar^h omega^w
    sqrt2^r, with the reduction sqrt2 * sqrt2 = 2."""

    __slots__ = ()
    _ring = Scalar
    _unit = CoeffMono()
    _names = "coefficient"

    @classmethod
    def i(cls) -> "Coefficient":
        return cls.constant(Scalar(0, 1))

    @classmethod
    def hbar(cls, exp: int = 1) -> "Coefficient":
        return cls.monomial(CoeffMono(h_exp=exp))

    @classmethod
    def omega(cls, exp: int = 1) -> "Coefficient":
        return cls.monomial(CoeffMono(w_exp=exp))

    @classmethod
    def sqrt2(cls) -> "Coefficient":
        return cls.monomial(CoeffMono(r_exp=1))

    def is_real(self) -> bool:
        return all(s.is_real() for s in self._terms.values())

    def hbar_free_part(self) -> "Coefficient":
        return _canonical(Coefficient, {m: s for m, s in self._terms.items() if m.h_exp == 0})

    def _product(self, other: "Coefficient") -> "Coefficient":
        acc: dict[CoeffMono, Scalar] = {}
        for m1, s1 in self._terms.items():
            for m2, s2 in other._terms.items():
                scalar = s1 * s2
                r = m1.r_exp + m2.r_exp
                if r == 2:
                    # sqrt2 * sqrt2 = 2
                    scalar = scalar * 2
                    r = 0
                mono = CoeffMono(m1.h_exp + m2.h_exp, m1.w_exp + m2.w_exp, r)
                _accumulate(acc, mono, scalar)
        return _canonical(Coefficient, acc)

    def conjugate(self) -> "Coefficient":
        """Map i to -i; hbar, omega and sqrt2 are fixed."""
        return _canonical(Coefficient, {m: s.conjugate() for m, s in self._terms.items()})
