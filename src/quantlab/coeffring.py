"""Exact arithmetic over the coefficient ring Q(i)[sqrt2][hbar, omega], and
TermMap, the one sparse container of the package.

Every constant produced by the oscillator constructions lives in this
ring: Gaussian rationals carry the imaginary unit of the ladder factors
and of the momentum operator, hbar and omega are formal parameters, and
sqrt2 is a ring generator, the only irrationality the constructions
need.  The ring has two reductions, i * i = -1 and sqrt2 * sqrt2 = 2.
Keeping hbar and omega symbolic makes claims such as "every commutator
term carries hbar^2 and omega" checkable as exact exponent bounds.

Coefficients, the polynomials of phasepoly and the operators of
weylalgebra are all one flat map from a Monomial, which carries every
exponent of its term (x, y, px, py, hbar, omega, sqrt2 and i), to a
nonzero Fraction.  mono_mul is the one product of two keys and the one
place where both reductions live; beside it, neg_i_hbar states
(-i hbar)^k, the factor of the momentum realization p = -i hbar d/dq,
as a key and a sign.  A Coefficient is the map whose keys have a zero
phase part; render groups a flat map by phase part and parameters.

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

# Builds a key without the validation of Monomial.__new__, for exponents
# that an arithmetic rule has already reduced.
_make = tuple.__new__


def _as_fraction(value) -> Fraction:
    if type(value) not in _RATIONALS:
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    return Fraction(value)


class Monomial(namedtuple("Monomial", "a b c d h w r e")):
    """Exponents of x^a y^b px^c py^d hbar^h omega^w sqrt2^r i^e.

    The phase part (a, b, c, d) names a polynomial monomial or the
    normal-ordered operator word X^a Y^b Px^c Py^d; the parameter part
    (h, w, r, e) is a monomial of the coefficient ring, with the powers
    of sqrt2 and i reduced to 0 or 1.
    """

    __slots__ = ()

    def __new__(cls, a=0, b=0, c=0, d=0, h=0, w=0, r=0, e=0):
        exps = (a, b, c, d, h, w, r, e)
        if min(exps) < 0:
            raise ValueError("exponents must be nonnegative")
        if r > 1 or e > 1:
            raise ValueError("sqrt2 and i exponents must be reduced to 0 or 1")
        return _make(cls, exps)

    def phase(self) -> "Monomial":
        """The key with its parameter part dropped."""
        return _make(Monomial, self[:4] + (0, 0, 0, 0))

    def params(self) -> "Monomial":
        """The key with its phase part dropped: a Coefficient key."""
        return _make(Monomial, (0, 0, 0, 0) + self[4:])


def mono_mul(m1, m2) -> tuple[Monomial, int]:
    """The product of two keys as (key, factor), factor in {1, -1, 2, -2}.

    Exponents add, then the two reductions of the ring apply.  Keys that
    commute multiply through this rule alone; the operator product adds
    its reordering corrections as further keys.
    """
    a1, b1, c1, d1, h1, w1, r1, e1 = m1
    a2, b2, c2, d2, h2, w2, r2, e2 = m2
    factor = 1
    r = r1 + r2
    if r == 2:
        # sqrt2 * sqrt2 = 2
        r = 0
        factor = 2
    e = e1 + e2
    if e == 2:
        # i * i = -1
        e = 0
        factor = -factor
    return _make(Monomial, (a1 + a2, b1 + b2, c1 + c2, d1 + d2, h1 + h2, w1 + w2, r, e)), factor


def neg_i_hbar(k: int) -> tuple[Monomial, int]:
    """(-i hbar)^k as (key, sign): the key is hbar^k i^(k mod 2), and the
    sign is -1 when k mod 4 is 1 or 2, as (-i)^k cycles 1, -i, -1, i."""
    return _make(Monomial, (0, 0, 0, 0, k, 0, 0, k & 1)), -1 if k % 4 in (1, 2) else 1


def _accumulate(acc: dict, key, value) -> None:
    """Add value into acc[key] in place, dropping the key when the sum is zero.

    Every sparse sum in the package accumulates through this one rule,
    which keeps term maps canonical.
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


def _add_product(acc: dict, key: Monomial, value, terms: dict) -> None:
    """Accumulate the product of the term value * key with the map terms
    into acc; key commutes with the keys of terms."""
    for k, v in terms.items():
        product, factor = mono_mul(key, k)
        v = value * v
        _accumulate(acc, product, v if factor == 1 else v * factor)


def linear_extension(cls, image, source: "TermMap"):
    """The coefficient-linear extension of image (phase monomial -> term map)
    to source: the cls map of each term's parameters times its image."""
    acc: dict[Monomial, Fraction] = {}
    for key, value in source.terms.items():
        _add_product(acc, key.params(), value, image(key.phase()).terms)
    return _canonical(cls, acc)


class TermMap:
    """Sparse map from Monomial keys to nonzero Fractions, kept canonical
    (no zero values), so equality is structural.  A subclass names its
    display names in the render styles (``_names``) and may replace the
    commutative ``_product``.  The constructor also flattens {Monomial:
    Coefficient}.

    One coercion rule serves every class: ``of`` returns an instance
    unchanged, reuses the map of a Coefficient and lifts a rational to a
    constant; ``+``, ``-`` and ``==`` apply it to their other operand.
    ``*`` multiplies two maps of one class, scales by a rational, and
    multiplies by a Coefficient commutatively, as constants commute with
    everything.
    """

    __slots__ = ("_terms",)
    _names: str

    def __init__(self, terms: dict | None = None):
        acc: dict[Monomial, Fraction] = {}
        for key, value in (terms or {}).items():
            if isinstance(value, Coefficient):
                _add_product(acc, key, 1, value._terms)
            else:
                _accumulate(acc, key, _as_fraction(value))
        self._terms = acc

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
        if isinstance(value, Coefficient):
            return _canonical(cls, value._terms)
        return cls.monomial(Monomial(), value)

    @classmethod
    def monomial(cls, key: Monomial, value=1):
        value = _as_fraction(value)
        return _canonical(cls, {key: value} if value else {})

    # -- queries ----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Underlying flat term map {Monomial: Fraction}; treat as read-only."""
        return self._terms

    def coefficient(self, key: Monomial) -> "Coefficient":
        """The Coefficient of the phase part of key."""
        return Coefficient({k.params(): v for k, v in self._terms.items() if k[:4] == key[:4]})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        """Highest degree in x, y, px and py."""
        return max((sum(key[:4]) for key in self._terms), default=0)

    def is_real(self) -> bool:
        return not any(key.e for key in self._terms)

    def conjugate(self):
        """Map i to -i; every other generator is fixed."""
        return _canonical(type(self), {k: -v if k.e else v for k, v in self._terms.items()})

    def hbar_free_part(self):
        return _canonical(type(self), {k: v for k, v in self._terms.items() if not k.h})

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
        if type(other) in _RATIONALS:
            if not other:
                return self.zero()
            return _canonical(type(self), {k: v * other for k, v in self._terms.items()})
        if isinstance(other, type(self)):
            return self._product(other)
        if isinstance(other, Coefficient):
            return TermMap._product(self, other)
        return NotImplemented

    # Python reflects * only for a left operand of another class, that is
    # a scalar, and scalars commute with every term map.
    __rmul__ = __mul__

    def _product(self, other):
        """The product of maps whose keys commute."""
        acc: dict[Monomial, Fraction] = {}
        for key, value in self._terms.items():
            _add_product(acc, key, value, other._terms)
        return _canonical(type(self), acc)

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

    def _render(self, style: render.Style) -> str:
        key_factors = partial(render.power_factors, style.names[self._names])
        return render.join_terms(self._terms, key_factors, style)

    def text(self) -> str:
        return self._render(render.TEXT)

    def latex(self) -> str:
        return self._render(render.LATEX)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"

    def __str__(self) -> str:
        return self.text()


class Coefficient(TermMap):
    """An element of Q(i)[sqrt2][hbar, omega]: a term map whose keys have a
    zero phase part."""

    __slots__ = ()

    @classmethod
    def i(cls) -> "Coefficient":
        return cls.monomial(Monomial(e=1))

    @classmethod
    def hbar(cls, exp: int = 1) -> "Coefficient":
        return cls.monomial(Monomial(h=exp))

    @classmethod
    def omega(cls, exp: int = 1) -> "Coefficient":
        return cls.monomial(Monomial(w=exp))

    @classmethod
    def sqrt2(cls) -> "Coefficient":
        return cls.monomial(Monomial(r=1))

    # A coefficient standing alone is written "1/2 - 3*i", not "(1/2 - 3*i)".
    def _render(self, style: render.Style) -> str:
        groups = render.grouped(self._terms)
        return render.coefficient(groups[0][1] if groups else [], style)
