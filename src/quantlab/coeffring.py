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
nonzero int numerator, over one positive int denominator shared by the
whole map.  The map is kept in lowest terms, gcd(den, *nums) == 1, so
equality stays structural and the ring's arithmetic is int arithmetic:
denominators multiply in products and meet at their lcm in sums, and
every result is reduced by one gcd pass.  The two reductions live in
two places: mono_mul multiplies two Monomial keys, where a single
product is needed (the commutative product of term maps and
phasepoly.poisson); the quadratic kernels of weylalgebra (op_mul,
commutator and the action) pack each key into one int (pack_terms), so
a product is one int add, k1 + k2, and the reductions are two mask
tests on it, R2 for sqrt2 * sqrt2 = 2 and E2 for i * i = -1 (op_mul
folds the i of a reordering correction after its loop).  One more product
reduces i alone: quantizer.quantize joins each term's parameter part to
the keys of its two one-pair images (only hbar and i beside their phase
part), and the three powers of i reduce as one.  (-i hbar)^k, the factor
of p = -i hbar d/dq, is written where it is read: neg_i_hbar for the
quantizer, and weylalgebra's _corrections (the swap identity), probe_image
(the oracle's action, which shares no code with the normal-ordering
kernels) and render.derivative_groups (display, on grouped Gaussian
rationals); the other closed-form powers of i (generators' ladder powers
i^j and -i F2) are reduced where they are written.  A Coefficient is
the map whose keys have a zero phase part; render groups a flat map by
phase part and parameters, and the map rendered last keeps its grouped
view (and, for an operator, that view relabelled into its derivative
form), so the output formats of one map, written one after another,
group it once and relabel it once.

Values are immutable and operations are pure, so sharing between
concurrent tasks is safe.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from quantlab import render


# Exact types, so a bool is not a rational.
_RATIONALS = (int, Fraction)

# Builds a key without the validation of Monomial.__new__, for exponents
# that an arithmetic rule has already reduced.
_make = tuple.__new__


def _ratio(value) -> tuple[int, int]:
    """An int or Fraction as (numerator, denominator) in lowest terms."""
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


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
        if set(map(type, exps)) != {int}:
            raise ValueError("exponents must be ints")
        if min(exps) < 0:
            raise ValueError("exponents must be nonnegative")
        if r > 1 or e > 1:
            raise ValueError("sqrt2 and i exponents must be reduced to 0 or 1")
        return _make(cls, exps)


def _key(key) -> Monomial:
    """key itself, if it is a Monomial: the key type of every term map."""
    if isinstance(key, Monomial):
        return key
    raise TypeError(f"expected Monomial key, got {type(key).__name__}")


def mono_mul(m1, m2) -> tuple[Monomial, int]:
    """The product of two keys as (key, factor), factor in {1, -1, 2, -2}.

    Exponents add, then the two reductions of the ring apply.  This is
    the product where a single one is needed (commutative products of
    term maps); the operator kernels add packed keys instead (pack_terms).
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


# Packed keys, the layout stated once.  Inside the operator kernels
# (weylalgebra.op_mul, commutator and probe_bracket) a key is one int: a, b,
# c, d, h and w take 16 bits each from bit 0 up, and the exponents of the
# two square roots, r of sqrt2 and e of i, sit at bits _ROOTS and _ROOTS + 2,
# each with a guard bit above it; a key shifted right by _ROOTS is nonzero
# exactly when it has a sqrt2 or an i.  A key product is then one int add,
# k1 + k2, and the ring's two reductions are two mask tests on it: with R2
# set, sqrt2 * sqrt2 = 2 takes R2 off and doubles the value; with E2 set,
# i * i = -1 takes E2 off and negates it.  A reordering correction or a
# Leibniz term is one signed int added to a key.  Every stored map keeps
# Monomial keys: a kernel packs each input map once, adds values with
# acc.get(k, 0) + v, and unpacks its result once, dropping zeros.
_FIELD = 0xFFFF
_ROOTS = 96
R2 = 2 << _ROOTS
E2 = 8 << _ROOTS
# Exponents below PACK_LIMIT keep every field of a product below 2^15, and
# a correction adds at most c1 + d1 < 2^15 to h, so no field carries; a
# Leibniz shift only lowers fields.  pack_terms refuses anything larger,
# a probe image's relabelled h + c + d included, as probe_bracket packs
# the image.
PACK_LIMIT = 1 << 14


def pack_terms(nums: dict) -> list[tuple[int, int, int, int, int, int]]:
    """The terms of nums as (packed key, value, a, b, c, d): the phase
    exponents ride along, as the kernels look up their tables by them.
    ValueError for an exponent of PACK_LIMIT or more, which a kernel's sums
    could carry into the next field."""
    if nums and max(map(max, nums)) >= PACK_LIMIT:
        raise ValueError(f"exponent too large for a packed key (limit {PACK_LIMIT - 1})")
    return [
        (a | b << 16 | c << 32 | d << 48 | h << 64 | w << 80 | r << 96 | e << 98, v, a, b, c, d)
        for (a, b, c, d, h, w, r, e), v in nums.items()
    ]


def pack(key: Monomial) -> int:
    """key as one int in the packed layout."""
    return pack_terms({key: 1})[0][0]


def unpack_terms(acc: dict) -> dict:
    """A packed accumulator {packed key: int} as {Monomial: int}, its zero
    values dropped; its keys are reduced (r and e are 0 or 1)."""
    m = _FIELD
    return {
        _make(Monomial, (k & m, k >> 16 & m, k >> 32 & m, k >> 48 & m,
                         k >> 64 & m, k >> 80 & m, k >> 96 & 1, k >> 98)): v
        for k, v in acc.items()
        if v
    }


def _accumulate(acc: dict, key, value) -> None:
    """Add value into acc[key] in place, dropping the key when the sum is zero.

    Every sparse sum over Monomial keys accumulates through this one
    rule, which keeps term maps canonical; the packed kernels drop their
    zeros when they unpack (unpack_terms).
    """
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def fraction_view(nums: dict, den: int) -> dict:
    """The numerators nums over den as {key: Fraction}, for readers outside
    the arithmetic (tests and callers of TermMap.terms)."""
    return {k: Fraction(v, den) for k, v in nums.items()}


def _canonical(cls, nums: dict, den: int = 1):
    """An instance of term-map class cls over nums / den, already canonical:
    no zero numerator, den > 0 and gcd(den, *nums) == 1."""
    out = cls.__new__(cls)
    out._nums = nums
    out._den = den
    return out


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """nums / den in lowest terms, for nums holding no zero value and
    den > 0: one gcd pass, which stops as soon as the gcd reaches 1."""
    if den != 1:
        g = den
        for value in nums.values():
            g = gcd(g, value)
            if g == 1:
                return nums, den
        nums = {k: v // g for k, v in nums.items()}
        den //= g
    return nums, den


def _reduced(cls, nums: dict, den: int):
    """An instance of cls over nums / den, brought to lowest terms."""
    return _canonical(cls, *_lowest(nums, den))


def _add_product(acc: dict, key: Monomial, value: int, nums: dict) -> None:
    """Accumulate the product of the term value * key with the numerators
    nums into acc; key commutes with the keys of nums."""
    for k, v in nums.items():
        product, factor = mono_mul(key, k)
        _accumulate(acc, product, value * v * factor)


# (map, its grouped view, the view of its derivative form or None) for the
# map whose view was read last: one tuple, read and replaced whole, so
# concurrent readers at worst group or relabel again.
_last_view: tuple = (None, (), None)


class TermMap:
    """Sparse map from Monomial keys to nonzero int numerators over one
    positive int denominator, kept in lowest terms (no zero numerator,
    gcd(den, *nums) == 1), so equality is structural.  A subclass names
    its display names in the render styles (``_names``) and may replace
    the commutative ``_product``.  The constructor takes {Monomial: int or
    Fraction}; ``terms`` is the read-only {Monomial: Fraction} view of the
    map, and ``groups`` the grouped view that every output format reads.

    One coercion rule serves every class: ``of`` returns an instance
    unchanged, reuses the map of a Coefficient and lifts a rational to a
    constant; ``+``, ``-`` and ``==`` apply it to their other operand.
    ``*`` multiplies two maps of one class, scales by a rational, and
    multiplies by a Coefficient commutatively, as constants commute with
    everything.
    """

    __slots__ = ("_nums", "_den")
    _names: str

    def __init__(self, terms: dict | None = None):
        ratios = {_key(key): _ratio(value) for key, value in (terms or {}).items()}
        den = lcm(*(part_den for _, part_den in ratios.values()))
        nums = {key: num * (den // part_den) for key, (num, part_den) in ratios.items() if num}
        self._nums, self._den = _lowest(nums, den)

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
            return _canonical(cls, value._nums, value._den)
        return cls.monomial(Monomial(), value)

    @classmethod
    def monomial(cls, key: Monomial, value=1):
        num, den = _ratio(value)
        return _canonical(cls, {_key(key): num}, den) if num else _canonical(cls, {})

    # -- queries ----------------------------------------------------------

    @property
    def numerators(self) -> dict:
        """The flat map {Monomial: int} of numerators; treat as read-only."""
        return self._nums

    @property
    def denominator(self) -> int:
        """The positive denominator shared by every numerator."""
        return self._den

    @property
    def terms(self) -> dict:
        """The flat term map as {Monomial: Fraction}, built on each call."""
        return fraction_view(self._nums, self._den)

    @property
    def groups(self) -> tuple:
        """The map grouped for output (render.grouped), as nested tuples.
        The output formats of one map are written one after another (a
        normal-ordered form, then its derivative form or JSON), so the map
        read last keeps its view for the next reader of the same map; no
        view outlives the next map's."""
        return self._view(False)[1]

    def _view(self, derivative: bool) -> tuple:
        """(self, groups, derivative view or None) under the one-map rule of
        groups; with derivative, the relabel of groups into the operator's
        derivative form (render.derivative_groups) is made once and kept
        beside it."""
        global _last_view
        view = _last_view
        if view[0] is not self:
            view = (self, render.grouped(self._nums, self._den), None)
        if derivative and view[2] is None:
            view = (self, view[1], render.derivative_groups(view[1]))
        _last_view = view
        return view

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def hbar_free_part(self):
        return _reduced(type(self), {k: v for k, v in self._nums.items() if not k.h}, self._den)

    # -- ring operations ----------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        den, other_den = self._den, other._den
        if den == other_den:
            acc = dict(self._nums)
        else:
            scale = other_den // gcd(den, other_den)
            acc = {k: v * scale for k, v in self._nums.items()}
            den *= scale
            sign *= den // other_den
        for key, value in other._nums.items():
            _accumulate(acc, key, value * sign)
        return _reduced(type(self), acc, den)

    def __add__(self, other):
        try:
            other = self.of(other)
        except TypeError:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = self.of(other)
        except TypeError:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _canonical(type(self), {k: -v for k, v in self._nums.items()}, self._den)

    def __mul__(self, other):
        if type(other) in _RATIONALS:
            num, den = _ratio(other)
            if not num:
                return self.zero()
            nums = {k: v * num for k, v in self._nums.items()}
            return _reduced(type(self), nums, self._den * den)
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
        acc: dict[Monomial, int] = {}
        for key, value in self._nums.items():
            _add_product(acc, key, value, other._nums)
        return _reduced(type(self), acc, self._den * other._den)

    def __pow__(self, exponent: int):
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return self.one()
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        try:
            other = self.of(other)
        except TypeError:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    # -- rendering -------------------------------------------------------------

    def _render(self, style: render.Style) -> str:
        return render.join_terms(self.groups, self._names, style)

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
        groups = self.groups
        return render.coefficient(groups[0][1] if groups else (), style)
