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
weylalgebra are all one flat map from a key, one int that carries every
exponent of its term (x, y, px, py, hbar, omega, sqrt2 and i), to a
nonzero int numerator, over one positive int denominator shared by the
whole map.  The map is kept in lowest terms, gcd(den, *nums) == 1, so
equality stays structural and the ring's arithmetic is int arithmetic:
denominators multiply in products and meet at their lcm in sums, and
every result is reduced by one gcd pass.  The key layout is stated once,
below, and every other module builds keys as sums of the unit keys X, Y,
PX, PY, HBAR, OMEGA, SQRT2 and I.  A key product is one int add; a
kernel accumulates its sums unreduced and _folded applies both
reductions once, as two mask tests on each key: R2 for sqrt2 * sqrt2 = 2
and E2 for i * i = -1.  A reordering correction, a Leibniz term or the
(-i hbar)^k of p = -i hbar d/dq is one signed int added to a key.
Monomial, the tuple of the eight exponents, is the form of a key at the
edges: the constructor's input, monomial(), the numerators and terms
views, and the oracle's report of a differing term.  A Coefficient is
the map whose keys have a zero phase part; grouped reads a flat map for
output by phase part and parameters, and the map rendered last keeps its
grouped view (and, for an operator, that view relabelled into its
derivative form), so the output formats of one map, written one after
another, group it once and relabel it once.

Values are immutable and operations are pure, so sharing between
concurrent tasks is safe.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

from quantlab import render


# Exact types, so a bool is not a rational.
_RATIONALS = (int, Fraction)


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
        return tuple.__new__(cls, exps)


# The key layout, stated once.  a, b, c, d, h and w take 16 bits each from
# bit 0 up, and the exponents of the two square roots, r of sqrt2 and e of
# i, sit at bits _ROOTS and _ROOTS + 2, each with a guard bit above it.  A
# stored key is reduced (r and e are 0 or 1); a sum of keys sets R2 where
# two sqrt2 meet and E2 where two or three i meet, and _folded takes those
# bits off.
_FIELD = 0xFFFF
_ROOTS = 96
X, Y, PX, PY, HBAR, OMEGA = (1 << shift for shift in range(0, _ROOTS, 16))
SQRT2, I = 1 << _ROOTS, 4 << _ROOTS
R2, E2 = 2 * SQRT2, 2 * I
# Operand exponents below PACK_LIMIT keep every field of a kernel's sums
# below 2^16: two of them and a correction's c1 + d1 < 2^15 in h, or three
# hbar exponents in quantize; a Leibniz shift only lowers fields.  Every
# kernel refuses a larger operand exponent (_checked); a stored key holds
# up to _FIELD.
PACK_LIMIT = 1 << 14
# the bits that an exponent of PACK_LIMIT or more sets in its field
_OVER = 0xC000 * (X + Y + PX + PY + HBAR + OMEGA)
_OVER_LIMIT = f"exponent too large for a packed key (limit {PACK_LIMIT - 1})"
# the hbar field, which the classical limit reads
_H = _FIELD * HBAR
# the phase part (a, b, c, d) of a key; above it, from bit 64, sits the
# parameter part (h, w, r, e)
_PHASE = (1 << 64) - 1


def pack(key: Monomial) -> int:
    """key as one int in the layout above.  TypeError for a key that is not
    a Monomial, ValueError for an exponent that does not fit its field."""
    if not isinstance(key, Monomial):
        raise TypeError(f"expected Monomial key, got {type(key).__name__}")
    if max(key) > _FIELD:
        raise ValueError(f"exponent too large for a term key (limit {_FIELD})")
    a, b, c, d, h, w, r, e = key
    return a * X + b * Y + c * PX + d * PY + h * HBAR + w * OMEGA + r * SQRT2 + e * I


def unpack(key: int) -> Monomial:
    """The Monomial of a stored (reduced) key."""
    m, phase, params = _FIELD, key & _PHASE, key >> 64
    return tuple.__new__(Monomial, (
        phase & m, phase >> 16 & m, phase >> 32 & m, phase >> 48,
        params & m, params >> 16 & m, params >> _ROOTS - 64 & 1, params >> _ROOTS - 62,
    ))


def field_min(nums: dict, unit: int) -> int:
    """The smallest exponent over the keys of nums in the field of unit,
    one of X, Y, PX, PY, HBAR and OMEGA, read by masking the field in
    place; 0 for an empty map."""
    shift = unit.bit_length() - 1
    return min((key >> shift & _FIELD for key in nums), default=0)


def _checked(nums: dict) -> dict:
    """nums, or ValueError for an exponent of PACK_LIMIT or more, which a
    kernel's sums could carry into the next field."""
    if nums and reduce(or_, nums) & _OVER:
        raise ValueError(_OVER_LIMIT)
    return nums


def phase_terms(nums: dict) -> list[tuple[int, int, int, int, int, int]]:
    """The terms of a kernel's operand as (key, value, a, b, c, d): the
    phase exponents are read off once, for the tables and tests that the
    kernels look up by them.  ValueError as _checked."""
    m = _FIELD
    # the phase part alone is a smaller int to shift
    return [
        (k, v, (p := k & _PHASE) & m, p >> 16 & m, p >> 32 & m, p >> 48)
        for k, v in _checked(nums).items()
    ]


def _add_products(acc: dict, left: dict, right: dict) -> None:
    """Add the product of each term of left with each term of right into
    acc: keys add and values multiply, with both reductions left to
    _folded."""
    get = acc.get
    right = right.items()
    for k1, v1 in left.items():
        for k2, v2 in right:
            key = k1 + k2
            acc[key] = get(key, 0) + v1 * v2


def _folded(acc: dict) -> dict:
    """acc, sums over unreduced key sums, with each key reduced and the
    zeros dropped: R2 set (sqrt2 * sqrt2 = 2) comes off and doubles the
    value, E2 set (i * i = -1, also in i^3 = -i) comes off and negates it.
    Keys that meet after the reduction are summed.  Each step is skipped
    when one scan of acc finds nothing to do."""
    if reduce(or_, acc, 0) & (R2 | E2):
        for key in [k for k in acc if k & (R2 | E2)]:
            value = acc.pop(key)
            if key & R2:
                key -= R2
                value *= 2
            if key & E2:
                key -= E2
                value = -value
            acc[key] = acc.get(key, 0) + value
    if 0 in acc.values():
        return {k: v for k, v in acc.items() if v}
    return acc


def _accumulate(acc: dict, key, value) -> None:
    """Add value into acc[key] in place, dropping the key when the sum is zero."""
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


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


# A rational (numerator, denominator) of zero, the empty part of a
# Gaussian rational in a grouped view.
_ZERO = (0, 1)
# The (h, w, r) of a key shifted down by 64.
_HWR = (1 << 33) - 1


def grouped(nums: dict, den: int) -> tuple:
    """A flat term map, numerators nums over den, as ((phase, group), ...),
    phase the exponents (a, b, c, d) and group its coefficient
    (((h, w, r), re, im), ...), re and im (numerator, denominator) pairs
    in lowest terms; both levels descending, phase parts by degree first
    (render.ordered).  Keys are grouped by their int parts, and each
    distinct part is decoded once.  Every output format reads this view."""
    m = _FIELD
    groups: dict[int, dict] = {}
    for key, num in nums.items():
        g = gcd(num, den)
        parts = groups.setdefault(key & _PHASE, {}).setdefault(key >> 64 & _HWR, [_ZERO, _ZERO])
        parts[key >> _ROOTS + 2] = (num // g, den // g)
    phases = {(p & m, p >> 16 & m, p >> 32 & m, p >> 48): group for p, group in groups.items()}
    out = []
    for phase in render.ordered(phases):
        group = phases[phase]
        # most groups hold one term, which needs no list and no sort
        if len(group) == 1:
            ((q, (re, im)),) = group.items()
            out.append((phase, (((q & m, q >> 16 & m, q >> 32), re, im),)))
        else:
            terms = [((q & m, q >> 16 & m, q >> 32), re, im) for q, (re, im) in group.items()]
            terms.sort(reverse=True)
            out.append((phase, tuple(terms)))
    return tuple(out)


# (map, its grouped view, the view of its derivative form or None) for the
# map whose view was read last: one tuple, read and replaced whole, so
# concurrent readers at worst group or relabel again.
_last_view: tuple = (None, (), None)


class TermMap:
    """Sparse map from int keys (the layout above) to nonzero int numerators
    over one positive int denominator, kept in lowest terms (no zero
    numerator, gcd(den, *nums) == 1), so equality is structural.  A
    subclass names its display names in the render styles (``_names``)
    and may replace the commutative ``_product``.  The constructor takes
    {Monomial: int or Fraction}; ``numerators`` and ``terms`` are
    {Monomial: int} and {Monomial: Fraction} views of the map, built on
    each call, and ``groups`` the grouped view that every output format
    reads.

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
        ratios = {pack(key): _ratio(value) for key, value in (terms or {}).items()}
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
        # the constant key, with every exponent 0, is 0
        return cls._term(0, value)

    @classmethod
    def monomial(cls, key: Monomial, value=1):
        return cls._term(pack(key), value)

    @classmethod
    def _term(cls, key: int, value):
        num, den = _ratio(value)
        return _canonical(cls, {key: num}, den) if num else _canonical(cls, {})

    # -- queries ----------------------------------------------------------

    @property
    def numerators(self) -> dict:
        """The flat map {Monomial: int} of numerators, built on each call."""
        return {unpack(k): v for k, v in self._nums.items()}

    @property
    def denominator(self) -> int:
        """The positive denominator shared by every numerator."""
        return self._den

    @property
    def terms(self) -> dict:
        """The flat term map as {Monomial: Fraction}, built on each call."""
        return {unpack(k): Fraction(v, self._den) for k, v in self._nums.items()}

    @property
    def groups(self) -> tuple:
        """The map grouped for output (grouped), as nested tuples.
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
            view = (self, grouped(self._nums, self._den), None)
        if derivative and view[2] is None:
            view = (self, view[1], render.derivative_groups(view[1]))
        _last_view = view
        return view

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def hbar_free_part(self):
        return _reduced(type(self), {k: v for k, v in self._nums.items() if not k & _H}, self._den)

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
        acc: dict[int, int] = {}
        _add_products(acc, _checked(self._nums), _checked(other._nums))
        return _reduced(type(self), _folded(acc), self._den * other._den)

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
