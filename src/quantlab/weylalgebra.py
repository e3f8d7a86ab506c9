"""Noncommutative operator algebra over the coefficient ring.

Operators are stored in normal order: position factors to the left of
momentum factors within each canonical pair, different pairs commuting
freely.  Products are re-normalized with the closed-form swap identity

    P^s X^r = sum_k k! C(s,k) C(r,k) (-i hbar)^k X^(r-k) P^(s-k),

which matches iterated single swaps exactly (swap_weight is its integer
weight, coeffring.neg_i_hbar its (-i hbar)^k).  The k = 0 term of a
product of two words is their commutative product, the same key with
the same value in either order, so a commutator builds neither product:
the base terms cancel, and it accumulates only the reordering
corrections (k > 0) of both orders, with opposite signs.  A separate
differential action on position polynomials (momentum realized as
-i*hbar times the coordinate derivative; Action memoizes it per
operator) provides an independent route to the same algebra for
cross-checks.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm

from quantlab import render
from quantlab.coeffring import (
    TermMap,
    _accumulate,
    _canonical,
    _make,
    _reduced,
    fraction_view,
    linear_extension,
    mono_mul,
    neg_i_hbar,
)
from quantlab.phasepoly import Monomial, PhaseMono, PhasePoly


def swap_weight(s: int, r: int, k: int) -> int:
    """k! C(s,k) C(r,k), the weight of the k-th term of the swap identity."""
    return perm(s, k) * comb(r, k)


@lru_cache(maxsize=None)
def _corrections(s1: int, r1: int, s2: int, r2: int) -> tuple[tuple[Monomial, int], ...]:
    """(key, weight) of each reordering correction of the swap identity for
    P^s1 X^r1 and P^s2 Y^r2, the terms with k1 + k2 > 0: the key lowers X
    and Px by k1, Y and Py by k2 (to be added to the product of the two
    words) and carries (-i hbar)^(k1+k2), whose sign joins the two swap
    weights.  Empty when the words commute."""
    out = []
    for k1 in range(min(s1, r1) + 1):
        for k2 in range(min(s2, r2) + 1):
            if not (k1 or k2):
                continue
            power, sign = neg_i_hbar(k1 + k2)
            key = _make(Monomial, (-k1, -k2, -k1, -k2) + power[4:])
            out.append((key, sign * swap_weight(s1, r1, k1) * swap_weight(s2, r2, k2)))
    return tuple(out)


OpMono = Monomial


class Operator(TermMap):
    """Sparse normal-ordered operator over the coefficient ring."""

    __slots__ = ()
    _names = "operator"

    def _product(self, other: "Operator") -> "Operator":
        return op_mul(self, other)

    def momentum_order(self) -> int:
        return max((m.c + m.d for m in self._nums), default=0)

    def position_order(self) -> int:
        return max((m.a + m.b for m in self._nums), default=0)


def x_hat() -> Operator:
    return Operator.monomial(OpMono(a=1))


def y_hat() -> Operator:
    return Operator.monomial(OpMono(b=1))


def px_hat() -> Operator:
    return Operator.monomial(OpMono(c=1))


def py_hat() -> Operator:
    return Operator.monomial(OpMono(d=1))


def op_mul(left: Operator, right: Operator) -> Operator:
    """Exact noncommutative product, re-expressed in normal order.

    Only same-index pairs produce correction terms; the x and y families
    commute with each other.
    """
    acc: dict = {}
    for m1, v1 in left._nums.items():
        for m2, v2 in right._nums.items():
            base, factor = mono_mul(m1, m2)
            value = v1 * v2 * factor
            _accumulate(acc, base, value)
            _add_corrections(acc, base, value, _corrections(m1.c, m2.a, m1.d, m2.b))
    return _reduced(Operator, acc, left._den * right._den)


def commutator(left: Operator, right: Operator) -> Operator:
    """[left, right] = left*right - right*left in canonical form.

    One pass over the term pairs that builds neither product: the base
    term of a pair is the same in both orders and cancels, so only the
    corrections of left*right (sign +) and of right*left (sign -) are
    accumulated, and a pair whose words commute is skipped.
    """
    acc: dict = {}
    for m1, v1 in left._nums.items():
        for m2, v2 in right._nums.items():
            forward = _corrections(m1.c, m2.a, m1.d, m2.b)
            backward = _corrections(m2.c, m1.a, m2.d, m1.b)
            if not (forward or backward):
                continue
            base, factor = mono_mul(m1, m2)
            value = v1 * v2 * factor
            _add_corrections(acc, base, value, forward)
            _add_corrections(acc, base, -value, backward)
    return _reduced(Operator, acc, left._den * right._den)


def _add_corrections(acc: dict, base: Monomial, value: int, corrections) -> None:
    """Accumulate value times each (shift, weight) of a _corrections table,
    each shift moved onto the base key of the product."""
    for shift, weight in corrections:
        key, sign = mono_mul(base, shift)
        _accumulate(acc, key, value * sign * weight)


def classical_symbol(op: Operator) -> PhasePoly:
    """hbar -> 0 limit with momenta read as classical variables."""
    limit = op.hbar_free_part()
    return _canonical(PhasePoly, limit.numerators, limit.denominator)


class Action:
    """The differential action of one operator on position polynomials.

    Builds the operator's derivative form (derivative_words) once and
    memoizes the numerators of its image of each position monomial
    x^i y^j, all over the operator's denominator, so applying it to a
    polynomial is a linear combination of cached images with no lcm;
    hbar stays symbolic.  The memo table lives as long as the object does.
    """

    __slots__ = ("op", "_words", "_images")

    def __init__(self, op: Operator):
        self.op = op
        self._words = derivative_words(op)
        self._images: dict[PhaseMono, dict] = {}

    @classmethod
    def of(cls, op: "Operator | Action") -> "Action":
        return op if isinstance(op, cls) else cls(op)

    def _image(self, mono: PhaseMono) -> tuple[dict, int]:
        """(numerators, denominator) of the image of mono x^i y^j, memoized."""
        nums = self._images.get(mono)
        if nums is None:
            if mono.c or mono.d:
                raise ValueError("operators act on position polynomials (no px or py)")
            i, j = mono.a, mono.b
            nums = {}
            for word, value in self._words.items():
                a, b, c, d = word[:4]
                if c > i or d > j:
                    continue
                key = _make(Monomial, (a + i - c, b + j - d, 0, 0) + word[4:])
                _accumulate(nums, key, value * perm(i, c) * perm(j, d))
            self._images[mono] = nums
        return nums, self.op._den

    def image(self, mono: PhaseMono) -> PhasePoly:
        """The action on the position monomial mono x^i y^j."""
        return _reduced(PhasePoly, *self._image(mono))

    def __call__(self, poly: PhasePoly) -> PhasePoly:
        """Act on poly; rejects polynomials containing px or py."""
        return linear_extension(PhasePoly, self._image, poly)


def apply_to_polynomial(op: Operator, poly: PhasePoly) -> PhasePoly:
    """Act on a position polynomial as a differential operator; rejects px and py."""
    return Action(op)(poly)


def adjoint(op: Operator) -> Operator:
    """Formal adjoint: reverse each word and conjugate its coefficient."""
    out = Operator.zero()
    for mono, num in op.numerators.items():
        momenta = Operator.monomial(Monomial(c=mono.c, d=mono.d))
        positions = Operator.monomial(mono._replace(c=0, d=0), num).conjugate()
        out = out + op_mul(momenta, positions)
    return _reduced(Operator, out.numerators, out.denominator * op.denominator)


def min_hbar_exponent(op: Operator) -> int:
    """Smallest hbar exponent over all terms; 0 for the zero operator."""
    return min((key.h for key in op.numerators), default=0)


def min_omega_exponent(op: Operator) -> int:
    """Smallest omega exponent over all terms; 0 for the zero operator."""
    return min((key.w for key in op.numerators), default=0)


def derivative_words(op: Operator) -> dict:
    """The numerators of the operator written as x^a y^b d^c/dx^c d^d/dy^d,
    over the operator's denominator.

    The keys keep (c, d) as derivative orders; each term absorbs the
    (-i*hbar)^(c+d) factor of the momentum realization, a relabel of its
    key and a sign.  The relabel is injective, so no terms merge.  This
    one derivative form serves the action and the derivative renderers;
    it is a plain dict, as an Operator's product would be wrong for
    derivative words.
    """
    out: dict = {}
    for mono, num in op.numerators.items():
        power, sign = neg_i_hbar(mono.c + mono.d)
        key, factor = mono_mul(mono, power)
        out[key] = num if sign == factor else -num
    return out


def differential_terms(op: Operator) -> dict:
    """The derivative form as {Monomial: Fraction}, like TermMap.terms."""
    return fraction_view(derivative_words(op), op.denominator)


def differential_text(op: Operator) -> str:
    """Plain-text rendering in derivative form."""
    return render.join_terms(
        derivative_words(op), op.denominator, render.differential_factors, render.TEXT
    )


def differential_latex(op: Operator) -> str:
    return render.join_terms(
        derivative_words(op), op.denominator, render.differential_factors, render.LATEX
    )
