"""Noncommutative operator algebra over the coefficient ring.

Operators are stored in normal order: position factors to the left of
momentum factors within each canonical pair, different pairs commuting
freely.  Products are re-normalized with the closed-form swap identity

    P^s X^r = sum_k k! C(s,k) C(r,k) (-i hbar)^k X^(r-k) P^(s-k),

which matches iterated single swaps exactly (swap_weight is its integer
weight; _corrections writes its (-i hbar)^k).  The k = 0 term of a
product of two words is their commutative product, the same key with
the same value in either order, so a commutator builds neither product:
the base terms cancel, and it accumulates only the reordering
corrections (k > 0) of both orders, with opposite signs.

The kernels work on packed keys (coeffring.pack_terms): a reordering
correction (_corrections) or Leibniz term (_leibniz_shifts) is one signed
shift of the product's key.  op_mul, commutator and probe_bracket each
run one pass over term pairs of their own; op_mul folds i * i = -1 once
after its loop, where a correction's i meets one.  commutator and
probe_bracket skip work whose result is known to be empty: they look up
a direction's table only when it can be nonempty (c1 and a2 or d1 and
b2 for the left word acting on the right), and they reduce the base
of a pair only when the left key has a sqrt2 or i bit, as otherwise the
sum of the two keys cannot carry one.

A separate differential action provides an independent route to the
same algebra for cross-checks.  Momentum is realized as -i*hbar times
the coordinate derivative, and an operator's words, written
x^a y^b d^c/dx^c d^d/dy^d, are its image of the probe e^(sx+ty), s and t
symbolic (probe_image).  probe_bracket applies each factor's words by
the Leibniz rule to the other's image, for the image of a commutator,
in one pass over term pairs: as in commutator, the base terms of the
two orders cancel.  It packs each factor's probe_image, so both sides
of an oracle check read one relabel.  One probe decides an operator
identity.
apply_to_polynomial applies the same words to a position polynomial,
each word taking its derivatives of the polynomial alone.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm

from quantlab import render
from quantlab.coeffring import (
    E2,
    R2,
    _ROOTS,
    Monomial,
    TermMap,
    _accumulate,
    _canonical,
    _make,
    _reduced,
    mono_mul,
    pack,
    pack_terms,
    unpack_terms,
)
from quantlab.phasepoly import PhasePoly


def swap_weight(s: int, r: int, k: int) -> int:
    """k! C(s,k) C(r,k), the weight of the k-th term of the swap identity."""
    return perm(s, k) * comb(r, k)


# The packed keys of x px and y py: a shift by -k times one lowers a
# position exponent and its momentum (or s, t) exponent by k together.
_X_PX = pack(Monomial(a=1, c=1))
_Y_PY = pack(Monomial(b=1, d=1))
# The packed keys of hbar and i, which (-i hbar)^k raises by k and k mod 2.
_HBAR = pack(Monomial(h=1))
_I = pack(Monomial(e=1))


@lru_cache(maxsize=None)
def _corrections(s1: int, r1: int, s2: int, r2: int) -> tuple[tuple[int, int], ...]:
    """(shift, weight) of each reordering correction of the swap identity
    for P^s1 X^r1 and P^s2 Y^r2, the terms with k1 + k2 > 0: the shift is
    a signed packed key, added to the product of the two words, that
    lowers X and Px by k1, Y and Py by k2 and carries (-i hbar)^(k1+k2),
    whose sign joins the two swap weights.  The shift is written directly,
    as hbar^k and, for an odd k = k1 + k2, the i bit; the weight takes the
    sign of (-i)^k.  Empty exactly when the words commute,
    not (s1 and r1 or s2 and r2), and commutator then skips the lookup."""
    out = []
    for k1 in range(min(s1, r1) + 1):
        for k2 in range(min(s2, r2) + 1):
            k = k1 + k2
            if not k:
                continue
            shift = k * _HBAR + (k & 1) * _I - k1 * _X_PX - k2 * _Y_PY
            weight = swap_weight(s1, r1, k1) * swap_weight(s2, r2, k2)
            # (-i)^k cycles 1, -i, -1, i
            out.append((shift, -weight if k % 4 in (1, 2) else weight))
    return tuple(out)


class Operator(TermMap):
    """Sparse normal-ordered operator over the coefficient ring."""

    __slots__ = ()
    _names = "operator"

    def _product(self, other: "Operator") -> "Operator":
        return op_mul(self, other)

    @property
    def derivative_groups(self) -> tuple:
        """The grouped view of the derivative form, probe_image(self).groups,
        relabelled from groups once and kept with it (TermMap.groups)."""
        return self._view(True)[2]


def op_mul(left: Operator, right: Operator) -> Operator:
    """Exact noncommutative product, re-expressed in normal order.

    One loop over term pairs: a pair's packed keys added and reduced,
    plus each unreduced (shift, weight) of its _corrections(c, i, d, j),
    c, d of the left term and i, j of the right.  A correction's i can
    meet the term's, so i * i = -1 is folded once after the loop.
    """
    acc: dict = {}
    get = acc.get
    right_terms = pack_terms(right._nums)
    for word, v, _, _, c, d in pack_terms(left._nums):
        for term, u, i, j, _, _ in right_terms:
            base = word + term
            value = v * u
            if base & R2:
                base -= R2
                value *= 2
            if base & E2:
                base -= E2
                value = -value
            acc[base] = get(base, 0) + value
            for shift, weight in _corrections(c, i, d, j):
                key = base + shift
                acc[key] = get(key, 0) + value * weight
    for key in [k for k in acc if k & E2]:
        acc[key - E2] = get(key - E2, 0) - acc.pop(key)
    return _reduced(Operator, unpack_terms(acc), left._den * right._den)


def commutator(left: Operator, right: Operator) -> Operator:
    """[left, right] = left*right - right*left in canonical form.

    One pass over the term pairs that builds neither product: the base
    term of a pair is the same in both orders and cancels, so only the
    corrections of left*right (sign +) and of right*left (sign -) are
    accumulated.  A direction whose words commute is not looked up, and
    a pair with neither is skipped.  A left term with neither sqrt2 nor
    i (no packed bit from coeffring._ROOTS up) cannot make the base
    carry, so its base is not reduced.
    """
    acc: dict = {}
    get = acc.get
    roots = _ROOTS
    right_terms = pack_terms(right._nums)
    for k1, v1, a1, b1, c1, d1 in pack_terms(left._nums):
        reduce = k1 >> roots
        for k2, v2, a2, b2, c2, d2 in right_terms:
            forward = _corrections(c1, a2, d1, b2) if c1 and a2 or d1 and b2 else ()
            backward = _corrections(c2, a1, d2, b1) if c2 and a1 or d2 and b1 else ()
            if not (forward or backward):
                continue
            base = k1 + k2
            value = v1 * v2
            if reduce:
                if base & R2:
                    base -= R2
                    value *= 2
                if base & E2:
                    base -= E2
                    value = -value
            for shift, weight in forward:
                key = base + shift
                if key & E2:
                    key -= E2
                    weight = -weight
                acc[key] = get(key, 0) + value * weight
            for shift, weight in backward:
                key = base + shift
                if key & E2:
                    key -= E2
                    weight = -weight
                acc[key] = get(key, 0) - value * weight
    return _reduced(Operator, unpack_terms(acc), left._den * right._den)


def classical_symbol(op: Operator) -> PhasePoly:
    """hbar -> 0 limit with momenta read as classical variables."""
    limit = op.hbar_free_part()
    return _canonical(PhasePoly, limit.numerators, limit.denominator)


@lru_cache(maxsize=None)
def _leibniz_shifts(c: int, i: int, d: int, j: int) -> tuple[tuple[int, int], ...]:
    """(shift, weight) for each k <= min(c, i) and l <= min(d, j), not both
    zero, the terms of d^c/dx^c d^d/dy^d (x^i y^j e^(sx+ty)) beside
    x^i y^j s^c t^d e^(sx+ty) itself: the signed packed key shift lowers x
    and s by k, y and t by l, and the weight is
    C(c,k) i!/(i-k)! C(d,l) j!/(j-l)!.  Empty exactly when
    not (c and i or d and j), and probe_bracket then skips the lookup."""
    return tuple(
        (-k * _X_PX - l * _Y_PY, comb(c, k) * perm(i, k) * comb(d, l) * perm(j, l))
        for k in range(min(c, i) + 1)
        for l in range(min(d, j) + 1)
        if k or l
    )


def apply_to_polynomial(op: Operator, poly: PhasePoly) -> PhasePoly:
    """Act on a position polynomial; rejects px and py.

    The word x^a y^b d^c/dx^c d^d/dy^d of probe_image(op) sends x^i y^j to
    i!/(i-c)! j!/(j-d)! x^(a+i-c) y^(b+j-d) when c <= i and d <= j, and
    to 0 otherwise; the parameter parts multiply through mono_mul.
    """
    if any(key.c or key.d for key in poly.numerators):
        raise ValueError("operators act on position polynomials (no px or py)")
    acc: dict = {}
    for word, v in probe_image(op).numerators.items():
        c, d = word[2], word[3]
        for term, u in poly.numerators.items():
            i, j = term[0], term[1]
            if c > i or d > j:
                continue
            base, factor = mono_mul(word, term)
            key = _make(Monomial, (base[0] - c, base[1] - d, 0, 0) + base[4:])
            _accumulate(acc, key, v * u * factor * perm(i, c) * perm(j, d))
    return _reduced(PhasePoly, acc, op.denominator * poly.denominator)


def min_hbar_exponent(op: Operator) -> int:
    """Smallest hbar exponent over all terms; 0 for the zero operator."""
    return min((key.h for key in op.numerators), default=0)


def min_omega_exponent(op: Operator) -> int:
    """Smallest omega exponent over all terms; 0 for the zero operator."""
    return min((key.w for key in op.numerators), default=0)


def probe_image(op: Operator) -> PhasePoly:
    """op's image of the probe e^(sx+ty), divided by e^(sx+ty): the
    operator written as x^a y^b d^c/dx^c d^d/dy^d, with d/dx and d/dy read
    as s and t in the px and py slots.

    Each term absorbs the (-i*hbar)^k factor of the momentum realization,
    k = c + d, in one relabel of its key: hbar^h becomes hbar^(h+k), and
    i^e (-i)^k = i^(e+3k) gives the i bit and the sign.  The relabel is
    injective, so no terms merge and the denominator is op's.  Its
    numerators are the derivative words that probe_bracket applies.
    """
    out: dict = {}
    for (a, b, c, d, h, w, r, e), num in op._nums.items():
        k = c + d
        # i^j is i^(j & 1) with the sign - when j & 2 is set
        j = e + 3 * k
        out[_make(Monomial, (a, b, c, d, h + k, w, r, j & 1))] = -num if j & 2 else num
    return _canonical(PhasePoly, out, op._den)


def probe_bracket(left: Operator, right: Operator) -> PhasePoly:
    """The image of e^(sx+ty) under left right - right left, divided by
    e^(sx+ty): left(right(e)) - right(left(e)), each factor's derivative
    words (probe_image) acting on the other's image.

    A state p(x, y, s, t) e^(sx+ty) is held as the numerators of p, with
    the exponents of s and t in the c and d slots.  By the Leibniz rule
    the word x^a y^b d^c/dx^c d^d/dy^d sends x^i y^j s^u t^v e^(sx+ty) to
    the sum over k <= min(c, i) and l <= min(d, j) of
    C(c,k) i!/(i-k)! C(d,l) j!/(j-l)! x^(a+i-k) y^(b+j-l) s^(u+c-k) t^(v+d-l)
    times e^(sx+ty).  Its k = l = 0 term, the two packed keys added and
    reduced, is the same for a pair of words in either order and cancels;
    so one pass over the term pairs accumulates only the other terms, the
    shifts of _leibniz_shifts, of left's word on right's (sign +) and of
    right's word on left's (sign -).  As in commutator, a direction with
    no shifts is not looked up, a pair with neither is skipped, and the
    base of a left word with neither sqrt2 nor i is not reduced.
    ValueError, from pack_terms, for a relabelled hbar exponent h + c + d
    of PACK_LIMIT or more.
    """
    acc: dict = {}
    get = acc.get
    roots = _ROOTS
    right_words = pack_terms(probe_image(right)._nums)
    for k1, v1, a1, b1, c1, d1 in pack_terms(probe_image(left)._nums):
        reduce = k1 >> roots
        for k2, v2, a2, b2, c2, d2 in right_words:
            forward = _leibniz_shifts(c1, a2, d1, b2) if c1 and a2 or d1 and b2 else ()
            backward = _leibniz_shifts(c2, a1, d2, b1) if c2 and a1 or d2 and b1 else ()
            if not (forward or backward):
                continue
            base = k1 + k2
            value = v1 * v2
            if reduce:
                if base & R2:
                    base -= R2
                    value *= 2
                if base & E2:
                    base -= E2
                    value = -value
            for shift, weight in forward:
                key = base + shift
                acc[key] = get(key, 0) + value * weight
            for shift, weight in backward:
                key = base + shift
                acc[key] = get(key, 0) - value * weight
    return _reduced(PhasePoly, unpack_terms(acc), left._den * right._den)


def differential_text(op: Operator) -> str:
    """Plain-text rendering in derivative form."""
    return render.join_terms(op.derivative_groups, "differential", render.TEXT)


def differential_latex(op: Operator) -> str:
    return render.join_terms(op.derivative_groups, "differential", render.LATEX)
