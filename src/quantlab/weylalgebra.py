"""Noncommutative operator algebra over the coefficient ring.

Operators are stored in normal order: position factors to the left of
momentum factors within each canonical pair, different pairs commuting
freely.  Products are re-normalized with the closed-form swap identity

    P^s X^r = sum_k k! C(s,k) C(r,k) (-i hbar)^k X^(r-k) P^(s-k),

which matches iterated single swaps exactly (swap_weight is its integer
weight; _corrections writes its (-i hbar)^k).  _corrections is the one
statement of the identity for products, commutators and quantization:
quantizer weights its terms by an ordering rule's mu_k.  The k = 0 term of a
product of two words is their commutative product, the same key with
the same value in either order, so a commutator builds neither product:
the base terms cancel, and it accumulates only the reordering
corrections (k > 0) of both orders, with opposite signs.  The verify
path takes its commutators with the quadratic H from classical brackets
(quantizer.weyl_commutator); commutator is read by perfbench's
algebra-kf workload and by the tests' three-route check, which compares
it, as a third derivation of a record's commutators, with that route.

A term's key is one int (coeffring), so the product of two words is one
int add, and a reordering correction (_corrections) or Leibniz term
(_leibniz_shifts) is one signed shift of it.  op_mul, commutator and
probe_bracket each run one pass over term pairs of their own, read the
phase exponents of each operand once (coeffring.phase_terms), and reduce
their sums once at the end (coeffring._folded).  commutator and
probe_bracket look up a direction's table only when it can be nonempty
(c1 and a2 or d1 and b2 for the left word acting on the right).

A separate differential action provides an independent route to the
same algebra for cross-checks.  Momentum is realized as -i*hbar times
the coordinate derivative, and an operator's words, written
x^a y^b d^c/dx^c d^d/dy^d, are its image of the probe e^(sx+ty), s and t
symbolic (probe_image).  probe_bracket applies each factor's words by
the Leibniz rule to the other's image, for the image of a commutator,
in one pass over term pairs: as in commutator, the base terms of the
two orders cancel.  It reads each factor's probe_image, so both sides
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
    HBAR,
    OMEGA,
    I,
    TermMap,
    _canonical,
    _folded,
    _reduced,
    field_min,
    phase_terms,
)
from quantlab.phasepoly import _X_PX, _Y_PY, PhasePoly


def swap_weight(s: int, r: int, k: int) -> int:
    """k! C(s,k) C(r,k), the weight of the k-th term of the swap identity."""
    return perm(s, k) * comb(r, k)



@lru_cache(maxsize=None)
def _corrections(s1: int, r1: int, s2: int, r2: int) -> tuple[tuple[int, int], ...]:
    """(shift, weight) of each reordering correction of the swap identity
    for P^s1 X^r1 and P^s2 Y^r2, the terms with k1 + k2 > 0: the shift is
    a signed key, added to the product of the two words, that lowers X and
    Px by k1 and Y and Py by k2 (_X_PX, _Y_PY) and carries
    (-i hbar)^(k1+k2), whose sign joins the two swap weights.  The shift
    is written directly, as hbar^k and, for an odd k = k1 + k2, an i; the
    weight takes the sign of (-i)^k.  The terms come by k1, then k2, so a
    one-pair word's come by k (quantizer.quantize_monomial).  Empty exactly
    when the words commute, not (s1 and r1 or s2 and r2), and commutator
    then skips the lookup."""
    out = []
    for k1 in range(min(s1, r1) + 1):
        for k2 in range(min(s2, r2) + 1):
            k = k1 + k2
            if not k:
                continue
            shift = k * HBAR + (k & 1) * I - k1 * _X_PX - k2 * _Y_PY
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

    One loop over term pairs: a pair's keys added, plus each (shift,
    weight) of its _corrections(c, i, d, j), c, d of the left term and
    i, j of the right.  The sums are reduced once, after the loop.
    """
    acc: dict = {}
    get = acc.get
    right_terms = phase_terms(right._nums)
    for word, v, _, _, c, d in phase_terms(left._nums):
        for term, u, i, j, _, _ in right_terms:
            base = word + term
            value = v * u
            acc[base] = get(base, 0) + value
            for shift, weight in _corrections(c, i, d, j):
                key = base + shift
                acc[key] = get(key, 0) + value * weight
    return _reduced(Operator, _folded(acc), left._den * right._den)


def commutator(left: Operator, right: Operator) -> Operator:
    """[left, right] = left*right - right*left in canonical form.

    One pass over the term pairs that builds neither product: the base
    term of a pair is the same in both orders and cancels, so only the
    corrections of left*right (sign +) and of right*left (sign -) are
    accumulated.  A direction whose words commute is not looked up, and
    a pair with neither is skipped.  The sums are reduced once, after the
    loop.
    """
    acc: dict = {}
    get = acc.get
    right_terms = phase_terms(right._nums)
    for k1, v1, a1, b1, c1, d1 in phase_terms(left._nums):
        for k2, v2, a2, b2, c2, d2 in right_terms:
            forward = _corrections(c1, a2, d1, b2) if c1 and a2 or d1 and b2 else ()
            backward = _corrections(c2, a1, d2, b1) if c2 and a1 or d2 and b1 else ()
            if not (forward or backward):
                continue
            base = k1 + k2
            value = v1 * v2
            for shift, weight in forward:
                key = base + shift
                acc[key] = get(key, 0) + value * weight
            for shift, weight in backward:
                key = base + shift
                acc[key] = get(key, 0) - value * weight
    return _reduced(Operator, _folded(acc), left._den * right._den)


def classical_symbol(op: Operator) -> PhasePoly:
    """hbar -> 0 limit with momenta read as classical variables."""
    limit = op.hbar_free_part()
    return _canonical(PhasePoly, limit._nums, limit._den)


@lru_cache(maxsize=None)
def _leibniz_shifts(c: int, i: int, d: int, j: int) -> tuple[tuple[int, int], ...]:
    """(shift, weight) for each k <= min(c, i) and l <= min(d, j), not both
    zero, the terms of d^c/dx^c d^d/dy^d (x^i y^j e^(sx+ty)) beside
    x^i y^j s^c t^d e^(sx+ty) itself: the signed key shift lowers x
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
    to 0 otherwise: the two keys added, lowered by c in x and s and by d
    in y and t.
    """
    terms = phase_terms(poly._nums)
    if any(c or d for _, _, _, _, c, d in terms):
        raise ValueError("operators act on position polynomials (no px or py)")
    acc: dict = {}
    get = acc.get
    for word, v, _, _, c, d in phase_terms(probe_image(op)._nums):
        lower = c * _X_PX + d * _Y_PY
        for term, u, i, j, _, _ in terms:
            if c > i or d > j:
                continue
            key = word + term - lower
            acc[key] = get(key, 0) + v * u * perm(i, c) * perm(j, d)
    return _reduced(PhasePoly, _folded(acc), op._den * poly._den)


def min_hbar_exponent(op: Operator) -> int:
    """Smallest hbar exponent over all terms; 0 for the zero operator."""
    return field_min(op._nums, HBAR)


def min_omega_exponent(op: Operator) -> int:
    """Smallest omega exponent over all terms; 0 for the zero operator."""
    return field_min(op._nums, OMEGA)


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
    for key, num, _, _, c, d in phase_terms(op._nums):
        k = c + d
        # i^j is i^(j & 1) with the sign - when j & 2 is set; an odd k
        # toggles the i bit
        j = bool(key & I) + 3 * k
        out[(key ^ (k & 1) * I) + k * HBAR] = -num if j & 2 else num
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
    times e^(sx+ty).  Its k = l = 0 term, the two keys added, is the same
    for a pair of words in either order and cancels; so one pass over the
    term pairs accumulates only the other terms, the shifts of
    _leibniz_shifts, of left's word on right's (sign +) and of right's
    word on left's (sign -), and reduces the sums once at the end.  As in
    commutator, a direction with no shifts is not looked up and a pair
    with neither is skipped.  ValueError, from phase_terms, for a
    relabelled hbar exponent h + c + d of PACK_LIMIT or more.
    """
    acc: dict = {}
    get = acc.get
    right_words = phase_terms(probe_image(right)._nums)
    for k1, v1, a1, b1, c1, d1 in phase_terms(probe_image(left)._nums):
        for k2, v2, a2, b2, c2, d2 in right_words:
            forward = _leibniz_shifts(c1, a2, d1, b2) if c1 and a2 or d1 and b2 else ()
            backward = _leibniz_shifts(c2, a1, d2, b1) if c2 and a1 or d2 and b1 else ()
            if not (forward or backward):
                continue
            base = k1 + k2
            value = v1 * v2
            for shift, weight in forward:
                key = base + shift
                acc[key] = get(key, 0) + value * weight
            for shift, weight in backward:
                key = base + shift
                acc[key] = get(key, 0) - value * weight
    return _reduced(PhasePoly, _folded(acc), left._den * right._den)


def differential_text(op: Operator) -> str:
    """Plain-text rendering in derivative form."""
    return render.join_terms(op.derivative_groups, "differential", render.TEXT)


def differential_latex(op: Operator) -> str:
    return render.join_terms(op.derivative_groups, "differential", render.LATEX)
