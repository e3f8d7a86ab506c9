"""Polynomial quantization maps.

Two monomial ordering rules are implemented for each canonical pair:

    Born-Jordan:  x^r p^s -> 1/(s+1)   sum_k          P^(s-k) X^r P^k
    Weyl:         x^r p^s -> 1/2^s     sum_k C(s, k)  P^(s-k) X^r P^k

Each sum has a closed normal-ordered form (quantize_monomial), cached
per one-pair monomial, so the degree range bounds the cache.

The pairs commute, so quantize joins each term's two one-pair images
with the term's parameter part in one double loop: exponents of hbar
add, and three powers of i (coeffring.neg_i_hbar in each image, and the
term's own) reduce as one.  Output is always normal ordered, which makes
operator equality a structural check.

The module also provides the direct ladder-operator quantization, a
route apart from the ordering rules: generators.ladder_products writes
each ladder power b^k in normal order in closed form (BCH, as [q, p] is
central) and reads F1 and F2 off the one product b1^n b2*^m, split by
the automorphism i -> -i, hbar -> -hbar that sends it to b1*^n b2^m.
quantize_ladder builds only the part of that product it returns.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import lcm

from quantlab.coeffring import Monomial, _make, _reduced, neg_i_hbar
from quantlab.generators import OscillatorParams, _ladder_parts
from quantlab.phasepoly import PhasePoly
from quantlab.weylalgebra import Operator, swap_weight


class Scheme(Enum):
    BORN_JORDAN = "bj"
    WEYL = "weyl"


@lru_cache(maxsize=None)
def quantize_monomial(scheme: Scheme, mono: Monomial) -> Operator:
    """Quantize the phase part of a classical monomial under the given
    scheme.  quantize reads only one-pair and constant images from here.

    x^r p^s on one axis maps to sum_j rule_j / den (-i hbar)^j X^(r-j)
    P^(s-j).  Swapping P^(s-k) past X^r term by term, the ordering sum
    collapses to rule_j / den = swap_weight(s, r, j) mu_j, with
    mu_j = 1/(j+1) for Born-Jordan (sum_k C(s-k, j) = C(s+1, j+1)) and
    2^-j for Weyl (sum_k C(s, k) C(s-k, j) = C(s, j) 2^(s-j)).  A mixed
    monomial's image is the product of its one-pair images, joined by
    quantize.  TypeError for a scheme that is not a Scheme member: only a
    cache miss runs this check.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme member, got {scheme!r}")
    a, b, c, d = mono[:4]
    if (a or c) and (b or d):
        return quantize(scheme, PhasePoly.monomial(Monomial(a, b, c, d)))
    born_jordan = scheme is Scheme.BORN_JORDAN
    r, s = a + b, c + d
    den = s + 1 if born_jordan else 2 ** s
    nums = {}
    for j in range(min(r, s) + 1):
        power, sign = neg_i_hbar(j)
        # one pair's exponents are nonzero, and j <= min(r, s) lowers only them
        key = _make(Monomial, (a and a - j, b and b - j, c and c - j, d and d - j) + power[4:])
        nums[key] = sign * swap_weight(s, r, j) * den // (j + 1 if born_jordan else 2 ** j)
    return _reduced(Operator, nums, den)


def quantize(scheme: Scheme, poly: PhasePoly) -> Operator:
    """Coefficient-linear extension of the monomial rule: each term's
    parameter part times the images of its one-pair parts x^a px^c and
    y^b py^d, the products meeting at the lcm of their denominators."""
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme member, got {scheme!r}")
    if not isinstance(poly, PhasePoly):
        raise TypeError(f"quantize takes a PhasePoly, got {type(poly).__name__}")
    parts = []
    for key, value in poly._nums.items():
        a, b, c, d = key[:4]
        x = quantize_monomial(scheme, _make(Monomial, (a, 0, c, 0, 0, 0, 0, 0)))
        y = quantize_monomial(scheme, _make(Monomial, (0, b, 0, d, 0, 0, 0, 0)))
        parts.append((key, value, x, y))
    den = lcm(*(x._den * y._den for _, _, x, y in parts))
    acc: dict[Monomial, int] = {}
    for (_, _, _, _, h, w, r, e), value, x, y in parts:
        scale = value * (den // (x._den * y._den))
        y_terms = y._nums.items()
        for (a, _, c, _, hx, _, _, ex), vx in x._nums.items():
            vx *= scale
            for (_, b, _, d, hy, _, _, ey), vy in y_terms:
                i = e + ex + ey
                key = _make(Monomial, (a, b, c, d, h + hx + hy, w, r, i & 1))
                # i^2 = -1 when two or all three powers of i meet
                acc[key] = acc.get(key, 0) + (-vx * vy if i & 2 else vx * vy)
    return _reduced(Operator, {k: v for k, v in acc.items() if v}, poly._den * den)


def quantize_ladder(params: OscillatorParams, which: int) -> Operator:
    """Quantize ladder integral F1 (which = 1) or F2 (which = 2) directly.

    The ladder product is built as a normal-ordered operator in closed
    form (generators.ladder_products), unnormalized to match the
    classical ladder integrals.  Only the part returned is built: the
    even part of b1^n b2*^m for F1, the odd part for F2.  which is the
    int 1 or 2: a bool or float equal to one is refused.
    """
    if isinstance(which, bool) or not isinstance(which, int) or which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return _ladder_parts(params, True, (which - 1,))[0]
