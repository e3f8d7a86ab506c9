"""Polynomial quantization maps.

Two monomial ordering rules are implemented for each canonical pair:

    Born-Jordan:  x^r p^s -> 1/(s+1)   sum_k          P^(s-k) X^r P^k
    Weyl:         x^r p^s -> 1/2^s     sum_k C(s, k)  P^(s-k) X^r P^k

In normal order both are the swap identity of P^s X^r (weylalgebra's
_corrections) with its j-th term weighted by mu_j, 1/(j+1) for
Born-Jordan and 2^-j for Weyl: mu_j is all that tells the schemes apart
(quantize_monomial).  The images are cached per one-pair monomial, so
the degree range bounds the cache.

The pairs commute, so quantize joins each term's two one-pair images
with the term's parameter part in one double loop: the three keys add,
and the three powers of i (the (-i hbar)^j of each image, and the term's
own) reduce as one.  Output is always normal ordered, which makes
operator equality a structural check.

The module also provides the direct ladder-operator quantization, a
route apart from the ordering rules: generators._ladder_parts, the one
ladder builder, writes each ladder power b^k in normal order in closed
form (BCH, as [q, p] is central) and reads F1 and F2 off the one product
b1^n b2*^m, split by the automorphism i -> -i, hbar -> -hbar that sends
it to b1*^n b2^m.  quantize_ladder builds only the part of that product
it returns.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import lcm

from quantlab.coeffring import _PHASE, Monomial, _folded, _reduced, pack, phase_terms
from quantlab.generators import OscillatorParams, _ladder_parts
from quantlab.phasepoly import PhasePoly
from quantlab.weylalgebra import Operator, _corrections


class Scheme(Enum):
    BORN_JORDAN = "bj"
    WEYL = "weyl"


@lru_cache(maxsize=None, typed=True)
def quantize_monomial(scheme: Scheme, a: int, b: int, c: int, d: int) -> Operator:
    """Quantize the classical monomial x^a y^b px^c py^d under the given
    scheme.  quantize reads only one-pair and constant images from here.

    Swapping P^(s-k) past X^r term by term, the ordering sum of x^r p^s
    on one axis collapses to sum_j mu_j t_j, where
    t_j = j! C(s,j) C(r,j) (-i hbar)^j X^(r-j) P^(s-j) is the j-th term
    of the swap identity of P^s X^r: for Born-Jordan
    sum_k C(s-k, j) = C(s+1, j+1) gives mu_j = 1/(j+1), for Weyl
    sum_k C(s, k) C(s-k, j) = C(s, j) 2^(s-j) gives mu_j = 2^-j.  t_0 is
    the word itself, and _corrections(c, a, d, b) lists t_1, t_2, ... in
    order, as (key shift, signed weight).  A mixed monomial's image is
    the product of its one-pair images, joined by quantize.  Only a cache
    miss runs the checks: TypeError for a scheme that is not a Scheme
    member, and the Monomial constructor's ValueError for an exponent
    that is negative or not an int, or pack's for one above its field.
    The cache is typed, so a float or bool exponent equal to a cached
    int, 2.0 or True, misses it and is refused too.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme member, got {scheme!r}")
    mono = Monomial(a, b, c, d)
    if (a or c) and (b or d):
        return quantize(scheme, PhasePoly.monomial(mono))
    base = pack(mono)
    swaps = _corrections(c, a, d, b)
    # mu_j = 1/q_j, the one place where the schemes differ
    q = [j + 1 if scheme is Scheme.BORN_JORDAN else 1 << j for j in range(len(swaps) + 1)]
    den = lcm(*q)
    nums = {base: den}
    for (shift, weight), q_j in zip(swaps, q[1:]):
        nums[base + shift] = weight * (den // q_j)
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
    for key, value, a, b, c, d in phase_terms(poly._nums):
        x = quantize_monomial(scheme, a, 0, c, 0)
        y = quantize_monomial(scheme, 0, b, 0, d)
        # the term's parameter part, its key less its phase part
        parts.append((key & ~_PHASE, value, x, y))
    den = lcm(*(x._den * y._den for _, _, x, y in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for params, value, x, y in parts:
        scale = value * (den // (x._den * y._den))
        y_terms = y._nums.items()
        for kx, vx in x._nums.items():
            kx += params
            vx *= scale
            for ky, vy in y_terms:
                key = kx + ky
                acc[key] = get(key, 0) + vx * vy
    return _reduced(Operator, _folded(acc), poly._den * den)


def quantize_ladder(params: OscillatorParams, which: int) -> Operator:
    """Quantize ladder integral F1 (which = 1) or F2 (which = 2) directly.

    The ladder product is built as a normal-ordered operator in closed
    form (generators._ladder_parts), unnormalized to match the
    classical ladder integrals.  Only the part returned is built: the
    even part of b1^n b2*^m for F1, the odd part for F2.  which is the
    int 1 or 2: a bool or float equal to one is refused.
    """
    if isinstance(which, bool) or not isinstance(which, int) or which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return _ladder_parts(params, True, (which - 1,))[0]
