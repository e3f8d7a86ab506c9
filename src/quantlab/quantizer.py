"""Polynomial quantization maps.

Two monomial ordering rules are implemented for each canonical pair:

    Born-Jordan:  x^r p^s -> 1/(s+1)   sum_k          P^(s-k) X^r P^k
    Weyl:         x^r p^s -> 1/2^s     sum_k C(s, k)  P^(s-k) X^r P^k

In normal order both are the swap identity of P^s X^r (weylalgebra's
_corrections) with its j-th term weighted by mu_j, 1/(j+1) for
Born-Jordan and 2^-j for Weyl: mu_j is all that tells the schemes apart
(quantize_monomial).  The images are cached per one-pair monomial, so
the degree range bounds the cache.

Born-Jordan has a second statement beside mu_j: it is Weyl after the
Cohen multiplier T, BJ(f) = W(T f), for T the product over the two pairs
of sum_k (-hbar^2/4)^k (d_q d_p)^(2k) / (2k+1)! (bj_excess gives
(T - 1) f).  quantize keeps mu_j, the cheaper route for one operator;
verify takes T, which gives BJ - W with no operator subtraction.  For a
quadratic h, [W(h), W(f)] = i hbar W({h, f}) exactly (weyl_commutator),
so a commutator with the Hamiltonian needs no operator product either.

The pairs commute, so quantize joins each term's two one-pair images
with the term's parameter part in one double loop: the three keys add,
and the three powers of i (the (-i hbar)^j of each image, and the term's
own) reduce as one.  Output is always normal ordered, which makes
operator equality a structural check.

The module also makes the ladder operators, a route apart from the
ordering rules: generators._ladder_parts writes the normal-ordered terms
of the ladder products in closed form (BCH), and quantize_ladder makes
the operator of the one part it asks for.  No other module turns
classical data into operators.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import factorial, lcm, perm

from quantlab.coeffring import (
    _PHASE,
    HBAR,
    I,
    Monomial,
    _canonical,
    _folded,
    _reduced,
    pack,
    phase_terms,
)
from quantlab.generators import OscillatorParams, _ladder_parts
from quantlab.phasepoly import _X_PX, _Y_PY, PhasePoly
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
    """Quantize ladder integral F1 (which = 1) or F2 (which = 2) directly,
    unnormalized like the classical ladder integrals: the operator of the
    one part of b1^n b2*^m that generators._ladder_parts is asked for, the
    even part for F1 and the odd part for F2.  which is the int 1 or 2: a
    bool or float equal to one is refused.
    """
    if isinstance(which, bool) or not isinstance(which, int) or which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return _reduced(Operator, *_ladder_parts(params, True, (which - 1,))[0])


@lru_cache(maxsize=None)
def _cohen_terms(r: int, s: int, pair: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """((shift, weight), ...), den: the terms of the one-pair Cohen
    multiplier sum_k (-hbar^2/4)^k (d_q d_p)^(2k) / (2k+1)! on q^r p^s,
    k = 0 first, each (-1)^k r!/(r-2k)! s!/(s-2k)! / (4^k (2k+1)!) as
    weight / den.  The shift lowers q and p by 2k (pair, the key of q p)
    and raises hbar by 2k."""
    dens = [4**k * factorial(2 * k + 1) for k in range(min(r, s) // 2 + 1)]
    den = lcm(*dens)
    return tuple(
        (2 * k * (HBAR - pair), (-1) ** k * perm(r, 2 * k) * perm(s, 2 * k) * (den // part))
        for k, part in enumerate(dens)
    ), den


def bj_excess(poly: PhasePoly) -> PhasePoly:
    """(T - 1) poly, for T the Cohen multiplier of Born-Jordan: the product
    over the two canonical pairs of sum_k (-hbar^2/4)^k (d_q d_p)^(2k) / (2k+1)!.
    quantize(BORN_JORDAN, f) == quantize(WEYL, f + bj_excess(f)) (de Gosson,
    Born-Jordan Quantization, 2016).  A term with fewer than two of q or p
    in both pairs is fixed by T and skipped."""
    parts = []
    for key, value, a, b, c, d in phase_terms(poly._nums):
        if min(a, c) < 2 and min(b, d) < 2:
            continue
        x, x_den = _cohen_terms(a, c, _X_PX)
        y, y_den = _cohen_terms(b, d, _Y_PY)
        parts.append((key, value, x, y, x_den * y_den))
    den = lcm(*(part_den for *_, part_den in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for key, value, x, y, part_den in parts:
        scale = value * (den // part_den)
        for sx, wx in x:
            for sy, wy in y:
                # the k = 0 term of both pairs is poly's own term
                if sx or sy:
                    k = key + sx + sy
                    acc[k] = get(k, 0) + scale * wx * wy
    return _reduced(PhasePoly, _folded(acc), poly._den * den)


def weyl_commutator(h: PhasePoly, bracket: PhasePoly) -> Operator:
    """[quantize(WEYL, h), quantize(WEYL, f)] for h of degree at most 2,
    from the Poisson bracket {h, f}: i hbar quantize(WEYL, {h, f}), since a
    quadratic symbol has no Moyal corrections (Folland, Harmonic Analysis
    in Phase Space, 1989).  The i hbar is written into the bracket's keys:
    HBAR added, the i bit toggled and, where it was set, i * i = -1 folded
    into the value.  ValueError for an h of higher degree, where the
    identity fails."""
    if not (isinstance(h, PhasePoly) and isinstance(bracket, PhasePoly)):
        raise TypeError("weyl_commutator takes two PhasePoly operands")
    if any(a + b + c + d > 2 for _, _, a, b, c, d in phase_terms(h._nums)):
        raise ValueError("weyl_commutator takes an h of degree at most 2")
    nums = {(key ^ I) + HBAR: -num if key & I else num for key, num in bracket._nums.items()}
    return quantize(Scheme.WEYL, _canonical(PhasePoly, nums, bracket._den))
