"""Polynomial quantization maps.

Two monomial ordering rules are implemented for each canonical pair:

    Born-Jordan:  x^r p^s -> 1/(s+1)   sum_k          P^(s-k) X^r P^k
    Weyl:         x^r p^s -> 1/2^s     sum_k C(s, k)  P^(s-k) X^r P^k

Each sum has a closed normal-ordered form (_pair_rule).

Mixed monomials factor across the two commuting pairs, so the image of
a monomial is one flat map over the two pair rules, each term carrying
coeffring.neg_i_hbar.  Output is always normal ordered, which makes
operator equality a structural check.

The module also provides the direct ladder-operator quantization, a
route apart from the ordering rules: generators.ladder_products writes
each ladder power b^k in normal order in closed form (BCH, as [q, p] is
central) and reads F1 and F2 off the one product b1^n b2*^m, split by
the automorphism i -> -i, hbar -> -hbar that sends it to b1*^n b2^m.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import lcm

from quantlab.coeffring import Monomial, _make, _reduced, neg_i_hbar
from quantlab.generators import OscillatorParams, ladder_products
from quantlab.phasepoly import PhasePoly
from quantlab.weylalgebra import Operator, swap_weight


class Scheme(Enum):
    BORN_JORDAN = "bj"
    WEYL = "weyl"


@lru_cache(maxsize=None)
def _pair_rule(scheme: Scheme, r: int, s: int) -> tuple[tuple[int, ...], int]:
    """Normal-ordered image of one canonical pair, as (rule, denominator).

    x^r p^s maps to sum_j rule[j] / denominator * (-i hbar)^j * X^(r-j)
    P^(s-j).  Swapping P^(s-k) past X^r term by term, the ordering sum
    collapses to rule[j] / denominator = swap_weight(s, r, j) * mu_j, with
    mu_j = 1/(j+1) for Born-Jordan (sum_k C(s-k, j) = C(s+1, j+1)) and
    2^-j for Weyl (sum_k C(s, k) C(s-k, j) = C(s, j) 2^(s-j)); every
    rule[j] is a positive integer.  TypeError for a scheme that is not a
    Scheme member: only a cache miss runs this check.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme member, got {scheme!r}")
    born_jordan = scheme is Scheme.BORN_JORDAN
    den = s + 1 if born_jordan else 2 ** s
    rule = tuple(
        swap_weight(s, r, j) * den // (j + 1 if born_jordan else 2 ** j)
        for j in range(min(r, s) + 1)
    )
    return rule, den


@lru_cache(maxsize=None)
def quantize_monomial(scheme: Scheme, mono: Monomial) -> Operator:
    """Quantize a single classical monomial under the given scheme.

    The pairs commute, so x^a y^b px^c py^d maps to the sum over j, k of
    (-i hbar)^(j+k) rule_x[j] rule_y[k] X^(a-j) Y^(b-k) Px^(c-j) Py^(d-k).
    """
    rule_x, den_x = _pair_rule(scheme, mono.a, mono.c)
    rule_y, den_y = _pair_rule(scheme, mono.b, mono.d)
    nums = {}
    for j, wx in enumerate(rule_x):
        for k, wy in enumerate(rule_y):
            power, sign = neg_i_hbar(j + k)
            # j <= min(a, c) and k <= min(b, d), so no exponent goes negative
            key = _make(Monomial, (mono.a - j, mono.b - k, mono.c - j, mono.d - k) + power[4:])
            nums[key] = sign * wx * wy
    return _reduced(Operator, nums, den_x * den_y)


def quantize(scheme: Scheme, poly: PhasePoly) -> Operator:
    """Coefficient-linear extension of the monomial rule: each term's
    parameter part multiplies the image of its phase part, and the images
    meet at the lcm of their denominators.

    An image key carries only hbar and i beside its phase part, so the
    term's (h, w, r, e) joins it inline: exponents add, and i * i = -1
    is the one reduction.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme member, got {scheme!r}")
    if not isinstance(poly, PhasePoly):
        raise TypeError(f"quantize takes a PhasePoly, got {type(poly).__name__}")
    parts = [(key, value, quantize_monomial(scheme, _make(Monomial, key[:4] + (0, 0, 0, 0))))
             for key, value in poly._nums.items()]
    den = lcm(*(op._den for _, _, op in parts))
    acc: dict[Monomial, int] = {}
    for (_, _, _, _, h, w, r, e), value, op in parts:
        scale = value * (den // op._den)
        for (a, b, c, d, h2, _, _, e2), v in op._nums.items():
            if e & e2:
                # i * i = -1
                key = _make(Monomial, (a, b, c, d, h + h2, w, r, 0))
                v = -v
            else:
                key = _make(Monomial, (a, b, c, d, h + h2, w, r, e | e2))
            acc[key] = acc.get(key, 0) + scale * v
    return _reduced(Operator, {k: v for k, v in acc.items() if v}, poly._den * den)


def quantize_ladder(params: OscillatorParams, which: int) -> Operator:
    """Quantize ladder integral F1 (which = 1) or F2 (which = 2) directly.

    The ladder products are built as normal-ordered operators in closed
    form (generators.ladder_products), unnormalized to match the
    classical ladder integrals.  which is the int 1 or 2: a bool or float
    equal to one is refused.
    """
    if isinstance(which, bool) or not isinstance(which, int) or which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return ladder_products(params, quantum=True)[which - 1]
