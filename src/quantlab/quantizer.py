"""Polynomial quantization maps.

Two monomial ordering rules are implemented for each canonical pair:

    Born-Jordan:  x^r p^s -> 1/(s+1)   sum_k          P^(s-k) X^r P^k
    Weyl:         x^r p^s -> 1/2^s     sum_k C(s, k)  P^(s-k) X^r P^k

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
from math import comb

from quantlab.coeffring import Monomial, _reduced, linear_extension, neg_i_hbar
from quantlab.generators import OscillatorParams, ladder_products
from quantlab.phasepoly import PhasePoly
from quantlab.weylalgebra import Operator, swap_weight


class Scheme(Enum):
    BORN_JORDAN = "bj"
    WEYL = "weyl"


# Weight w_k of P^(s-k) X^r P^k in the image of x^r p^s, as the
# numerators of the w_k and their one denominator.
_ORDERING_WEIGHTS = {
    Scheme.BORN_JORDAN: lambda s: ([1] * (s + 1), s + 1),
    Scheme.WEYL: lambda s: ([comb(s, k) for k in range(s + 1)], 2 ** s),
}


@lru_cache(maxsize=None)
def _pair_rule(scheme: Scheme, r: int, s: int) -> tuple[tuple[int, ...], int]:
    """Normal-ordered image of one canonical pair, as (rule, denominator).

    x^r p^s maps to sum_j rule[j] / denominator * (-i hbar)^j * X^(r-j)
    P^(s-j), where rule[j] collapses the ordering sum through the swap
    identity; every rule[j] is positive.
    """
    weights, den = _ORDERING_WEIGHTS[scheme](s)
    rule = tuple(
        sum(w * swap_weight(s - k, r, j) for k, w in enumerate(weights))
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
            key = Monomial(mono.a - j, mono.b - k, mono.c - j, mono.d - k, *power[4:])
            nums[key] = sign * wx * wy
    return _reduced(Operator, nums, den_x * den_y)


def quantize(scheme: Scheme, poly: PhasePoly) -> Operator:
    """Coefficient-linear extension of the monomial rule: each term's
    parameter part multiplies the image of its phase part."""

    def image(mono: Monomial) -> tuple[dict, int]:
        op = quantize_monomial(scheme, mono)
        return op.numerators, op.denominator

    return linear_extension(Operator, image, poly)


def quantize_ladder(params: OscillatorParams, which: int) -> Operator:
    """Quantize ladder integral F1 (which = 1) or F2 (which = 2) directly.

    The ladder products are built as normal-ordered operators in closed
    form (generators.ladder_products), unnormalized to match the
    classical ladder integrals.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    (op,) = ladder_products(params, (which,), quantum=True)
    return op
