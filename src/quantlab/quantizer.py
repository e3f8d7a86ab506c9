"""Polynomial quantization maps.

Two monomial ordering rules are implemented for each canonical pair:

    Born-Jordan:  x^r p^s -> 1/(s+1)   sum_k          P^(s-k) X^r P^k
    Weyl:         x^r p^s -> 1/2^s     sum_k C(s, k)  P^(s-k) X^r P^k

Mixed monomials factor across the two commuting pairs, so the image of
a monomial is built as one map over the two pair images.  Output is
always normal ordered, which makes operator equality a structural check.

The module also provides the direct ladder-operator quantization: the
classical ladder products with momenta replaced by momentum operators.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from quantlab.coeffring import _add_product, _canonical
from quantlab.generators import OscillatorParams, ladder_products
from quantlab.phasepoly import PhaseMono, PhasePoly
from quantlab.weylalgebra import (
    OpMono,
    Operator,
    neg_i_hbar_power,
    px_hat,
    py_hat,
    x_hat,
    y_hat,
)


class Scheme(Enum):
    BORN_JORDAN = "bj"
    WEYL = "weyl"


# Weight w_k of P^(s-k) X^r P^k in the image of x^r p^s.
_ORDERING_WEIGHTS = {
    Scheme.BORN_JORDAN: lambda s: [Fraction(1, s + 1)] * (s + 1),
    Scheme.WEYL: lambda s: [Fraction(comb(s, k), 2 ** s) for k in range(s + 1)],
}


@lru_cache(maxsize=None)
def _pair_rule(scheme: Scheme, r: int, s: int) -> tuple[Fraction, ...]:
    """Normal-ordered image of one canonical pair.

    x^r p^s maps to sum_j rule[j] * (-i hbar)^j * X^(r-j) P^(s-j), where
    rule[j] collapses the ordering sum through the swap identity.
    """
    weights = _ORDERING_WEIGHTS[scheme](s)
    return tuple(
        factorial(j) * comb(r, j) * sum(w * comb(s - k, j) for k, w in enumerate(weights))
        for j in range(min(r, s) + 1)
    )


@lru_cache(maxsize=None)
def quantize_monomial(scheme: Scheme, mono: PhaseMono) -> Operator:
    """Quantize a single classical monomial under the given scheme.

    The pairs commute, so x^a y^b px^c py^d maps to the sum over j, k of
    (-i hbar)^(j+k) rule_x[j] rule_y[k] X^(a-j) Y^(b-k) Px^(c-j) Py^(d-k).
    """
    rule_x = _pair_rule(scheme, mono.a, mono.c)
    rule_y = _pair_rule(scheme, mono.b, mono.d)
    return Operator(
        {
            OpMono(mono.a - j, mono.b - k, mono.c - j, mono.d - k):
                neg_i_hbar_power(j + k) * (wx * wy)
            for j, wx in enumerate(rule_x)
            for k, wy in enumerate(rule_y)
        }
    )


def quantize(scheme: Scheme, poly: PhasePoly) -> Operator:
    """Coefficient-linear extension of the monomial rule: each term's
    parameter part multiplies the image of its phase part."""
    images: dict[PhaseMono, Operator] = {}
    acc: dict = {}
    for mono, value in poly.terms.items():
        phase = mono.phase()
        image = images.get(phase)
        if image is None:
            image = images[phase] = quantize_monomial(scheme, phase)
        _add_product(acc, mono.params(), value, image.terms)
    return _canonical(Operator, acc)


def quantize_ladder(params: OscillatorParams, which: int) -> Operator:
    """Quantize ladder integral F1 (which = 1) or F2 (which = 2) directly.

    The classical ladder products are rebuilt with position and momentum
    operators in place of the phase-space variables, unnormalized to
    match the classical ladder integrals.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    (op,) = ladder_products(x_hat(), y_hat(), px_hat(), py_hat(), params, (which,))
    return op
