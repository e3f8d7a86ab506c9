"""Seeded random generators for the property suites.

Everything takes an explicit random.Random so each test controls its own
seed and case count; runs are deterministic.
"""

from fractions import Fraction
from random import Random

from quantlab.coeffring import Coefficient, Monomial
from quantlab.phasepoly import PhasePoly
from quantlab.weylalgebra import Operator


def flatten(cls, terms: dict):
    """The cls term map of {Monomial: Coefficient or rational}, each key
    times its value through the ring product."""
    out = cls.zero()
    for key, value in terms.items():
        out = out + cls.monomial(key) * value
    return out


def rand_fraction(rng: Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_gaussian(rng: Random, real_only: bool = False) -> Coefficient:
    """A Gaussian rational re + im*i, each part zero or not."""
    shape = rng.randrange(3)
    re = rand_fraction(rng) if shape != 1 else Fraction(0)
    im = Fraction(0) if real_only or shape == 0 else rand_fraction(rng)
    return re + im * Coefficient.i()


def rand_coeff_mono(rng: Random, max_h: int = 2, max_w: int = 2) -> Monomial:
    return Monomial(
        h=rng.randint(0, max_h),
        w=rng.randint(0, max_w),
        r=rng.randint(0, 1),
    )


def rand_coefficient(
    rng: Random, max_terms: int = 3, real_only: bool = False, hbar_free: bool = False
) -> Coefficient:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = rand_coeff_mono(rng, max_h=0 if hbar_free else 2)
        terms[mono] = rand_gaussian(rng, real_only)
    return flatten(Coefficient, terms)


def rand_mono(rng: Random, max_exp: int = 2) -> Monomial:
    """A key with random exponents of x, y, px, py (or X, Y, Px, Py)."""
    return Monomial(*(rng.randint(0, max_exp) for _ in range(4)))


def rand_phase_poly(
    rng: Random,
    max_terms: int = 4,
    max_exp: int = 2,
    real_only: bool = False,
    hbar_free: bool = False,
) -> PhasePoly:
    """A nonzero polynomial of at most max_terms terms: a draw whose terms
    all vanish or cancel is drawn again, so a suite states its zero cases."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[rand_mono(rng, max_exp)] = rand_coefficient(
                rng, real_only=real_only, hbar_free=hbar_free
            )
        poly = flatten(PhasePoly, terms)
        if not poly.is_zero():
            return poly


def zero_case(index: int, *operands: PhasePoly) -> tuple:
    """The operands of case index of a suite, its first cases made zero
    cases: case i < len(operands) zeroes operand i, and the case after
    them, for two or more operands, zeroes every operand."""
    count = len(operands)
    if index < count:
        return operands[:index] + (PhasePoly.zero(),) + operands[index + 1:]
    if index == count > 1:
        return (PhasePoly.zero(),) * count
    return operands


def rand_position_poly(rng: Random, max_terms: int = 4, max_exp: int = 3) -> PhasePoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(a=rng.randint(0, max_exp), b=rng.randint(0, max_exp))
        terms[mono] = rand_coefficient(rng)
    return flatten(PhasePoly, terms)


def orders(op: Operator) -> tuple[int, int]:
    """The momentum order and position degree of an operator: the largest
    c + d and a + b over its terms, 0 for the zero operator."""
    keys = op.numerators
    return max((m.c + m.d for m in keys), default=0), max((m.a + m.b for m in keys), default=0)


def rand_operator(rng: Random, max_terms: int = 3, max_exp: int = 2) -> Operator:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rand_mono(rng, max_exp)] = rand_coefficient(rng)
    return flatten(Operator, terms)
