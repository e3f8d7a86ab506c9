"""Phase-space polynomial algebra: products, derivatives and the Poisson
bracket."""

from fractions import Fraction
from random import Random

import pytest

from quantlab.coeffring import Coefficient, Monomial
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson

import reference_kernels as ref
from reference_kernels import partial, x_hat
from randgen import rand_coefficient, rand_phase_poly, zero_case

X = PhasePoly.variable(PhaseVar.X)
Y = PhasePoly.variable(PhaseVar.Y)
PX = PhasePoly.variable(PhaseVar.PX)
PY = PhasePoly.variable(PhaseVar.PY)


def l_poly():
    return PX ** 2 * Fraction(1, 2) + X ** 2 * Coefficient.omega(2)


def test_mul_examples():
    assert X * PX == PhasePoly.monomial(Monomial(a=1, c=1))
    k11 = X * PY - Y * PX
    assert k11 * PhasePoly.one() == k11


def test_mul_ladder_product():
    # (px - i*sqrt2*omega*x)(px + i*sqrt2*omega*x) = px^2 + 2 omega^2 x^2
    iw = Coefficient.i() * Coefficient.sqrt2() * Coefficient.omega()
    left = PX - X * iw
    right = PX + X * iw
    assert left * right == PX ** 2 + X ** 2 * (Coefficient.omega(2) * 2)


def test_partial_examples():
    f = X ** 2 * PY
    assert partial(f, PhaseVar.X) == X * PY * 2
    assert partial(X ** 2 * Coefficient.omega(2), PhaseVar.PX).is_zero()
    g = Y ** 3 * PX * PY
    assert partial(g, PhaseVar.PY) == Y ** 3 * PX


def test_poisson_canonical():
    assert poisson(X, PX) == PhasePoly.one()
    assert poisson(X, l_poly()) == PX


def test_poisson_properties_random():
    rng = Random(4711)
    for index in range(1_000):
        f = rand_phase_poly(rng, max_terms=3, max_exp=2)
        g = rand_phase_poly(rng, max_terms=3, max_exp=2)
        h = rand_phase_poly(rng, max_terms=3, max_exp=2)
        f, g, h = zero_case(index, f, g, h)
        assert poisson(f, f).is_zero()
        assert poisson(f, g) == -poisson(g, f)
        assert poisson(f + g, h) == poisson(f, h) + poisson(g, h)
        assert poisson(f, g * h) == poisson(f, g) * h + g * poisson(f, h)
    rng = Random(777)
    for index in range(300):
        f = rand_phase_poly(rng, max_terms=2, max_exp=2)
        g = rand_phase_poly(rng, max_terms=2, max_exp=2)
        h = rand_phase_poly(rng, max_terms=2, max_exp=2)
        f, g, h = zero_case(index, f, g, h)
        jacobi = (
            poisson(f, poisson(g, h))
            + poisson(g, poisson(h, f))
            + poisson(h, poisson(f, g))
        )
        assert jacobi.is_zero()


def test_poisson_matches_partial_derivative_route():
    # the one-pass bracket against the route through partial derivatives
    # (reference_kernels.poisson), on operands whose keys carry hbar, omega, sqrt2 and i;
    # about one operand in ten is zero and one in ten a nonzero constant
    rng = Random(20261019)
    shapes = {"zero": 0, "constant": 0, "polynomial": 0}
    both_reductions = 0
    for _ in range(2_000):
        operands = []
        for _ in range(2):
            draw = rng.randrange(10)
            if draw == 0:
                poly = PhasePoly.zero()
            elif draw == 1:
                poly = PhasePoly.constant(rand_coefficient(rng) + 1)
            else:
                poly = rand_phase_poly(rng, max_terms=4, max_exp=3)
            if poly.is_zero():
                shapes["zero"] += 1
            elif all(not any(key[:4]) for key in poly.numerators):
                shapes["constant"] += 1
            else:
                shapes["polynomial"] += 1
            operands.append(poly)
        f, g = operands
        assert poisson(f, g) == ref.poisson(f, g)
        both_reductions += any(
            k1.r and k2.r and k1.e and k2.e for k1 in f.numerators for k2 in g.numerators
        )
    assert min(shapes.values()) >= 300 and shapes["polynomial"] >= 2_000
    assert both_reductions >= 300


def test_poisson_refuses_an_operator():
    # an Operator is a term map over the same keys, but not a polynomial
    op = x_hat() * x_hat()
    with pytest.raises(TypeError):
        poisson(op, X)
    with pytest.raises(TypeError):
        poisson(X, op)
    with pytest.raises(TypeError):
        poisson(op, op)


def test_flow_examples():
    # L's Hamiltonian vector field applied to an observable is {obs, L}
    assert poisson(X, l_poly()) == PX
    assert poisson(PhasePoly.zero(), l_poly()).is_zero()
    g2 = X * PX * 2
    expected = PX ** 2 * 2 - X ** 2 * (Coefficient.omega(2) * 4)
    assert poisson(g2, l_poly()) == expected


def test_canonical_form_unique():
    rng = Random(99)
    for index in range(1_000):
        f, g = zero_case(index, rand_phase_poly(rng), rand_phase_poly(rng))
        if (f - g).is_zero():
            assert f.terms == g.terms
        else:
            assert f.terms != g.terms


def test_text_rendering():
    k11 = X * PY - Y * PX
    assert k11.text() == "x * py - y * px"
    assert PhasePoly.zero().text() == "0"
    assert l_poly().text() == "omega^2 * x^2 + 1/2 * px^2"


def test_latex_rendering():
    k11 = X * PY - Y * PX
    assert k11.latex() == "x p_y - y p_x"
    assert r"\omega^{2}" in l_poly().latex()
