"""Phase-space polynomial algebra: products, derivatives and the Poisson
bracket."""

from fractions import Fraction
from random import Random

from quantlab.coeffring import Coefficient, Monomial
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson

from randgen import rand_phase_poly

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
    assert f.partial(PhaseVar.X) == X * PY * 2
    assert (X ** 2 * Coefficient.omega(2)).partial(PhaseVar.PX).is_zero()
    g = Y ** 3 * PX * PY
    assert g.partial(PhaseVar.PY) == Y ** 3 * PX


def test_poisson_canonical():
    assert poisson(X, PX) == PhasePoly.one()
    assert poisson(X, l_poly()) == PX


def test_poisson_properties_random():
    rng = Random(4711)
    for _ in range(1_000):
        f = rand_phase_poly(rng, max_terms=3, max_exp=2)
        g = rand_phase_poly(rng, max_terms=3, max_exp=2)
        h = rand_phase_poly(rng, max_terms=3, max_exp=2)
        assert poisson(f, f).is_zero()
        assert poisson(f, g) == -poisson(g, f)
        assert poisson(f + g, h) == poisson(f, h) + poisson(g, h)
        assert poisson(f, g * h) == poisson(f, g) * h + g * poisson(f, h)
    rng = Random(777)
    for _ in range(300):
        f = rand_phase_poly(rng, max_terms=2, max_exp=2)
        g = rand_phase_poly(rng, max_terms=2, max_exp=2)
        h = rand_phase_poly(rng, max_terms=2, max_exp=2)
        jacobi = (
            poisson(f, poisson(g, h))
            + poisson(g, poisson(h, f))
            + poisson(h, poisson(f, g))
        )
        assert jacobi.is_zero()


def test_flow_examples():
    # L's Hamiltonian vector field applied to an observable is {obs, L}
    assert poisson(X, l_poly()) == PX
    assert poisson(PhasePoly.zero(), l_poly()).is_zero()
    g2 = X * PX * 2
    expected = PX ** 2 * 2 - X ** 2 * (Coefficient.omega(2) * 4)
    assert poisson(g2, l_poly()) == expected


def test_canonical_form_unique():
    rng = Random(99)
    for _ in range(1_000):
        f = rand_phase_poly(rng)
        g = rand_phase_poly(rng)
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
