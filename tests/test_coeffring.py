"""Coefficient ring arithmetic: examples and ring axioms."""

from fractions import Fraction
from random import Random

import pytest

from quantlab.coeffring import CoeffMono, Coefficient, Scalar
from quantlab.phasepoly import PhasePoly, PhaseVar
from quantlab.weylalgebra import Operator, x_hat

from randgen import rand_coefficient


def test_additive_identity():
    hw = Coefficient.hbar() * Coefficient.omega()
    assert Coefficient.zero() + hw == hw


def test_additive_inverse():
    h2 = Coefficient.hbar(2)
    assert (h2 + (-h2)).is_zero()


def test_conjugate_sum():
    one_plus_i = Coefficient.of(Scalar(Fraction(1), Fraction(1)))
    one_minus_i = Coefficient.of(Scalar(Fraction(1), Fraction(-1)))
    assert one_plus_i + one_minus_i == 2


def test_sqrt2_squared_reduces():
    assert Coefficient.sqrt2() * Coefficient.sqrt2() == 2


def test_gaussian_unit_norm():
    one_plus_i = Coefficient.of(Scalar(Fraction(1), Fraction(1)))
    assert one_plus_i * one_plus_i.conjugate() == 2


def test_sqrt2_omega_squared():
    # (sqrt2*omega)^2 = 2*omega^2, the oscillator stiffness
    sw = Coefficient.sqrt2() * Coefficient.omega()
    assert sw * sw == Coefficient.omega(2) * 2


def test_conjugation_examples():
    assert Coefficient.i().conjugate() == -Coefficient.i()
    two_hbar = Coefficient.hbar() * 2
    assert two_hbar.conjugate() == two_hbar
    value = Coefficient.of(Scalar(Fraction(1), Fraction(1))) * Coefficient.sqrt2() * Coefficient.omega()
    expected = Coefficient.of(Scalar(Fraction(1), Fraction(-1))) * Coefficient.sqrt2() * Coefficient.omega()
    assert value.conjugate() == expected


def test_mono_validation():
    try:
        CoeffMono(r_exp=2)
    except ValueError:
        pass
    else:
        raise AssertionError("unreduced sqrt2 exponent accepted")


def test_ring_axioms_random():
    rng = Random(20260810)
    for _ in range(10_000):
        a = rand_coefficient(rng)
        b = rand_coefficient(rng)
        c = rand_coefficient(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_conjugation_properties_random():
    rng = Random(96)
    for _ in range(2_000):
        a = rand_coefficient(rng)
        b = rand_coefficient(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_canonical_form_unique():
    rng = Random(17)
    for _ in range(2_000):
        a = rand_coefficient(rng)
        b = rand_coefficient(rng)
        if (a - b).is_zero():
            assert a.terms == b.terms
        else:
            assert a.terms != b.terms
    # equal values reached along different routes share one representation
    left = (Coefficient.sqrt2() + Coefficient.one()) * (Coefficient.sqrt2() - Coefficient.one())
    assert left == Coefficient.one()
    assert left.terms == Coefficient.one().terms


def test_zero_terms_dropped():
    c = Coefficient({CoeffMono(): Scalar(Fraction(0))})
    assert c.is_zero()
    assert not c.terms


def test_rendering_canonical_order():
    value = Coefficient.omega(2) + Coefficient.hbar(2) * 3 + Coefficient.sqrt2()
    # sorted by (h_exp, w_exp, r_exp) descending
    assert value.text() == "3 * hbar^2 + omega^2 + sqrt2"
    # -1 never folds onto an exponentiated factor ('-omega^2' would read
    # back as (-omega)^2 under the grammar)
    assert (-value).text() == "-3 * hbar^2 - 1 * omega^2 - sqrt2"


def test_scalar_rendering():
    assert Scalar(Fraction(3, 4)).text() == "3/4"
    assert Scalar(Fraction(0), Fraction(-1)).text() == "-i"
    assert Scalar(Fraction(1), Fraction(-2)).text() == "1 - 2*i"


def test_coercion_lifts_constants_at_every_level():
    x = PhasePoly.variable(PhaseVar.X)
    assert x + 1 == x + PhasePoly.one()
    assert 1 - x == -(x - 1)
    assert Operator.zero() == 0
    assert Coefficient.hbar() ** 2 == Coefficient.hbar(2)
    assert Scalar(1) + 1 == 2
    assert (Scalar(1) - 1).is_zero()
    assert 1 + Scalar(1) == Scalar(2)
    assert Scalar(1) == 1
    assert Scalar(1) + Coefficient.one() == Coefficient.of(2)


def test_coercion_rejects_non_ring_operands():
    with pytest.raises(TypeError):
        Coefficient.one() * True
    with pytest.raises(TypeError):
        Coefficient.of(CoeffMono())
    with pytest.raises(TypeError):
        PhasePoly.variable(PhaseVar.X) + x_hat()
    with pytest.raises(TypeError):
        Scalar(1) * 0.5
    with pytest.raises(TypeError):
        Scalar(True)


def test_scalar_is_canonical_sparse_map():
    assert Scalar(3).terms == {0: Fraction(3)}
    assert Scalar(0, -2).terms == {1: Fraction(-2)}
    assert Scalar(0, 0).terms == {}
    assert (Scalar(0, 1) * Scalar(0, 1)).terms == {0: Fraction(-1)}
    assert Scalar(1, 2) * Scalar(1, -2) == 5
    assert Scalar.monomial(1, 2) == Scalar(0, 2)
    assert Scalar.constant(3) == 3
    assert Scalar.zero().is_zero()
    assert Scalar.one() == 1
