"""Coefficient ring arithmetic: examples and ring axioms."""

from fractions import Fraction
from random import Random

import pytest

from quantlab.coeffring import Coefficient, Monomial, mono_mul, neg_i_hbar
from quantlab.phasepoly import PhasePoly, PhaseVar
from quantlab.weylalgebra import Operator, px_hat, x_hat

from randgen import rand_coefficient


def test_additive_identity():
    hw = Coefficient.hbar() * Coefficient.omega()
    assert Coefficient.zero() + hw == hw


def test_additive_inverse():
    h2 = Coefficient.hbar(2)
    assert (h2 + (-h2)).is_zero()


def test_conjugate_sum():
    one_plus_i = Fraction(1) + Fraction(1) * Coefficient.i()
    one_minus_i = Fraction(1) + Fraction(-1) * Coefficient.i()
    assert one_plus_i + one_minus_i == 2


def test_sqrt2_squared_reduces():
    assert Coefficient.sqrt2() * Coefficient.sqrt2() == 2


def test_gaussian_unit_norm():
    one_plus_i = Fraction(1) + Fraction(1) * Coefficient.i()
    assert one_plus_i * one_plus_i.conjugate() == 2


def test_sqrt2_omega_squared():
    # (sqrt2*omega)^2 = 2*omega^2, the oscillator stiffness
    sw = Coefficient.sqrt2() * Coefficient.omega()
    assert sw * sw == Coefficient.omega(2) * 2


def test_conjugation_examples():
    assert Coefficient.i().conjugate() == -Coefficient.i()
    two_hbar = Coefficient.hbar() * 2
    assert two_hbar.conjugate() == two_hbar
    value = (1 + Coefficient.i()) * Coefficient.sqrt2() * Coefficient.omega()
    expected = (1 - Coefficient.i()) * Coefficient.sqrt2() * Coefficient.omega()
    assert value.conjugate() == expected


def test_mono_validation():
    # sqrt2 and i are reduced to the powers 0 and 1; no exponent is negative
    for fields in ({"r": 2}, {"e": 2}, {"r": -1}, {"e": -1}, {"a": -1}, {"d": -2}, {"h": -1}):
        with pytest.raises(ValueError):
            Monomial(**fields)


def test_mono_mul_states_both_reductions():
    assert mono_mul(Monomial(a=1, r=1, e=1), Monomial(c=2, h=1)) == (
        Monomial(a=1, c=2, h=1, r=1, e=1),
        1,
    )
    assert mono_mul(Monomial(r=1), Monomial(r=1)) == (Monomial(), 2)
    assert mono_mul(Monomial(e=1), Monomial(e=1)) == (Monomial(), -1)
    assert mono_mul(Monomial(w=1, r=1, e=1), Monomial(b=1, r=1, e=1)) == (
        Monomial(b=1, w=1),
        -2,
    )


def test_neg_i_hbar_matches_ring_power():
    # the hand-written sign table of (-i hbar)^k against the ring's own
    # power, on keys without and with i (where i * i = -1 reduces)
    for k in range(9):
        power, sign = neg_i_hbar(k)
        ring_power = (-(Coefficient.i() * Coefficient.hbar())) ** k
        for cls, key in (
            (Coefficient, Monomial(w=1)),
            (Coefficient, Monomial(h=2, r=1, e=1)),
            (Operator, Monomial(a=1, c=2, h=1)),
            (Operator, Monomial(b=2, d=1, w=1, e=1)),
        ):
            product, factor = mono_mul(key, power)
            assert cls.monomial(product, sign * factor) == cls.monomial(key) * ring_power


def test_reductions_at_every_level():
    i_sqrt2 = Coefficient.i() * Coefficient.sqrt2()
    assert i_sqrt2 * i_sqrt2 == -2
    x = PhasePoly.variable(PhaseVar.X)
    px = PhasePoly.variable(PhaseVar.PX)
    assert (x * i_sqrt2) * (px * i_sqrt2) == x * px * -2
    # operators: the same -2, and P X = X P - i hbar brings an hbar term
    assert (x_hat() * i_sqrt2) * (px_hat() * i_sqrt2) == x_hat() * px_hat() * -2
    assert (px_hat() * i_sqrt2) * (x_hat() * i_sqrt2) == (
        x_hat() * px_hat() * -2 + Operator.constant(Coefficient.i() * Coefficient.hbar() * 2)
    )
    # constructors flatten {Monomial: Coefficient} through the same product
    flat = PhasePoly({Monomial(a=1, r=1, e=1): i_sqrt2})
    assert flat == x * -2
    assert all(type(v) is Fraction for v in flat.terms.values())


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
    c = Coefficient({Monomial(): Fraction(0)})
    assert c.is_zero()
    assert not c.terms


def test_rendering_canonical_order():
    value = Coefficient.omega(2) + Coefficient.hbar(2) * 3 + Coefficient.sqrt2()
    # sorted by (h, w, r) descending
    assert value.text() == "3 * hbar^2 + omega^2 + sqrt2"
    # -1 never folds onto an exponentiated factor ('-omega^2' would read
    # back as (-omega)^2 under the grammar)
    assert (-value).text() == "-3 * hbar^2 - 1 * omega^2 - sqrt2"


def test_scalar_rendering():
    # a Gaussian rational standing alone is written bare
    i = Coefficient.i()
    assert Coefficient.of(Fraction(3, 4)).text() == "3/4"
    assert (Fraction(0) + Fraction(-1) * i).text() == "-i"
    assert (Fraction(1) + Fraction(-2) * i).text() == "1 - 2*i"


def test_coercion_lifts_constants_at_every_level():
    x = PhasePoly.variable(PhaseVar.X)
    assert x + 1 == x + PhasePoly.one()
    assert 1 - x == -(x - 1)
    assert Operator.zero() == 0
    assert Coefficient.hbar() ** 2 == Coefficient.hbar(2)
    assert Coefficient.of(1) + 1 == 2
    assert (Coefficient.of(1) - 1).is_zero()
    assert 1 + Coefficient.of(1) == Coefficient.of(2)
    assert Coefficient.of(1) == 1
    assert Coefficient.of(Fraction(1, 2)) + Fraction(1, 2) == Coefficient.one()


def test_coercion_rejects_non_ring_operands():
    with pytest.raises(TypeError):
        Coefficient.one() * True
    with pytest.raises(TypeError):
        Coefficient.of(Monomial())
    with pytest.raises(TypeError):
        PhasePoly.variable(PhaseVar.X) + x_hat()
    with pytest.raises(TypeError):
        Coefficient.one() * 0.5
    with pytest.raises(TypeError):
        Coefficient.of(True)
    with pytest.raises(TypeError):
        Coefficient.of(0.5)


def test_scalar_is_canonical_sparse_map():
    # a Gaussian rational is a Coefficient keyed by the power of i
    i = Coefficient.i()
    assert Coefficient.of(3).terms == {Monomial(): Fraction(3)}
    assert (-2 * i).terms == {Monomial(e=1): Fraction(-2)}
    assert (0 + 0 * i).terms == {}
    assert (i * i).terms == {Monomial(): Fraction(-1)}
    assert (1 + 2 * i) * (1 - 2 * i) == 5
    assert Coefficient.monomial(Monomial(e=1), 2) == 2 * i
    assert Coefficient.constant(3) == 3
    assert Coefficient.zero().is_zero()
    assert Coefficient.one() == 1
    assert all(type(v) is Fraction for v in ((1 + 2 * i) * Fraction(1, 3)).terms.values())
