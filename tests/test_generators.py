"""Classical observables: frozen expansions and first-integral checks."""

from fractions import Fraction
from math import comb

import pytest

from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import (
    OscillatorParams,
    d_poly,
    g_poly,
    hamiltonian,
    k_integral,
    l_integral,
    ladder_integrals,
    p_poly,
)
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.vlab.parser import MAX_SUM

import reference_kernels as ref

X = PhasePoly.variable(PhaseVar.X)
Y = PhasePoly.variable(PhaseVar.Y)
PX = PhasePoly.variable(PhaseVar.PX)
PY = PhasePoly.variable(PhaseVar.PY)
W2 = Coefficient.omega(2)
W4 = Coefficient.omega(4)


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(0, 1)
    with pytest.raises(ValueError):
        OscillatorParams(1, 0)
    with pytest.raises(ValueError):
        OscillatorParams(-2, 3)


def test_hamiltonian_isotropic():
    h = hamiltonian(OscillatorParams(1, 1))
    expected = (PX ** 2 + PY ** 2) * Fraction(1, 2) + (X ** 2 + Y ** 2) * W2
    assert h == expected


def test_hamiltonian_ratio_four_one():
    h = hamiltonian(OscillatorParams(4, 1))
    expected = (
        (PX ** 2 + PY ** 2) * Fraction(1, 2)
        + X ** 2 * W2
        + Y ** 2 * (W2 * Fraction(1, 16))
    )
    assert h == expected


def test_hamiltonian_ratio_one_four():
    h = hamiltonian(OscillatorParams(1, 4))
    expected = (PX ** 2 + PY ** 2) * Fraction(1, 2) + X ** 2 * W2 + Y ** 2 * (W2 * 16)
    assert h == expected


def supported_pairs():
    """Every OscillatorParams with m + n <= MAX_SUM (190 pairs)."""
    return [
        OscillatorParams(m, total - m) for total in range(2, MAX_SUM + 1) for m in range(1, total)
    ]


def test_hamiltonian_matches_the_product_route():
    for params in supported_pairs():
        assert hamiltonian(params) == ref.hamiltonian(params), params


def test_l_integral():
    l = l_integral()
    assert l.terms[Monomial(c=2)] == Fraction(1, 2)
    assert l == PX ** 2 * Fraction(1, 2) + X ** 2 * W2
    assert poisson(hamiltonian(OscillatorParams(4, 1)), l).is_zero()
    assert poisson(l, l).is_zero()


def test_g_poly_small():
    assert g_poly(1) == X
    assert g_poly(2) == X * PX * 2
    assert g_poly(3) == X * PX ** 2 * 3 - X ** 3 * (W2 * 2)
    with pytest.raises(ValueError):
        g_poly(0)


def naive_g_poly(n):
    # term-by-term accumulation, no shared construction code
    acc = PhasePoly.zero()
    for k in range((n - 1) // 2 + 1):
        term = PhasePoly.constant(comb(n, 2 * k + 1))
        for _ in range(k):
            term = term * PhasePoly.constant(Coefficient.omega(2) * (-2))
        for _ in range(2 * k + 1):
            term = term * X
        for _ in range(n - 2 * k - 1):
            term = term * PX
        acc = acc + term
    return acc


def test_g_poly_matches_naive_accumulation():
    for n in range(1, 11):
        assert g_poly(n) == naive_g_poly(n)


def test_p_poly_values():
    assert p_poly(OscillatorParams(1, 1)) == PY
    expected_41 = PY ** 4 * 256 - Y ** 2 * PY ** 2 * (W2 * 192) + Y ** 4 * (W4 * 4)
    assert p_poly(OscillatorParams(4, 1)) == expected_41
    assert p_poly(OscillatorParams(2, 1)) == PY ** 2 * 4 - Y ** 2 * (W2 * 2)


def test_d_poly_values():
    assert d_poly(OscillatorParams(1, 1)) == -Y
    expected_41 = -(Y * PY ** 3 * 256) + Y ** 3 * PY * (W2 * 32)
    assert d_poly(OscillatorParams(4, 1)) == expected_41
    assert d_poly(OscillatorParams(2, 1)) == -(Y * PY * 4)


def test_d_poly_closed_form_for_m_one():
    # the general sum collapses to -(1/n^2) u = -(1/n) y for m = 1
    for n in range(1, 6):
        assert d_poly(OscillatorParams(1, n)) == Y * Fraction(-1, n)


def paper_p_and_d(m, n):
    """The paper's P and D as {Monomial: Fraction}: each term of the sums
    in (u, pu) with u -> (n/m) y and pu -> (m/n) py substituted."""
    p_terms, d_terms = {}, {}
    for j in range(m + 1):
        # C(m, j) (-(m/n) u)^j pu^(m-j) (-2 omega^2)^(j//2)
        value = (
            comb(m, j)
            * (-Fraction(m, n)) ** j
            * Fraction(n, m) ** j
            * Fraction(m, n) ** (m - j)
            * (-2) ** (j // 2)
        )
        key = Monomial(b=j, d=m - j, w=2 * (j // 2))
        if j % 2 == 0:
            p_terms[key] = value
        else:
            d_terms[key] = value / n
    return p_terms, d_terms


def test_p_and_d_match_the_paper_formula_in_u_pu():
    for total in range(2, 21):
        for m in range(1, total):
            params = OscillatorParams(m, total - m)
            p_terms, d_terms = paper_p_and_d(m, total - m)
            assert p_poly(params).terms == p_terms
            assert d_poly(params).terms == d_terms


def test_k_integral_one_one():
    assert k_integral(OscillatorParams(1, 1)) == X * PY - Y * PX


def test_k_integral_four_one():
    expected = (
        X * PY ** 4
        - Y * PX * PY ** 3
        - X * Y ** 2 * PY ** 2 * (W2 * Fraction(3, 4))
        + Y ** 3 * PX * PY * (W2 * Fraction(1, 8))
        + X * Y ** 4 * (W4 * Fraction(1, 64))
    ) * 256
    assert k_integral(OscillatorParams(4, 1)) == expected


def test_k_integral_is_p_g_plus_d_times_the_flow_of_g():
    # k_integral writes X_L(G_n) = {G_n, L} in closed form, n E_n; here the
    # bracket is taken through partial derivatives
    pairs = supported_pairs()
    assert len(pairs) == 190
    l = l_integral()
    for params in pairs:
        g = g_poly(params.n)
        expected = p_poly(params) * g + d_poly(params) * ref.poisson(g, l)
        assert k_integral(params) == expected, params


def test_k_degree_is_m_plus_n():
    for m in range(1, 8):
        for n in range(1, 9 - m):
            k = k_integral(OscillatorParams(m, n))
            assert max(sum(key[:4]) for key in k.numerators) == m + n


def test_first_integrals_bracket_to_zero():
    for m in range(1, 8):
        for n in range(1, 9 - m):
            params = OscillatorParams(m, n)
            h = hamiltonian(params)
            assert poisson(h, k_integral(params)).is_zero()
            assert poisson(h, l_integral()).is_zero()


def test_ladder_isotropic_values():
    f1, f2 = ladder_integrals(OscillatorParams(1, 1))
    assert f1 == PX * PY + X * Y * (W2 * 2)
    # expanding -(i/2)(b1 b2* - b1* b2) with b = p - i*sqrt2*omega*q gives
    # sqrt2*omega*(y*px - x*py), proportional to x*py - y*px
    sw = Coefficient.sqrt2() * Coefficient.omega()
    assert f2 == (Y * PX - X * PY) * sw


def test_ladder_proportional_to_angular_momentum():
    # F2 = -sqrt2 omega (n/m)^m K on every pair of the supported range; for
    # (1, 1) K is the angular momentum.  The closed-form ladder build and
    # K = P G + D X_L(G) share no code beyond the ring.
    sw = Coefficient.sqrt2() * Coefficient.omega()
    for total in range(2, MAX_SUM + 1):
        for m in range(1, total):
            params = OscillatorParams(m, total - m)
            factor = -sw * Fraction(params.n, m) ** m
            assert ladder_integrals(params)[1] == k_integral(params) * factor, (m, params.n)


def test_ladder_brackets_vanish():
    for m in range(1, 8):
        for n in range(1, 9 - m):
            params = OscillatorParams(m, n)
            h = hamiltonian(params)
            f1, f2 = ladder_integrals(params)
            assert poisson(h, f1).is_zero()
            assert poisson(h, f2).is_zero()


def test_ladder_integrals_are_real():
    for m, n in ((1, 1), (2, 3), (4, 1)):
        f1, f2 = ladder_integrals(OscillatorParams(m, n))
        assert not any(key.e for key in f1.numerators)
        assert not any(key.e for key in f2.numerators)
