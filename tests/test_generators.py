"""Classical observables: frozen expansions and first-integral checks."""

from fractions import Fraction

import pytest

from quantlab import generators
from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral, ladder_integrals
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.vlab.parser import MAX_SUM

import reference_kernels as ref
from reference_kernels import l_integral

X = PhasePoly.variable(PhaseVar.X)
Y = PhasePoly.variable(PhaseVar.Y)
PX = PhasePoly.variable(PhaseVar.PX)
PY = PhasePoly.variable(PhaseVar.PY)
W2 = Coefficient.omega(2)
W4 = Coefficient.omega(4)


@pytest.mark.parametrize("bad", [True, 1.0, 0, -1])
@pytest.mark.parametrize("name", ["m", "n"])
def test_params_validation(name, bad):
    # a bool is an int subclass and 1.0 equals 1, yet neither is an int
    # parameter
    args = {"m": 2, "n": 3, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
        OscillatorParams(**args)
    # a copy is checked too
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
        OscillatorParams(2, 3)._replace(**{name: bad})


def test_params_are_an_immutable_record():
    params = OscillatorParams(3, 2)
    assert repr(params) == "OscillatorParams(m=3, n=2)"
    assert params == OscillatorParams(m=3, n=2) and (params.m, params.n) == (3, 2)
    assert hash(params) == hash(OscillatorParams(3, 2))
    with pytest.raises(AttributeError):
        params.m = 4


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
    assert ref.naive_g_poly(1) == X
    assert ref.naive_g_poly(2) == X * PX * 2
    assert ref.naive_g_poly(3) == X * PX ** 2 * 3 - X ** 3 * (W2 * 2)


def test_g_is_the_odd_half_of_the_x_ladder_power():
    # b1*^n - b1^n = 2 i sqrt2 omega G_n for b1 = px - i sqrt2 omega x, the
    # identity k_integral's derivation starts from
    alpha = Coefficient.i() * Coefficient.sqrt2() * Coefficient.omega()
    for n in range(1, MAX_SUM):
        difference = (PX + X * alpha) ** n - (PX - X * alpha) ** n
        assert difference == ref.naive_g_poly(n) * (alpha * 2), n


def test_p_poly_values():
    assert ref.paper_p_and_d(OscillatorParams(1, 1))[0] == PY
    expected_41 = PY ** 4 * 256 - Y ** 2 * PY ** 2 * (W2 * 192) + Y ** 4 * (W4 * 4)
    assert ref.paper_p_and_d(OscillatorParams(4, 1))[0] == expected_41
    assert ref.paper_p_and_d(OscillatorParams(2, 1))[0] == PY ** 2 * 4 - Y ** 2 * (W2 * 2)


def test_d_poly_values():
    assert ref.paper_p_and_d(OscillatorParams(1, 1))[1] == -Y
    expected_41 = -(Y * PY ** 3 * 256) + Y ** 3 * PY * (W2 * 32)
    assert ref.paper_p_and_d(OscillatorParams(4, 1))[1] == expected_41
    assert ref.paper_p_and_d(OscillatorParams(2, 1))[1] == -(Y * PY * 4)


def test_d_poly_closed_form_for_m_one():
    # the general sum collapses to -(1/n^2) u = -(1/n) y for m = 1
    for n in range(1, 6):
        assert ref.paper_p_and_d(OscillatorParams(1, n))[1] == Y * Fraction(-1, n)


def test_p_and_d_match_the_paper_formula_in_u_pu():
    # b2*^m = (n/m)^m (P - i n sqrt2 omega D) for b2* = py + i (n/m) sqrt2 omega y,
    # the other identity k_integral's derivation uses
    s = Coefficient.sqrt2() * Coefficient.omega()
    for params in supported_pairs():
        m, n = params.m, params.n
        p, d = ref.paper_p_and_d(params)
        power = (PY + Y * (Coefficient.i() * s * Fraction(n, m))) ** m
        assert power == (p - d * (Coefficient.i() * s * n)) * Fraction(n, m) ** m, params


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
    # k_integral reads K off the ladder product F2; the reference builds
    # the paper's P G_n + D {G_n, L}, the bracket taken through partial
    # derivatives
    pairs = supported_pairs()
    assert len(pairs) == 190
    for params in pairs:
        assert k_integral(params) == ref.paper_k(params), params


@pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (2, 4), (6, 3)])
def test_k_is_brought_to_lowest_terms_once(monkeypatch, m, n):
    # F2's numerators come back unreduced, and K reduces its relabel once
    calls = []
    reduced = generators._reduced

    def counted(*args):
        calls.append(args[0])
        return reduced(*args)

    monkeypatch.setattr(generators, "_reduced", counted)
    params = OscillatorParams(m, n)
    k = k_integral(params)
    assert calls == [PhasePoly]
    assert k == ref.paper_k(params)


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
    # (1, 1) K is the angular momentum.  k_integral is built on this
    # identity, so here it checks the relabel of F2's keys; the independent
    # check of K is test_k_integral_is_p_g_plus_d_times_the_flow_of_g.
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
    # k_integral divides sqrt2 omega out of F2 by lowering r and w on each
    # key, so every F2 key must carry sqrt2^1 and an odd power of omega
    for params in supported_pairs():
        f1, f2 = ladder_integrals(params)
        assert not any(key.e for key in f1.numerators), params
        assert not any(key.e for key in f2.numerators), params
        assert all(key.r == 1 and key.w & 1 for key in f2.numerators), params
