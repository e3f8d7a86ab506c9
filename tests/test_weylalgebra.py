"""Operator algebra: normal ordering, commutators, symbol extraction and
the differential action, cross-checked against a naive swap rewriter."""

from fractions import Fraction
from random import Random

import pytest

from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral, ladder_integrals
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.quantizer import Scheme, quantize
from quantlab.weylalgebra import (
    Operator,
    apply_to_polynomial,
    classical_symbol,
    commutator,
    differential_text,
    min_hbar_exponent,
    min_omega_exponent,
    op_mul,
    probe_image,
)

from reference_kernels import adjoint, partial, px_hat, py_hat, x_hat, y_hat
from randgen import flatten, orders, rand_operator, rand_phase_poly, rand_position_poly, zero_case

I_HBAR = Coefficient.i() * Coefficient.hbar()
MINUS_I_HBAR = -I_HBAR

XPOS = PhasePoly.variable(PhaseVar.X)
YPOS = PhasePoly.variable(PhaseVar.Y)


# --- naive single-swap normal ordering (independent route) ---------------

_swap_cache: dict[tuple, dict] = {}


def normal_order_word(word: tuple) -> dict:
    """Normal order a one-index word of 'x'/'p' letters by repeated single
    swaps p x -> x p + (-i hbar); returns {(r, s): Coefficient}."""
    if word in _swap_cache:
        return _swap_cache[word]
    for idx in range(len(word) - 1):
        if word[idx] == "p" and word[idx + 1] == "x":
            swapped = normal_order_word(word[:idx] + ("x", "p") + word[idx + 2 :])
            dropped = normal_order_word(word[:idx] + word[idx + 2 :])
            out: dict = {}
            for key, coeff in swapped.items():
                out[key] = out.get(key, Coefficient.zero()) + coeff
            for key, coeff in dropped.items():
                out[key] = out.get(key, Coefficient.zero()) + coeff * MINUS_I_HBAR
            out = {k: v for k, v in out.items() if not v.is_zero()}
            break
    else:
        out = {(word.count("x"), word.count("p")): Coefficient.one()}
    _swap_cache[word] = out
    return out


def test_closed_form_matches_iterated_swaps():
    # P^s X^r for r, s <= 6, on both index pairs
    for r in range(7):
        for s in range(7):
            naive = normal_order_word(("p",) * s + ("x",) * r)
            via_x = op_mul(px_hat() ** s, x_hat() ** r)
            expected_x = flatten(Operator, {Monomial(a=k[0], c=k[1]): v for k, v in naive.items()})
            assert via_x == expected_x
            via_y = op_mul(py_hat() ** s, y_hat() ** r)
            expected_y = flatten(Operator, {Monomial(b=k[0], d=k[1]): v for k, v in naive.items()})
            assert via_y == expected_y


# --- examples -------------------------------------------------------------


def test_mul_examples():
    assert px_hat() * x_hat() == x_hat() * px_hat() - Operator.constant(I_HBAR)
    expected = (
        x_hat() ** 2 * px_hat() ** 2
        - x_hat() * px_hat() * (I_HBAR * 4)
        - Operator.constant(Coefficient.hbar(2) * 2)
    )
    assert px_hat() ** 2 * x_hat() ** 2 == expected
    assert x_hat() * py_hat() == Operator.monomial(Monomial(a=1, d=1))


def test_commutator_examples():
    assert commutator(x_hat(), px_hat()) == Operator.constant(I_HBAR)
    assert commutator(x_hat(), py_hat()).is_zero()


def test_classical_symbol():
    op = (
        x_hat() ** 2 * px_hat() ** 2
        - x_hat() * px_hat() * (I_HBAR * 4)
        - Operator.constant(Coefficient.hbar(2) * 2)
    )
    assert classical_symbol(op) == PhasePoly.monomial(Monomial(a=2, c=2))
    assert classical_symbol(Operator.constant(I_HBAR)).is_zero()


def test_apply_one_derivative():
    result = apply_to_polynomial(px_hat(), XPOS ** 2)
    assert result == XPOS * (MINUS_I_HBAR * 2)


def test_apply_weyl_ordered_square():
    # quantized y^2 py^2 (Weyl) acting on y^2 gives -13/2 hbar^2 y^2
    op = quantize(Scheme.WEYL, PhasePoly.monomial(Monomial(b=2, d=2)))
    result = apply_to_polynomial(op, YPOS ** 2)
    assert result == YPOS ** 2 * (Coefficient.hbar(2) * Fraction(-13, 2))


def test_apply_rejects_momentum():
    with pytest.raises(ValueError):
        apply_to_polynomial(x_hat(), PhasePoly.variable(PhaseVar.PX))
    # a polynomial whose other terms are positions still rejects px
    with pytest.raises(ValueError):
        apply_to_polynomial(px_hat() + x_hat(), XPOS ** 2 + PhasePoly.variable(PhaseVar.PX) * XPOS)


def _naive_action(op: Operator, poly: PhasePoly) -> PhasePoly:
    """Each word x^a y^b px^c py^d: differentiate c, d times, scale by
    (-i hbar)^(c+d), multiply by x^a y^b; no derivative form, no Leibniz table."""
    out = PhasePoly.zero()
    for mono, value in op.terms.items():
        coeff = Coefficient.monomial(mono._replace(a=0, b=0, c=0, d=0), value)
        term = poly
        for _ in range(mono.c):
            term = partial(term, PhaseVar.X)
        for _ in range(mono.d):
            term = partial(term, PhaseVar.Y)
        factor = MINUS_I_HBAR ** (mono.c + mono.d) * coeff
        out = out + term * XPOS ** mono.a * YPOS ** mono.b * factor
    return out


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_action_matches_naive_differentiation(seed):
    rng = Random(seed)
    for _ in range(40):
        op = rand_operator(rng, max_terms=4, max_exp=3)
        for _ in range(3):
            poly = rand_position_poly(rng)
            assert apply_to_polynomial(op, poly) == _naive_action(op, poly)


def test_op_mul_matches_action_with_i_and_sqrt2():
    # every coefficient carries i * sqrt2, so each product of two terms
    # reduces both i * i and sqrt2 * sqrt2, on top of its hbar corrections
    i_sqrt2 = Coefficient.i() * Coefficient.sqrt2()
    rng = Random(4142)
    for _ in range(100):
        a = rand_operator(rng, max_terms=3, max_exp=2) * i_sqrt2
        b = rand_operator(rng, max_terms=3, max_exp=2) * i_sqrt2
        poly = rand_position_poly(rng) * i_sqrt2
        assert apply_to_polynomial(op_mul(a, b), poly) == apply_to_polynomial(
            a, apply_to_polynomial(b, poly)
        )


def test_mul_properties_random():
    rng = Random(271828)
    for _ in range(1_000):
        a = rand_operator(rng)
        b = rand_operator(rng)
        c = rand_operator(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def sigma(op: Operator) -> Operator:
    """i -> -i, hbar -> -hbar on the coefficients, words fixed: the sign
    of each term whose i and hbar exponents have an odd sum flips."""
    nums = {key: -value if (key.e + key.h) & 1 else value for key, value in op.numerators.items()}
    return Operator(nums) * Fraction(1, op.denominator)


def test_sigma_is_an_automorphism_of_normal_order():
    # sigma fixes i*hbar = [X, P], hence every reordering correction
    rng = Random(1729)
    odd = 0
    for _ in range(200):
        a = rand_operator(rng)
        b = rand_operator(rng)
        odd += sigma(a) != a
        assert sigma(op_mul(a, b)) == op_mul(sigma(a), sigma(b))
    assert odd > 50


def test_sigma_swaps_the_ladder_products():
    # the closed-form ladder builder reads b1*^n b2^m as sigma(b1^n b2*^m)
    omega1 = Coefficient.monomial(Monomial(w=1, r=1))
    i_unit = Coefficient.i()
    for ratio in (Fraction(1), Fraction(3, 2)):
        omega2 = omega1 * ratio
        b1 = px_hat() - x_hat() * (i_unit * omega1)
        b1_conj = px_hat() + x_hat() * (i_unit * omega1)
        b2 = py_hat() - y_hat() * (i_unit * omega2)
        b2_conj = py_hat() + y_hat() * (i_unit * omega2)
        for n in range(5):
            for m in range(5):
                forward = op_mul(b1 ** n, b2_conj ** m)
                backward = op_mul(b1_conj ** n, b2 ** m)
                assert sigma(forward) == backward


def test_commutator_properties_random():
    rng = Random(161803)
    for _ in range(400):
        a = rand_operator(rng, max_terms=2)
        b = rand_operator(rng, max_terms=2)
        c = rand_operator(rng, max_terms=2)
        assert commutator(a, a).is_zero()
        assert commutator(a, b) == -commutator(b, a)
        jacobi = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert jacobi.is_zero()


def test_commutator_equals_difference_of_products():
    # The one-pass commutator accumulates only reordering corrections;
    # pin it to the definition, which antisymmetry and Jacobi alone do not
    # (a kernel returning zero satisfies both).
    rng = Random(2016)
    carries_i = carries_sqrt2 = nonzero = 0
    for _ in range(300):
        a = rand_operator(rng, max_terms=3, max_exp=3)
        b = rand_operator(rng, max_terms=3, max_exp=3)
        comm = commutator(a, b)
        assert comm == op_mul(a, b) - op_mul(b, a)
        keys = list(a.numerators) + list(b.numerators)
        carries_i += any(key.e for key in keys)
        carries_sqrt2 += any(key.r for key in keys)
        nonzero += not comm.is_zero()
    assert min(carries_i, carries_sqrt2, nonzero) >= 100
    for total in range(2, 7):
        for m in range(1, total):
            params = OscillatorParams(m, total - m)
            h_op = quantize(Scheme.WEYL, hamiltonian(params))
            for integral in (k_integral(params), *ladder_integrals(params)):
                for scheme in Scheme:
                    op = quantize(scheme, integral)
                    assert commutator(h_op, op) == op_mul(h_op, op) - op_mul(op, h_op)
                    assert commutator(op, h_op) == op_mul(op, h_op) - op_mul(h_op, op)


def test_adjoint_reverses_products():
    rng = Random(55)
    for _ in range(300):
        a = rand_operator(rng, max_terms=2)
        b = rand_operator(rng, max_terms=2)
        assert adjoint(a * b) == adjoint(b) * adjoint(a)
        assert adjoint(adjoint(a)) == a


def test_action_determines_operator():
    # an operator of momentum order s and position degree r is pinned by
    # its action on monomials x^i y^j with i + j <= s + r
    rng = Random(8128)
    for _ in range(150):
        a = rand_operator(rng, max_terms=3, max_exp=2)
        b = rand_operator(rng, max_terms=3, max_exp=2)
        if a == b:
            continue
        bound = sum(map(max, orders(a), orders(b)))
        seen_difference = False
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                probe = PhasePoly.monomial(Monomial(a=i, b=j))
                if apply_to_polynomial(a, probe) != apply_to_polynomial(b, probe):
                    seen_difference = True
                    break
            if seen_difference:
                break
        assert seen_difference


def test_symbolic_commutator_matches_action_oracle():
    rng = Random(333)
    for _ in range(150):
        a = rand_operator(rng, max_terms=3, max_exp=2)
        b = rand_operator(rng, max_terms=3, max_exp=2)
        comm = commutator(a, b)
        bound = sum(orders(a)) + sum(orders(b))
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                probe = PhasePoly.monomial(Monomial(a=i, b=j))
                direct = apply_to_polynomial(comm, probe)
                nested = apply_to_polynomial(a, apply_to_polynomial(b, probe)) - (
                    apply_to_polynomial(b, apply_to_polynomial(a, probe))
                )
                assert direct == nested


def test_correspondence_principle():
    # [W(f), W(g)] has only hbar-carrying terms, and its first-order part
    # divided by i*hbar has classical symbol {f, g}
    rng = Random(1729)
    for index in range(100):
        f = rand_phase_poly(rng, max_terms=3, max_exp=2, hbar_free=True)
        g = rand_phase_poly(rng, max_terms=3, max_exp=2, hbar_free=True)
        f, g = zero_case(index, f, g)
        comm = commutator(quantize(Scheme.WEYL, f), quantize(Scheme.WEYL, g))
        if comm.is_zero():
            assert poisson(f, g).is_zero()
            continue
        assert min_hbar_exponent(comm) >= 1
        # divide the hbar^1 slice by i*hbar: drop one hbar, multiply by -i
        first_order = Operator(
            {mono._replace(h=0): value for mono, value in comm.terms.items() if mono.h == 1}
        ) * -Coefficient.i()
        rebuilt = classical_symbol(first_order)
        assert rebuilt == poisson(f, g)


def test_min_exponent_helpers():
    assert min_hbar_exponent(Operator.zero()) == 0
    assert min_omega_exponent(Operator.zero()) == 0
    op = Operator.constant(Coefficient.hbar(3) * Coefficient.omega(2)) + x_hat() * (
        Coefficient.hbar(2) * Coefficient.omega(5)
    )
    assert min_hbar_exponent(op) == 2
    assert min_omega_exponent(op) == 2


def test_differential_form():
    op = px_hat() * (Coefficient.i() * Coefficient.hbar(3) * Coefficient.omega(2) * -32)
    terms = probe_image(op).terms
    assert terms == flatten(Operator, {Monomial(c=1): Coefficient.hbar(4) * Coefficient.omega(2) * -32}).terms
    assert differential_text(op) == "-32 * hbar^4 * omega^2 * d/dx"


def test_operator_text():
    op = x_hat() * px_hat() - Operator.constant(I_HBAR * Fraction(1, 2))
    assert op.text() == "x * px - 1/2 * i * hbar"
