"""Quantization rules: frozen operator images, scheme comparisons, and a
naive word-sum oracle built on single-swap rewriting."""

import sys
from fractions import Fraction
from math import comb
from random import Random

import pytest

from quantlab import coeffring
from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral, ladder_integrals
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.quantizer import (
    Scheme,
    bj_excess,
    quantize,
    quantize_ladder,
    quantize_monomial,
    weyl_commutator,
)
from quantlab.vlab.parser import MAX_SUM
from quantlab.weylalgebra import (
    Operator,
    apply_to_polynomial,
    classical_symbol,
    commutator,
    op_mul,
    probe_image,
    swap_weight,
)

import reference_kernels as ref
from reference_kernels import adjoint, l_integral, px_hat, x_hat
from randgen import flatten, rand_coefficient, rand_phase_poly, zero_case
from test_weylalgebra import normal_order_word

W = Scheme.WEYL
BJ = Scheme.BORN_JORDAN

I_HBAR = Coefficient.i() * Coefficient.hbar()
H2 = Coefficient.hbar(2)


def one_pair_oracle(scheme, r, s, x_index=True):
    """Quantize x^r p^s on one index by summing the rule's words directly,
    normal ordering each with the naive swap rewriter."""
    acc: dict = {}
    for k in range(s + 1):
        weight = Fraction(1, s + 1) if scheme is BJ else Fraction(comb(s, k), 2 ** s)
        word = ("p",) * (s - k) + ("x",) * r + ("p",) * k
        for (xr, ps), coeff in normal_order_word(word).items():
            key = (xr, ps)
            acc[key] = acc.get(key, Coefficient.zero()) + coeff * weight
    terms = {}
    for (xr, ps), coeff in acc.items():
        mono = Monomial(a=xr, c=ps) if x_index else Monomial(b=xr, d=ps)
        if not coeff.is_zero():
            terms[mono] = coeff
    return flatten(Operator, terms)


def test_monomial_rule_matches_word_sums():
    # the oracle sums the rule's words and swaps letters one at a time, so
    # it reads neither swap_weight nor weylalgebra._corrections
    for r in range(11):
        for s in range(11):
            for scheme in (W, BJ):
                assert quantize_monomial(scheme, r, 0, s, 0) == one_pair_oracle(
                    scheme, r, s, x_index=True
                )
                assert quantize_monomial(scheme, 0, r, 0, s) == one_pair_oracle(
                    scheme, r, s, x_index=False
                )


def summed_pair_rule(scheme, r, s):
    """The pair rule as the ordering sum itself: the weight w_k of
    P^(s-k) X^r P^k times the swap weight of P^(s-k) X^r, summed over k."""
    weights = [1] * (s + 1) if scheme is BJ else [comb(s, k) for k in range(s + 1)]
    den = s + 1 if scheme is BJ else 2 ** s
    rule = tuple(
        sum(w * swap_weight(s - k, r, j) for k, w in enumerate(weights))
        for j in range(min(r, s) + 1)
    )
    return rule, den


def test_pair_rule_closed_form_matches_ordering_sum():
    # the one-pair images of quantize_monomial, on either axis, against
    # sum_j rule[j] / den (-i hbar)^j X^(r-j) P^(s-j) of the summed rule
    for scheme in (W, BJ):
        for r in range(15):
            for s in range(15):
                rule, den = summed_pair_rule(scheme, r, s)
                for x_index in (True, False):
                    expected = Operator.zero()
                    for j, weight in enumerate(rule):
                        word = Monomial(a=r - j, c=s - j) if x_index else Monomial(b=r - j, d=s - j)
                        term = Operator.monomial(word, Fraction(weight, den))
                        expected = expected + term * (-I_HBAR) ** j
                    phase = (r, 0, s, 0) if x_index else (0, r, 0, s)
                    assert quantize_monomial(scheme, *phase) == expected


def test_mixed_monomial_factorizes():
    for scheme in (W, BJ):
        mixed = quantize_monomial(scheme, 2, 1, 2, 3)
        assert mixed == op_mul(
            one_pair_oracle(scheme, 2, 2, x_index=True),
            one_pair_oracle(scheme, 1, 3, x_index=False),
        )


def test_xp_coincides_across_schemes():
    expected = Operator.monomial(Monomial(a=1, c=1)) - Operator.constant(
        I_HBAR * Fraction(1, 2)
    )
    assert quantize_monomial(W, 1, 0, 1, 0) == expected
    assert quantize_monomial(BJ, 1, 0, 1, 0) == expected


def test_y2py2_under_both_schemes():
    weyl = quantize_monomial(W, 0, 2, 0, 2)
    bj = quantize_monomial(BJ, 0, 2, 0, 2)
    base = Operator.monomial(Monomial(b=2, d=2)) - Operator.monomial(Monomial(b=1, d=1)) * (
        I_HBAR * 2
    )
    assert weyl == base - Operator.constant(H2 * Fraction(1, 2))
    assert bj == base - Operator.constant(H2 * Fraction(2, 3))


def test_schemes_agree_on_low_powers():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    if min(a, c) <= 1 and min(b, d) <= 1:
                        mono = (a, b, c, d)
                        assert quantize_monomial(W, *mono) == quantize_monomial(BJ, *mono)


def test_schemes_differ_for_x2px2():
    diff = quantize_monomial(BJ, 2, 0, 2, 0) - quantize_monomial(W, 2, 0, 2, 0)
    assert diff == Operator.constant(H2 * Fraction(-1, 6))


def test_born_jordan_is_weyl_after_the_cohen_multiplier():
    # de Gosson's theorem, BJ(f) = W(T f): the two statements of
    # Born-Jordan, mu_j in quantize and T in bj_excess, agree.  Exponents up
    # to 5 reach the k = 2 term of T on each pair, and their product.
    rng = Random(36036)
    for index in range(300):
        (f,) = zero_case(index, rand_phase_poly(rng, max_terms=4, max_exp=5))
        assert quantize(BJ, f) == quantize(W, f + bj_excess(f))
    # on x^2 px^2, T - 1 is its k = 1 term, (-hbar^2/4) 2! 2! / 3!
    x2px2 = PhasePoly.monomial(Monomial(a=2, c=2))
    assert bj_excess(x2px2) == PhasePoly.constant(H2 * Fraction(-1, 6))
    # T fixes a term with fewer than two of q or p on each pair
    assert bj_excess(PhasePoly.monomial(Monomial(a=5, b=1, c=1, d=7))).is_zero()


QUADRATICS = tuple(
    Monomial(**exps)
    for exps in (
        {"a": 2},
        {"c": 2},
        {"a": 1, "c": 1},
        {"b": 2},
        {"d": 2},
        {"a": 1, "b": 1},
        {"a": 1, "d": 1},
    )
)


def test_commutator_with_a_quadratic_is_the_quantized_bracket():
    # [W(q), W(f)] = i hbar W({q, f}) for q of degree at most 2 (Folland):
    # weyl_commutator against the normal-ordering commutator and against
    # the ring product by i hbar, on each quadratic monomial with a random
    # coefficient, and on odd cases with a random linear and constant part
    rng = Random(1989)
    for index in range(280):
        q = PhasePoly.monomial(QUADRATICS[index % len(QUADRATICS)]) * rand_coefficient(rng)
        if index % 2:
            q = q + PhasePoly.monomial(Monomial(b=1)) * rand_coefficient(rng) + 3
        (f,) = zero_case(index, rand_phase_poly(rng, max_terms=4, max_exp=4))
        bracket = poisson(q, f)
        comm = weyl_commutator(q, bracket)
        assert comm == commutator(quantize(W, q), quantize(W, f))
        assert comm == quantize(W, bracket * I_HBAR)


def test_the_quadratic_lemma_fails_for_a_cubic():
    # [W(x^3), W(px^3)] has a Moyal correction of order hbar^3, so the
    # bracket route is refused for an h of degree 3
    cubic = PhasePoly.monomial(Monomial(a=3))
    f = PhasePoly.monomial(Monomial(c=3))
    bracket = poisson(cubic, f)
    assert commutator(quantize(W, cubic), quantize(W, f)) != quantize(W, bracket * I_HBAR)
    for h in (cubic, PhasePoly.monomial(Monomial(a=2)) + PhasePoly.monomial(Monomial(a=1, b=1, d=1))):
        with pytest.raises(ValueError, match="degree at most 2"):
            weyl_commutator(h, bracket)
    with pytest.raises(TypeError, match="two PhasePoly operands"):
        weyl_commutator(quantize(W, PhasePoly.monomial(Monomial(a=2))), bracket)


def test_quantize_linear():
    rng = Random(424242)
    for index in range(1_000):
        f = rand_phase_poly(rng, max_terms=3, max_exp=2)
        g = rand_phase_poly(rng, max_terms=3, max_exp=2)
        f, g = zero_case(index, f, g)
        alpha = Coefficient.hbar() * rng.randint(-3, 3) + (
            Fraction(rng.randint(-3, 3)) + Fraction(rng.randint(-3, 3)) * Coefficient.i()
        )
        beta = Coefficient.omega() * rng.randint(-3, 3)
        scheme = W if rng.random() < 0.5 else BJ
        assert quantize(scheme, f * alpha + g * beta) == quantize(scheme, f) * alpha + (
            quantize(scheme, g) * beta
        )


def test_quantize_matches_the_key_product_route():
    # each image term joins its term's parameter part inline; the reference
    # multiplies the two keys through mono_mul.  Count the terms whose i
    # meets an i of their image, where i * i = -1 reduces.
    rng = Random(20261021)
    meetings = 0
    for index in range(1_500):
        (poly,) = zero_case(index, rand_phase_poly(rng, max_terms=4, max_exp=3))
        scheme = (W, BJ)[index % 2]
        assert quantize(scheme, poly) == ref.quantize(scheme, poly)
        for key in poly.numerators:
            image = quantize_monomial(scheme, *key[:4])
            meetings += key.e and any(k.e for k in image.numerators)
    assert meetings >= 1_000


def test_repeated_quantize_hits_the_monomial_cache():
    # the benchmark reads quantizer.monomial_cache.hit_ratio from here; a
    # term looks up its two one-pair parts, x^a px^c and y^b py^d
    h = hamiltonian(OscillatorParams(2, 3))
    first = quantize(W, h)
    hits = quantize_monomial.cache_info().hits
    assert quantize(W, h) == first
    assert quantize_monomial.cache_info().hits == hits + 2 * len(h.numerators)


def test_quantize_builds_no_monomial_on_a_warm_cache():
    # a term looks up its one-pair images by their exponents; a Monomial
    # (validated by its constructor, or decoded by unpack) per term would
    # cost more than the lookup itself
    watched = {Monomial.__new__.__code__, coeffring.unpack.__code__}
    params = OscillatorParams(3, 2)
    polys = (hamiltonian(params), k_integral(params))
    calls = []

    def quantize_all():
        for scheme in (W, BJ):
            for poly in polys:
                quantize(scheme, poly)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls.append(frame.f_code.co_name)

    quantize_all()
    sys.setprofile(profile)
    try:
        quantize_all()
    finally:
        sys.setprofile(None)
    assert calls == []


def test_monomial_image_is_the_quantized_monomial():
    # a one-pair or constant image is built from the swap identity, a
    # mixed one by quantize joining its one-pair images
    for scheme in (W, BJ):
        for phase in ((3, 0, 4, 0), (0, 5, 0, 2), (0, 0, 0, 0), (2, 1, 2, 3), (1, 1, 0, 1)):
            image = quantize_monomial(scheme, *phase)
            assert image == quantize(scheme, PhasePoly.monomial(Monomial(*phase)))


@pytest.mark.parametrize(
    "phase",
    [(65536, 0, 0, 0), (0, 0, 0, 65536), (65536, 1, 0, 1), (-1, 0, 2, 0), (0, -2, 0, 0),
     (1, 0, -1, 0), (1.5, 0, 1, 0), (0, 0, 0, 2.5), ("1", 0, 1, 0), (1, 1, 0.5, 1),
     (0, 0, 0, 2.0), (True, 0, 1, 0), (0, 1, 0, True), (1, 1.0, 0, 1)],
)
def test_quantize_monomial_refuses_a_bad_exponent_on_a_warm_cache(phase):
    # coeffring.pack's check, run on a cache miss.  The cache is typed, so
    # a float or bool equal to an int exponent misses the cached image of
    # the ints and is refused too.
    for scheme in (W, BJ):
        for warm in ((0, 0, 0, 2), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 1)):
            quantize_monomial(scheme, *warm)
        with pytest.raises(ValueError, match="exponent"):
            quantize_monomial(scheme, *phase)


def test_quantize_monomial_refuses_a_non_member_on_a_warm_cache():
    # a member's value or name is not the member, however the cache keys
    # hash it
    for warm in (W, BJ):
        quantize_monomial(warm, 1, 0, 1, 0)
    for scheme in ("bj", "weyl", "BORN_JORDAN", "WEYL", None, 1):
        with pytest.raises(TypeError, match="scheme must be a Scheme member"):
            quantize_monomial(scheme, 1, 0, 1, 0)


def test_the_monomial_cache_holds_one_pair_images_only():
    # no two pairs share a monomial of K, but they share its one-pair
    # parts, so a cache of whole monomials would grow with the pairs
    quantize_monomial.cache_clear()
    parts = set()
    for total in range(2, 21):
        for m in range(1, total):
            k = k_integral(OscillatorParams(m, total - m))
            for scheme in (W, BJ):
                quantize(scheme, k)
            for a, b, c, d, *_ in k.numerators:
                parts |= {(a, 0, c, 0), (0, b, 0, d)}
    assert quantize_monomial.cache_info().currsize <= 2 * len(parts)


def test_quantize_refuses_a_scheme_that_is_not_a_member():
    # "bj" is Scheme.BORN_JORDAN's value, not the scheme
    poly = PhasePoly.variable(PhaseVar.X) ** 2 * PhasePoly.variable(PhaseVar.PX) ** 2
    for scheme in ("bj", "weyl", None, 1):
        with pytest.raises(TypeError):
            quantize(scheme, poly)
    assert quantize(BJ, poly) != quantize(W, poly)


def test_quantize_refuses_a_bad_scheme_for_a_poly_with_no_terms():
    # no term reaches quantize_monomial, so the scheme is checked up front
    for scheme in ("bj", "weyl", None):
        with pytest.raises(TypeError, match="scheme must be a Scheme member"):
            quantize(scheme, PhasePoly.zero())
    assert quantize(BJ, PhasePoly.zero()) == Operator.zero()


# Not phase-space symbols: read as one, an Operator's words would be taken
# for commuting variables.
NOT_PHASE_POLYS = {
    "coefficient": Coefficient.one(),
    "operator": quantize(W, PhasePoly.monomial(Monomial(a=2, c=2))),
}
PHASE_SPACE_ENTRY_POINTS = {
    "quantize": lambda f: quantize(W, f),
    "poisson": lambda f: poisson(f, PhasePoly.variable(PhaseVar.X)),
    "weyl_commutator": lambda f: weyl_commutator(PhasePoly.one(), f),
    "bj_excess": bj_excess,
}


@pytest.mark.parametrize("operand", NOT_PHASE_POLYS.values(), ids=NOT_PHASE_POLYS)
@pytest.mark.parametrize("entry", PHASE_SPACE_ENTRY_POINTS.values(), ids=PHASE_SPACE_ENTRY_POINTS)
def test_phase_space_entry_points_refuse_a_non_phase_poly(entry, operand):
    with pytest.raises(TypeError, match="PhasePoly"):
        entry(operand)


def test_quantize_refuses_an_operand_that_is_not_a_phase_poly():
    for operand in (x_hat() * x_hat(), Coefficient.i(), Monomial(a=1)):
        for scheme in (W, BJ):
            with pytest.raises(TypeError):
                quantize(scheme, operand)


def test_symbol_round_trip():
    # symbol extraction drops every hbar-carrying term, so the round trip
    # is an identity on hbar-free classical inputs
    rng = Random(5050)
    for index in range(1_000):
        (f,) = zero_case(index, rand_phase_poly(rng, max_terms=4, max_exp=3, hbar_free=True))
        assert classical_symbol(quantize(W, f)) == f
        assert classical_symbol(quantize(BJ, f)) == f


def test_hermiticity_surrogate():
    rng = Random(6174)
    for index in range(1_000):
        (f,) = zero_case(index, rand_phase_poly(rng, max_terms=4, max_exp=2, real_only=True))
        for scheme in (W, BJ):
            op = quantize(scheme, f)
            assert adjoint(op) == op


def test_hamiltonian_quantization_scheme_independent():
    # quantlab commutator --scheme bj reads [Weyl(H), BJ(K)] off a record,
    # which is [BJ(H), BJ(K)] on every pair in range
    for s in range(2, MAX_SUM + 1):
        for m in range(1, s):
            h = hamiltonian(OscillatorParams(m, s - m))
            assert quantize(W, h) == quantize(BJ, h), (m, s - m)
    l = l_integral()
    assert quantize(W, l) == quantize(BJ, l)


def test_k11_quantization():
    k11 = k_integral(OscillatorParams(1, 1))
    expected = Operator.monomial(Monomial(a=1, d=1)) - Operator.monomial(Monomial(b=1, c=1))
    assert quantize(W, k11) == expected
    assert quantize(BJ, k11) == expected


def test_k41_scheme_difference():
    k41 = k_integral(OscillatorParams(4, 1))
    diff = quantize(BJ, k41) - quantize(W, k41)
    assert diff == x_hat() * (H2 * Coefficient.omega(2) * 32)


def test_commutator_helper_formula():
    # with K = P*x + D*px and P, D depending only on (y, py), the
    # commutator with H reduces to
    #   [H, K] = px(-i*hbar*P + [H, D]) + x(2*i*hbar*omega^2*D + [H, P])
    params = OscillatorParams(4, 1)
    h_op = quantize(W, hamiltonian(params))
    for scheme in (W, BJ):
        p, d = ref.paper_p_and_d(params)
        p_op, d_op = quantize(scheme, p), quantize(scheme, d)
        k_op = quantize(scheme, k_integral(params))
        assert k_op == p_op * x_hat() + d_op * px_hat()
        helper = px_hat() * (p_op * (-I_HBAR) + commutator(h_op, d_op)) + x_hat() * (
            d_op * (I_HBAR * Coefficient.omega(2) * 2) + commutator(h_op, p_op)
        )
        assert commutator(h_op, k_op) == helper


def test_bj_commutator_action_on_x():
    # the nonzero commutator acts on x as multiplication by -32 hbar^4 omega^2
    params = OscillatorParams(4, 1)
    h_op = quantize(W, hamiltonian(params))
    comm = commutator(h_op, quantize(BJ, k_integral(params)))
    result = apply_to_polynomial(comm, PhasePoly.variable(PhaseVar.X))
    assert result == PhasePoly.constant(
        Coefficient.hbar(4) * Coefficient.omega(2) * -32
    )


def test_quantize_ladder_validation():
    with pytest.raises(ValueError):
        quantize_ladder(OscillatorParams(1, 1), 3)


def test_ladder_operator_commutes_isotropic():
    params = OscillatorParams(1, 1)
    h_op = quantize(W, hamiltonian(params))
    assert commutator(h_op, quantize_ladder(params, 1)).is_zero()
    assert commutator(h_op, quantize_ladder(params, 2)).is_zero()


def test_ladder_symbol_is_classical_integral():
    for m, n in ((m, s - m) for s in range(2, 15) for m in range(1, s)):
        params = OscillatorParams(m, n)
        f1, f2 = ladder_integrals(params)
        assert classical_symbol(quantize_ladder(params, 1)) == f1
        assert classical_symbol(quantize_ladder(params, 2)) == f2


def test_ladder_equals_weyl_for_isotropic_f2():
    params = OscillatorParams(1, 1)
    _, f2 = ladder_integrals(params)
    assert quantize_ladder(params, 2) == quantize(W, f2)


def test_proof_intermediates_differential_form():
    h3 = Coefficient.hbar(3)
    hbar = Coefficient.hbar()
    i = Coefficient.i()
    # quantized y^2 py^2: -(hbar^2/2)(2 y^2 d^2 + 4 y d + 1) for Weyl,
    # -(hbar^2/3)(3 y^2 d^2 + 6 y d + 2) for Born-Jordan
    q1_weyl = probe_image(quantize_monomial(W, 0, 2, 0, 2)).terms
    assert q1_weyl == flatten(Operator, {
        Monomial(b=2, d=2): -H2,
        Monomial(b=1, d=1): H2 * -2,
        Monomial(): H2 * Fraction(-1, 2),
    }).terms
    q1_bj = probe_image(quantize_monomial(BJ, 0, 2, 0, 2)).terms
    assert q1_bj == flatten(Operator, {
        Monomial(b=2, d=2): -H2,
        Monomial(b=1, d=1): H2 * -2,
        Monomial(): H2 * Fraction(-2, 3),
    }).terms
    # quantized y py^3: i(hbar^3/2)(2 y d^3 + 3 d^2), both schemes
    q2_expected = flatten(Operator, {
        Monomial(b=1, d=3): i * h3,
        Monomial(d=2): i * h3 * Fraction(3, 2),
    }).terms
    assert probe_image(quantize_monomial(W, 0, 1, 0, 3)).terms == q2_expected
    assert probe_image(quantize_monomial(BJ, 0, 1, 0, 3)).terms == q2_expected
    # quantized y^3 py: -i(hbar/2) y^2 (2 y d + 3), both schemes
    q3_expected = flatten(Operator, {
        Monomial(b=3, d=1): -(i * hbar),
        Monomial(b=2): i * hbar * Fraction(-3, 2),
    }).terms
    assert probe_image(quantize_monomial(W, 0, 3, 0, 1)).terms == q3_expected
    assert probe_image(quantize_monomial(BJ, 0, 3, 0, 1)).terms == q3_expected


def test_both_quantizations_of_every_integral_are_symmetric():
    # real symbols quantize to formally self-adjoint operators: K, F1 and
    # F2 under both schemes, and the two directly quantized ladder
    # integrals, on every pair with m + n <= 12
    pairs = [(m, s - m) for s in range(2, 13) for m in range(1, s)]
    assert len(pairs) == 66
    for m, n in pairs:
        params = OscillatorParams(m, n)
        integrals = (k_integral(params), *ladder_integrals(params))
        ops = [quantize(scheme, f) for f in integrals for scheme in (W, BJ)]
        ops += [quantize_ladder(params, which) for which in (1, 2)]
        for op in ops:
            assert adjoint(op) == op, (m, n)
