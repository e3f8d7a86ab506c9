"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are the stated
wall-clock bounds.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral, ladder_integrals
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.quantizer import Scheme, quantize, quantize_monomial
from quantlab.vlab.parser import parse_polynomial
from quantlab.vlab.verify import failed_claims, sweep, verify_pair
from quantlab.weylalgebra import (
    Operator,
    apply_to_polynomial,
    classical_symbol,
    commutator,
    differential_text,
    op_mul,
    probe_image,
)

from reference_kernels import adjoint, l_integral, px_hat, x_hat
from randgen import flatten, orders, rand_coefficient, rand_operator, rand_phase_poly, zero_case

W = Scheme.WEYL
BJ = Scheme.BORN_JORDAN

X = PhasePoly.variable(PhaseVar.X)
Y = PhasePoly.variable(PhaseVar.Y)
PX = PhasePoly.variable(PhaseVar.PX)
PY = PhasePoly.variable(PhaseVar.PY)

H2W2 = Coefficient.hbar(2) * Coefficient.omega(2)
H4 = Coefficient.hbar(4)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"[PASS] criterion {num:2d}: {description}")


def test_criterion_01_k41_expansion():
    with criterion(1, "K(4,1) matches its frozen degree-5 expansion"):
        start = time.perf_counter()
        k41 = k_integral(OscillatorParams(4, 1))
        elapsed = time.perf_counter() - start
        expected = (
            X * PY ** 4
            - Y * PX * PY ** 3
            - X * Y ** 2 * PY ** 2 * (Coefficient.omega(2) * Fraction(3, 4))
            + Y ** 3 * PX * PY * (Coefficient.omega(2) * Fraction(1, 8))
            + X * Y ** 4 * (Coefficient.omega(4) * Fraction(1, 64))
        ) * 256
        assert k41 == expected
        assert elapsed < 1.0


def test_criterion_02_scheme_difference():
    with criterion(2, "BJ minus Weyl operator of K(4,1) is 32 hbar^2 omega^2 x"):
        k41 = k_integral(OscillatorParams(4, 1))
        start = time.perf_counter()
        diff = quantize(BJ, k41) - quantize(W, k41)
        elapsed = time.perf_counter() - start
        assert diff == x_hat() * (H2W2 * 32)
        assert elapsed < 1.0


def test_criterion_03_commutators():
    with criterion(3, "Weyl operator commutes; BJ commutator is -32i hbar^3 omega^2 px"):
        params = OscillatorParams(4, 1)
        k41 = k_integral(params)
        h_op = quantize(W, hamiltonian(params))
        k_weyl = quantize(W, k41)
        k_bj = quantize(BJ, k41)
        start = time.perf_counter()
        comm_weyl = commutator(h_op, k_weyl)
        comm_bj = commutator(h_op, k_bj)
        elapsed = time.perf_counter() - start
        assert comm_weyl.is_zero()
        expected = px_hat() * (
            Coefficient.i() * Coefficient.hbar(3) * Coefficient.omega(2) * -32
        )
        assert comm_bj == expected
        assert differential_text(comm_bj) == "-32 * hbar^4 * omega^2 * d/dx"
        assert elapsed < 1.0


def test_criterion_04_weyl_operator_differential_form():
    with criterion(4, "Weyl operator of K(4,1) in derivative form, term for term"):
        k_weyl = quantize(W, k_integral(OscillatorParams(4, 1)))
        expected = flatten(Operator, {
            Monomial(a=1, d=4): H4 * 256,
            Monomial(b=1, c=1, d=3): H4 * -256,
            Monomial(c=1, d=2): H4 * -384,
            Monomial(a=1, b=2, d=2): H2W2 * 192,
            Monomial(b=3, c=1, d=1): H2W2 * -32,
            Monomial(a=1, b=1, d=1): H2W2 * 384,
            Monomial(b=2, c=1): H2W2 * -48,
            Monomial(a=1, b=4): Coefficient.omega(4) * 4,
            Monomial(a=1): H2W2 * 96,
        }).terms
        assert probe_image(k_weyl).terms == expected
        assert differential_text(k_weyl) == (
            "4 * omega^4 * x * y^4"
            " + 192 * hbar^2 * omega^2 * x * y^2 * d^2/dy^2"
            " + 256 * hbar^4 * x * d^4/dy^4"
            " - 32 * hbar^2 * omega^2 * y^3 * d^2/dx dy"
            " - 256 * hbar^4 * y * d^4/dx dy^3"
            " + 384 * hbar^2 * omega^2 * x * y * d/dy"
            " - 48 * hbar^2 * omega^2 * y^2 * d/dx"
            " - 384 * hbar^4 * d^3/dx dy^2"
            " + 96 * hbar^2 * omega^2 * x"
        )


def test_criterion_05_proof_intermediates():
    with criterion(5, "intermediate quantized monomials match their printed forms"):
        h2 = Coefficient.hbar(2)
        h3 = Coefficient.hbar(3)
        hbar = Coefficient.hbar()
        i = Coefficient.i()
        q1 = Monomial(b=2, d=2)
        assert probe_image(quantize_monomial(W, *q1[:4])).terms == flatten(Operator, {
            Monomial(b=2, d=2): -h2,
            Monomial(b=1, d=1): h2 * -2,
            Monomial(): h2 * Fraction(-1, 2),
        }).terms
        assert probe_image(quantize_monomial(BJ, *q1[:4])).terms == flatten(Operator, {
            Monomial(b=2, d=2): -h2,
            Monomial(b=1, d=1): h2 * -2,
            Monomial(): h2 * Fraction(-2, 3),
        }).terms
        q2 = Monomial(b=1, d=3)
        q2_expected = flatten(Operator, {
            Monomial(b=1, d=3): i * h3,
            Monomial(d=2): i * h3 * Fraction(3, 2),
        }).terms
        assert probe_image(quantize_monomial(W, *q2[:4])).terms == q2_expected
        assert probe_image(quantize_monomial(BJ, *q2[:4])).terms == q2_expected
        q3 = Monomial(b=3, d=1)
        q3_expected = flatten(Operator, {
            Monomial(b=3, d=1): -(i * hbar),
            Monomial(b=2): i * hbar * Fraction(-3, 2),
        }).terms
        assert probe_image(quantize_monomial(W, *q3[:4])).terms == q3_expected
        assert probe_image(quantize_monomial(BJ, *q3[:4])).terms == q3_expected


COINCIDING_PAIRS = ((1, 1), (2, 1), (3, 1))
DIFFERING_PAIRS = ((4, 1), (5, 1), (6, 1), (1, 4), (3, 4))


def test_criterion_06_pair_verdicts():
    with criterion(6, "scheme verdicts across the eight reference pairs"):
        start = time.perf_counter()
        records = {
            (m, n): verify_pair(m, n) for m, n in COINCIDING_PAIRS + DIFFERING_PAIRS
        }
        elapsed = time.perf_counter() - start
        for m, n in COINCIDING_PAIRS:
            record = records[(m, n)]
            assert record.bj_equals_weyl, (m, n)
            assert record.weyl_commutes and record.bj_commutes, (m, n)
        for m, n in DIFFERING_PAIRS:
            record = records[(m, n)]
            assert not record.bj_equals_weyl, (m, n)
            assert record.weyl_commutes, (m, n)
            assert not record.bj_commutes, (m, n)
            assert record.min_h_exp >= 2, (m, n)
            assert record.min_w_exp >= 1, (m, n)
        assert elapsed < 60.0


def test_criterion_07_classical_brackets():
    with criterion(7, "classical brackets vanish for every m + n <= 8"):
        for m in range(1, 8):
            for n in range(1, 9 - m):
                params = OscillatorParams(m, n)
                h = hamiltonian(params)
                assert poisson(h, k_integral(params)).is_zero(), (m, n)
                assert poisson(h, l_integral()).is_zero(), (m, n)
                f1, f2 = ladder_integrals(params)
                assert poisson(h, f1).is_zero(), (m, n)
                assert poisson(h, f2).is_zero(), (m, n)


def _triangle_oracle_check(left, right):
    comm = commutator(left, right)
    bound = sum(orders(left)) + sum(orders(right))
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            probe = PhasePoly.monomial(Monomial(a=i, b=j))
            direct = apply_to_polynomial(comm, probe)
            nested = apply_to_polynomial(left, apply_to_polynomial(right, probe)) - (
                apply_to_polynomial(right, apply_to_polynomial(left, probe))
            )
            assert direct == nested, (i, j)


def test_criterion_08_action_oracle_agreement():
    with criterion(8, "symbolic commutators agree with the differential action"):
        for m, n in COINCIDING_PAIRS + DIFFERING_PAIRS:
            assert verify_pair(m, n).oracle_agreement, (m, n)
        # full triangle basis on the reference pair
        params = OscillatorParams(4, 1)
        h_op = quantize(W, hamiltonian(params))
        k41 = k_integral(params)
        _triangle_oracle_check(h_op, quantize(W, k41))
        _triangle_oracle_check(h_op, quantize(BJ, k41))


def test_criterion_09_property_suites():
    with criterion(9, "randomized property suites, 1000 exact cases each"):
        rng = Random(11_08_2026)
        for _ in range(1_000):
            a = rand_coefficient(rng)
            b = rand_coefficient(rng)
            c = rand_coefficient(rng)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

        rng = Random(2)
        for index in range(1_000):
            f = rand_phase_poly(rng, max_terms=2, max_exp=2)
            g = rand_phase_poly(rng, max_terms=2, max_exp=2)
            h = rand_phase_poly(rng, max_terms=2, max_exp=2)
            f, g, h = zero_case(index, f, g, h)
            assert poisson(f, g) == -poisson(g, f)
            assert poisson(f, g * h) == poisson(f, g) * h + g * poisson(f, h)
            jacobi = (
                poisson(f, poisson(g, h))
                + poisson(g, poisson(h, f))
                + poisson(h, poisson(f, g))
            )
            assert jacobi.is_zero()

        rng = Random(3)
        for _ in range(1_000):
            a = rand_operator(rng, max_terms=2)
            b = rand_operator(rng, max_terms=2)
            c = rand_operator(rng, max_terms=2)
            assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))

        rng = Random(4)
        for index in range(1_000):
            (f,) = zero_case(index, rand_phase_poly(rng, max_terms=3, max_exp=2, real_only=True))
            scheme = W if rng.random() < 0.5 else BJ
            op = quantize(scheme, f)
            assert adjoint(op) == op

        rng = Random(5)
        for index in range(1_000):
            # symbol extraction drops hbar terms, so classical inputs are hbar-free
            (f,) = zero_case(index, rand_phase_poly(rng, max_terms=4, max_exp=3, hbar_free=True))
            scheme = W if rng.random() < 0.5 else BJ
            assert classical_symbol(quantize(scheme, f)) == f

        rng = Random(6)
        for index in range(1_000):
            (f,) = zero_case(index, rand_phase_poly(rng, max_terms=4, max_exp=3))
            assert parse_polynomial(f.text()) == f


def test_criterion_10_sweep_evidence():
    with criterion(10, "sweep to m + n = 8: Weyl commutes for every pair (evidence only)"):
        records = sweep(8, "k")
        assert len(records) == 28
        assert all(record.weyl_commutes for record in records)
        assert all(not failed_claims(record) for record in records)
        print(
            "       evidence note: exhaustive only over the swept range; "
            "this does not prove commutation for all (m, n)"
        )
