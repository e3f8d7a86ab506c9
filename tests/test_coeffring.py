"""Coefficient ring arithmetic: examples and ring axioms."""

from fractions import Fraction
from math import comb, factorial, gcd, perm
from random import Random

import pytest

from quantlab.coeffring import Coefficient, Monomial, pack
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.quantizer import Scheme, quantize, quantize_monomial
from quantlab.weylalgebra import Operator, apply_to_polynomial, classical_symbol, op_mul

import reference_kernels as ref
from reference_kernels import conjugate, mono_mul, neg_i_hbar, partial, px_hat, x_hat
from randgen import (
    flatten,
    rand_coefficient,
    rand_fraction,
    rand_operator,
    rand_phase_poly,
    zero_case,
    rand_position_poly,
)


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
    assert one_plus_i * conjugate(one_plus_i) == 2


def test_sqrt2_omega_squared():
    # (sqrt2*omega)^2 = 2*omega^2, the oscillator stiffness
    sw = Coefficient.sqrt2() * Coefficient.omega()
    assert sw * sw == Coefficient.omega(2) * 2


def test_conjugation_examples():
    assert conjugate(Coefficient.i()) == -Coefficient.i()
    two_hbar = Coefficient.hbar() * 2
    assert conjugate(two_hbar) == two_hbar
    value = (1 + Coefficient.i()) * Coefficient.sqrt2() * Coefficient.omega()
    expected = (1 - Coefficient.i()) * Coefficient.sqrt2() * Coefficient.omega()
    assert conjugate(value) == expected


def test_mono_validation():
    # pack checks a key: sqrt2 and i are reduced to the powers 0 and 1; no
    # exponent is negative, and every exponent is an int: a float or bool
    # would print as an int and fail later, inside quantize
    for fields in ({"r": 2}, {"e": 2}, {"r": -1}, {"e": -1}, {"a": -1}, {"d": -2}, {"h": -1}):
        with pytest.raises(ValueError):
            pack(Monomial(**fields))
        with pytest.raises(ValueError):
            PhasePoly({Monomial(**fields): 1})
    for fields in ({"a": 1.5}, {"c": 2.0}, {"h": True}, {"e": False}, {"w": Fraction(1)}):
        with pytest.raises(ValueError):
            pack(Monomial(**fields))
        with pytest.raises(ValueError):
            PhasePoly({Monomial(**fields): 1})
    with pytest.raises(ValueError):
        Coefficient.hbar(2.0)


# Keys that only pack can refuse: a Monomial is a plain record, and _make,
# which _replace calls, builds one from any tuple.  Unchecked, the first
# packs to 65535 (x^65535: a = -1 borrows from b) and the second sets the
# R2 bit of a key that prints as 1.
BAD_KEYS = {
    "replace-negative": Monomial(b=1)._replace(a=-1),
    "make-sqrt2-squared": Monomial._make((0,) * 6 + (2, 0)),
    "float": Monomial(c=2.0),
    "bool": Monomial(b=True),
}


@pytest.mark.parametrize("key", BAD_KEYS.values(), ids=BAD_KEYS)
def test_every_way_into_a_term_map_refuses_a_bad_key(key):
    with pytest.raises(ValueError):
        pack(key)
    for cls in (Coefficient, PhasePoly, Operator):
        with pytest.raises(ValueError):
            cls({key: 1})
        with pytest.raises(ValueError):
            cls.monomial(key)
    # quantize_monomial takes the phase part, where three of the four are bad
    if key[4:] == (0, 0, 0, 0):
        for scheme in Scheme:
            with pytest.raises(ValueError):
                quantize_monomial(scheme, *key[:4])


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


def test_the_int_product_states_both_reductions():
    # a key product is one int add, and both reductions apply when the
    # sums are collected: alone, on mixed keys, and where a reduced key
    # meets a key that needed no reduction
    sqrt2, i = Coefficient.sqrt2(), Coefficient.i()
    hbar, omega = Coefficient.hbar(), Coefficient.omega()
    assert sqrt2 * sqrt2 == 2
    assert i * i == -1
    assert (sqrt2 * i * omega) * (sqrt2 * i * hbar) == -2 * hbar * omega
    assert (sqrt2 * i) * (sqrt2 * omega) == 2 * i * omega
    assert (i * omega) * (sqrt2 * i) == -sqrt2 * omega
    x = PhasePoly.variable(PhaseVar.X)
    # (sqrt2 i x)^2 = -2 x^2 lands on the key of -x^2
    assert (x * sqrt2 * i + x) * (x * sqrt2 * i - x) == x ** 2 * -3
    # three powers of i meet in quantize: the term's and one from each
    # pair's -i hbar / 2, i * (-i hbar / 2)^2 = -i hbar^2 / 4
    xp, yq = Operator.monomial(Monomial(a=1, c=1)), Operator.monomial(Monomial(b=1, d=1))
    expected = i * xp * yq + (xp + yq) * hbar * Fraction(1, 2) - i * hbar * hbar * Fraction(1, 4)
    assert quantize(Scheme.WEYL, PhasePoly.monomial(Monomial(1, 1, 1, 1, e=1))) == expected


def test_products_and_brackets_match_the_tuple_reference():
    # the commutative product and poisson against tests/reference_kernels,
    # which multiply Monomial keys by mono_mul; counted: pairs on which
    # both reductions meet at some term pair
    rng = Random(20261102)
    meetings = 0
    for _ in range(800):
        f, g = rand_phase_poly(rng, max_terms=3), rand_phase_poly(rng, max_terms=3)
        assert f * g == ref.tuple_product(f, g)
        assert poisson(f, g) == ref.tuple_poisson(f, g)
        a, b = rand_coefficient(rng), rand_coefficient(rng)
        assert a * b == ref.tuple_product(a, b)
        meetings += any(
            k1.r and k2.r and k1.e and k2.e for k1 in f.numerators for k2 in g.numerators
        )
    assert meetings >= 300


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
    # flattening {Monomial: Coefficient} goes through the same product
    flat = flatten(PhasePoly, {Monomial(a=1, r=1, e=1): i_sqrt2})
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
        assert conjugate(conjugate(a)) == a
        assert conjugate(a * b) == conjugate(a) * conjugate(b)
        assert conjugate(a + b) == conjugate(a) + conjugate(b)


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
    with pytest.raises(TypeError):
        x_hat() - 0.5
    # a term map is keyed by Monomials only: a plain tuple would build a map
    # that prints but fails in conjugate, min_hbar_exponent or text
    for key in ((0, 0, 0, 0, 1, 0, 0, 1), (1, 2), "x"):
        with pytest.raises(TypeError):
            Operator({key: 1})
        with pytest.raises(TypeError):
            PhasePoly({key: 1})
        with pytest.raises(TypeError):
            Operator.monomial(key)
    assert not x_hat() == "x"
    for exponent in (True, -1, 2.0):
        with pytest.raises(ValueError):
            x_hat() ** exponent
    assert repr(x_hat()) == "Operator(x)"


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


# --- canonical form: int numerators over one denominator, in lowest terms ---
#
# Every operation must return a map with a positive denominator, no zero
# numerator and gcd(den, *nums) == 1, and must equal the same operation
# done on a plain {Monomial: Fraction} dict by the reference rules below,
# which share no code with the package's arithmetic.


def assert_canonical(value):
    nums, den = value.numerators, value.denominator
    assert type(den) is int and den > 0
    assert all(type(v) is int and v != 0 for v in nums.values())
    assert gcd(den, *nums.values()) == 1


def _dropped_zeros(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


def ref_add(left: dict, right: dict, sign: int = 1) -> dict:
    out = dict(left)
    for key, value in right.items():
        out[key] = out.get(key, Fraction(0)) + sign * value
    return _dropped_zeros(out)


def ref_mul(left: dict, right: dict, ordered: bool = False) -> dict:
    """Product of two flat Fraction maps.  With ordered, the keys are
    operator words and each Px^c X^a (Py^d Y^b) pair is normal ordered by
    sum_k k! C(c,k) C(a,k) (-i hbar)^k X^(a-k) Px^(c-k)."""
    out: dict = {}
    for m1, v1 in left.items():
        for m2, v2 in right.items():
            k1_max = min(m1.c, m2.a) if ordered else 0
            k2_max = min(m1.d, m2.b) if ordered else 0
            for k1 in range(k1_max + 1):
                for k2 in range(k2_max + 1):
                    k = k1 + k2
                    weight = (
                        factorial(k1) * comb(m1.c, k1) * comb(m2.a, k1)
                        * factorial(k2) * comb(m1.d, k2) * comb(m2.b, k2)
                    )
                    # (-i)^k is 1, -i, -1, i for k = 0, 1, 2, 3 (mod 4)
                    value = v1 * v2 * weight * (-1 if k % 4 in (1, 2) else 1)
                    r = m1.r + m2.r
                    e = m1.e + m2.e + k % 2
                    if r == 2:
                        r, value = 0, value * 2
                    if e >= 2:
                        e, value = e - 2, -value
                    key = Monomial(
                        m1.a + m2.a - k1, m1.b + m2.b - k2, m1.c + m2.c - k1,
                        m1.d + m2.d - k2, m1.h + m2.h + k, m1.w + m2.w, r, e,
                    )
                    out[key] = out.get(key, Fraction(0)) + value
    return _dropped_zeros(out)


def _word(**exps) -> dict:
    return {Monomial(**exps): Fraction(1)}


def ref_quantize(scheme: Scheme, terms: dict) -> dict:
    """Each monomial's parameters times the product over both pairs of
    sum_k w_k P^(s-k) Q^r P^k, every word normal ordered by ref_mul."""
    out: dict = {}
    for key, value in terms.items():
        image = {Monomial(h=key.h, w=key.w, r=key.r, e=key.e): value}
        for q, p, r, s in (("a", "c", key.a, key.c), ("b", "d", key.b, key.d)):
            pair: dict = {}
            for k in range(s + 1):
                weight = (
                    Fraction(1, s + 1) if scheme is Scheme.BORN_JORDAN
                    else Fraction(comb(s, k), 2 ** s)
                )
                word = ref_mul(ref_mul(_word(**{p: s - k}), _word(**{q: r}), True),
                               _word(**{p: k}), True)
                pair = ref_add(pair, {m: v * weight for m, v in word.items()})
            image = ref_mul(image, pair, True)
        out = ref_add(out, image)
    return out


def ref_action(op: dict, i: int, j: int) -> dict:
    """The derivative action of op on x^i y^j, each momentum -i hbar d/dq."""
    out: dict = {}
    for key, value in op.items():
        if key.c > i or key.d > j:
            continue
        mult = perm(i, key.c) * perm(j, key.d)
        term = {Monomial(a=i - key.c, b=j - key.d): Fraction(mult)}
        k = key.c + key.d
        neg_i_hbar_k = {Monomial(h=k, e=k % 2): Fraction(-1 if k % 4 in (1, 2) else 1)}
        params = {key._replace(c=0, d=0): value}
        out = ref_add(out, ref_mul(ref_mul(params, term), neg_i_hbar_k))
    return out


def test_canonical_form_of_ring_operations_random():
    rng = Random(9009)
    for index in range(400):
        a, b = rand_coefficient(rng), rand_coefficient(rng)
        f, g = rand_phase_poly(rng, max_terms=3), rand_phase_poly(rng, max_terms=3)
        f, g = zero_case(index, f, g)
        q = rand_fraction(rng) or Fraction(5, 3)
        for left, right in ((a, b), (f, g)):
            lt, rt = left.terms, right.terms
            for result, expected in (
                (left + right, ref_add(lt, rt)),
                (left - right, ref_add(lt, rt, -1)),
                (left * right, ref_mul(lt, rt)),
                (-left, {k: -v for k, v in lt.items()}),
                (left * q, _dropped_zeros({k: v * q for k, v in lt.items()})),
                (q * left, _dropped_zeros({k: v * q for k, v in lt.items()})),
                (conjugate(left), {k: -v if k.e else v for k, v in lt.items()}),
                (left.hbar_free_part(), {k: v for k, v in lt.items() if not k.h}),
            ):
                assert_canonical(result)
                assert result.terms == expected
        for var, slot in zip(PhaseVar, "abcd"):
            deriv = partial(f, var)
            assert_canonical(deriv)
            assert deriv.terms == {
                k._replace(**{slot: getattr(k, slot) - 1}): v * getattr(k, slot)
                for k, v in f.terms.items() if getattr(k, slot)
            }


def test_canonical_form_of_operator_layer_random():
    rng = Random(4242)
    for index in range(150):
        a, b = rand_operator(rng), rand_operator(rng)
        product = op_mul(a, b)
        assert_canonical(product)
        assert product.terms == ref_mul(a.terms, b.terms, ordered=True)
        limit = classical_symbol(a)
        assert_canonical(limit)
        assert limit.terms == {k: v for k, v in a.terms.items() if not k.h}
        (poly,) = zero_case(index, rand_phase_poly(rng, max_terms=3))
        for scheme in Scheme:
            op = quantize(scheme, poly)
            assert_canonical(op)
            assert op.terms == ref_quantize(scheme, poly.terms)
        for i in range(3):
            for j in range(3):
                image = apply_to_polynomial(a, PhasePoly.monomial(Monomial(a=i, b=j)))
                assert_canonical(image)
                assert image.terms == ref_action(a.terms, i, j)
        position = rand_position_poly(rng)
        applied = apply_to_polynomial(a, position)
        assert_canonical(applied)
        expected: dict = {}
        for key, value in position.terms.items():
            image = ref_action(a.terms, key.a, key.b)
            params = {key._replace(a=0, b=0): value}
            expected = ref_add(expected, ref_mul(params, image))
        assert applied.terms == expected


def test_canonical_form_pins_cancellation():
    x = PhasePoly.variable(PhaseVar.X)
    half = x * Fraction(1, 2)
    assert half.numerators == {Monomial(a=1): 1} and half.denominator == 2
    total = half + half
    assert total == x
    assert total.numerators == {Monomial(a=1): 1} and total.denominator == 1
    third = x * Fraction(1, 3)
    assert (third * 3).numerators == {Monomial(a=1): 1}
    assert (third * 3).denominator == 1
    assert (3 * third).denominator == 1
    assert (x * Fraction(2, 3) - x * Fraction(1, 6)).denominator == 2
    # {A: 2, B: 1} / 2: dropping B leaves {A: 2} / 2, which must reduce to A
    a_key, b_key = Monomial(a=1), Monomial(b=1, h=1)
    poly = PhasePoly({a_key: 1, b_key: Fraction(1, 2)})
    assert poly.numerators == {a_key: 2, b_key: 1} and poly.denominator == 2
    for dropped in (
        poly - PhasePoly.monomial(b_key, Fraction(1, 2)),
        poly.hbar_free_part(),
        classical_symbol(Operator(poly.terms)),
    ):
        assert dropped.numerators == {a_key: 1}
        assert dropped.denominator == 1
