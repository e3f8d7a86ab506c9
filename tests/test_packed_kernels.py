"""The int-key kernels against tuple-key references, and the key layout.

Every term map stores each key as one int (coeffring), and op_mul,
commutator and probe_bracket add keys and reduce their sums once;
probe_bracket reads the words of each factor's probe_image.  Here they,
and probe_image's relabel, must equal the Monomial-key kernels of
reference_kernels.py on seeded random operators, through both ring
reductions at the base product and at a correction, and up to the stated
exponent bound, past which every kernel refuses an operand rather than
carry into the next field.  commutator and probe_bracket skip the table
lookups that are known to be empty; the skips must be exact, and the
skipped work must stay skipped.  The layout itself must round-trip every
Monomial whose exponents fit their fields, and refuse the others.
"""

from itertools import product
from random import Random

import pytest

from quantlab import coeffring, generators, weylalgebra
from quantlab.coeffring import E2, PACK_LIMIT, R2, _ROOTS, Coefficient, Monomial, pack, unpack
from quantlab.generators import OscillatorParams, hamiltonian, k_integral, ladder_integrals
from quantlab.phasepoly import PhasePoly, poisson
from quantlab.quantizer import Scheme, quantize, quantize_ladder
from quantlab.weylalgebra import (
    Operator,
    _corrections,
    _leibniz_shifts,
    apply_to_polynomial,
    commutator,
    op_mul,
    probe_bracket,
    probe_image,
)

import reference_kernels as ref
from randgen import rand_operator

I = Coefficient.i()
HBAR = Coefficient.hbar()
LARGEST = PACK_LIMIT - 1


def _op(key: Monomial, value=1) -> Operator:
    return Operator.monomial(key, value)


def test_packed_products_match_reference_on_random_operators():
    rng = Random(20261019)
    reductions = 0
    for _ in range(400):
        left = rand_operator(rng, max_terms=4, max_exp=3)
        right = rand_operator(rng, max_terms=4, max_exp=3)
        assert op_mul(left, right) == ref.op_mul(left, right)
        assert commutator(left, right) == ref.commutator(left, right)
        reductions += any(
            k1.r and k2.r and k1.e and k2.e for k1 in left.numerators for k2 in right.numerators
        )
    # pairs of terms that meet both reductions at the base product
    assert reductions >= 50


def test_probe_bracket_matches_reference_on_random_operators():
    rng = Random(20261020)
    for _ in range(300):
        left = rand_operator(rng, max_terms=4, max_exp=3)
        right = rand_operator(rng, max_terms=4, max_exp=3)
        assert probe_bracket(left, right) == ref.probe_bracket(left, right)


def test_probe_image_matches_reference_on_random_operators():
    # the relabel written on each key; an odd c + d brings an i, which
    # meets the term's own i on the operators counted here
    rng = Random(20261022)
    meetings = 0
    for _ in range(400):
        op = rand_operator(rng, max_terms=6, max_exp=3)
        assert probe_image(op) == ref.probe_image(op)
        meetings += any(key.e and (key.c + key.d) & 1 for key in op.numerators)
    assert meetings >= 100


def test_the_root_bits_sit_at_the_named_offset():
    # the r and e fields sit at _ROOTS and _ROOTS + 2, and the masks of
    # their guard bits are derived from them
    assert pack(Monomial(r=1)) == 1 << _ROOTS and pack(Monomial(e=1)) == 4 << _ROOTS
    assert R2 == 2 * pack(Monomial(r=1)) and E2 == 2 * pack(Monomial(e=1))
    assert pack(Monomial(*[LARGEST] * 6)) >> _ROOTS == 0
    # each unit key is the key of its one-field monomial
    for field, unit in zip(Monomial._fields, "X Y PX PY HBAR OMEGA SQRT2 I".split()):
        unit = getattr(coeffring, unit)
        assert pack(Monomial(**{field: 1})) == unit
        assert unpack(unit) == Monomial(**{field: 1})
    # the round trip, on random monomials up to the top of every field
    top = (1 << 16) - 1
    rng = Random(20261101)
    monomials = [Monomial(*[top] * 6, 1, 1), Monomial()]
    for _ in range(2000):
        exps = [rng.choice((0, 1, top, rng.randint(0, top))) for _ in range(6)]
        monomials.append(Monomial(*exps, rng.randint(0, 1), rng.randint(0, 1)))
    for mono in monomials:
        assert unpack(pack(mono)) == mono
    assert len({pack(mono) for mono in monomials}) == len(set(monomials))


@pytest.mark.parametrize("field", "abcdhw")
def test_the_constructor_refuses_an_exponent_past_its_field(field):
    over = Monomial(**{field: 1 << 16})
    for cls in (Coefficient, PhasePoly, Operator):
        with pytest.raises(ValueError, match="term key"):
            cls({over: 1})
        with pytest.raises(ValueError, match="term key"):
            cls.monomial(over)
    top = Monomial(**{field: (1 << 16) - 1})
    assert Operator({top: 1}).numerators == {top: 1}


def test_both_reductions_at_the_base_and_at_a_correction():
    # sqrt2 i Px times sqrt2 X: sqrt2 * sqrt2 = 2 and an i at the base
    # product; the correction k = 1 brings (-i hbar), whose i meets it
    left, right = _op(Monomial(c=1, r=1, e=1)), _op(Monomial(a=1, r=1))
    assert commutator(left, right) == 2 * HBAR
    assert commutator(left, right) == ref.commutator(left, right)
    assert op_mul(left, right) == 2 * I * _op(Monomial(a=1, c=1)) + 2 * HBAR
    assert op_mul(left, right) == ref.op_mul(left, right)
    # i at the base from both sides, sqrt2 on one: i * i = -1 at the base,
    # then the odd correction's i stays
    left, right = _op(Monomial(c=1, d=1, e=1)), _op(Monomial(a=1, b=1, r=1, e=1))
    assert commutator(left, right) == ref.commutator(left, right)
    assert op_mul(left, right) == ref.op_mul(left, right)
    # the action: sqrt2 Px's word is -sqrt2 i hbar d/dx, and on sqrt2 i x
    # e^(sx) both reductions meet at the base term x s, which cancels
    # between the two orders; 2 hbar (1 + x s) - 2 hbar x s = 2 hbar
    left, right = _op(Monomial(c=1, r=1)), _op(Monomial(a=1, r=1, e=1))
    assert probe_bracket(left, right) == PhasePoly.monomial(Monomial(h=1), 2)
    assert probe_bracket(left, right) == ref.probe_bracket(left, right)
    # the relabel's i meets the word's own i: sqrt2 i Px is sqrt2 hbar d/dx
    left, right = _op(Monomial(c=1, r=1, e=1)), _op(Monomial(a=1, b=1, r=1, e=1))
    assert probe_bracket(left, right) == ref.probe_bracket(left, right)
    assert probe_bracket(right, left) == ref.probe_bracket(right, left)


def test_exponents_up_to_the_pack_limit_multiply_exactly():
    # every field at its largest packable value, with a correction raising
    # hbar and i on top: no field carries into the next
    big = Monomial(a=LARGEST, b=LARGEST, c=LARGEST, d=LARGEST, h=LARGEST, w=LARGEST, r=1, e=1)
    left, right = _op(Monomial(c=1, d=1, h=LARGEST, w=LARGEST, r=1, e=1)), _op(big, 3)
    assert commutator(left, right) == ref.commutator(left, right)
    assert op_mul(left, right) == ref.op_mul(left, right)
    assert commutator(right, left) == ref.commutator(right, left)
    # [px, x^L] = -i hbar L x^(L-1)
    expected = _op(Monomial(a=LARGEST - 1, h=1, e=1), -LARGEST)
    assert commutator(_op(Monomial(c=1)), _op(Monomial(a=LARGEST))) == expected
    # the action: the probe image raises hbar by c + d, so each word below
    # reaches hbar^LARGEST there, and a, b and w reach LARGEST too
    left = _op(Monomial(c=1, d=1, h=LARGEST - 2, r=1), 5)
    right = _op(Monomial(a=LARGEST, b=LARGEST, c=LARGEST, w=LARGEST, r=1, e=1), 2)
    right += _op(Monomial(a=2, b=LARGEST, d=LARGEST), -1)
    assert probe_bracket(left, right) == ref.probe_bracket(left, right)
    assert probe_bracket(right, left) == ref.probe_bracket(right, left)


@pytest.mark.parametrize("field", "abcdhw")
def test_exponents_at_the_pack_limit_are_refused(field):
    over = Monomial(**{field: PACK_LIMIT})
    px = _op(Monomial(c=1))
    for left, right in ((px, _op(over)), (_op(over), px)):
        with pytest.raises(ValueError, match="packed key"):
            commutator(left, right)
        with pytest.raises(ValueError, match="packed key"):
            op_mul(left, right)
        with pytest.raises(ValueError, match="packed key"):
            probe_bracket(left, right)


def _weyl_of(poly: PhasePoly) -> Operator:
    return quantize(Scheme.WEYL, poly)


# Each kernel with the classes of its operands.
_KERNELS = {
    "*": (lambda f, g: f * g, PhasePoly, PhasePoly),
    "poisson": (poisson, PhasePoly, PhasePoly),
    "quantize": (_weyl_of, PhasePoly),
    "op_mul": (op_mul, Operator, Operator),
    "commutator": (commutator, Operator, Operator),
    "probe_image": (probe_image, Operator),
    "probe_bracket": (probe_bracket, Operator, Operator),
    "apply_to_polynomial": (apply_to_polynomial, Operator, PhasePoly),
}


@pytest.mark.parametrize("field", "abcdhw")
@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_every_kernel_refuses_an_operand_exponent_at_the_pack_limit(kernel, field):
    # on either operand: a stored key holds it, but a kernel's sums could
    # carry it into the next field
    fn, *classes = _KERNELS[kernel]
    over, x = Monomial(**{field: PACK_LIMIT}), Monomial(a=1)
    for side in range(len(classes)):
        args = [cls.monomial(over if index == side else x) for index, cls in enumerate(classes)]
        with pytest.raises(ValueError, match="packed key"):
            fn(*args)


class _Built(Exception):
    pass


def test_the_ladder_builds_refuse_m_or_n_at_the_pack_limit(monkeypatch):
    # refused before any term is built: no ladder power is written
    def refuse(*args):
        raise _Built

    monkeypatch.setattr(generators, "_ladder_power", refuse)
    builds = (
        k_integral,
        ladder_integrals,
        lambda params: quantize_ladder(params, 1),
        lambda params: quantize_ladder(params, 2),
    )
    for m, n in ((PACK_LIMIT, 1), (1, PACK_LIMIT), (PACK_LIMIT, PACK_LIMIT)):
        for build in builds:
            with pytest.raises(ValueError, match="packed key"):
                build(OscillatorParams(m, n))
    # just below the limit the build starts
    for build in builds:
        with pytest.raises(_Built):
            build(OscillatorParams(LARGEST, LARGEST))


@pytest.mark.parametrize("key", [Monomial(c=1, h=LARGEST), Monomial(c=LARGEST, d=1)])
def test_a_probe_image_hbar_at_the_pack_limit_is_refused(key):
    # the probe image raises hbar by c + d, to PACK_LIMIT here
    assert probe_image(_op(key)).numerators
    x = _op(Monomial(a=1))
    for left, right in ((x, _op(key)), (_op(key), x)):
        with pytest.raises(ValueError, match="packed key"):
            probe_bracket(left, right)
    below = key._replace(h=key.h - 1) if key.h else key._replace(c=key.c - 1)
    assert probe_bracket(x, _op(below)) == ref.probe_bracket(x, _op(below))


def test_a_table_is_empty_exactly_when_its_words_commute():
    # the kernels' test before a lookup, on every exponent up to 6
    for s1, r1, s2, r2 in product(range(7), repeat=4):
        commute = not (s1 and r1 or s2 and r2)
        assert (_corrections(s1, r1, s2, r2) == ()) == commute
        assert (_leibniz_shifts(s1, r1, s2, r2) == ()) == commute


def _weyl(poly: PhasePoly) -> Operator:
    return quantize(Scheme.WEYL, poly)


def _assert_kernels_match_reference(left: Operator, right: Operator) -> None:
    for a, b in ((left, right), (right, left)):
        assert commutator(a, b) == ref.commutator(a, b)
        assert probe_bracket(a, b) == ref.probe_bracket(a, b)


def test_a_plain_left_operand_against_rights_with_i_and_sqrt2():
    # every term of Weyl(H) has neither sqrt2 nor i, so its base is not
    # reduced; the right operands carry both, and the other order reduces
    rng = Random(20261023)
    rights = [quantize_ladder(OscillatorParams(2, 3), 1), quantize_ladder(OscillatorParams(3, 1), 2)]
    rights += [rand_operator(rng, max_terms=6, max_exp=3) for _ in range(40)]
    keys = [key for op in rights for key in op.numerators]
    assert any(key.r for key in keys) and any(key.e for key in keys)
    for m, n in ((1, 1), (2, 1), (3, 2), (1, 4)):
        h_op = _weyl(hamiltonian(OscillatorParams(m, n)))
        assert not any(key.r or key.e for key in h_op.numerators)
        for right in rights:
            _assert_kernels_match_reference(h_op, right)


def test_a_left_operand_whose_every_term_has_sqrt2_or_i():
    rng = Random(20261024)
    for _ in range(150):
        left = Operator.zero()
        for key, value in rand_operator(rng, max_terms=5, max_exp=3).numerators.items():
            r, e = rng.choice(((1, 0), (0, 1), (1, 1)))
            left += _op(key._replace(r=r, e=e), value)
        assert all(key.r or key.e for key in left.numerators)
        _assert_kernels_match_reference(left, rand_operator(rng, max_terms=5, max_exp=3))


def _counted(monkeypatch, name: str) -> list:
    """The argument tuples of each call of weylalgebra's table name."""
    calls = []
    table = getattr(weylalgebra, name)

    def counted(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(weylalgebra, name, counted)
    return calls


def _directions(left: Operator, right: Operator) -> int:
    """The directions of the term pairs whose table can be nonempty: a
    word with c (d) acting on one with a (b)."""
    return sum(
        bool(k1.c and k2.a or k1.d and k2.b) + bool(k2.c and k1.a or k2.d and k1.b)
        for k1 in left.numerators
        for k2 in right.numerators
    )


def test_a_table_is_looked_up_only_where_it_can_be_nonempty(monkeypatch):
    corrections = _counted(monkeypatch, "_corrections")
    shifts = _counted(monkeypatch, "_leibniz_shifts")
    x2, y2 = _op(Monomial(a=2)), _op(Monomial(b=2))
    assert commutator(x2, y2).is_zero()
    assert probe_bracket(x2, y2).is_zero()
    assert corrections == [] and shifts == []
    for m, n in ((2, 1), (3, 2)):
        params = OscillatorParams(m, n)
        h_op, k_op = _weyl(hamiltonian(params)), _weyl(k_integral(params))
        expected = _directions(h_op, k_op)
        assert expected < 2 * len(h_op.numerators) * len(k_op.numerators)
        corrections.clear()
        shifts.clear()
        commutator(h_op, k_op)
        probe_bracket(h_op, k_op)
        assert (len(corrections), len(shifts)) == (expected, expected)
