"""The packed-key kernels of weylalgebra against tuple-key references.

op_mul, commutator, act and adjoint pack each input map's keys into one int
(coeffring.pack_terms) and unpack their result once.  Here they must
equal the Monomial-key kernels of reference_kernels.py on seeded random
operators, through both ring reductions at the base product and at a
correction, and up to the stated exponent bound, past which packing
refuses rather than carries into the next field.
"""

from random import Random

import pytest

from quantlab import weylalgebra
from quantlab.coeffring import PACK_LIMIT, Coefficient, Monomial, TermMap, pack_terms, unpack_terms
from quantlab.weylalgebra import Operator, act, adjoint, commutator, op_mul

import reference_kernels as ref
from randgen import rand_operator

I = Coefficient.i()
HBAR = Coefficient.hbar()
LARGEST = PACK_LIMIT - 1


def _op(key: Monomial, value=1) -> Operator:
    return Operator.monomial(key, value)


def packed_act(words: dict, state: dict, scale: int = 1) -> dict:
    acc: dict = {}
    act(acc, pack_terms(words), pack_terms(state), scale)
    return unpack_terms(acc)


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


def test_packed_action_matches_reference_on_random_operators():
    rng = Random(20261020)
    for index in range(300):
        words = rand_operator(rng, max_terms=4, max_exp=3).numerators
        state = rand_operator(rng, max_terms=4, max_exp=3).numerators
        scale = index % 7 - 3
        assert packed_act(words, state, scale) == ref.act(words, state, scale)


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
    # the action: (sqrt2 i)^2 d/dx (x e^(sx)) = -2 (1 + x s) e^(sx)
    words, state = {Monomial(c=1, r=1, e=1): 1}, {Monomial(a=1, r=1, e=1): 1}
    assert packed_act(words, state) == {Monomial(): -2, Monomial(a=1, c=1): -2}
    assert packed_act(words, state) == ref.act(words, state)


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
    words = {Monomial(c=1, d=1, h=LARGEST, r=1): 5}
    state = {big: 2, Monomial(a=2, b=LARGEST, d=LARGEST): -1}
    assert packed_act(words, state, -3) == ref.act(words, state, -3)


@pytest.mark.parametrize("field", "abcdhw")
def test_exponents_at_the_pack_limit_are_refused(field):
    over = Monomial(**{field: PACK_LIMIT})
    px = _op(Monomial(c=1))
    for left, right in ((px, _op(over)), (_op(over), px)):
        with pytest.raises(ValueError, match="packed key"):
            commutator(left, right)
        with pytest.raises(ValueError, match="packed key"):
            op_mul(left, right)
    for words, state in (({over: 1}, {Monomial(): 1}), ({Monomial(c=1): 1}, {over: 1})):
        with pytest.raises(ValueError, match="packed key"):
            packed_act(words, state)


def _meets_correction_i(key: Monomial) -> bool:
    """An i on a term whose reversed word Px^c Py^d X^a Y^b has an odd
    correction, whose (-i hbar)^k brings an i of its own."""
    return bool(key.e and (min(key.a, key.c) or min(key.b, key.d)))


def test_packed_adjoint_matches_reference_on_random_operators():
    rng = Random(20261021)
    meetings = 0
    for _ in range(600):
        op = rand_operator(rng, max_terms=6, max_exp=3)
        assert adjoint(op) == ref.adjoint(op)
        meetings += any(map(_meets_correction_i, op.numerators))
    # operators with a term whose i meets a correction's i
    assert meetings >= 100


def test_adjoint_folds_a_correction_i_into_the_term_i():
    # (i X Px)^+ = -i Px X = -i X Px - hbar: the correction's -i hbar
    # meets the conjugated -i
    op = I * _op(Monomial(a=1, c=1))
    assert adjoint(op) == -I * _op(Monomial(a=1, c=1)) - HBAR
    assert adjoint(op) == ref.adjoint(op)
    # sqrt2 and i on one term, corrections in both pairs
    op = _op(Monomial(a=2, b=1, c=1, d=3, r=1, e=1), 5) + _op(Monomial(a=1, d=1, h=2, e=1), -3)
    assert adjoint(op) == ref.adjoint(op)
    assert adjoint(adjoint(op)) == op


def test_adjoint_up_to_the_pack_limit():
    # every field at its largest packable value; the words keep the other
    # exponent of each pair small, so the reference's corrections are few
    terms = (
        Monomial(a=1, b=LARGEST, c=LARGEST, d=2, h=LARGEST, w=LARGEST, r=1, e=1),
        Monomial(a=LARGEST, b=1, c=2, d=LARGEST, h=LARGEST - 1, e=1),
        Monomial(a=LARGEST, b=LARGEST, w=LARGEST, r=1),
    )
    op = _op(terms[0], 3) + _op(terms[1], -2) + _op(terms[2], 7)
    assert adjoint(op) == ref.adjoint(op)


@pytest.mark.parametrize("field", "abcdhw")
def test_adjoint_at_the_pack_limit_is_refused(field):
    op = _op(Monomial(a=1, c=1)) + _op(Monomial(**{field: PACK_LIMIT}))
    with pytest.raises(ValueError, match="packed key"):
        adjoint(op)


def test_adjoint_runs_no_product_and_no_sum_per_term(monkeypatch):
    def refuse(*args):
        raise AssertionError("adjoint builds its result in one accumulator")

    op = _op(Monomial(a=2, c=1, e=1), 3) + _op(Monomial(b=1, d=2, r=1), -1) + _op(Monomial(a=1))
    expected = ref.adjoint(op)
    monkeypatch.setattr(weylalgebra, "op_mul", refuse)
    monkeypatch.setattr(TermMap, "_combine", refuse)
    assert adjoint(op) == expected
