"""The exponential-probe action oracle against a probe rectangle.

commutator_matches_action acts once on e^(sx+ty).  The rectangle here is
the slower cross-check it replaced: it applies both sides to every
position monomial x^i y^j up to the derivative orders in play, where an
operator that vanishes on all of them is zero.  The two must give the
same verdict on every triple, and the exponential probe must name the
error's symbol exactly.
"""

from random import Random

import pytest

from quantlab import coeffring, render, weylalgebra
from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral
from quantlab.phasepoly import PhasePoly
from quantlab.quantizer import Scheme, quantize
from quantlab.vlab import verify as verify_module
from quantlab.vlab.verify import commutator_matches_action
from quantlab.weylalgebra import Operator, apply_to_polynomial, commutator, probe_image

from reference_kernels import x_hat
from randgen import rand_operator
from test_vlab import _WRONG_TERM

BJ_ERROR = x_hat() * Coefficient.hbar(3)


def _max_order(op: Operator, slot: int) -> int:
    return max((key[slot] for key in op.numerators), default=0)


def rectangle_verdict(left: Operator, right: Operator, comm: Operator) -> bool:
    """Whether comm = [left, right] on every probe x^i y^j of the rectangle
    bounded, in each variable, by the larger of the factors' summed
    derivative orders and the claimed commutator's own."""
    x_bound, y_bound = (
        max(_max_order(left, slot) + _max_order(right, slot), _max_order(comm, slot))
        for slot in (2, 3)
    )
    for i in range(x_bound + 1):
        for j in range(y_bound + 1):
            probe = PhasePoly.monomial(Monomial(a=i, b=j))
            direct = apply_to_polynomial(comm, probe)
            nested = apply_to_polynomial(left, apply_to_polynomial(right, probe)) - (
                apply_to_polynomial(right, apply_to_polynomial(left, probe))
            )
            if direct != nested:
                return False
    return True


def assert_refutes(left: Operator, right: Operator, comm: Operator, error: Operator) -> None:
    """Both oracles reject comm + error, and the exponential probe returns
    error's symbol and names its first word in render order."""
    assert not rectangle_verdict(left, right, comm + error)
    result = commutator_matches_action(left, right, comm + error)
    assert not result
    symbol = probe_image(error)
    assert result.direct - result.nested == symbol
    assert result.term == Monomial(*render.ordered({key[:4] for key in symbol.numerators})[0])


PAIRS = [(m, total - m) for total in range(2, 13) for m in range(1, total)]


@pytest.mark.parametrize("m, n", PAIRS)
def test_exponential_probe_matches_rectangle_on_k(m, n):
    params = OscillatorParams(m, n)
    h_op = quantize(Scheme.WEYL, hamiltonian(params))
    for scheme in Scheme:
        op = quantize(scheme, k_integral(params))
        comm = commutator(h_op, op)
        assert commutator_matches_action(h_op, op, comm) is True
        assert rectangle_verdict(h_op, op, comm)
        if scheme is Scheme.BORN_JORDAN:
            for error in (BJ_ERROR, _WRONG_TERM):
                assert_refutes(h_op, op, comm, error)


def test_exponential_probe_matches_rectangle_random():
    # 300 triples, every other one perturbed by a nonzero random operator
    rng = Random(20261018)
    for index in range(300):
        left = rand_operator(rng, max_terms=3, max_exp=3)
        right = rand_operator(rng, max_terms=3, max_exp=3)
        comm = commutator(left, right)
        if index % 2:
            error = Operator.zero()
            while not error:
                error = rand_operator(rng, max_terms=2, max_exp=3)
            assert_refutes(left, right, comm, error)
        else:
            assert commutator_matches_action(left, right, comm) is True
            assert rectangle_verdict(left, right, comm)


def _code_names(code) -> set[str]:
    """Global and attribute names of a code object and its nested ones."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def test_exponential_probe_references_no_normal_ordering_kernel():
    # the Leibniz weight C(c,k) i!/(i-k)! equals swap_weight(c, i, k); the
    # oracle derives it from its own derivative rule instead, and it runs
    # its own pass over term pairs, not op_mul's product loop or a helper
    # split out of it (_expand).  The key helpers of coeffring that it
    # reads (phase_terms and _folded) are checked with it
    kernel = (
        verify_module.commutator_matches_action,
        weylalgebra._leibniz_shifts.__wrapped__,
        weylalgebra.probe_image,
        weylalgebra.probe_bracket,
        weylalgebra.apply_to_polynomial,
        coeffring.phase_terms,
        coeffring._checked,
        coeffring._folded,
    )
    names = set().union(*(_code_names(fn.__code__) for fn in kernel))
    assert {"_leibniz_shifts", "phase_terms", "_folded"} <= names
    assert not names & {"swap_weight", "_corrections", "op_mul", "commutator", "_expand"}


def test_only_weylalgebra_handles_the_oracles_packed_keys():
    # verify compares two images; reading keys, acting and reducing stay
    # in weylalgebra and coeffring
    for name in ("phase_terms", "_folded", "_reduced"):
        assert not hasattr(verify_module, name)


def test_each_oracle_check_makes_one_bracket_and_one_image(monkeypatch):
    # left(right(e)) - right(left(e)) in one probe_bracket, and the claimed
    # commutator's image of e^(sx+ty), a relabel of its words, in one
    # probe_image; agreeing or refuted, a check makes no other call
    calls = []

    def counting(name):
        original = getattr(verify_module, name)

        def count(*args):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(verify_module, name, count)

    counting("probe_bracket")
    counting("probe_image")
    params = OscillatorParams(3, 2)
    h_op = quantize(Scheme.WEYL, hamiltonian(params))
    op = quantize(Scheme.BORN_JORDAN, k_integral(params))
    comm = commutator(h_op, op)
    for claimed, verdict in ((comm, True), (comm + BJ_ERROR, False)):
        calls.clear()
        assert bool(commutator_matches_action(h_op, op, claimed)) is verdict
        assert calls == [("probe_bracket", (h_op, op)), ("probe_image", (claimed,))]
