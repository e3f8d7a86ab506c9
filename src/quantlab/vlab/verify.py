"""Verification pipelines over (m, n) parameter grids.

Each pipeline builds a classical integral, records whether its bracket
with the Hamiltonian vanishes, quantizes it under both ordering rules,
computes both commutators with the quantized Hamiltonian, and
cross-checks every symbolic commutator against the differential action
on one exponential probe e^(sx+ty), s and t symbolic.  The action oracle
never calls the normal-ordering product or its swap weights: it applies
the derivative words of each operator by the Leibniz rule (weylalgebra.act),
and the Born-Jordan commutator is checked through its difference from the
Weyl one.  A nonzero bracket is reported by failed_claims; it does not
stop a sweep.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from quantlab import render
from quantlab.coeffring import Monomial, _reduced, unpack_terms
from quantlab.generators import OscillatorParams, hamiltonian, k_integral
from quantlab.phasepoly import PhasePoly, poisson
from quantlab.quantizer import Scheme, quantize, quantize_ladder
from quantlab.weylalgebra import (
    Operator,
    act,
    classical_symbol,
    commutator,
    derivative_words,
    min_hbar_exponent,
    min_omega_exponent,
)

TARGET_K = "k"


@dataclass
class VerificationRecord:
    """Per-(m, n) outcome of one verification run."""

    m: int
    n: int
    target: str
    classical_bracket_zero: bool
    bj_equals_weyl: bool
    weyl_commutes: bool
    bj_commutes: bool
    bj_minus_weyl: Operator
    weyl_commutator: Operator
    bj_commutator: Operator
    min_h_exp: int
    min_w_exp: int
    oracle_agreement: bool
    ladder_equals_weyl: bool | None = None
    # scheme ("weyl" or "bj") and first differing derivative word
    # x^a y^b d^c/dx^c d^d/dy^d of a failed oracle check; failed_claims
    # names it, record_json and the record reports omit it
    oracle_failure: tuple[str, Monomial] | None = None


def verify_pair(m: int, n: int) -> VerificationRecord:
    """Run the full pipeline on the polynomial integral K of (m, n)."""
    params = OscillatorParams(m, n)
    return _verify(params, k_integral(params), TARGET_K, ladder_op=None)


def verify_ladder_pair(m: int, n: int, which: int = 1) -> VerificationRecord:
    """Run the pipeline on ladder integral F1 or F2, and also record
    whether direct ladder quantization coincides with the Weyl operator.
    The classical integral is the symbol of the one ladder operator built."""
    params = OscillatorParams(m, n)
    ladder_op = quantize_ladder(params, which)
    return _verify(params, classical_symbol(ladder_op), f"f{which}", ladder_op)


def _verify(
    params: OscillatorParams,
    classical: PhasePoly,
    target: str,
    ladder_op: Operator | None,
) -> VerificationRecord:
    h = hamiltonian(params)
    bracket = poisson(h, classical)
    h_op = quantize(Scheme.WEYL, h)
    weyl_op = quantize(Scheme.WEYL, classical)
    bj_op = quantize(Scheme.BORN_JORDAN, classical)
    diff = bj_op - weyl_op
    weyl_comm = commutator(h_op, weyl_op)
    bj_comm = commutator(h_op, bj_op)
    # By linearity, once [H, W] = weyl_comm holds, [H, BJ] = bj_comm holds
    # exactly when [H, BJ - W] = bj_comm - weyl_comm does.
    scheme = "weyl"
    check = commutator_matches_action(h_op, weyl_op, weyl_comm)
    if check:
        scheme = "bj"
        check = commutator_matches_action(h_op, diff, bj_comm - weyl_comm)
    return VerificationRecord(
        m=params.m,
        n=params.n,
        target=target,
        classical_bracket_zero=bracket.is_zero(),
        bj_equals_weyl=diff.is_zero(),
        weyl_commutes=weyl_comm.is_zero(),
        bj_commutes=bj_comm.is_zero(),
        bj_minus_weyl=diff,
        weyl_commutator=weyl_comm,
        bj_commutator=bj_comm,
        min_h_exp=min_hbar_exponent(bj_comm),
        min_w_exp=min_omega_exponent(bj_comm),
        oracle_agreement=bool(check),
        ladder_equals_weyl=None if ladder_op is None else ladder_op == weyl_op,
        oracle_failure=None if check else (scheme, check.term),
    )


class Disagreement(namedtuple("Disagreement", "term direct nested")):
    """A refuted commutator: term is the first derivative word, in render
    order, on which the two sides differ; direct is the claimed commutator's
    image of e^(sx+ty) and nested is left(right(e)) - right(left(e)), each a
    PhasePoly in x, y, s, t (s and t in the px and py slots), so
    direct - nested is the symbol of the error.

    Falsy, so a caller can test the oracle's answer as a bool.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False


def commutator_matches_action(
    left: Operator, right: Operator, comm: Operator
) -> bool | Disagreement:
    """Check a symbolic commutator comm = [left, right] against the action.

    Returns True on agreement, else the Disagreement.  One probe decides:
    for D = sum c x^a y^b d^c/dx^c d^d/dy^d,
    D e^(sx+ty) = (sum c x^a y^b s^c t^d) e^(sx+ty), and that polynomial,
    the derivative words of D read with (c, d) as exponents of s and t,
    is zero only when D is.  The nested side applies the words of one
    factor to the other's image by the Leibniz rule,
    d^c/dx^c (x^i s^u e^(sx)) = sum_k C(c,k) i!/(i-k)! x^(i-k) s^(u+c-k) e^(sx),
    and likewise in y (weylalgebra.act).  The check is
    left(right(e)) - right(left(e)) - comm(e) == 0 on numerators, the
    three denominators cleared by cross-multiplying.
    """
    left_words, right_words, comm_words = (derivative_words(op) for op in (left, right, comm))
    scale = left.denominator * right.denominator
    acc: dict = {}  # packed: nested - direct, over scale * comm.denominator
    act(acc, left_words, right_words, comm.denominator)
    act(acc, right_words, left_words, -comm.denominator)
    act(acc, comm_words, {Monomial(): 1}, -scale)
    diff = unpack_terms(acc)
    if not diff:
        return True
    term = Monomial(*render.ordered({key[:4] for key in diff})[0])
    direct = _reduced(PhasePoly, comm_words, comm.denominator)
    return Disagreement(term, direct, direct + _reduced(PhasePoly, diff, scale * comm.denominator))


def sweep(max_sum: int, target: str = TARGET_K) -> list[VerificationRecord]:
    """Records for all m, n >= 1 with m + n <= max_sum.

    Deterministic order: m + n ascending, then m ascending.  target "k"
    verifies the polynomial integrals; target "f" verifies both ladder
    integrals for each pair.
    """
    if not isinstance(max_sum, int) or max_sum < 2:
        raise ValueError("max_sum must be an integer >= 2")
    if target not in ("k", "f"):
        raise ValueError("target must be 'k' or 'f'")
    records = []
    for total in range(2, max_sum + 1):
        for m in range(1, total):
            n = total - m
            if target == TARGET_K:
                records.append(verify_pair(m, n))
            else:
                records.append(verify_ladder_pair(m, n, 1))
                records.append(verify_ladder_pair(m, n, 2))
    return records


def failed_claims(record: VerificationRecord) -> list[str]:
    """Checked claims that the record violates; empty when all hold.

    The claims: the classical bracket vanishes, the action oracle agrees,
    the Weyl operator commutes, and the Born-Jordan operator commutes
    exactly when it coincides with Weyl's, with every term of a nonzero
    Born-Jordan commutator carrying hbar^2 and omega as factors.
    """
    where = f"(m, n) = ({record.m}, {record.n}), target {record.target}"
    fails = []
    if not record.classical_bracket_zero:
        fails.append(f"{where}: classical bracket is nonzero")
    if not record.oracle_agreement:
        detail = ""
        if record.oracle_failure is not None:
            scheme, term = record.oracle_failure
            word = render.TEXT.join.join(render.differential_factors(term, render.TEXT)) or "1"
            detail = f" ({scheme} check, first differing term {word})"
        fails.append(f"{where}: symbolic commutator disagrees with action oracle{detail}")
    if not record.weyl_commutes:
        fails.append(f"{where}: Weyl commutator is nonzero")
    if record.bj_equals_weyl:
        if not record.bj_commutes:
            fails.append(f"{where}: schemes coincide but BJ commutator is nonzero")
    else:
        if record.bj_commutes:
            fails.append(f"{where}: schemes differ but BJ commutator vanishes")
        else:
            if record.min_h_exp < 2:
                fails.append(f"{where}: BJ commutator term with hbar exponent < 2")
            if record.min_w_exp < 1:
                fails.append(f"{where}: BJ commutator term with omega exponent < 1")
    return fails
