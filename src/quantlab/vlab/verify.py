"""Verification pipelines over (m, n) parameter grids.

One pipeline, verify_pair(m, n, target), makes every record.  It builds
the integral K, F1 or F2 of the pair, records whether its bracket with
the Hamiltonian vanishes, quantizes it under both ordering rules,
computes both commutators with the quantized Hamiltonian, and
cross-checks every symbolic commutator against the differential action
on one exponential probe e^(sx+ty), s and t symbolic: the claimed
commutator's image of the probe (weylalgebra.probe_image) must equal the
bracket of the two factors' actions on it (weylalgebra.probe_bracket).

No operator product is taken.  H is quadratic, so both commutators come
from classical brackets (quantizer.weyl_commutator), and Born-Jordan is
Weyl after the Cohen multiplier T (quantizer.bj_excess): the record's
BJ - W is the Weyl image of (T - 1) f, and [H, BJ] = [H, W] + [H, BJ - W]
by bilinearity.  The action oracle never calls the normal-ordering
product, its swap weights or these identities, and only weylalgebra
handles its keys, so a wrong identity is caught per record.  A nonzero
bracket is reported by failed_claims; it does not stop a sweep.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from quantlab import render
from quantlab.coeffring import Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral
from quantlab.phasepoly import poisson
from quantlab.quantizer import Scheme, bj_excess, quantize, quantize_ladder, weyl_commutator
from quantlab.weylalgebra import (
    Operator,
    classical_symbol,
    min_hbar_exponent,
    min_omega_exponent,
    probe_bracket,
    probe_image,
)

# The target table.  A Target is an integral a record verifies: its name
# in records and on the command line, its LaTeX symbol, and the w of the
# ladder integral F_w it builds (quantizer.quantize_ladder), None for the
# integral K.  SWEEP_TARGETS gives the targets of each sweep target, in
# record order.
Target = namedtuple("Target", "name latex ladder")
K, F1, F2 = Target("k", "K", None), Target("f1", "F_1", 1), Target("f2", "F_2", 2)
TARGETS = {target.name: target for target in (K, F1, F2)}
SWEEP_TARGETS = {K.name: (K,), "f": (F1, F2)}


def _lookup(table: dict, target):
    """table[target], or ValueError naming the targets of table."""
    if isinstance(target, str) and target in table:
        return table[target]
    raise ValueError(f"target must be one of {', '.join(map(repr, table))}")


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


def verify_pair(m: int, n: int, target: str = K.name) -> VerificationRecord:
    """Run the full pipeline on the integral target (a name in TARGETS) of
    (m, n).  A ladder target is also quantized directly, its classical
    integral is that operator's symbol, and the record says whether the
    operator coincides with Weyl's."""
    spec = _lookup(TARGETS, target)
    params = OscillatorParams(m, n)
    ladder_op = None if spec.ladder is None else quantize_ladder(params, spec.ladder)
    classical = k_integral(params) if ladder_op is None else classical_symbol(ladder_op)
    h = hamiltonian(params)
    bracket = poisson(h, classical)
    h_op = quantize(Scheme.WEYL, h)
    weyl_op = quantize(Scheme.WEYL, classical)
    excess = bj_excess(classical)
    diff = quantize(Scheme.WEYL, excess)
    # The schemes agree at orders hbar^0 and hbar^1, so the difference is
    # the smaller operator.  [H, BJ] = [H, W] + [H, BJ - W] by
    # bilinearity, and the oracle checks the two terms one by one.
    weyl_comm = weyl_commutator(h, bracket)
    diff_comm = weyl_commutator(h, poisson(h, excess))
    bj_comm = weyl_comm + diff_comm
    scheme = "weyl"
    check = commutator_matches_action(h_op, weyl_op, weyl_comm)
    if check:
        scheme = "bj"
        check = commutator_matches_action(h_op, diff, diff_comm)
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
    """A refuted commutator: direct is the claimed commutator's image of
    e^(sx+ty) (probe_image) and nested is left(right(e)) - right(left(e))
    (probe_bracket), each a PhasePoly in x, y, s, t (s and t in the px and
    py slots), so direct - nested is the symbol of the error; term is the
    first derivative word, in render order, on which the two differ.

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
    probe_image(D), is zero only when D is.  The nested side applies the
    words of one factor to the other's image by the Leibniz rule,
    d^c/dx^c (x^i s^u e^(sx)) = sum_k C(c,k) i!/(i-k)! x^(i-k) s^(u+c-k) e^(sx),
    and likewise in y (probe_bracket).  Both images are in lowest terms,
    so the check is their equality.
    """
    nested = probe_bracket(left, right)
    direct = probe_image(comm)
    if nested == direct:
        return True
    # the first phase part of the error's grouped view, in render order
    term = Monomial(*(nested - direct).groups[0][0])
    return Disagreement(term, direct, nested)


def sweep(max_sum: int, target: str = K.name) -> list[VerificationRecord]:
    """Records for all m, n >= 1 with m + n <= max_sum.

    Deterministic order: m + n ascending, then m ascending, then the
    targets that target expands to (SWEEP_TARGETS).  Each record is the
    one verify_pair returns for its pair and target.
    """
    if not isinstance(max_sum, int) or max_sum < 2:
        raise ValueError("max_sum must be an integer >= 2")
    targets = _lookup(SWEEP_TARGETS, target)
    return [
        verify_pair(m, s - m, t.name)
        for s in range(2, max_sum + 1)
        for m in range(1, s)
        for t in targets
    ]


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
            word = render.key_text(term[:4], "differential", render.TEXT)
            detail = f" ({scheme} check, first differing term {word})"
        fails.append(f"{where}: symbolic commutator disagrees with action oracle{detail}")
    if not record.weyl_commutes:
        fails.append(f"{where}: Weyl commutator is nonzero")
    if record.bj_equals_weyl:
        if not record.bj_commutes:
            fails.append(f"{where}: schemes coincide but BJ commutator is nonzero")
    elif record.bj_commutes:
        fails.append(f"{where}: schemes differ but BJ commutator vanishes")
    else:
        if record.min_h_exp < 2:
            fails.append(f"{where}: BJ commutator term with hbar exponent < 2")
        if record.min_w_exp < 1:
            fails.append(f"{where}: BJ commutator term with omega exponent < 1")
    return fails
