"""Verification pipelines and report rendering."""

import json
from itertools import count

import pytest

from quantlab import quantizer, weylalgebra
from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.quantizer import Scheme, bj_excess, quantize, quantize_ladder
from quantlab.vlab import verify as verify_module
from quantlab.vlab.parser import MAX_SUM
from quantlab.vlab.report import (
    SWEEP_NOTE,
    operator_json,
    record_json,
    record_latex,
    record_text,
    render_sweep,
)
from quantlab.vlab.verify import (
    commutator_matches_action,
    failed_claims,
    sweep,
    verify_pair,
)
from quantlab.weylalgebra import Operator, classical_symbol, commutator

from reference_kernels import px_hat, py_hat, x_hat

# x, a nonzero operator to store as a record's commutator
_X = Operator.monomial(Monomial(a=1))


def test_verify_four_one():
    record = verify_pair(4, 1)
    assert record.classical_bracket_zero
    assert not record.bj_equals_weyl
    assert record.weyl_commutes
    assert not record.bj_commutes
    assert record.bj_minus_weyl == x_hat() * (
        Coefficient.hbar(2) * Coefficient.omega(2) * 32
    )
    assert record.weyl_commutator.is_zero()
    assert record.bj_commutator == px_hat() * (
        Coefficient.i() * Coefficient.hbar(3) * Coefficient.omega(2) * -32
    )
    assert record.min_h_exp == 3
    assert record.min_w_exp == 2
    assert record.oracle_agreement
    assert not failed_claims(record)


def test_verify_two_one():
    record = verify_pair(2, 1)
    assert record.bj_equals_weyl
    assert record.weyl_commutes
    assert record.bj_commutes
    assert record.bj_minus_weyl.is_zero()
    assert record.min_h_exp == 0 and record.min_w_exp == 0
    assert not failed_claims(record)


def test_verify_three_four():
    record = verify_pair(3, 4)
    assert not record.bj_equals_weyl
    assert record.weyl_commutes
    assert not record.bj_commutes
    assert record.min_h_exp >= 2
    assert record.min_w_exp >= 1
    assert not failed_claims(record)


def test_verify_rejects_bad_params():
    with pytest.raises(ValueError):
        verify_pair(0, 1)
    with pytest.raises(ValueError):
        verify_pair(1, 0, "f1")
    with pytest.raises(ValueError):
        verify_pair(1, 1, "f3")


@pytest.mark.parametrize("target", ["f", "K", None, 1])
def test_verify_pair_refuses_an_unknown_target_before_building(monkeypatch, target):
    def tripwire(*args):
        raise AssertionError("a term was built for an unknown target")

    monkeypatch.setattr(verify_module, "k_integral", tripwire)
    monkeypatch.setattr(verify_module, "quantize_ladder", tripwire)
    with pytest.raises(ValueError, match="target must be one of 'k', 'f1', 'f2'"):
        verify_pair(1, 1, target)


def _integral(params, target):
    """The classical integral that verify_pair verifies for target."""
    ladder = verify_module.TARGETS[target].ladder
    if ladder is None:
        return k_integral(params)
    return classical_symbol(quantize_ladder(params, ladder))


def test_record_commutators_are_the_commutators_of_the_quantized_pair():
    # Three routes to a record's operators: the record's own, from the
    # classical bracket and the Cohen multiplier; quantizing f under each
    # scheme and taking the normal-ordering commutator with Q(H); and, for
    # BJ - W, subtracting the two quantized operators.  Every pair that the
    # commands accept, for every target.
    records = sweep(MAX_SUM, "k") + sweep(MAX_SUM, "f")
    assert len(records) == 3 * MAX_SUM * (MAX_SUM - 1) // 2
    for record in records:
        params = OscillatorParams(record.m, record.n)
        ops = {scheme: quantize(scheme, _integral(params, record.target)) for scheme in Scheme}
        where = (record.m, record.n, record.target)
        assert record.bj_minus_weyl == ops[Scheme.BORN_JORDAN] - ops[Scheme.WEYL], where
        for scheme, comm in (
            (Scheme.WEYL, record.weyl_commutator),
            (Scheme.BORN_JORDAN, record.bj_commutator),
        ):
            want = commutator(quantize(scheme, hamiltonian(params)), ops[scheme])
            assert comm == want, where + (scheme,)


def test_verify_ladder_isotropic():
    f1 = verify_pair(1, 1, "f1")
    assert f1.weyl_commutes
    assert f1.bj_equals_weyl
    assert f1.ladder_equals_weyl is True
    f2 = verify_pair(1, 1, "f2")
    assert f2.weyl_commutes
    assert f2.ladder_equals_weyl is True


def test_verify_ladder_two_one():
    record = verify_pair(2, 1, "f1")
    assert record.weyl_commutes
    assert record.classical_bracket_zero
    assert record.oracle_agreement
    assert isinstance(record.bj_equals_weyl, bool)


def test_sweep_minimal():
    records = sweep(2, "k")
    assert len(records) == 1
    assert (records[0].m, records[0].n) == (1, 1)


def test_sweep_order_and_contents():
    records = sweep(5, "k")
    pairs = [(r.m, r.n) for r in records]
    assert pairs == sorted(pairs, key=lambda p: (p[0] + p[1], p[0]))
    assert pairs == [
        (1, 1),
        (1, 2), (2, 1),
        (1, 3), (2, 2), (3, 1),
        (1, 4), (2, 3), (3, 2), (4, 1),
    ]
    by_pair = {(r.m, r.n): r for r in records}
    four_one = by_pair[(4, 1)]
    assert four_one.bj_minus_weyl == x_hat() * (
        Coefficient.hbar(2) * Coefficient.omega(2) * 32
    )
    assert four_one.bj_commutator == px_hat() * (
        Coefficient.i() * Coefficient.hbar(3) * Coefficient.omega(2) * -32
    )


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(1, "k")
    with pytest.raises(ValueError):
        sweep(4, "bogus")


def test_record_invariant_equal_schemes_commute_together():
    for record in sweep(6, "k"):
        if record.bj_equals_weyl:
            assert record.bj_commutes == record.weyl_commutes
        assert record.classical_bracket_zero
        assert record.oracle_agreement


def test_ladder_sweep_targets():
    records = sweep(3, "f")
    assert [(r.m, r.n, r.target) for r in records] == [
        (1, 1, "f1"), (1, 1, "f2"),
        (1, 2, "f1"), (1, 2, "f2"),
        (2, 1, "f1"), (2, 1, "f2"),
    ]
    assert all(r.ladder_equals_weyl is not None for r in records)
    # each record is the one its per-pair entry returns
    pairs = [(m, s - m) for s in range(2, 6) for m in range(1, s)]
    assert sweep(5, "k") == [verify_pair(m, n) for m, n in pairs]
    assert sweep(5, "f") == [verify_pair(m, n, t) for m, n in pairs for t in ("f1", "f2")]


def test_f2_record_repeats_the_k_record():
    # F2 = -sqrt2 omega (n/m)^m K (test_generators), so by linearity the f2
    # record of a pair gives the k record's verdict; the factor carries one
    # omega, so min_w_exp is one higher where the BJ commutator is nonzero
    k_records = sweep(10, "k")
    f2_records = [r for r in sweep(10, "f") if r.target == "f2"]
    assert [(r.m, r.n) for r in f2_records] == [(r.m, r.n) for r in k_records]
    assert not all(r.bj_commutes for r in k_records)
    for k, f2 in zip(k_records, f2_records):
        for field in ("bj_equals_weyl", "weyl_commutes", "bj_commutes", "min_h_exp"):
            assert getattr(f2, field) == getattr(k, field), (k.m, k.n, field)
        assert f2.min_w_exp == k.min_w_exp + (not k.bj_commutes), (k.m, k.n)


def test_verify_commutes_h_with_weyl_and_the_difference_only(monkeypatch):
    # [H, BJ] is built as [H, W] + [H, BJ - W], each from a classical
    # bracket with H, {H, f} and {H, (T - 1) f}; [H, BJ] itself never is,
    # and no operator product, no commutator and no Born-Jordan operator
    # is taken
    brackets, schemes = [], []
    real = verify_module.weyl_commutator
    real_quantize = verify_module.quantize
    monkeypatch.setattr(
        verify_module,
        "weyl_commutator",
        lambda h, bracket: brackets.append(bracket) or real(h, bracket),
    )
    monkeypatch.setattr(
        verify_module,
        "quantize",
        lambda scheme, poly: schemes.append(scheme) or real_quantize(scheme, poly),
    )
    params = OscillatorParams(4, 1)
    h, k = hamiltonian(params), k_integral(params)
    h_op = quantize(Scheme.WEYL, h)
    bj_op = quantize(Scheme.BORN_JORDAN, k)
    want = commutator(h_op, bj_op)

    def forbidden(*args):
        raise AssertionError("verify_pair took an operator product")

    monkeypatch.setattr(weylalgebra, "op_mul", forbidden)
    monkeypatch.setattr(weylalgebra, "commutator", forbidden)
    record = verify_pair(4, 1)
    assert brackets == [poisson(h, k), poisson(h, bj_excess(k))]
    assert set(schemes) == {Scheme.WEYL}
    assert not {"commutator", "op_mul"} & set(vars(verify_module))
    assert record.bj_commutator == want
    assert not record.bj_commutes
    # two commutators per ladder record too, the second on (T - 1) f
    brackets.clear()
    records = sweep(3, "f")
    assert len(brackets) == 2 * len(records)
    for record, bracket in zip(records, brackets[1::2]):
        params = OscillatorParams(record.m, record.n)
        f = _integral(params, record.target)
        assert bracket == poisson(hamiltonian(params), bj_excess(f))


def test_record_json_schema():
    record = verify_pair(4, 1)
    data = record_json(record)
    assert set(data) == {"params", "classical", "operators", "commutators", "oracle"}
    assert data["params"] == {"m": 4, "n": 1}
    assert data["classical"] == {"bracket_zero": True}
    assert set(data["operators"]) == {"bj_equals_weyl", "bj_minus_weyl"}
    assert data["operators"]["bj_equals_weyl"] is False
    assert data["operators"]["bj_minus_weyl"] == [
        {
            "a": 1, "b": 0, "c": 0, "d": 0,
            "coeff": {
                "terms": [
                    {
                        "h": 2, "w": 2, "r": 0,
                        "re_num": 32, "re_den": 1, "im_num": 0, "im_den": 1,
                    }
                ]
            },
        }
    ]
    assert data["commutators"]["weyl"] == []
    assert data["commutators"]["bj"] == [
        {
            "a": 0, "b": 0, "c": 1, "d": 0,
            "coeff": {
                "terms": [
                    {
                        "h": 3, "w": 2, "r": 0,
                        "re_num": 0, "re_den": 1, "im_num": -32, "im_den": 1,
                    }
                ]
            },
        }
    ]
    assert data["commutators"]["min_h_exp"] == 3
    assert data["commutators"]["min_w_exp"] == 2
    assert data["oracle"] == {"agreement": True}
    json.dumps(data)  # serializable


def test_ladder_record_json_extras():
    record = verify_pair(2, 1, "f2")
    data = record_json(record)
    assert data["params"]["target"] == "f2"
    assert "ladder_equals_weyl" in data["operators"]


def test_record_text_contains_both_forms():
    text = record_text(verify_pair(4, 1))
    assert "-32 * i * hbar^3 * omega^2 * px" in text
    assert "-32 * hbar^4 * omega^2 * d/dx" in text
    assert "bj minus weyl: 32 * hbar^2 * omega^2 * x" in text


def test_record_latex_renders():
    latex = record_latex(verify_pair(4, 1))
    assert r"\hbar" in latex
    assert r"\hat{p}_x" in latex or r"\partial" in latex


def test_record_latex_names_the_ladder_target():
    latex = record_latex(verify_pair(2, 3, "f2"))
    assert r"$\hat F_2^{BJ} - \hat F_2^{W} = " in latex
    assert r"$[\hat H, \hat F_2^{W}] = " in latex
    assert r"$[\hat H, \hat F_2^{BJ}] = " in latex
    assert r"\hat K" not in latex


def test_reports_deterministic():
    a = render_sweep(sweep(4, "k"), 4, "k", "json")
    b = render_sweep(sweep(4, "k"), 4, "k", "json")
    assert a == b
    ta = render_sweep(sweep(4, "k"), 4, "k", "text")
    tb = render_sweep(sweep(4, "k"), 4, "k", "text")
    assert ta == tb
    assert SWEEP_NOTE in ta
    ra = record_text(verify_pair(3, 2))
    rb = record_text(verify_pair(3, 2))
    assert ra == rb


def test_operator_json_round_numbers():
    op = Operator.zero()
    assert operator_json(op) == []


def test_nonzero_classical_bracket_is_recorded(monkeypatch):
    real_k = verify_module.k_integral

    def perturbed(params):
        k = real_k(params)
        if (params.m, params.n) == (1, 2):
            return k + PhasePoly.variable(PhaseVar.X)
        return k

    monkeypatch.setattr(verify_module, "k_integral", perturbed)
    records = sweep(3)
    assert [(r.m, r.n) for r in records] == [(1, 1), (1, 2), (2, 1)]
    by_pair = {(r.m, r.n): r for r in records}
    assert by_pair[(1, 2)].classical_bracket_zero is False
    assert by_pair[(1, 1)].classical_bracket_zero is True
    assert "(m, n) = (1, 2), target k: classical bracket is nonzero" in failed_claims(
        by_pair[(1, 2)]
    )
    assert not failed_claims(by_pair[(2, 1)])


# hbar^2 x py: its symbol is -i hbar^3 x t, the derivative word x * d/dy
_WRONG_TERM = x_hat() * py_hat() * Coefficient.hbar(2)


def _perturb_commutator(monkeypatch, scheme, wrong=_WRONG_TERM):
    """Make verify_pair's commutator for one scheme's quantized K wrong by
    wrong.  Each record makes two weyl_commutator calls, on {H, f} for
    the Weyl commutator and then on {H, (T - 1) f} for the Born-Jordan one,
    built through the difference BJ - W
    (test_verify_commutes_h_with_weyl_and_the_difference_only pins the
    order).  Both brackets vanish where both schemes commute, so the call
    is told by its place in the record's pair of calls."""
    position = {Scheme.WEYL: 0, Scheme.BORN_JORDAN: 1}[scheme]
    calls = count()
    real = verify_module.weyl_commutator

    def perturbed(h, bracket):
        comm = real(h, bracket)
        return comm + wrong if next(calls) % 2 == position else comm

    monkeypatch.setattr(verify_module, "weyl_commutator", perturbed)


def test_exponential_probe_names_high_order_term(monkeypatch):
    # A claimed commutator off by px^4 hbar^3 on (4, 1), a derivative order
    # above that of either factor, is caught and named as d^4/dx^4.
    params = OscillatorParams(4, 1)
    h_op = quantize(Scheme.WEYL, hamiltonian(params))
    weyl_op = quantize(Scheme.WEYL, k_integral(params))
    weyl_comm = commutator(h_op, weyl_op)
    assert commutator_matches_action(h_op, weyl_op, weyl_comm) is True
    wrong = px_hat() ** 4 * Coefficient.hbar(3)
    result = commutator_matches_action(h_op, weyl_op, weyl_comm + wrong)
    assert not result
    assert result.term == Monomial(c=4)
    # the symbol (-i hbar)^4 hbar^3 s^4
    assert result.direct - result.nested == PhasePoly.monomial(Monomial(c=4, h=7))
    _perturb_commutator(monkeypatch, Scheme.WEYL, wrong)
    record = verify_pair(4, 1)
    assert record.oracle_failure == ("weyl", Monomial(c=4))
    assert (
        "(m, n) = (4, 1), target k: symbolic commutator disagrees with action"
        " oracle (weyl check, first differing term d^4/dx^4)"
    ) in failed_claims(record)


@pytest.mark.parametrize(
    "m, n, scheme, name",
    [(4, 1, Scheme.BORN_JORDAN, "bj"), (3, 2, Scheme.WEYL, "weyl")],
)
def test_oracle_names_failing_scheme_and_probe(monkeypatch, m, n, scheme, name):
    # (4, 1) perturbs bj_comm, caught by the difference check behind a
    # passing Weyl check; (3, 2) perturbs weyl_comm, caught directly.
    _perturb_commutator(monkeypatch, scheme)
    answers = []
    check = verify_module.commutator_matches_action
    monkeypatch.setattr(
        verify_module,
        "commutator_matches_action",
        lambda *args: answers.append(check(*args)) or answers[-1],
    )
    record = verify_pair(m, n)
    assert record.oracle_agreement is False
    assert record.oracle_failure == (name, Monomial(a=1, d=1))
    # the failing check returns both images of e^(sx+ty)
    disagreement = answers[-1]
    assert disagreement.term == Monomial(a=1, d=1)
    assert disagreement.direct != disagreement.nested
    # the symbol of _WRONG_TERM: -i hbar^3 x t
    error = PhasePoly.monomial(Monomial(a=1, d=1, h=3, e=1), -1)
    assert disagreement.direct - disagreement.nested == error
    assert (
        f"(m, n) = ({m}, {n}), target k: symbolic commutator disagrees with action"
        f" oracle ({name} check, first differing term x * d/dy)"
    ) in failed_claims(record)
    assert "differing" not in record_text(record) + record_latex(record)
    assert "differing" not in json.dumps(record_json(record))


def test_action_oracle_builds_no_normal_ordered_product(monkeypatch):
    # The oracle is an independent check of the commutator kernel only
    # while it never calls that kernel or the product beside it.
    params = OscillatorParams(4, 1)
    h_op = quantize(Scheme.WEYL, hamiltonian(params))
    bj_op = quantize(Scheme.BORN_JORDAN, k_integral(params))
    comm = commutator(h_op, bj_op)
    assert not comm.is_zero()

    def forbidden(*args):
        raise AssertionError("the action oracle called the normal-ordering kernel")

    monkeypatch.setattr(weylalgebra, "op_mul", forbidden)
    monkeypatch.setattr(weylalgebra, "commutator", forbidden)
    for module in (quantizer, verify_module):
        monkeypatch.setattr(module, "weyl_commutator", forbidden)
        monkeypatch.setattr(module, "bj_excess", forbidden)
    assert commutator_matches_action(h_op, bj_op, comm) is True
    assert not commutator_matches_action(h_op, bj_op, comm + _WRONG_TERM)


def test_record_is_immutable_and_replace_gives_a_record_failed_claims_reads():
    record = verify_pair(2, 1)
    with pytest.raises(AttributeError):
        record.weyl_commutator = _X
    broken = record._replace(weyl_commutator=_X, oracle_failure=("weyl", Monomial(a=1, c=2)))
    assert type(broken) is verify_module.VerificationRecord
    assert record.weyl_commutes and record.oracle_agreement
    assert broken.ladder_equals_weyl is None and record.oracle_failure is None
    assert failed_claims(broken) == [
        "(m, n) = (2, 1), target k: symbolic commutator disagrees with action oracle"
        " (weyl check, first differing term x * d^2/dx^2)",
        "(m, n) = (2, 1), target k: Weyl commutator is nonzero",
    ]


@pytest.mark.parametrize(
    "m, n, field, value, message",
    [
        (2, 1, "classical_bracket_zero", False, "classical bracket is nonzero"),
        (
            2,
            1,
            "oracle_failure",
            ("weyl", Monomial(a=1, c=2)),
            "symbolic commutator disagrees with action oracle"
            " (weyl check, first differing term x * d^2/dx^2)",
        ),
        (2, 1, "weyl_commutator", _X, "Weyl commutator is nonzero"),
        (2, 1, "bj_commutator", _X, "schemes coincide but BJ commutator is nonzero"),
        (4, 1, "bj_commutator", Operator.zero(), "schemes differ but BJ commutator vanishes"),
        (
            4,
            1,
            "bj_commutator",
            Operator.monomial(Monomial(a=1, h=1, w=1)),
            "BJ commutator term with hbar exponent < 2",
        ),
        (
            4,
            1,
            "bj_commutator",
            Operator.monomial(Monomial(a=1, h=2)),
            "BJ commutator term with omega exponent < 1",
        ),
    ],
)
def test_each_failed_claim_has_its_message(m, n, field, value, message):
    # BJ and Weyl coincide at (2, 1) and differ at (4, 1); one stored fact
    # set against a real record breaks exactly one claim
    record = verify_pair(m, n)
    assert not failed_claims(record)
    broken = record._replace(**{field: value})
    assert failed_claims(broken) == [f"(m, n) = ({m}, {n}), target k: {message}"]


# each claim flag of a record, with the value it reads off the stored facts
_FLAGS = {
    "bj_equals_weyl": lambda r: r.bj_minus_weyl.is_zero(),
    "weyl_commutes": lambda r: r.weyl_commutator.is_zero(),
    "bj_commutes": lambda r: r.bj_commutator.is_zero(),
    "min_h_exp": lambda r: weylalgebra.min_hbar_exponent(r.bj_commutator),
    "min_w_exp": lambda r: weylalgebra.min_omega_exponent(r.bj_commutator),
    "oracle_agreement": lambda r: r.oracle_failure is None,
}


def test_record_stores_nine_facts_and_its_flags_are_properties():
    record_type = verify_module.VerificationRecord
    assert record_type._fields == (
        "m",
        "n",
        "target",
        "classical_bracket_zero",
        "bj_minus_weyl",
        "weyl_commutator",
        "bj_commutator",
        "ladder_equals_weyl",
        "oracle_failure",
    )
    assert verify_module.Disagreement._fields == ("direct", "nested")
    assert all(isinstance(vars(record_type)[flag], property) for flag in _FLAGS)
    record = verify_pair(4, 1)
    for flag in _FLAGS:
        # a flag is neither a field to replace nor an attribute to set
        with pytest.raises(ValueError):
            record._replace(**{flag: False})
        with pytest.raises(AttributeError):
            setattr(record, flag, False)


def test_every_flag_of_a_sweep_is_read_off_its_operators():
    for record in sweep(8) + sweep(6, "f"):
        for flag, value in _FLAGS.items():
            assert getattr(record, flag) == value(record), (record[:3], flag)
