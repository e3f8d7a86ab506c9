"""Deterministic report rendering.

JSON is the canonical machine format; text and LaTeX are views.  All
serialization iterates terms in canonical order, so reports over the
same inputs are byte identical across runs.
"""

from __future__ import annotations

import json

from quantlab.weylalgebra import Operator, differential_latex, differential_text
from quantlab.vlab.verify import TARGETS, VerificationRecord, failed_claims

SWEEP_NOTE = (
    "exact evidence for the swept range only; commutation outside the range "
    "is not proven"
)


def coefficient_json(group: tuple) -> dict:
    return {
        "terms": [
            {
                "h": h,
                "w": w,
                "r": r,
                "re_num": re_num,
                "re_den": re_den,
                "im_num": im_num,
                "im_den": im_den,
            }
            for (h, w, r), (re_num, re_den), (im_num, im_den) in group
        ]
    }


def operator_json(op: Operator) -> list[dict]:
    return [
        {"a": a, "b": b, "c": c, "d": d, "coeff": coefficient_json(group)}
        for (a, b, c, d), group in op.groups
    ]


def _is_ladder(record: VerificationRecord) -> bool:
    return TARGETS[record.target].ladder is not None


def record_json(record: VerificationRecord) -> dict:
    params = {"m": record.m, "n": record.n}
    operators = {
        "bj_equals_weyl": record.bj_equals_weyl,
        "bj_minus_weyl": operator_json(record.bj_minus_weyl),
    }
    if _is_ladder(record):
        params["target"] = record.target
        operators["ladder_equals_weyl"] = record.ladder_equals_weyl
    return {
        "params": params,
        "classical": {"bracket_zero": record.classical_bracket_zero},
        "operators": operators,
        "commutators": {
            "weyl": operator_json(record.weyl_commutator),
            "bj": operator_json(record.bj_commutator),
            "min_h_exp": record.min_h_exp,
            "min_w_exp": record.min_w_exp,
        },
        "oracle": {"agreement": record.oracle_agreement},
    }


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def record_text(record: VerificationRecord) -> str:
    lines = [
        f"pair: ({record.m}, {record.n})",
        f"target: {record.target}",
        f"classical bracket zero: {_yes_no(record.classical_bracket_zero)}",
        f"bj equals weyl: {_yes_no(record.bj_equals_weyl)}",
    ]
    if _is_ladder(record):
        lines.append(f"ladder equals weyl: {_yes_no(record.ladder_equals_weyl)}")
    lines += [
        f"bj minus weyl: {record.bj_minus_weyl.text()}",
        f"weyl commutator (normal-ordered): {record.weyl_commutator.text()}",
        f"weyl commutator (differential): {differential_text(record.weyl_commutator)}",
        f"weyl commutes: {_yes_no(record.weyl_commutes)}",
        f"bj commutator (normal-ordered): {record.bj_commutator.text()}",
        f"bj commutator (differential): {differential_text(record.bj_commutator)}",
        f"bj commutes: {_yes_no(record.bj_commutes)}",
        f"bj commutator min hbar exponent: {record.min_h_exp}",
        f"bj commutator min omega exponent: {record.min_w_exp}",
        f"action oracle agreement: {_yes_no(record.oracle_agreement)}",
    ]
    return "\n".join(lines) + "\n"


def record_latex(record: VerificationRecord) -> str:
    name = TARGETS[record.target].latex
    lines = [
        r"\paragraph{Pair $(%d, %d)$, target %s.}" % (record.m, record.n, record.target),
        r"$\hat %s^{BJ} - \hat %s^{W} = %s$" % (name, name, record.bj_minus_weyl.latex()),
        r"$[\hat H, \hat %s^{W}] = %s = %s$"
        % (name, record.weyl_commutator.latex(), differential_latex(record.weyl_commutator)),
        r"$[\hat H, \hat %s^{BJ}] = %s = %s$"
        % (name, record.bj_commutator.latex(), differential_latex(record.bj_commutator)),
    ]
    return "\n".join(lines) + "\n"


def render_record(record: VerificationRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record_json(record), indent=2) + "\n"
    if fmt == "latex":
        return record_latex(record)
    return record_text(record)


def sweep_json(records: list[VerificationRecord], max_sum: int, target: str, claims: list) -> dict:
    """The JSON sweep report; claims is failed_claims of each record, in order."""
    failures = [fail for fails in claims for fail in fails]
    return {
        "max_sum": max_sum,
        "target": target,
        "note": SWEEP_NOTE,
        "all_claims_hold": not failures,
        "failures": failures,
        "records": [record_json(record) for record in records],
    }


def sweep_text(records: list[VerificationRecord], max_sum: int, target: str, claims: list) -> str:
    """The text sweep report; claims is failed_claims of each record, in order."""
    lines = [f"sweep: max_sum={max_sum} target={target}"]
    for record in records:
        extra = f" ladder==weyl={_yes_no(record.ladder_equals_weyl)}" if _is_ladder(record) else ""
        lines.append(
            f"({record.m},{record.n}) {record.target}:"
            f" bj==weyl={_yes_no(record.bj_equals_weyl)}"
            f" weyl_commutes={_yes_no(record.weyl_commutes)}"
            f" bj_commutes={_yes_no(record.bj_commutes)}"
            f" min_h={record.min_h_exp} min_w={record.min_w_exp}"
            f" oracle={_yes_no(record.oracle_agreement)}{extra}"
        )
    passed = sum(1 for fails in claims if not fails)
    lines.append(f"claims: {passed}/{len(records)} records pass")
    for fails in claims:
        lines += [f"failure: {fail}" for fail in fails]
    lines.append(f"note: {SWEEP_NOTE}")
    return "\n".join(lines) + "\n"


def render_sweep(
    records: list[VerificationRecord],
    max_sum: int,
    target: str,
    fmt: str,
    claims: list[list[str]] | None = None,
) -> str:
    """The sweep report in fmt; claims, failed_claims of each record in
    order, is computed here unless the caller has it."""
    if claims is None:
        claims = [failed_claims(record) for record in records]
    if fmt == "json":
        return json.dumps(sweep_json(records, max_sum, target, claims), indent=2) + "\n"
    return sweep_text(records, max_sum, target, claims)
