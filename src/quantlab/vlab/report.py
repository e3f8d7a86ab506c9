"""Deterministic report rendering.

JSON is the canonical machine format; text and LaTeX are views.  All
serialization iterates terms in canonical order, so reports over the
same inputs are byte identical across runs.

One writer, json_chunks, produces every JSON report, the bytes of
json.dumps(value, indent=2) plus a newline, in chunks, so a sweep is
written record by record and never held whole.  It writes an Operator
value as operator_json would make it, straight from the operator's
grouped view; record_json hands its operators over that way when
expand is False, and sweep_json always does.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from json.encoder import encode_basestring_ascii

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


@lru_cache(maxsize=None)
def _operator_templates(indent: str) -> tuple[str, str, str]:
    """The %-templates of one operator_json term nested at indent: its head
    up to the coefficient terms, one coefficient term, and its tail."""
    i1, i2, i3, i4, i5 = (indent + "  " * k for k in range(1, 6))
    head = f'\n{i1}{{' + "".join(f'\n{i2}"{name}": %d,' for name in "abcd")
    head += f'\n{i2}"coeff": {{\n{i3}"terms": ['
    fields = ("h", "w", "r", "re_num", "re_den", "im_num", "im_den")
    coeff = f"\n{i4}{{" + ",".join(f'\n{i5}"{name}": %d' for name in fields) + f"\n{i4}}}"
    return head, coeff, f"\n{i3}]\n{i2}}}\n{i1}}}"


def _operator_text(op: Operator, indent: str) -> str:
    """operator_json(op) as json.dumps(..., indent=2) writes it at indent."""
    groups = op.groups
    if not groups:
        return "[]"
    head, coeff, tail = _operator_templates(indent)
    terms = (
        head % phase
        + ",".join(coeff % (*hwr, *re, *im) for hwr, re, im in group)
        + tail
        for phase, group in groups
    )
    return "[" + ",".join(terms) + "\n" + indent + "]"


def _chunks(value, indent: str) -> Iterator[str]:
    """json.dumps(value, indent=2) for a value nested at indent."""
    if isinstance(value, Operator):
        yield _operator_text(value, indent)
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _chunks(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}" if value else "{}"
    elif isinstance(value, list):
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            yield sep
            yield from _chunks(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "]" if value else "[]"
    elif isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None or isinstance(value, bool):
        yield "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_chunks(value) -> Iterator[str]:
    """json.dumps(value, indent=2) + "\n", in chunks; value is made of
    dicts with str keys, lists, str, int, bool, None and Operator values,
    which are written as operator_json(op)."""
    yield from _chunks(value, "")
    yield "\n"


def _unexpanded(op: Operator) -> Operator:
    return op


def record_json(record: VerificationRecord, expand: bool = True) -> dict:
    """The record's JSON value; with expand False its operators stay
    Operator values, for json_chunks."""
    op_json = operator_json if expand else _unexpanded
    params = {"m": record.m, "n": record.n}
    operators = {
        "bj_equals_weyl": record.bj_equals_weyl,
        "bj_minus_weyl": op_json(record.bj_minus_weyl),
    }
    if record.ladder_equals_weyl is not None:
        params["target"] = record.target
        operators["ladder_equals_weyl"] = record.ladder_equals_weyl
    return {
        "params": params,
        "classical": {"bracket_zero": record.classical_bracket_zero},
        "operators": operators,
        "commutators": {
            "weyl": op_json(record.weyl_commutator),
            "bj": op_json(record.bj_commutator),
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
    if record.ladder_equals_weyl is not None:
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
        return "".join(json_chunks(record_json(record, expand=False)))
    if fmt == "latex":
        return record_latex(record)
    return record_text(record)


def sweep_json(records: list[VerificationRecord], max_sum: int, target: str, claims: list) -> dict:
    """The JSON sweep report, its operators left to json_chunks; claims is
    failed_claims of each record, in order."""
    failures = [fail for fails in claims for fail in fails]
    return {
        "max_sum": max_sum,
        "target": target,
        "note": SWEEP_NOTE,
        "all_claims_hold": not failures,
        "failures": failures,
        "records": [record_json(record, expand=False) for record in records],
    }


def sweep_text(records: list[VerificationRecord], max_sum: int, target: str, claims: list) -> str:
    """The text sweep report; claims is failed_claims of each record, in order."""
    lines = [f"sweep: max_sum={max_sum} target={target}"]
    for record in records:
        ladder = record.ladder_equals_weyl
        extra = "" if ladder is None else f" ladder==weyl={_yes_no(ladder)}"
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


def sweep_chunks(
    records: list[VerificationRecord], max_sum: int, target: str, fmt: str, claims: list
) -> Iterable[str]:
    """The sweep report in fmt, in chunks; claims is failed_claims of each
    record, in order.  The JSON report is encoded as it is read, an
    operator at a time."""
    if fmt == "json":
        return json_chunks(sweep_json(records, max_sum, target, claims))
    return (sweep_text(records, max_sum, target, claims),)


def render_sweep(records: list[VerificationRecord], max_sum: int, target: str, fmt: str) -> str:
    """The sweep report in fmt, with the failed_claims of each record."""
    claims = [failed_claims(record) for record in records]
    return "".join(sweep_chunks(records, max_sum, target, fmt, claims))
