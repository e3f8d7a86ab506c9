"""The JSON writer: report.json_chunks writes the bytes of
json.dumps(value, indent=2) + "\\n" for every report, failures included."""

import json
from random import Random

import pytest

from quantlab.coeffring import Monomial
from quantlab.vlab import cli, report
from quantlab.vlab.report import (
    json_chunks,
    operator_json,
    record_json,
    render_record,
    render_sweep,
    sweep_json,
)
from quantlab.vlab.verify import failed_claims, sweep, verify_pair
from quantlab.weylalgebra import Operator

from randgen import rand_operator


def dumps(value) -> str:
    return json.dumps(value, indent=2) + "\n"


def expanded(value):
    """value with every Operator replaced by its operator_json."""
    if isinstance(value, Operator):
        return operator_json(value)
    if isinstance(value, dict):
        return {key: expanded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [expanded(item) for item in value]
    return value


def assert_sweep_matches(records, max_sum, target, claims=None):
    """The streamed sweep report against json.dumps of sweep_json with its
    operators expanded.  render_sweep computes the claims itself, so it is
    checked when the claims are the computed ones."""
    computed = [failed_claims(record) for record in records]
    claims = computed if claims is None else claims
    want = dumps(expanded(sweep_json(records, max_sum, target, claims)))
    chunks = list(report.sweep_chunks(records, max_sum, target, "json", claims))
    assert "".join(chunks) == want
    if claims == computed:
        assert render_sweep(records, max_sum, target, "json") == want
    return want


@pytest.mark.parametrize("max_sum, target", [(8, "k"), (6, "f")])
def test_sweep_reports_match_json_dumps(max_sum, target):
    records = sweep(max_sum, target)
    for record in records:
        assert render_record(record, "json") == dumps(record_json(record))
    assert_sweep_matches(records, max_sum, target)


@pytest.mark.parametrize(
    "m, n, target", [(4, 1, "k"), (3, 2, "f1"), (3, 2, "f2")], ids=["k", "f1", "f2"]
)
def test_verify_records_match_json_dumps(m, n, target):
    record = verify_pair(m, n, target)
    assert render_record(record, "json") == dumps(record_json(record))
    assert record_json(record, expand=False)["commutators"]["weyl"] is record.weyl_commutator


def test_empty_weyl_commutator_is_an_empty_list():
    record = verify_pair(4, 1)
    assert record.weyl_commutator.is_zero()
    text = render_record(record, "json")
    assert '\n    "weyl": [],\n' in text
    assert text == dumps(record_json(record))


def test_empty_sweep_matches_json_dumps():
    text = assert_sweep_matches([], 3, "k")
    assert '"records": []' in text


def test_operators_at_every_depth_match_json_dumps():
    rng = Random(7)
    ops = [Operator.zero(), *(rand_operator(rng, max_terms=6) for _ in range(20))]
    value = {"top": ops[1], "list": ops, "nested": {"deeper": [{"op": op} for op in ops[:5]]}}
    assert "".join(json_chunks(value)) == dumps(expanded(value))
    for op in ops:
        assert "".join(json_chunks(op)) == dumps(operator_json(op))


def test_scalars_and_empty_containers_match_json_dumps():
    value = {
        "s": 'quote " backslash \\ tab \t newline \n ω \U0001d49c \x00',
        "é key": [0, -1, 10**30, True, False, None, "", [], {}],
        "empty": {},
        "nested": [[[]], [{}], {"a": [1, {"b": None}]}],
    }
    assert "".join(json_chunks(value)) == dumps(value)
    assert "".join(json_chunks([])) == "[]\n"


def test_unsupported_values_are_refused():
    with pytest.raises(TypeError):
        "".join(json_chunks({"x": 1.5}))


def failing_record():
    """A record whose Weyl claim and action-oracle claim fail."""
    return verify_pair(4, 1)._replace(
        weyl_commutator=Operator.monomial(Monomial(a=1)),
        oracle_failure=("weyl", Monomial(a=1, c=2)),
    )


ESCAPED = 'target "K": ω ≠ 0'


def test_failing_sweep_lists_failures_before_records():
    records = [verify_pair(2, 1), failing_record()]
    claims = [failed_claims(record) for record in records]
    claims[1].append(ESCAPED)
    text = assert_sweep_matches(records, 5, "k", claims)
    assert text.index('"failures": [') < text.index('"records": [')
    assert '"all_claims_hold": false' in text
    assert '"target \\"K\\": \\u03c9 \\u2260 0"' in text
    failures = json.loads(text)["failures"]
    assert len(failures) == 3
    assert "Weyl commutator is nonzero" in failures[1]
    assert "(weyl check, first differing term x * d^2/dx^2)" in failures[0]
    assert failures[2] == ESCAPED


def test_cli_streams_a_failing_sweep(capsys, monkeypatch):
    records = [verify_pair(2, 1), failing_record()]
    monkeypatch.setattr(cli, "sweep", lambda max_sum, target: records)
    monkeypatch.setattr(cli, "failed_claims", lambda record: failed_claims(record) + [ESCAPED])
    code = cli.main(["sweep", "--max-sum", "3", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    claims = [failed_claims(record) + [ESCAPED] for record in records]
    assert out == dumps(expanded(sweep_json(records, 3, "k", claims)))
    assert json.loads(err)["failures"] == [fail for fails in claims for fail in fails]

