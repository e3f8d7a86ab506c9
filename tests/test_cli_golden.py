"""Whole CLI outputs, pinned byte for byte.

Each case runs ``cli.main(argv)`` in-process and compares stdout, stderr
and the exit code with the files ``tests/golden/<name>.out``, ``.err``
and ``.code``.  Any change to a report, a renderer or an error message
shows up here as a diff against the checked-in file.

The reports at the top of the supported range are pinned by digest
instead: each ``check NAME SECONDS BOUND ARGS`` row of the CI workflow
runs ``python -m quantlab ARGS`` and compares the SHA-256 of its stdout
with ``tests/golden/NAME.sha256``.  The rows are read from the workflow
file, so CI and this suite run the same list; CI also bounds each row's
cold-process time and peak RSS.

To rewrite the golden files after a deliberate output change, run

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review the diff before committing it.
"""

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

import pytest

from quantlab.vlab import cli

GOLDEN = Path(__file__).parent / "golden"
WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"
POLY = "x^2*px^3 + (1/2 - 3*i)*hbar*y*py^2"
# a coefficient of 6000 digits, more than an int may print by default
LARGE_PRODUCT = "7" * 3000 + " * " + "7" * 3000

CASES = {
    "verify_4_1_text": ["verify", "--m", "4", "--n", "1"],
    "verify_4_1_json": ["verify", "--m", "4", "--n", "1", "--format", "json"],
    "verify_4_1_latex": ["verify", "--m", "4", "--n", "1", "--format", "latex"],
    "verify_3_2_f1_text": ["verify", "--m", "3", "--n", "2", "--target", "f1"],
    "verify_3_2_f1_json": [
        "verify", "--m", "3", "--n", "2", "--target", "f1", "--format", "json",
    ],
    "sweep_5_text": ["sweep", "--max-sum", "5"],
    "sweep_4_json": ["sweep", "--max-sum", "4", "--format", "json"],
    "sweep_4_f_json": ["sweep", "--max-sum", "4", "--target", "f", "--format", "json"],
    "sweep_8_json": ["sweep", "--max-sum", "8", "--format", "json"],
    "sweep_6_f_json": ["sweep", "--max-sum", "6", "--target", "f", "--format", "json"],
    "quantize_bj_text": ["quantize", "--scheme", "bj", "--expr", POLY],
    "quantize_bj_json": ["quantize", "--scheme", "bj", "--expr", POLY, "--format", "json"],
    "quantize_weyl_text": ["quantize", "--scheme", "weyl", "--expr", POLY],
    "quantize_weyl_json": [
        "quantize", "--scheme", "weyl", "--expr", POLY, "--format", "json",
    ],
    "commutator_bj_4_1_text": ["commutator", "--scheme", "bj", "--m", "4", "--n", "1"],
    "commutator_weyl_3_2_json": [
        "commutator", "--scheme", "weyl", "--m", "3", "--n", "2", "--format", "json",
    ],
    "error_verify_m_0": ["verify", "--m", "0", "--n", "1"],
    # each of m and n is checked before their sum, which is 24 here
    "error_verify_n_negative": ["verify", "--m", "25", "--n", "-1"],
    "error_commutator_n_negative": [
        "commutator", "--scheme", "weyl", "--m", "25", "--n", "-1",
    ],
    "error_sweep_max_sum_1": ["sweep", "--max-sum", "1"],
    "error_expr_dangling_caret": ["quantize", "--scheme", "bj", "--expr", "x^"],
    "error_expr_unknown_symbol": ["quantize", "--scheme", "bj", "--expr", "p_z"],
    "error_expr_non_ascii_digit": ["quantize", "--scheme", "bj", "--expr", "x^²"],
    "error_expr_too_many_terms": ["quantize", "--scheme", "bj", "--expr", "(x+y+px+py)^40"],
    "error_expr_deep_parentheses": [
        "quantize", "--scheme", "bj", "--expr", "(" * 250 + "x" + ")" * 250,
    ],
    "error_expr_unary_minus_chain": ["quantize", "--scheme", "bj", "--expr=" + "-" * 3000 + "x"],
    "error_expr_long_literal": ["quantize", "--scheme", "bj", "--expr", "x + " + "7" * 5000],
    "error_expr_long_product": ["quantize", "--scheme", "bj", "--expr", " * ".join(["x"] * 1000)],
    "error_expr_large_coefficient": ["quantize", "--scheme", "bj", "--expr", LARGE_PRODUCT],
    "error_expr_large_coefficient_json": [
        "quantize", "--scheme", "bj", "--expr", LARGE_PRODUCT, "--format", "json",
    ],
}


def run_cli(argv: list[str]) -> tuple[str, str, str]:
    """stdout, stderr and the exit code (as text) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), f"{code}\n"


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    out, err, code = run_cli(CASES[name])
    assert code == _read(GOLDEN / f"{name}.code")
    assert err == _read(GOLDEN / f"{name}.err")
    assert out == _read(GOLDEN / f"{name}.out")


def _digest_rows() -> dict[str, list[str]]:
    """{NAME: ARGS} of each "check NAME SECONDS BOUND ARGS" row of the CI
    workflow's digest step."""
    rows = {}
    for line in WORKFLOW.read_text().splitlines():
        if line.strip().startswith("check "):
            _, name, _, _, *args = shlex.split(line)
            rows[name] = args
    return rows


DIGEST_ROWS = _digest_rows()


def test_each_digest_has_one_ci_row():
    assert sorted(DIGEST_ROWS) == sorted(path.stem for path in GOLDEN.glob("*.sha256"))


@pytest.mark.parametrize("name", sorted(DIGEST_ROWS))
def test_ci_digest_report_matches(name):
    out, err, code = run_cli(DIGEST_ROWS[name])
    assert (code, err) == ("0\n", "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert f"{digest}\n" == _read(GOLDEN / f"{name}.sha256")


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        for suffix, text in zip((".out", ".err", ".code"), run_cli(argv)):
            (GOLDEN / f"{name}{suffix}").write_bytes(text.encode("utf-8"))
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden()
