"""Command-line interface: output formats and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quantlab.coeffring import Coefficient, Monomial
from quantlab.vlab import cli
from quantlab.vlab import verify as verify_module
from quantlab.vlab.parser import MAX_COEFFICIENT_DIGITS
from quantlab.weylalgebra import Operator

from reference_kernels import px_hat

SRC = Path(cli.__file__).resolve().parents[2]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_text(capsys):
    code, out, err = run(capsys, "verify", "--m", "4", "--n", "1")
    assert code == 0
    assert err == ""
    assert "bj minus weyl: 32 * hbar^2 * omega^2 * x" in out
    assert "weyl commutes: yes" in out
    assert "bj commutes: no" in out


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--m", "2", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"m": 2, "n": 1}
    assert data["operators"]["bj_equals_weyl"] is True
    assert data["commutators"]["bj"] == []


def test_verify_latex(capsys):
    code, out, _ = run(capsys, "verify", "--m", "4", "--n", "1", "--format", "latex")
    assert code == 0
    assert r"\hbar" in out


def test_verify_ladder_target(capsys):
    code, out, _ = run(
        capsys, "verify", "--m", "1", "--n", "1", "--target", "f2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["params"]["target"] == "f2"
    assert data["operators"]["ladder_equals_weyl"] is True


def test_verify_rejects_zero_m(capsys):
    code, _, err = run(capsys, "verify", "--m", "0", "--n", "1")
    assert code == 2
    assert "positive integer" in err


def test_sweep_text(capsys):
    code, out, _ = run(capsys, "sweep", "--max-sum", "4")
    assert code == 0
    assert "(1,1) k:" in out
    assert "note:" in out


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--max-sum", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["max_sum"] == 4
    assert data["all_claims_hold"] is True
    assert len(data["records"]) == 6


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sweep_checks_each_record_once(capsys, monkeypatch, fmt):
    # the report and the exit code read one list of failed claims
    checked = []
    original = verify_module.failed_claims

    def counting(record):
        checked.append((record.m, record.n))
        return original(record)

    monkeypatch.setattr(cli, "failed_claims", counting)
    monkeypatch.setattr(cli.report, "failed_claims", counting)
    code, _, _ = run(capsys, "sweep", "--max-sum", "4", "--format", fmt)
    assert code == 0
    assert checked == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]


def test_sweep_rejects_small_bound(capsys):
    code, _, err = run(capsys, "sweep", "--max-sum", "1")
    assert code == 2
    assert "max_sum" in err


def test_quantize_text(capsys):
    code, out, _ = run(capsys, "quantize", "--scheme", "weyl", "--expr", "y^2 * py^2")
    assert code == 0
    assert "y^2 * py^2 - 2 * i * hbar * y * py - 1/2 * hbar^2" in out


def test_quantize_json(capsys):
    code, out, _ = run(
        capsys,
        "quantize", "--scheme", "bj", "--expr", "x*px", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["scheme"] == "bj"
    assert data["operator_text"] == "x * px - 1/2 * i * hbar"


def test_quantize_parse_error(capsys):
    code, _, err = run(capsys, "quantize", "--scheme", "bj", "--expr", "p_z")
    assert code == 2
    assert "unknown symbol" in err


_NESTING = "error: parentheses and unary minus nest deeper than the maximum 100 (line 1, column 101)\n"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("hbar^3000000", "error: exponent 3000000 exceeds the maximum 40 (line 1, column 6)\n"),
        ("(2^40)^40", "error: expression degree may reach 1600; the maximum is 40\n"),
        ("(x+y+px+py)^40", "error: expression expands to more than 2000 terms\n"),
        (
            "(x+y+px+py)^20 * (1+x+y+px+py)^12",
            "error: expression multiplies 1771 by 1820 terms, more than 100000 term pairs\n",
        ),
        pytest.param("(" * 250 + "x" + ")" * 250, _NESTING, id="nested-parentheses"),
        pytest.param("-" * 3000 + "x", _NESTING, id="unary-minus-chain"),
        pytest.param(
            " * ".join(["x"] * 1000),
            "error: expression degree may reach 1000; the maximum is 40\n",
            id="long-product",
        ),
        pytest.param(
            "7" * 3000 + " * " + "7" * 3000,
            f"error: expression has a coefficient of more than {MAX_COEFFICIENT_DIGITS} digits\n",
            id="large-coefficient",
        ),
    ],
)
def test_oversized_expression_rejected(capsys, expr, message):
    # one case per cap: the exponent literal, the degree bound, the term
    # count, the term pairs of one product, the nesting depth, the digits
    # of a coefficient; and a product too long for a recursive walk.
    start = time.perf_counter()
    code, out, err = run(capsys, "quantize", "--scheme", "bj", f"--expr={expr}")
    assert time.perf_counter() - start < 5.0
    assert (code, out, err) == (2, "", message)


_LARGEST = "9" * MAX_COEFFICIENT_DIGITS


@pytest.mark.parametrize("scheme", ["bj", "weyl"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("expr", [f"{_LARGEST} * x^18 * px^21", f"1/{_LARGEST} * x^18 * px^21"])
def test_largest_accepted_coefficient_prints(capsys, scheme, fmt, expr):
    # quantizing adds the most digits near x^18 px^21: 20 at x^18 px^22 under
    # Born-Jordan, one degree more than a literal coefficient leaves
    code, out, err = run(capsys, "quantize", "--scheme", scheme, "--expr", expr, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        out = json.loads(out)["classical"]
    assert _LARGEST in out


@pytest.mark.parametrize("expr", ["-x", "-x*py+1/2", "-(x^2)*px"])
def test_quantize_expr_with_leading_minus(capsys, expr):
    # the word after --expr is the expression even when it starts with '-'
    joined = run(capsys, "quantize", "--scheme", "bj", f"--expr={expr}")
    spaced = run(capsys, "quantize", "--scheme", "bj", "--expr", expr)
    assert joined[0] == 0
    assert spaced == joined


@pytest.mark.parametrize("prefix", ["--e", "--ex", "--exp"])
def test_quantize_expr_abbreviation_takes_a_leading_minus(capsys, prefix):
    # argparse accepts a prefix of --expr, and the word after it is the
    # expression as it is after --expr
    spelled = run(capsys, "quantize", "--scheme", "bj", "--expr", "-x")
    abbreviated = run(capsys, "quantize", "--scheme", "bj", prefix, "-x")
    assert spelled[0] == 0
    assert abbreviated == spelled


def test_commutator_command(capsys):
    code, out, _ = run(capsys, "commutator", "--scheme", "bj", "--m", "4", "--n", "1")
    assert code == 0
    assert "-32 * i * hbar^3 * omega^2 * px" in out
    assert "-32 * hbar^4 * omega^2 * d/dx" in out
    code, out, _ = run(capsys, "commutator", "--scheme", "weyl", "--m", "4", "--n", "1")
    assert code == 0
    assert "commutator (normal-ordered): 0" in out


def test_every_command_builds_its_record_through_verify_pair():
    # verify and commutator report records of verify.verify_pair, the one
    # per-pair pipeline, so cli builds no integral or commutator itself
    assert {"hamiltonian", "k_integral", "commutator"}.isdisjoint(vars(cli))
    assert not hasattr(verify_module, "verify_ladder_pair")
    assert not hasattr(verify_module, "_verify")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--m", "4"])
    assert exc.value.code == 2


def test_verification_failure_exit_code(capsys, monkeypatch):
    # force a failing record to exercise the failure path
    record = verify_module.verify_pair(4, 1)._replace(weyl_commutator=px_hat())
    monkeypatch.setattr(cli, "verify_pair", lambda m, n, target: record)
    code, out, err = run(capsys, "verify", "--m", "4", "--n", "1")
    assert code == 1
    failures = json.loads(err)["failures"]
    assert any("Weyl commutator is nonzero" in f for f in failures)


@pytest.mark.parametrize(
    "bj_commutator, claim",
    [
        (Operator.zero(), "schemes differ but BJ commutator vanishes"),
        (
            Operator.monomial(Monomial(a=1, h=1, w=1)),
            "BJ commutator term with hbar exponent < 2",
        ),
    ],
)
def test_born_jordan_claim_failures_exit_code(capsys, monkeypatch, bj_commutator, claim):
    record = verify_module.verify_pair(4, 1)._replace(bj_commutator=bj_commutator)
    monkeypatch.setattr(cli, "verify_pair", lambda m, n, target: record)
    code, out, err = run(capsys, "verify", "--m", "4", "--n", "1")
    assert code == 1
    assert json.loads(err)["failures"] == [f"(m, n) = (4, 1), target k: {claim}"]


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "sweep", "--max-sum", "4", "--format", "json")
    _, out2, _ = run(capsys, "sweep", "--max-sum", "4", "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--m", "15", "--n", "6"), "error: m + n must be at most 20\n"),
        (
            ("commutator", "--scheme", "bj", "--m", "20", "--n", "1"),
            "error: m + n must be at most 20\n",
        ),
        (("sweep", "--max-sum", "21"), "error: --max-sum must be at most 20\n"),
    ],
)
def test_inputs_above_max_sum_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_oracle_probe_reaches_stderr_only(capsys, monkeypatch):
    real = verify_module.weyl_commutator

    def wrong_weyl(h, bracket):  # the Weyl K(4, 1) commutator is zero
        comm = real(h, bracket)
        return comm + px_hat() * Coefficient.hbar(2) if comm.is_zero() else comm

    monkeypatch.setattr(verify_module, "weyl_commutator", wrong_weyl)
    code, out, err = run(capsys, "verify", "--m", "4", "--n", "1")
    assert code == 1
    assert "action oracle agreement: no" in out
    assert "differing" not in out
    failures = json.loads(err)["failures"]
    assert any("(weyl check, first differing term d/dx)" in f for f in failures)


@pytest.mark.parametrize(
    "argv",
    [
        # one write, and a report written in chunks
        ["quantize", "--scheme", "bj", "--expr", "x*px"],
        ["sweep", "--max-sum", "8", "--format", "json"],
    ],
)
def test_a_closed_stdout_ends_the_command_quietly(argv):
    # stdout a pipe whose reader has gone, as in "quantlab ... | head -c 1":
    # exit 141 (128 + SIGPIPE), which no claim outcome uses, and no traceback.
    # stdout is block-buffered, as by default, so a short report first
    # meets the closed pipe when main flushes it
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quantlab", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": str(SRC)},
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr
