"""Command-line interface.

Subcommands:
    verify      check one (m, n) pair (polynomial or ladder integral)
    sweep       check every pair with m + n up to a bound
    quantize    quantize a classical expression under one scheme
    commutator  [H, K] of one pair under one scheme, read off its verify record

Exit codes: 0 when every checked claim holds, 1 on verification failure
(with a machine-readable failure list on stderr), 2 on usage or parse
errors, 141 (128 + SIGPIPE) when stdout's reader has gone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from quantlab.generators import OscillatorParams
from quantlab.quantizer import Scheme, quantize
from quantlab.weylalgebra import differential_text
from quantlab.vlab import report, verify
from quantlab.vlab.parser import MAX_SUM, parse_polynomial
from quantlab.vlab.verify import failed_claims, sweep, verify_pair


def _check_sum(total: int, name: str) -> None:
    if total > MAX_SUM:
        raise ValueError(f"{name} must be at most {MAX_SUM}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantlab",
        description="Exact Born-Jordan vs Weyl quantization checks for the "
        "superintegrable 2D anisotropic oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schemes = [scheme.value for scheme in Scheme]

    p_verify = sub.add_parser("verify", help="verify one (m, n) pair")
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--target", choices=list(verify.TARGETS), default=verify.K.name)
    p_verify.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify all pairs with m + n <= bound")
    p_sweep.add_argument("--max-sum", type=int, required=True)
    p_sweep.add_argument("--target", choices=list(verify.SWEEP_TARGETS), default=verify.K.name)
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_quantize = sub.add_parser("quantize", help="quantize a classical expression")
    p_quantize.add_argument("--scheme", choices=schemes, required=True)
    p_quantize.add_argument("--expr", required=True)
    p_quantize.add_argument("--format", choices=("text", "json"), default="text")
    p_quantize.set_defaults(func=_cmd_quantize)

    p_comm = sub.add_parser(
        "commutator", help="commutator of quantized H and K for one pair"
    )
    p_comm.add_argument("--scheme", choices=schemes, required=True)
    p_comm.add_argument("--m", type=int, required=True)
    p_comm.add_argument("--n", type=int, required=True)
    p_comm.add_argument("--format", choices=("text", "json"), default="text")
    p_comm.set_defaults(func=_cmd_commutator)

    return parser


def _fail(failures: list[str]) -> int:
    print(json.dumps({"failures": failures}), file=sys.stderr)
    return 1


def _record(args, target: str):
    # m and n each, then their sum, before the pair is verified
    OscillatorParams(args.m, args.n)
    _check_sum(args.m + args.n, "m + n")
    return verify_pair(args.m, args.n, target)


def _cmd_verify(args) -> int:
    record = _record(args, args.target)
    sys.stdout.write(report.render_record(record, args.format))
    failures = failed_claims(record)
    return _fail(failures) if failures else 0


def _cmd_sweep(args) -> int:
    _check_sum(args.max_sum, "--max-sum")
    records = sweep(args.max_sum, args.target)
    claims = [failed_claims(record) for record in records]
    chunks = report.sweep_chunks(records, args.max_sum, args.target, args.format, claims)
    sys.stdout.writelines(chunks)
    failures = [fail for fails in claims for fail in fails]
    return _fail(failures) if failures else 0


def _write_operator(fmt: str, fields: dict, lines: list[str], name: str, op) -> int:
    """Write a command's report of one operator: its own fields (JSON) or
    lines (text), then the operator normal-ordered and in derivative form."""
    if fmt == "json":
        texts = {f"{name}_text": op.text(), "differential_text": differential_text(op)}
        sys.stdout.writelines(report.json_chunks({**fields, name: op, **texts}))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        sys.stdout.write(f"{name} (normal-ordered): {op.text()}\n")
        sys.stdout.write(f"{name} (differential): {differential_text(op)}\n")
    return 0


def _cmd_quantize(args) -> int:
    poly = parse_polynomial(args.expr)
    op = quantize(Scheme(args.scheme), poly)
    classical = poly.text()
    fields = {"scheme": args.scheme, "input": args.expr, "classical": classical}
    lines = [f"input: {args.expr}", f"classical (canonical): {classical}"]
    lines.append(f"scheme: {args.scheme}")
    return _write_operator(args.format, fields, lines, "operator", op)


def _cmd_commutator(args) -> int:
    # the record quantizes H by Weyl's rule, which on the quadratic H is
    # also Born-Jordan's, so each commutator is [H, K] under one scheme
    record = _record(args, verify.K.name)
    weyl = Scheme(args.scheme) is Scheme.WEYL
    comm = record.weyl_commutator if weyl else record.bj_commutator
    fields = {"params": {"m": args.m, "n": args.n}, "scheme": args.scheme}
    lines = [f"pair: ({args.m}, {args.n})", f"scheme: {args.scheme}"]
    return _write_operator(args.format, fields, lines, "commutator", comm)


def _join_expr(argv: list[str]) -> list[str]:
    """argv with each "--expr VALUE" joined into "--expr=VALUE": the value
    is an expression, so a leading '-' (as in "-x") is not an option.
    argparse takes --e, --ex and --exp for --expr (no other option starts
    with --e), so those are joined too."""
    out = []
    args = iter(argv)
    for arg in args:
        expr = arg.startswith("--e") and "--expr".startswith(arg)
        value = next(args, None) if expr else None
        out.append(arg if value is None else f"--expr={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_join_expr(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone: point stdout at the null device, so
        # that the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
