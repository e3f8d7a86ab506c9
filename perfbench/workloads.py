"""Workload inputs, the work of one item, and the checks on its output.

Each workload turns the seed into a list of items.  The timed part of an
item calls quantlab only through module attributes (``quantizer.quantize``
and so on), so a traced pass sees the wrappers that ``spans`` installs in
those modules.  Checks run after the timed part and outside any span.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

from quantlab import generators, phasepoly, quantizer, weylalgebra
from quantlab.vlab import parser, report, verify

# Largest m + n for the two pair workloads, and the expression count for
# quantize-render.  "tiny" is the self-test size.
SIZES = {
    "full": {"sweep-k": 8, "algebra-kf": 10, "quantize-render": 2000},
    "tiny": {"sweep-k": 3, "algebra-kf": 4, "quantize-render": 20},
}

BJ = quantizer.Scheme.BORN_JORDAN
WEYL = quantizer.Scheme.WEYL


def digest(obj) -> str:
    """Short content hash of a JSON-serializable canonical output."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def pairs(max_sum: int) -> list[tuple[int, int]]:
    """Every (m, n) with m, n >= 1 and m + n <= max_sum, in sweep order."""
    return [(m, total - m) for total in range(2, max_sum + 1) for m in range(1, total)]


# -- inputs ---------------------------------------------------------------

_ATOMS = ("i", "hbar", "omega^2", "sqrt2")
_VARS = ("x", "y", "px", "py")


def _rational(rng: Random) -> str:
    num, den = rng.randint(1, 9), rng.randint(1, 9)
    return str(num) if den == 1 else f"{num}/{den}"


def _coefficient(rng: Random) -> str:
    kind = rng.randrange(6)
    if kind < 4:
        return _ATOMS[kind]
    if kind == 4:
        return _rational(rng)
    sign = rng.choice("+-")
    return f"({_rational(rng)} {sign} {_rational(rng)}*i)"


def _expression(rng: Random) -> dict:
    """1 to 5 terms over x, y, px, py with exponents up to 4.

    Terms are joined by binary + and -, never a leading unary minus, so
    the text means what it reads.  ``hbar_free`` keeps only the terms
    without hbar: it is the classical limit of either quantization.
    """
    text, hbar_free = [], []
    for _ in range(rng.randint(1, 5)):
        coeff = _coefficient(rng)
        factors = [coeff]
        for var in _VARS:
            exp = rng.randint(0, 4)
            if exp:
                factors.append(var if exp == 1 else f"{var}^{exp}")
        sign = rng.choice("+-")
        term = " * ".join(factors)
        text.append((sign, term))
        if coeff != "hbar":
            hbar_free.append((sign, term))

    def join(terms):
        if not terms:
            return "0"
        head = terms[0][1] if terms[0][0] == "+" else f"0 - {terms[0][1]}"
        return head + "".join(f" {sign} {term}" for sign, term in terms[1:])

    return {"expr": join(text), "hbar_free": join(hbar_free)}


def make_inputs(workload: str, size: str, seed: int) -> list:
    """The items of one pass; the same seed gives the same items.

    The seed orders the pairs of algebra-kf (the pair set is fixed by the
    size) and draws the expressions of quantize-render.  sweep-k runs its
    pairs in the order of ``quantlab sweep`` whatever the seed: each pair
    fills caches that later pairs use, so in a shuffled order one item's
    time moved by up to a third from seed to seed.
    """
    rng = Random(seed)
    bound = SIZES[size][workload]
    if workload == "sweep-k":
        return [{"key": f"{m},{n}", "m": m, "n": n} for m, n in pairs(bound)]
    if workload == "algebra-kf":
        items = [
            {"key": f"{m},{n},{target}", "m": m, "n": n, "target": target}
            for m, n in pairs(bound)
            for target in ("k", "f1", "f2")
        ]
    else:
        return [dict(_expression(rng), key=str(index)) for index in range(bound)]
    rng.shuffle(items)
    return items


# -- timed work -------------------------------------------------------------


def sweep_item(item: dict):
    record = verify.verify_pair(item["m"], item["n"])
    return record, verify.failed_claims(record)


def sweep_report(outputs: list, max_sum: int) -> str:
    """The JSON report of ``quantlab sweep``, records in sweep order."""
    records = sorted((record for record, _ in outputs), key=lambda r: (r.m + r.n, r.m))
    return report.render_sweep(records, max_sum, "k", "json")


def algebra_item(item: dict) -> dict:
    params = generators.OscillatorParams(item["m"], item["n"])
    h = generators.hamiltonian(params)
    ladder = None
    if item["target"] == "k":
        classical = generators.k_integral(params)
    else:
        which = int(item["target"][1])
        classical = generators.ladder_integrals(params)[which - 1]
        ladder = quantizer.quantize_ladder(params, which)
    bracket = phasepoly.poisson(h, classical)
    h_op = quantizer.quantize(WEYL, h)
    weyl_op = quantizer.quantize(WEYL, classical)
    bj_op = quantizer.quantize(BJ, classical)
    weyl_comm = weylalgebra.commutator(h_op, weyl_op)
    bj_comm = weylalgebra.commutator(h_op, bj_op)
    return {
        "bracket_zero": bracket.is_zero(),
        "bj_minus_weyl": bj_op - weyl_op,
        "weyl_commutator": weyl_comm,
        "bj_commutator": bj_comm,
        "ladder_equals_weyl": None if ladder is None else ladder == weyl_op,
    }


def render_item(item: dict) -> dict:
    poly = parser.parse_polynomial(item["expr"])
    out = {"poly": poly, "classical": poly.text(), "ops": {}}
    for name, scheme in (("bj", BJ), ("weyl", WEYL)):
        op = quantizer.quantize(scheme, poly)
        out["ops"][name] = op
        out[name] = {
            "json": json.dumps(report.operator_json(op)),
            "text": op.text(),
            "latex": op.latex(),
            "differential_text": weylalgebra.differential_text(op),
            "differential_latex": weylalgebra.differential_latex(op),
        }
    return out


# -- checks -----------------------------------------------------------------
# Each returns (canonical output, problems, rendered bytes).  The canonical
# output is what the reference digest covers.


def check_sweep(item: dict, output) -> tuple[dict, list[str], int]:
    record, claims = output
    return report.record_json(record), list(claims), 0


def check_algebra(item: dict, output: dict) -> tuple[dict, list[str], int]:
    where = item["key"]
    problems = []
    bj_equals_weyl = output["bj_minus_weyl"].is_zero()
    weyl_comm, bj_comm = output["weyl_commutator"], output["bj_commutator"]
    if not output["bracket_zero"]:
        problems.append(f"{where}: classical bracket is nonzero")
    if not weyl_comm.is_zero():
        problems.append(f"{where}: Weyl commutator is nonzero")
    if bj_equals_weyl != bj_comm.is_zero():
        problems.append(f"{where}: BJ commutes exactly when the schemes coincide fails")
    if not bj_comm.is_zero() and (
        weylalgebra.min_hbar_exponent(bj_comm) < 2
        or weylalgebra.min_omega_exponent(bj_comm) < 1
    ):
        problems.append(f"{where}: BJ commutator lacks the hbar^2 omega factor")
    canonical = {
        "bracket_zero": output["bracket_zero"],
        "bj_equals_weyl": bj_equals_weyl,
        "bj_minus_weyl": report.operator_json(output["bj_minus_weyl"]),
        "weyl_commutator": report.operator_json(weyl_comm),
        "bj_commutator": report.operator_json(bj_comm),
        "ladder_equals_weyl": output["ladder_equals_weyl"],
    }
    return canonical, problems, 0


def _below_hbar(terms: list[dict], exponent: int) -> list[dict]:
    """The terms of an operator's JSON whose hbar exponent is below ``exponent``."""
    out = []
    for term in terms:
        kept = [c for c in term["coeff"]["terms"] if c["h"] < exponent]
        if kept:
            out.append(dict(term, coeff={"terms": kept}))
    return out


def render_canonical(item: dict, output: dict) -> tuple[dict, list[str], int]:
    """The canonical output of a quantize-render item and its rendered bytes."""
    canonical = {"classical": output["classical"], "bj": output["bj"], "weyl": output["weyl"]}
    size = len(output["classical"].encode()) + sum(
        len(text.encode()) for name in ("bj", "weyl") for text in output[name].values()
    )
    return canonical, [], size


def check_render(item: dict, output: dict) -> tuple[dict, list[str], int]:
    """Checks that need no reference digest.

    The canonical text parses back to the input; both quantizations
    reduce to the input's hbar-free part as hbar -> 0; and in the JSON,
    Born-Jordan and Weyl differ only in terms of order hbar^2 and up, as
    both rules give the same terms at orders hbar^0 and hbar^1.
    """
    where = f"expression {item['key']} {item['expr']!r}"
    problems = []
    parse = parser.parse_polynomial
    if parse(output["classical"]) != output["poly"]:
        problems.append(f"{where}: canonical text does not parse back to the input")
    limit = parse(item["hbar_free"])
    low_orders = []
    for name in ("bj", "weyl"):
        if weylalgebra.classical_symbol(output["ops"][name]) != limit:
            problems.append(f"{where}: {name} operator has the wrong classical limit")
        low_orders.append(_below_hbar(json.loads(output[name]["json"]), 2))
    if low_orders[0] != low_orders[1]:
        problems.append(f"{where}: schemes differ below order hbar^2")
    canonical, _, size = render_canonical(item, output)
    return canonical, problems, size


RUN = {"sweep-k": sweep_item, "algebra-kf": algebra_item, "quantize-render": render_item}
CHECK = {"sweep-k": check_sweep, "algebra-kf": check_algebra, "quantize-render": check_render}
# A repeated pass must reproduce the digests of a fully checked pass, so it
# may skip the checks that cost as much as the item itself.
REPEAT_CHECK = {**CHECK, "quantize-render": render_canonical}
