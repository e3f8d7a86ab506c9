"""Exact rendered strings of polynomials, operators and a LaTeX report.

Every expected string is pinned byte for byte, so any change to the
text or LaTeX conventions (fractions, signs, folding of -1, parentheses,
operator hats, derivative forms) shows up here.  The string renderer is
also checked, byte for byte, against the list-based reference renderer
of reference_kernels on drawn views, polynomials and operators.
"""

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from quantlab import coeffring, render
from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral
from quantlab.quantizer import Scheme, quantize
from quantlab.vlab.parser import parse_polynomial
from quantlab.vlab.report import operator_json, record_latex, render_record
from quantlab.vlab.verify import verify_pair
from quantlab.weylalgebra import (
    Operator,
    commutator,
    differential_latex,
    differential_text,
    probe_image,
)

import reference_kernels as ref
from reference_kernels import px_hat, x_hat
from randgen import flatten, rand_operator, rand_phase_poly, zero_case

POLYS = [
    (
        "3/4*x^2*py - (1/2 + 2/3*i)*y*px + 5",
        "3/4 * x^2 * py + (-1/2 - 2/3*i) * y * px + 5",
        r"\frac{3}{4} x^{2} p_y + \left(-\frac{1}{2} - \frac{2}{3} i\right) y p_x + 5",
    ),
    (
        "0 - omega^2 - x^2*y + 7/3*hbar*x",
        "-1 * x^2 * y + 7/3 * hbar * x - 1 * omega^2",
        r"-x^{2} y + \frac{7}{3} \hbar x - \omega^{2}",
    ),
    (
        "0 - x*py^2 + y - 1",
        "-x * py^2 + y - 1",
        r"-x p_y^{2} + y - 1",
    ),
    (
        "0 - i*x^3 + 3/4*i*y - (1/2 - i)*px*py^2",
        "-i * x^3 + (-1/2 + i) * px * py^2 + 3/4 * i * y",
        r"-i x^{3} + \left(-\frac{1}{2} + i\right) p_x p_y^{2} + \frac{3}{4} i y",
    ),
    (
        "sqrt2*x + (hbar + sqrt2)*px - (omega^2 - 1/2*hbar)*x*y",
        "(1/2 * hbar - 1 * omega^2) * x * y + sqrt2 * x + (hbar + sqrt2) * px",
        r"\left(\frac{1}{2} \hbar - \omega^{2}\right) x y + \sqrt{2} x"
        r" + \left(\hbar + \sqrt{2}\right) p_x",
    ),
    ("0", "0", "0"),
]


@pytest.mark.parametrize("expr, text, latex", POLYS)
def test_phasepoly_strings(expr, text, latex):
    poly = parse_polynomial(expr)
    assert poly.text() == text
    assert poly.latex() == latex
    assert str(poly) == text


def _built_operator() -> Operator:
    i = Coefficient.i()
    return flatten(
        Operator,
        {
            Monomial(a=2, c=1, d=1): i * Fraction(3, 4),
            Monomial(b=1, c=2): -Coefficient.omega(2),
            Monomial(c=1): -i,
            Monomial(a=1, d=3): Coefficient.hbar() + Coefficient.sqrt2(),
            Monomial(): Fraction(-1, 2) + Fraction(5, 3) * i,
            Monomial(b=2): Coefficient.of(-1),
        }
    )


OPERATORS = [
    (
        _built_operator,
        "3/4 * i * x^2 * px * py + (hbar + sqrt2) * x * py^3 - 1 * omega^2 * y * px^2"
        " - 1 * y^2 - i * px + (-1/2 + 5/3*i)",
        r"\frac{3}{4} i \hat{x}^{2} \hat{p}_x \hat{p}_y"
        r" + \left(\hbar + \sqrt{2}\right) \hat{x} \hat{p}_y^{3}"
        r" - \omega^{2} \hat{y} \hat{p}_x^{2} - \hat{y}^{2} - i \hat{p}_x"
        r" + \left(-\frac{1}{2} + \frac{5}{3} i\right)",
        "-3/4 * i * hbar^2 * x^2 * d^2/dx dy + (i * hbar^4 + i * hbar^3 * sqrt2) * x * d^3/dy^3"
        " + hbar^2 * omega^2 * y * d^2/dx^2 - 1 * y^2 - hbar * d/dx + (-1/2 + 5/3*i)",
        r"-\frac{3}{4} i \hbar^{2} x^{2} \frac{\partial^{2}}{\partial x \, \partial y}"
        r" + \left(i \hbar^{4} + i \hbar^{3} \sqrt{2}\right) x \frac{\partial^{3}}{\partial y^{3}}"
        r" + \hbar^{2} \omega^{2} y \frac{\partial^{2}}{\partial x^{2}} - y^{2}"
        r" - \hbar \frac{\partial}{\partial x} + \left(-\frac{1}{2} + \frac{5}{3} i\right)",
    ),
    (Operator.zero, "0", "0", "0", "0"),
    (
        lambda: quantize(Scheme.WEYL, parse_polynomial("x*px^2*py")),
        "x * px^2 * py - i * hbar * px * py",
        r"\hat{x} \hat{p}_x^{2} \hat{p}_y - i \hbar \hat{p}_x \hat{p}_y",
        "i * hbar^3 * x * d^3/dx^2 dy + i * hbar^3 * d^2/dx dy",
        r"i \hbar^{3} x \frac{\partial^{3}}{\partial x^{2} \, \partial y}"
        r" + i \hbar^{3} \frac{\partial^{2}}{\partial x \, \partial y}",
    ),
    (
        lambda: quantize(Scheme.BORN_JORDAN, parse_polynomial("omega^2*x^2*px^2 - sqrt2*y*py")),
        "omega^2 * x^2 * px^2 - 2 * i * hbar * omega^2 * x * px - sqrt2 * y * py"
        " + (-2/3 * hbar^2 * omega^2 + 1/2 * i * hbar * sqrt2)",
        r"\omega^{2} \hat{x}^{2} \hat{p}_x^{2} - 2 i \hbar \omega^{2} \hat{x} \hat{p}_x"
        r" - \sqrt{2} \hat{y} \hat{p}_y"
        r" + \left(-\frac{2}{3} \hbar^{2} \omega^{2} + \frac{1}{2} i \hbar \sqrt{2}\right)",
        "-1 * hbar^2 * omega^2 * x^2 * d^2/dx^2 - 2 * hbar^2 * omega^2 * x * d/dx"
        " + i * hbar * sqrt2 * y * d/dy + (-2/3 * hbar^2 * omega^2 + 1/2 * i * hbar * sqrt2)",
        r"-\hbar^{2} \omega^{2} x^{2} \frac{\partial^{2}}{\partial x^{2}}"
        r" - 2 \hbar^{2} \omega^{2} x \frac{\partial}{\partial x}"
        r" + i \hbar \sqrt{2} y \frac{\partial}{\partial y}"
        r" + \left(-\frac{2}{3} \hbar^{2} \omega^{2} + \frac{1}{2} i \hbar \sqrt{2}\right)",
    ),
]


@pytest.mark.parametrize("build, text, latex, diff_text, diff_latex", OPERATORS)
def test_operator_strings(build, text, latex, diff_text, diff_latex):
    op = build()
    assert op.text() == text
    assert str(op) == text
    assert op.latex() == latex
    assert differential_text(op) == diff_text
    assert differential_latex(op) == diff_latex


def test_record_latex_4_1():
    assert record_latex(verify_pair(4, 1)) == (
        "\\paragraph{Pair $(4, 1)$, target k.}\n"
        "$\\hat K^{BJ} - \\hat K^{W} = 32 \\hbar^{2} \\omega^{2} \\hat{x}$\n"
        "$[\\hat H, \\hat K^{W}] = 0 = 0$\n"
        "$[\\hat H, \\hat K^{BJ}] = -32 i \\hbar^{3} \\omega^{2} \\hat{p}_x"
        " = -32 \\hbar^{4} \\omega^{2} \\frac{\\partial}{\\partial x}$\n"
    )


def _term_json(h, w, r, re, im):
    """A coefficient term of operator_json with integer parts re and im."""
    return {"h": h, "w": w, "r": r, "re_num": re, "re_den": 1, "im_num": im, "im_den": 1}


def test_gaussian_coefficient_next_to_a_second_group():
    # re and im at one (h, w, r), beside a second group: the flat terms
    # hbar*x and i*hbar*x meet again in one Gaussian rational on output
    i = Coefficient.i()
    op = x_hat() * ((1 - 2 * i) * Coefficient.hbar() + Coefficient.omega()) + px_hat() * (3 + i)
    assert op.text() == "((1 - 2*i) * hbar + omega) * x + (3 + i) * px"
    assert op.latex() == (
        r"\left(\left(1 - 2 i\right) \hbar + \omega\right) \hat{x}"
        r" + \left(3 + i\right) \hat{p}_x"
    )
    assert differential_text(op) == "((1 - 2*i) * hbar + omega) * x + (1 - 3*i) * hbar * d/dx"
    assert operator_json(op) == [
        {
            "a": 1, "b": 0, "c": 0, "d": 0,
            "coeff": {"terms": [_term_json(1, 0, 0, 1, -2), _term_json(0, 1, 0, 1, 0)]},
        },
        {"a": 0, "b": 0, "c": 1, "d": 0, "coeff": {"terms": [_term_json(0, 0, 0, 3, 1)]}},
    ]


def test_derivative_groups_relabel_the_grouped_view_of_k():
    # K's Weyl and Born-Jordan operators and their commutators with H
    seen = 0
    for total in range(2, 9):
        for m in range(1, total):
            params = OscillatorParams(m, total - m)
            h_op = quantize(Scheme.WEYL, hamiltonian(params))
            for scheme in Scheme:
                op = quantize(scheme, k_integral(params))
                for each in (op, commutator(h_op, op)):
                    assert each.derivative_groups == probe_image(each).groups
                    seen += bool(each)
    # every K, and the Born-Jordan commutator of each of the 19 pairs where the schemes differ
    assert seen == 28 * 2 + 19


def test_derivative_groups_relabel_the_grouped_view_of_random_operators():
    rng = Random(1301)
    odd_order_with_i = 0
    for _ in range(300):
        op = rand_operator(rng, max_terms=4, max_exp=3)
        assert op.derivative_groups == probe_image(op).groups
        odd_order_with_i += any(key.e and (key.c + key.d) % 2 for key in op.numerators)
    assert odd_order_with_i >= 50


def _five_renders(op: Operator) -> list:
    return [op.text(), op.latex(), operator_json(op), differential_text(op), differential_latex(op)]


def test_five_renders_group_once(monkeypatch):
    calls = []
    relabels = []
    original = coeffring.grouped
    original_relabel = render.derivative_groups

    def counting(nums, den):
        calls.append(len(nums))
        return original(nums, den)

    def counting_relabel(groups):
        relabels.append(len(groups))
        return original_relabel(groups)

    monkeypatch.setattr(coeffring, "grouped", counting)
    monkeypatch.setattr(render, "derivative_groups", counting_relabel)
    op = quantize(Scheme.BORN_JORDAN, parse_polynomial("x^2*py^3 - (1/2 + i)*hbar*y*px + sqrt2"))
    renders = _five_renders(op)
    assert calls == [len(op.numerators)]
    # the differential text and LaTeX read one relabelled view
    assert relabels == [len(op.groups)]
    # a second round reads the same views
    assert _five_renders(op) == renders
    assert len(calls) == 1
    assert len(relabels) == 1
    # a view is kept only until another map is read, so a process that
    # keeps many rendered maps alive keeps none of their views
    other = quantize(Scheme.WEYL, parse_polynomial("x*px"))
    other.text()
    assert _five_renders(op) == renders
    assert calls == [len(op.numerators), len(other.numerators), len(op.numerators)]
    assert len(relabels) == 2


def test_grouped_view_is_read_only():
    # every reader shares the view, so no reader may change a later render
    op = quantize(Scheme.WEYL, parse_polynomial("x^2*py^3 - (1/2 + i)*hbar*y*px + sqrt2*x"))
    renders = _five_renders(op)
    view = op.groups
    assert op.groups is view
    with pytest.raises(AttributeError):
        view.sort()
    with pytest.raises(AttributeError):
        view[0][1].append(view[-1][1][0])
    with pytest.raises(TypeError):
        view[0] = view[-1]
    with pytest.raises(TypeError):
        view[0][1][0] = view[-1][1][0]
    assert _five_renders(op) == renders


# -- the string renderer against the list-based reference ----------------------

_UNITS = [(1, 1), (-1, 1)]
# (re, im) of one coefficient term: the units, real, imaginary and Gaussian
_SCALARS = [
    ((-1, 1), (0, 1)),
    ((1, 1), (0, 1)),
    ((0, 1), (1, 1)),
    ((0, 1), (-1, 1)),
    ((3, 4), (0, 1)),
    ((0, 1), (-7, 3)),
    ((-2, 1), (5, 1)),
    ((1, 1), (-1, 1)),
]


def _ref_key_factors(kind: str):
    if kind == "differential":
        return ref.differential_factors
    return lambda phase, style: ref.power_factors(style.names[kind], phase, style)


def _rand_exponents(rng: Random, size: int) -> tuple:
    return tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(size))


def _rand_groups(rng: Random) -> tuple:
    """A grouped view, as render.grouped returns one, drawn directly: any
    phase part under any coefficient, so -1 meets every kind of first
    factor, also a derivative with no hbar before it."""
    phases = {_rand_exponents(rng, 4) for _ in range(rng.randint(0, 4))}
    out = []
    for phase in render.ordered(phases):
        size = rng.choice((1, 1, 1, 2, 3))
        params = {
            rng.choice(((0, 0, 0), _rand_exponents(rng, 2) + (rng.randint(0, 1),)))
            for _ in range(size)
        }
        group = [(hwr, *rng.choice(_SCALARS)) for hwr in sorted(params, reverse=True)]
        out.append((phase, tuple(group)))
    return tuple(out)


def _features(groups: tuple, kind: str, style: render.Style) -> set:
    """The cases of the fold and of the heads that a view's render meets."""
    seen = set() if groups else {"zero"}
    for phase, group in groups:
        if len(group) > 1:
            seen.add("sum")
            continue
        ((hwr, re, im),) = group
        tail = ref.power_factors(style.names["coefficient"], hwr, style)
        tail += _ref_key_factors(kind)(phase, style)
        if not tail:
            seen.add("constant")
        elif (re, im) == ((-1, 1), (0, 1)) and "^" in tail[0]:
            derivative = tail[0].startswith(style.derivative.split("%s")[0] + style.names[kind][2])
            seen.add(("-1 before", "derivative" if derivative else "power", style.fold_powers))
        elif re == (0, 1) and im in _UNITS:
            seen.add(render.scalar(re, im, style))
        elif re != (0, 1) and im != (0, 1):
            seen.add("gaussian")
    return seen


def _check_view(groups: tuple, kinds: tuple, seen: Counter) -> None:
    for style in (render.TEXT, render.LATEX):
        for kind in kinds:
            expected = ref.join_terms(groups, _ref_key_factors(kind), style)
            assert render.join_terms(groups, kind, style) == expected
            seen.update(_features(groups, kind, style))
        for phase, group in groups:
            assert render.coefficient(group, style) == ref.coefficient(group, style)
            for kind in kinds:
                # the constant key is written "1"
                expected = style.join.join(_ref_key_factors(kind)(phase, style)) or "1"
                assert render.key_text(phase, kind, style) == expected


def test_renderer_matches_the_list_based_reference():
    rng = Random(2411)
    seen: Counter = Counter()
    for _ in range(2000):
        _check_view(_rand_groups(rng), ("phase", "operator", "differential"), seen)
    for index in range(1000):
        (poly,) = zero_case(index, rand_phase_poly(rng, max_exp=3))
        _check_view(poly.groups, ("phase",), seen)
        for style, out in ((render.TEXT, poly.text()), (render.LATEX, poly.latex())):
            assert out == ref.join_terms(poly.groups, _ref_key_factors("phase"), style)
    for _ in range(1000):
        op = rand_operator(rng, max_terms=4, max_exp=3)
        _check_view(op.groups, ("operator",), seen)
        _check_view(op.derivative_groups, ("differential",), seen)
        for key_factors, groups, text, latex in (
            (_ref_key_factors("operator"), op.groups, op.text(), op.latex()),
            (ref.differential_factors, op.derivative_groups,
             differential_text(op), differential_latex(op)),
        ):
            assert text == ref.join_terms(groups, key_factors, render.TEXT)
            assert latex == ref.join_terms(groups, key_factors, render.LATEX)
    for _ in range(500):
        coeff = flatten(Coefficient, {Monomial(): rng.choice((1, -1, Fraction(2, 3)))})
        coeff = coeff * rng.choice((1, Coefficient.i(), Coefficient.hbar() + 1))
        group = coeff.groups[0][1] if coeff.groups else ()
        assert coeff.text() == ref.coefficient(group, render.TEXT)
        assert coeff.latex() == ref.coefficient(group, render.LATEX)
    assert Operator.zero().text() == differential_latex(Operator.zero()) == "0"
    # every fold of -1, both unit imaginary heads, Gaussian heads, sums,
    # lone constants and the zero map were met, each many times
    for case in (
        ("-1 before", "power", False),
        ("-1 before", "derivative", False),
        ("-1 before", "power", True),
        ("-1 before", "derivative", True),
        "i", "-i", "gaussian", "sum", "constant", "zero",
    ):
        assert seen[case] >= 20, case


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cache_entries() -> int:
    return sum(len(halves) for halves in render._halves_cache.values())


def test_key_cache_stays_small(monkeypatch):
    # only halves of keys are cached, never whole keys: one cache per
    # style and set of names, each holding the distinct (a, b), (c, d) or
    # (h, w, r) met, so the caches grow with the degree, not with the terms
    monkeypatch.setattr(render, "_halves_cache", {})
    workloads = _load_workloads()
    for item in workloads.make_inputs("quantize-render", "full", 1):
        workloads.render_item(item)
    assert 100 < _cache_entries() < 500
    # the (10, 10) report has terms of degree 16 with (a, b) up to (10, 6)
    record = verify_pair(10, 10)
    for fmt in ("text", "json", "latex"):
        render_record(record, fmt)
    assert _cache_entries() < 1000
    assert max(map(len, render._halves_cache.values())) < 150
