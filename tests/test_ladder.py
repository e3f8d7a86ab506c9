"""The closed-form ladder builder against ladder atoms raised to powers.

generators._ladder_parts writes b^n directly in normal order and reads
F1 and F2 off the one product b1^n b2*^m.  The reference here is the
atom-power construction it replaced: the ladder factors built from the
four phase-space variables or operators, raised with ** and multiplied
(op_mul for operators), forward and backward products both built.
"""

from fractions import Fraction

import pytest

from quantlab import generators, quantizer
from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, ladder_integrals
from quantlab.phasepoly import PhasePoly, PhaseVar
from quantlab.quantizer import quantize_ladder
from quantlab.vlab import verify
from quantlab.weylalgebra import classical_symbol

from reference_kernels import px_hat, py_hat, x_hat, y_hat
from test_oracle import _code_names

_HALF = Fraction(1, 2)
_PAIRS = [(m, s - m) for s in range(2, 15) for m in range(1, s)]


def reference_ladder(x, y, px, py, params: OscillatorParams):
    """(F1, F2) from four atoms of one algebra: F1 = (b1^n b2*^m + b1*^n b2^m)/2,
    F2 = -(i/2)(b1^n b2*^m - b1*^n b2^m), with b1 = px - i*omega1*x and
    b2 = py - i*omega2*y.  On operators * is op_mul."""
    omega1 = Coefficient.monomial(Monomial(w=1, r=1))
    omega2 = omega1 * Fraction(params.n, params.m)
    i_unit = Coefficient.i()
    b1 = px - x * (i_unit * omega1)
    b1_conj = px + x * (i_unit * omega1)
    b2 = py - y * (i_unit * omega2)
    b2_conj = py + y * (i_unit * omega2)
    forward = b1 ** params.n * b2_conj ** params.m
    backward = b1_conj ** params.n * b2 ** params.m
    return (forward + backward) * _HALF, (forward - backward) * (i_unit * -_HALF)


_PHASE_ATOMS = tuple(PhasePoly.variable(var) for var in PhaseVar)


@pytest.mark.parametrize("m, n", _PAIRS)
def test_closed_form_matches_atom_powers(m, n):
    params = OscillatorParams(m, n)
    assert ladder_integrals(params) == reference_ladder(*_PHASE_ATOMS, params)
    f1_op, f2_op = reference_ladder(x_hat(), y_hat(), px_hat(), py_hat(), params)
    assert quantize_ladder(params, 1) == f1_op
    assert quantize_ladder(params, 2) == f2_op


def test_ladder_route_references_no_ordering_rule():
    # ladder_equals_weyl is a check only while the ladder route derives its
    # normal order from BCH, not from the quantizer's ordering rules
    route = (generators._ladder_parts, generators._ladder_power, quantizer.quantize_ladder)
    names = set().union(*(_code_names(fn.__code__) for fn in route))
    assert {"_ladder_parts", "_ladder_power"} <= names
    assert not names & {
        "quantize",
        "quantize_monomial",
        "swap_weight",
        "_corrections",
        "op_mul",
    }


@pytest.mark.parametrize("which", [True, False, 1.0, 2.0, 0, 3, "1", None])
def test_which_is_the_int_one_or_two(which):
    # a bool or float equal to 1 or 2 would index the ladder pair
    params = OscillatorParams(1, 1)
    with pytest.raises(ValueError, match="which must be 1 or 2"):
        quantize_ladder(params, which)


def test_quantize_ladder_builds_only_the_part_it_returns(monkeypatch):
    asked = []
    ladder_parts = quantizer._ladder_parts

    def counted(params, quantum, parities):
        asked.append(parities)
        return ladder_parts(params, quantum, parities)

    monkeypatch.setattr(quantizer, "_ladder_parts", counted)
    params = OscillatorParams(3, 2)
    quantize_ladder(params, 1)
    assert asked == [(0,)]
    asked.clear()
    quantize_ladder(params, 2)
    assert asked == [(1,)]


def test_the_symbol_of_quantize_ladder_is_the_ladder_integral():
    # verify reads the classical F_w off the ladder operator it quantizes
    for m, n in _PAIRS:
        if m + n <= 12:
            params = OscillatorParams(m, n)
            for w, integral in zip((1, 2), ladder_integrals(params)):
                assert classical_symbol(quantize_ladder(params, w)) == integral


def test_every_ladder_integral_is_read_off_one_builder():
    # K is F2 with sqrt2 omega divided out, so it relabels F2's keys and
    # needs no i of its own; verify builds each record through its per-pair
    # entry and imports no ladder builder
    names = _code_names(generators.k_integral.__code__)
    assert "_ladder_parts" in names
    assert "I" not in names
    for gone in ("ladder_products", "_forward_parts"):
        assert not hasattr(generators, gone)
    assert {"ladder_products", "_ladder_parts", "ladder_integrals"}.isdisjoint(vars(verify))
