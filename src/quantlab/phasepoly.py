"""Commutative phase-space polynomials in (x, y, px, py) over the
coefficient ring.

A PhasePoly is a coeffring.TermMap: one flat map from a Monomial, the
exponents of x, y, px, py and of the ring's generators, to a nonzero int
numerator over one shared denominator, in lowest terms, so equality is
structural.  Its product is the commutative one of every term map.  The
module adds partial derivatives and the canonical Poisson bracket.
"""

from __future__ import annotations

from enum import Enum

from quantlab.coeffring import Monomial, TermMap, _make, _reduced


class PhaseVar(Enum):
    X = "x"
    Y = "y"
    PX = "px"
    PY = "py"


# slot index of each variable in a Monomial (a, b, c, d, ...)
_VAR_SLOT = {PhaseVar.X: 0, PhaseVar.Y: 1, PhaseVar.PX: 2, PhaseVar.PY: 3}

# conjugate momentum slot for each position slot, used by the bracket
_CANONICAL_PAIRS = ((PhaseVar.X, PhaseVar.PX), (PhaseVar.Y, PhaseVar.PY))


class PhasePoly(TermMap):
    """Sparse commutative polynomial over the coefficient ring."""

    __slots__ = ()
    _names = "phase"

    @classmethod
    def variable(cls, var: PhaseVar) -> "PhasePoly":
        exps = [0, 0, 0, 0]
        exps[_VAR_SLOT[var]] = 1
        return cls.monomial(Monomial(*exps))

    def partial(self, var: PhaseVar) -> "PhasePoly":
        """Formal partial derivative with respect to one phase variable."""
        slot = _VAR_SLOT[var]
        out = {}
        for mono, value in self._nums.items():
            exp = mono[slot]
            if exp:
                exps = list(mono)
                # a positive exponent lowered by one: still a valid key
                exps[slot] = exp - 1
                out[_make(Monomial, exps)] = value * exp
        return _reduced(PhasePoly, out, self._den)


def poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical Poisson bracket {f, g}.

    Convention: {f, g} = sum over canonical pairs of
    df/dq * dg/dp - df/dp * dg/dq, so that {x, px} = 1.
    """
    out = PhasePoly.zero()
    for pos, mom in _CANONICAL_PAIRS:
        out = out + f.partial(pos) * g.partial(mom) - f.partial(mom) * g.partial(pos)
    return out
