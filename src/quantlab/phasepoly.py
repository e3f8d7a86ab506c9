"""Commutative phase-space polynomials in (x, y, px, py) over the
coefficient ring.

A PhasePoly is a coeffring.TermMap: one flat map from a key, the
exponents of x, y, px, py and of the ring's generators in one int, to a
nonzero int numerator over one shared denominator, in lowest terms, so
equality is structural.  Its product is the commutative one of every
term map.  The module adds the phase variables, the keys of the two
canonical pairs and the canonical Poisson bracket.
"""

from __future__ import annotations

from enum import Enum

from quantlab.coeffring import PX, PY, X, Y, Monomial, TermMap, _folded, _reduced, phase_terms


class PhaseVar(Enum):
    X = "x"
    Y = "y"
    PX = "px"
    PY = "py"


# slot index of each variable in a Monomial (a, b, c, d, ...)
_VAR_SLOT = {PhaseVar.X: 0, PhaseVar.Y: 1, PhaseVar.PX: 2, PhaseVar.PY: 3}

# The keys of x px and y py: subtracting k times one lowers a position
# exponent and its momentum (or s, t) exponent by k together.
_X_PX, _Y_PY = X + PX, Y + PY


class PhasePoly(TermMap):
    """Sparse commutative polynomial over the coefficient ring."""

    __slots__ = ()
    _names = "phase"

    @classmethod
    def variable(cls, var: PhaseVar) -> "PhasePoly":
        exps = [0, 0, 0, 0]
        exps[_VAR_SLOT[var]] = 1
        return cls.monomial(Monomial(*exps))


def poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical Poisson bracket {f, g}.

    Convention: {f, g} = sum over canonical pairs of
    df/dq * dg/dp - df/dp * dg/dq, so that {x, px} = 1.

    One pass over term pairs: for keys x^a1 y^b1 px^c1 py^d1 and
    x^a2 y^b2 px^c2 py^d2 the (x, px) pair contributes the key product
    lowered by one in a and c with weight a1 c2 - c1 a2, and the (y, py)
    pair the product lowered by one in b and d with weight b1 d2 - d1 b2.
    A pair with both weights zero contributes nothing.  The keys add as
    ints, and the sums are reduced once at the end.
    """
    if not (isinstance(f, PhasePoly) and isinstance(g, PhasePoly)):
        raise TypeError("poisson takes two PhasePoly operands")
    g_terms = phase_terms(g._nums)
    acc: dict[int, int] = {}
    get = acc.get
    for k1, v1, a1, b1, c1, d1 in phase_terms(f._nums):
        for k2, v2, a2, b2, c2, d2 in g_terms:
            x = a1 * c2 - c1 * a2
            y = b1 * d2 - d1 * b2
            if not (x or y):
                continue
            base = k1 + k2
            value = v1 * v2
            # a nonzero x needs a >= 1 and c >= 1, a nonzero y b and d
            if x:
                key = base - _X_PX
                acc[key] = get(key, 0) + value * x
            if y:
                key = base - _Y_PY
                acc[key] = get(key, 0) + value * y
    return _reduced(PhasePoly, _folded(acc), f._den * g._den)
