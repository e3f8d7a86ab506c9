"""Commutative phase-space polynomials in (x, y, px, py) over Coefficient.

Polynomials are coeffring.TermMap maps from exponent quadruples to
coefficients, stored canonically (no zero coefficients, graded-lex term
order), so equality is structural.  The module defines Monomial, the
exponent quadruple that also keys the normal-ordered operators of
weylalgebra, and supplies the polynomial product, partial derivatives,
the canonical Poisson bracket, and the linear substitution that
eliminates the auxiliary pair (u, pu) in favor of Cartesian (y, py).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from quantlab.coeffring import Coefficient, TermMap, _accumulate, _canonical


class PhaseVar(Enum):
    X = "x"
    Y = "y"
    PX = "px"
    PY = "py"


# slot index of each variable in the exponent quadruple (a, b, c, d)
_VAR_SLOT = {PhaseVar.X: 0, PhaseVar.Y: 1, PhaseVar.PX: 2, PhaseVar.PY: 3}

# conjugate momentum slot for each position slot, used by the bracket
_CANONICAL_PAIRS = ((PhaseVar.X, PhaseVar.PX), (PhaseVar.Y, PhaseVar.PY))


class Monomial(namedtuple("Monomial", "a b c d")):
    """Exponents of x^a y^b px^c py^d.

    One type keys both commutative polynomials and normal-ordered
    operator words X^a Y^b Px^c Py^d; PhaseMono and OpMono name it.
    """

    __slots__ = ()

    def __new__(cls, a: int = 0, b: int = 0, c: int = 0, d: int = 0):
        if a < 0 or b < 0 or c < 0 or d < 0:
            raise ValueError("exponents must be nonnegative")
        return tuple.__new__(cls, (a, b, c, d))

    def sort_key(self):
        """Graded lexicographic: degree, then the exponents (a, b, c, d)."""
        return (sum(self), self)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)


PhaseMono = Monomial


class PhasePoly(TermMap):
    """Sparse commutative polynomial with Coefficient coefficients."""

    __slots__ = ()
    _ring = Coefficient
    _unit = Monomial()
    _names = "phase"

    @classmethod
    def variable(cls, var: PhaseVar) -> "PhasePoly":
        exps = [0, 0, 0, 0]
        exps[_VAR_SLOT[var]] = 1
        return cls({Monomial(*exps): Coefficient.one()})

    def _product(self, other: "PhasePoly") -> "PhasePoly":
        acc: dict[Monomial, Coefficient] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _accumulate(acc, m1 * m2, c1 * c2)
        return _canonical(PhasePoly, acc)

    def partial(self, var: PhaseVar) -> "PhasePoly":
        """Formal partial derivative with respect to one phase variable."""
        slot = _VAR_SLOT[var]
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self._terms.items():
            exps = list(mono)
            exp = exps[slot]
            if exp == 0:
                continue
            exps[slot] = exp - 1
            acc[Monomial(*exps)] = coeff * exp
        return PhasePoly(acc)


def poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical Poisson bracket {f, g}.

    Convention: {f, g} = sum over canonical pairs of
    df/dq * dg/dp - df/dp * dg/dq, so that {x, px} = 1.
    """
    out = PhasePoly.zero()
    for pos, mom in _CANONICAL_PAIRS:
        out = out + f.partial(pos) * g.partial(mom) - f.partial(mom) * g.partial(pos)
    return out


def hamiltonian_flow_apply(flow_hamiltonian: PhasePoly, observable: PhasePoly) -> PhasePoly:
    """Apply the Hamiltonian vector field of `flow_hamiltonian` to `observable`.

    The sign is fixed so that the field of px^2/2 + omega^2 x^2 applied
    to x yields px, i.e. the result is {observable, flow_hamiltonian}.
    """
    return poisson(observable, flow_hamiltonian)


def substitute_uy(poly: PhasePoly, m: int, n: int) -> PhasePoly:
    """Eliminate the auxiliary pair: u -> (n/m) y and pu -> (m/n) py.

    `poly` is read with its y slot holding u and its py slot holding pu;
    the result is a genuine (x, y, px, py) polynomial.  Both substitutions
    are linear rescalings, so this is a ring homomorphism.
    """
    if not isinstance(m, int) or not isinstance(n, int) or m < 1 or n < 1:
        raise ValueError("m and n must be positive integers")
    ratio = Fraction(n, m)
    acc = {}
    for mono, coeff in poly.terms.items():
        acc[mono] = coeff * ratio ** (mono.b - mono.d)
    return PhasePoly(acc)
