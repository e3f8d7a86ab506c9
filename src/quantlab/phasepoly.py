"""Commutative phase-space polynomials in (x, y, px, py) over the
coefficient ring.

A PhasePoly is a coeffring.TermMap: one flat map from a Monomial, the
exponents of x, y, px, py and of the ring's generators, to a nonzero int
numerator over one shared denominator, in lowest terms, so equality is
structural.  Its product is the commutative one of every term map.  The
module adds partial derivatives, the canonical Poisson bracket, and the
linear substitution that eliminates the auxiliary pair (u, pu) in favor
of Cartesian (y, py).
"""

from __future__ import annotations

from enum import Enum

from quantlab.coeffring import Monomial, TermMap, _reduced


class PhaseVar(Enum):
    X = "x"
    Y = "y"
    PX = "px"
    PY = "py"


# slot index of each variable in a Monomial (a, b, c, d, ...)
_VAR_SLOT = {PhaseVar.X: 0, PhaseVar.Y: 1, PhaseVar.PX: 2, PhaseVar.PY: 3}

# conjugate momentum slot for each position slot, used by the bracket
_CANONICAL_PAIRS = ((PhaseVar.X, PhaseVar.PX), (PhaseVar.Y, PhaseVar.PY))


PhaseMono = Monomial


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
                exps[slot] = exp - 1
                out[Monomial(*exps)] = value * exp
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
    # (n/m)^e for e = b - d is n^(e - low) m^(high - e) over n^-low m^high,
    # with low <= 0 <= high bounding every e, so all exponents are >= 0.
    nums = poly.numerators
    low = min((mono.b - mono.d for mono in nums), default=0)
    high = max((mono.b - mono.d for mono in nums), default=0)
    low, high = min(low, 0), max(high, 0)
    return _reduced(
        PhasePoly,
        {
            mono: value * n ** (mono.b - mono.d - low) * m ** (high - mono.b + mono.d)
            for mono, value in nums.items()
        },
        poly.denominator * n ** -low * m ** high,
    )
