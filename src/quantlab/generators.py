"""Constructors for the oscillator's classical observables.

The anisotropic oscillator with rational frequency ratio carries, besides
the Hamiltonian itself, the separation integral L, a polynomial integral
K built from L's flow, and a pair of ladder-product integrals.  All of
them are returned as exact phase-space polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from quantlab.coeffring import Coefficient, Monomial
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson

_X = PhasePoly.variable(PhaseVar.X)
_Y = PhasePoly.variable(PhaseVar.Y)
_PX = PhasePoly.variable(PhaseVar.PX)
_PY = PhasePoly.variable(PhaseVar.PY)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class OscillatorParams:
    """Positive frequency-ratio parameters.

    The axis frequencies are omega1 = sqrt2*omega and
    omega2 = (n/m)*sqrt2*omega, so m*omega2 = n*omega1 identically.
    """

    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")


def hamiltonian(params: OscillatorParams) -> PhasePoly:
    """H = (px^2 + py^2)/2 + omega^2 (x^2 + (n/m)^2 y^2)."""
    ratio_sq = Fraction(params.n, params.m) ** 2
    kinetic = (_PX ** 2 + _PY ** 2) * _HALF
    potential = _X ** 2 * Coefficient.omega(2) + _Y ** 2 * (Coefficient.omega(2) * ratio_sq)
    return kinetic + potential


def l_integral() -> PhasePoly:
    """Separation integral L = px^2/2 + omega^2 x^2 of the x axis."""
    return _PX ** 2 * _HALF + _X ** 2 * Coefficient.omega(2)


def _binomial_half(k: int, parity: int, s, t, axis: int, scale=1) -> PhasePoly:
    """scale * sum over j = parity (mod 2) of
    C(k, j) s^j t^(k-j) (-2 omega^2)^(j//2) q^j p^(k-j).

    (q, p) is (x, px) for axis 0 and (y, py) for axis 1.  G_n, P and D
    are each one parity half of this expansion.
    """
    terms = {}
    for j in range(parity, k + 1, 2):
        exps = [0, 0, 0, 0]
        exps[axis], exps[axis + 2] = j, k - j
        value = scale * comb(k, j) * s ** j * t ** (k - j) * (-2) ** (j // 2)
        terms[Monomial(*exps, w=j - parity)] = value
    return PhasePoly(terms)


def g_poly(n: int) -> PhasePoly:
    """G_n = sum_k C(n, 2k+1) (-2 omega^2)^k x^(2k+1) px^(n-2k-1)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return _binomial_half(n, parity=1, s=1, t=1, axis=0)


def p_poly(params: OscillatorParams) -> PhasePoly:
    """P factor of the K integral, in Cartesian (y, py).

    In the rescaled pair u = (n/m) y, pu = (m/n) py,
    P = sum_k C(m, 2k) (-(m/n) u)^(2k) pu^(m-2k) (-2 omega^2)^k, so
    (-(m/n) u)^j = (-y)^j and pu^(m-j) = (m/n)^(m-j) py^(m-j).
    """
    return _binomial_half(params.m, parity=0, s=1, t=Fraction(params.m, params.n), axis=1)


def d_poly(params: OscillatorParams) -> PhasePoly:
    """D factor of the K integral, in Cartesian (y, py).

    In the rescaled pair of p_poly,
    D = (1/n) sum_k C(m, 2k+1) (-(m/n) u)^(2k+1) pu^(m-2k-1) (-2 omega^2)^k.
    For m = 1 the sum collapses to its single term -(1/n) y.
    """
    m, n = params.m, params.n
    return _binomial_half(m, parity=1, s=-1, t=Fraction(m, n), axis=1, scale=Fraction(1, n))


def k_integral(params: OscillatorParams) -> PhasePoly:
    """Polynomial first integral K = P * G_n + D * X_L(G_n) of degree m + n,
    where X_L(G_n) = {G_n, L} is G_n's derivative along L's flow."""
    g = g_poly(params.n)
    return p_poly(params) * g + d_poly(params) * poisson(g, l_integral())


def ladder_products(x, y, px, py, params: OscillatorParams, which: tuple[int, ...]):
    """Ladder products F_w for each w in `which`, from four atoms of one algebra.

    With b1 = px - i*omega1*x and b2 = py - i*omega2*y (and their
    conjugates), F1 = (b1^n b2*^m + b1*^n b2^m)/2 and
    F2 = -(i/2)(b1^n b2*^m - b1*^n b2^m).  The atoms may be phase-space
    variables or operators: each summand is a product of powers of two
    commuting factors, so no ordering ambiguity arises.
    """
    omega1 = Coefficient.monomial(Monomial(w=1, r=1))
    omega2 = omega1 * Fraction(params.n, params.m)
    i_unit = Coefficient.i()
    b1 = px - x * (i_unit * omega1)
    b1_conj = px + x * (i_unit * omega1)
    b2 = py - y * (i_unit * omega2)
    b2_conj = py + y * (i_unit * omega2)
    forward = b1 ** params.n * b2_conj ** params.m
    backward = b1_conj ** params.n * b2 ** params.m
    return tuple(
        (forward + backward) * _HALF if w == 1 else (forward - backward) * (i_unit * -_HALF)
        for w in which
    )


def ladder_integrals(params: OscillatorParams) -> tuple[PhasePoly, PhasePoly]:
    """Unnormalized ladder-product integrals (F1, F2) of ladder_products.

    The 1/sqrt(2*omega_j) normalizations are dropped: they rescale by an
    overall constant and do not affect first-integral status.
    """
    return ladder_products(_X, _Y, _PX, _PY, params, (1, 2))
