"""Constructors for the oscillator's classical observables.

The anisotropic oscillator with rational frequency ratio carries, besides
the Hamiltonian itself, the separation integral L, a polynomial integral
K built from L's flow, and a pair of ladder-product integrals.  All of
them are returned as exact phase-space polynomials.  The ladder builder
also gives the products as normal-ordered operators: each ladder power
b^k is written in closed form (BCH, as [q, p] is central; the classical
power is its hbar-free slice), and F1 and F2 are read off the one
product b1^n b2*^m, split by the automorphism i -> -i, hbar -> -hbar
that sends it to b1*^n b2^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from quantlab.coeffring import Monomial, _add_product, _canonical, _make, _ratio, _reduced
from quantlab.phasepoly import PhasePoly
from quantlab.weylalgebra import Operator

# the keys of H and L: px^2, py^2, omega^2 x^2 and omega^2 y^2
_PX2, _PY2 = Monomial(c=2), Monomial(d=2)
_X2, _Y2 = Monomial(a=2, w=2), Monomial(b=2, w=2)


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
    """H = (px^2 + py^2)/2 + omega^2 (x^2 + (n/m)^2 y^2), written over
    2 m^2 as (m^2 px^2 + m^2 py^2 + 2 m^2 omega^2 x^2 + 2 n^2 omega^2 y^2)."""
    m2, n2 = params.m * params.m, params.n * params.n
    return _reduced(PhasePoly, {_PX2: m2, _PY2: m2, _X2: 2 * m2, _Y2: 2 * n2}, 2 * m2)


def l_integral() -> PhasePoly:
    """Separation integral L = px^2/2 + omega^2 x^2 of the x axis."""
    return _canonical(PhasePoly, {_PX2: 1, _X2: 2}, 2)


def _binomial_half(k: int, parity: int, s, t, axis: int, scale=1) -> PhasePoly:
    """scale * sum over j = parity (mod 2) of
    C(k, j) s^j t^(k-j) (-2 omega^2)^(j//2) q^j p^(k-j).

    (q, p) is (x, px) for axis 0 and (y, py) for axis 1.  G_n, E_n, P
    and D are each one parity half of this expansion.  t and scale are
    ints or Fractions; each term is an int over scale's denominator times
    t's to the k, as t^(k-j) = t_num^(k-j) t_den^j / t_den^k.
    """
    t_num, t_den = _ratio(t)
    scale_num, scale_den = _ratio(scale)
    nums = {}
    for j in range(parity, k + 1, 2):
        exps = [0, 0, 0, 0, 0, j - parity, 0, 0]
        exps[axis], exps[axis + 2] = j, k - j
        nums[_make(Monomial, exps)] = (
            scale_num * comb(k, j) * s ** j * t_num ** (k - j) * t_den ** j * (-2) ** (j // 2)
        )
    return _reduced(PhasePoly, nums, scale_den * t_den ** k)


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
    where X_L(G_n) = {G_n, L} is G_n's derivative along L's flow.

    With b = px + i sqrt2 omega x, b^n = E_n + i sqrt2 omega G_n, E_n the
    even half of the binomial expansion of which G_n is the odd half, and
    {b, L} = i sqrt2 omega b, so {b^n, L} = i sqrt2 omega n b^n.  E_n, G_n
    and L are real, and the real part reads X_L(G_n) = n E_n: K is built
    as P G_n + n D E_n with no bracket taken.
    """
    n = params.n
    e_n = _binomial_half(n, parity=0, s=1, t=1, axis=0, scale=n)
    return p_poly(params) * g_poly(n) + d_poly(params) * e_n


def _ladder_power(k: int, ratio: Fraction, axis: int, quantum: bool):
    """b^k in normal order as (numerators, denominator), for the ladder
    factor b = p + alpha q with alpha = i * ratio * sqrt2 * omega.

    [alpha q, p] = i alpha hbar is central, so BCH gives
    b^k = sum over j + l + 2h = k of k!/(j! l! h!) alpha^(j+h) (-i hbar/2)^h q^j p^l.
    The units combine to i^j and ratio^(j+h) carries the sign;
    sqrt2^(j+h) is 2^((j+h)//2) sqrt2^((j+h) mod 2).  The classical
    power is the h = 0 slice.  (q, p) is (x, px) for axis 0 and (y, py)
    for axis 1.
    """
    top = k // 2 if quantum else 0
    nums = {}
    for h in range(top + 1):
        for j in range(k - 2 * h + 1):
            l, g = k - 2 * h - j, j + h
            value = (
                factorial(k) // (factorial(j) * factorial(l) * factorial(h))
                * ratio.numerator ** g * ratio.denominator ** (k - g) * 2 ** (g // 2 + top - h)
            )
            phase = (j, 0, l, 0) if axis == 0 else (0, j, 0, l)
            # i^j = (-1)^(j // 2) i^(j mod 2)
            nums[_make(Monomial, phase + (h, g, g & 1, j & 1))] = -value if j & 2 else value
    return nums, ratio.denominator ** k * 2 ** top


def ladder_products(params: OscillatorParams, quantum: bool = False) -> tuple:
    """The ladder products (F1, F2), as phase-space polynomials or, when
    quantum, as normal-ordered operators.

    With b1 = px - i*omega1*x and b2 = py - i*omega2*y (and their
    conjugates), F1 = (b1^n b2*^m + b1*^n b2^m)/2 and
    F2 = -(i/2)(b1^n b2*^m - b1*^n b2^m).  The two pairs commute, so
    forward = b1^n b2*^m is the plain product of two closed-form powers.
    The map i -> -i, hbar -> -hbar keeps [x, px] = i hbar, sends b1 to
    b1* and b2* to b2, and so sends forward to backward = b1*^n b2^m: it
    flips the sign of each term whose i and hbar exponents have an odd
    sum.  F1 is forward's even terms and F2 is -i times its odd terms.
    """
    m, n = params.m, params.n
    # b1 has alpha = -i sqrt2 omega, b2* has alpha = i (n/m) sqrt2 omega
    x_nums, x_den = _ladder_power(n, Fraction(-1), 0, quantum)
    y_nums, y_den = _ladder_power(m, Fraction(n, m), 1, quantum)
    forward: dict = {}
    for key, value in x_nums.items():
        _add_product(forward, key, value, y_nums)
    parts: tuple[dict, dict] = ({}, {})
    for key, value in forward.items():
        if (key.e + key.h) & 1:
            # -i * i = 1 and -i * 1 = -i
            parts[1][_make(Monomial, key[:7] + (1 - key.e,))] = value if key.e else -value
        else:
            parts[0][key] = value
    cls = Operator if quantum else PhasePoly
    return tuple(_reduced(cls, part, x_den * y_den) for part in parts)


def ladder_integrals(params: OscillatorParams) -> tuple[PhasePoly, PhasePoly]:
    """Unnormalized ladder-product integrals (F1, F2), read off one product.

    The 1/sqrt(2*omega_j) normalizations are dropped: they rescale by an
    overall constant and do not affect first-integral status.
    """
    return ladder_products(params)
