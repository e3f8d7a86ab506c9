"""Constructors for the oscillator's classical observables.

The anisotropic oscillator with rational frequency ratio carries, besides
the Hamiltonian itself, the separation integral L, a polynomial integral
K built from L's flow, and a pair of ladder-product integrals F1, F2.
H, K, F1 and F2 are returned as exact phase-space polynomials.  The ladder
builder also writes the quantum products' normal-ordered terms, which the
quantizer makes into operators: each ladder power b^k is written in closed
form (BCH, as [q, p] is central; the classical power is its hbar-free
slice), and F1 and F2 are read off the one product b1^n b2*^m, split by
the automorphism i -> -i, hbar -> -hbar that sends it to b1*^n b2^m.  K
is -(m/n)^m / (sqrt2 omega) times F2, read off F2 by a relabel of its
keys.  _ladder_parts is the one ladder builder that all of them read, and
each reader brings its part to lowest terms once.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, gcd

from quantlab.coeffring import (
    HBAR,
    OMEGA,
    PACK_LIMIT,
    PX,
    PY,
    SQRT2,
    I,
    X,
    Y,
    _OVER_LIMIT,
    _add_products,
    _folded,
    _reduced,
)
from quantlab.phasepoly import PhasePoly

# the keys of H: px^2, py^2, omega^2 x^2 and omega^2 y^2
_PX2, _PY2 = 2 * PX, 2 * PY
_X2, _Y2 = 2 * (X + OMEGA), 2 * (Y + OMEGA)


class OscillatorParams(namedtuple("OscillatorParams", "m n")):
    """Positive frequency-ratio parameters.

    The axis frequencies are omega1 = sqrt2*omega and
    omega2 = (n/m)*sqrt2*omega, so m*omega2 = n*omega1 identically.
    """

    __slots__ = ()

    def __new__(cls, m, n):
        for name, value in (("m", m), ("n", n)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        return tuple.__new__(cls, (m, n))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)


def hamiltonian(params: OscillatorParams) -> PhasePoly:
    """H = (px^2 + py^2)/2 + omega^2 (x^2 + (n/m)^2 y^2), written over
    2 m^2 as (m^2 px^2 + m^2 py^2 + 2 m^2 omega^2 x^2 + 2 n^2 omega^2 y^2)."""
    m2, n2 = params.m * params.m, params.n * params.n
    return _reduced(PhasePoly, {_PX2: m2, _PY2: m2, _X2: 2 * m2, _Y2: 2 * n2}, 2 * m2)


def _ladder_power(k: int, num: int, den: int, q: int, p: int, quantum: bool):
    """b^k in normal order as ((even, odd), denominator), for the ladder
    factor b = p + alpha q with alpha = i * (num/den) * sqrt2 * omega, q and p
    the keys of (x, px) or (y, py); even and odd hold the terms whose i and
    hbar exponents have an even or odd sum.

    [alpha q, p] = i alpha hbar is central, so BCH gives
    b^k = sum over j + l + 2h = k of k!/(j! l! h!) alpha^(j+h) (-i hbar/2)^h q^j p^l.
    The units combine to i^j and (num/den)^(j+h) carries the sign;
    sqrt2^(j+h) is 2^((j+h)//2) sqrt2^((j+h) mod 2).  The classical
    power is the h = 0 slice.
    """
    top = k // 2 if quantum else 0
    halves: tuple[dict, dict] = ({}, {})
    for h in range(top + 1):
        for j in range(k - 2 * h + 1):
            l, g = k - 2 * h - j, j + h
            value = (
                factorial(k) // (factorial(j) * factorial(l) * factorial(h))
                * num ** g * den ** (k - g) * 2 ** (g // 2 + top - h)
            )
            key = j * q + l * p + h * HBAR + g * OMEGA + (g & 1) * SQRT2 + (j & 1) * I
            # i^j = (-1)^(j // 2) i^(j mod 2)
            halves[(j + h) & 1][key] = -value if j & 2 else value
    return halves, den ** k * 2 ** top


def _ladder_parts(params: OscillatorParams, quantum: bool, parities: tuple) -> tuple:
    """The ladder products F1 for parity 0 and F2 for parity 1, one per
    given parity, as unreduced (numerators, denominator) of phase-space
    polynomials or, when quantum, of normal-ordered operators.

    With b1 = px - i*omega1*x and b2 = py - i*omega2*y (and their
    conjugates), F1 = (b1^n b2*^m + b1*^n b2^m)/2 and
    F2 = -(i/2)(b1^n b2*^m - b1*^n b2^m).  The two pairs commute, so
    forward = b1^n b2*^m is the plain product of two closed-form powers.
    The map i -> -i, hbar -> -hbar keeps [x, px] = i hbar, sends b1 to
    b1* and b2* to b2, and so sends forward to backward = b1*^n b2^m: it
    flips the sign of each term whose i and hbar exponents have an odd
    sum.  F1 is forward's even terms and F2 is -i times its odd terms.
    That parity adds over a product of keys, even where i * i = -1 folds,
    so the odd part takes the odd half of b1^n times the even half of
    b2*^m and the even half times the odd one: no term of another part
    is built.  ValueError for m or n of PACK_LIMIT or more, before any
    term is built.
    """
    m, n = params.m, params.n
    if max(m, n) >= PACK_LIMIT:
        raise ValueError(_OVER_LIMIT)
    # b1 has alpha = -i sqrt2 omega, b2* has alpha = i (n/m) sqrt2 omega
    g = gcd(m, n)
    x_halves, x_den = _ladder_power(n, -1, 1, X, PX, quantum)
    y_halves, y_den = _ladder_power(m, n // g, m // g, Y, PY, quantum)
    out = []
    for parity in parities:
        part: dict = {}
        for odd, x_half in enumerate(x_halves):
            _add_products(part, x_half, y_halves[parity ^ odd])
        part = _folded(part)
        if parity:
            # -i * i = 1 and -i * 1 = -i
            part = {key ^ I: value if key & I else -value for key, value in part.items()}
        out.append((part, x_den * y_den))
    return tuple(out)


def ladder_integrals(params: OscillatorParams) -> tuple[PhasePoly, PhasePoly]:
    """Unnormalized ladder-product integrals (F1, F2), read off one product.

    The 1/sqrt(2*omega_j) normalizations are dropped: they rescale by an
    overall constant and do not affect first-integral status.
    """
    return tuple(_reduced(PhasePoly, *part) for part in _ladder_parts(params, False, (0, 1)))


def k_integral(params: OscillatorParams) -> PhasePoly:
    """Polynomial first integral K = P G_n + D X_L(G_n) of degree m + n,
    where X_L(G_n) = {G_n, L} is G_n's derivative along L's flow, read
    off the ladder product F2 as K = -(m/n)^m F2 / (sqrt2 omega).

    With s = sqrt2 omega, b1^n = E_n - i s G_n, where G_n and E_n are
    the odd and even halves in x of the binomial expansion, and
    b2*^m = (n/m)^m (P - i n s D), where P and D are the paper's sums
    in u = (n/m) y, pu = (m/n) py.  {b1*, L} = i s b1*, so
    X_L(G_n) = n E_n, and F2 = Im(b1^n b2*^m) = -s (n/m)^m (P G_n + n D E_n).
    Every key of F2 thus carries sqrt2^1, i^0 and an odd power of omega,
    so K is F2 (_ladder_parts) with each key's sqrt2 and one omega taken
    off and each value times -(m/n)^m, brought to lowest terms once.
    """
    m, n = params.m, params.n
    ((f2, den),) = _ladder_parts(params, False, (1,))
    nums = {key - (SQRT2 + OMEGA): -(m ** m) * value for key, value in f2.items()}
    return _reduced(PhasePoly, nums, den * n ** m)
