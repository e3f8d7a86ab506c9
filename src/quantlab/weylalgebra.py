"""Noncommutative operator algebra over the coefficient ring.

Operators are stored in normal order: position factors to the left of
momentum factors within each canonical pair, different pairs commuting
freely.  Products are re-normalized with the closed-form swap identity

    P^s X^r = sum_k k! C(s,k) C(r,k) (-i hbar)^k X^(r-k) P^(s-k),

which matches iterated single swaps exactly.  A separate differential
action on position polynomials (momentum realized as -i*hbar times the
coordinate derivative; Action memoizes it per operator) provides an
independent route to the same algebra for cross-checks.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, perm

from quantlab import render
from quantlab.coeffring import Coefficient, TermMap, _accumulate, _canonical
from quantlab.phasepoly import Monomial, PhaseMono, PhasePoly


@lru_cache(maxsize=None)
def neg_i_hbar_power(k: int) -> Coefficient:
    """(-i*hbar)^k as a Coefficient."""
    return (-(Coefficient.i() * Coefficient.hbar())) ** k


@lru_cache(maxsize=None)
def _swap_weights(s: int, r: int) -> tuple[int, ...]:
    """Integer weights k! C(s,k) C(r,k) of the P^s X^r normal-ordering identity."""
    return tuple(factorial(k) * comb(s, k) * comb(r, k) for k in range(min(r, s) + 1))


OpMono = Monomial


class Operator(TermMap):
    """Sparse normal-ordered operator with Coefficient coefficients."""

    __slots__ = ()
    _ring = Coefficient
    _unit = Monomial()
    _names = "operator"

    def _product(self, other: "Operator") -> "Operator":
        return op_mul(self, other)

    def momentum_order(self) -> int:
        return max((m.c + m.d for m in self._terms), default=0)

    def position_order(self) -> int:
        return max((m.a + m.b for m in self._terms), default=0)


def x_hat() -> Operator:
    return Operator.monomial(OpMono(a=1))


def y_hat() -> Operator:
    return Operator.monomial(OpMono(b=1))


def px_hat() -> Operator:
    return Operator.monomial(OpMono(c=1))


def py_hat() -> Operator:
    return Operator.monomial(OpMono(d=1))


def op_mul(left: Operator, right: Operator) -> Operator:
    """Exact noncommutative product, re-expressed in normal order.

    Only same-index pairs produce correction terms; the x and y families
    commute with each other.
    """
    acc: dict[OpMono, Coefficient] = {}
    for m1, c1 in left.terms.items():
        for m2, c2 in right.terms.items():
            base = c1 * c2
            x_weights = _swap_weights(m1.c, m2.a)
            y_weights = _swap_weights(m1.d, m2.b)
            for k1, w1 in enumerate(x_weights):
                for k2, w2 in enumerate(y_weights):
                    mono = OpMono(
                        m1.a + m2.a - k1,
                        m1.b + m2.b - k2,
                        m1.c + m2.c - k1,
                        m1.d + m2.d - k2,
                    )
                    coeff = base * (w1 * w2) * neg_i_hbar_power(k1 + k2)
                    _accumulate(acc, mono, coeff)
    return _canonical(Operator, acc)


def commutator(left: Operator, right: Operator) -> Operator:
    """[left, right] = left*right - right*left in canonical form."""
    return op_mul(left, right) - op_mul(right, left)


def classical_symbol(op: Operator) -> PhasePoly:
    """hbar -> 0 limit with momenta read as classical variables."""
    return PhasePoly({mono: coeff.hbar_free_part() for mono, coeff in op.terms.items()})


class Action:
    """The differential action of one operator on position polynomials.

    Builds the operator's derivative form (differential_terms) once and
    memoizes its image of each position monomial x^i y^j, so applying it
    to a polynomial is a linear combination of cached images; hbar stays
    symbolic.  The memo table lives as long as the object does.
    """

    __slots__ = ("op", "_words", "_images")

    def __init__(self, op: Operator):
        self.op = op
        self._words = differential_terms(op)
        self._images: dict[PhaseMono, PhasePoly] = {}

    @classmethod
    def of(cls, op: "Operator | Action") -> "Action":
        return op if isinstance(op, cls) else cls(op)

    def image(self, mono: PhaseMono) -> PhasePoly:
        """The action on the position monomial mono, memoized."""
        image = self._images.get(mono)
        if image is None:
            if mono.c or mono.d:
                raise ValueError("operators act on position polynomials (no px or py)")
            acc: dict[PhaseMono, Coefficient] = {}
            for word, coeff in self._words.items():
                if word.c > mono.a or word.d > mono.b:
                    continue
                mult = perm(mono.a, word.c) * perm(mono.b, word.d)
                key = PhaseMono(word.a + mono.a - word.c, word.b + mono.b - word.d)
                _accumulate(acc, key, coeff * mult)
            image = self._images[mono] = _canonical(PhasePoly, acc)
        return image

    def __call__(self, poly: PhasePoly) -> PhasePoly:
        """Act on poly; rejects polynomials containing px or py."""
        acc: dict[PhaseMono, Coefficient] = {}
        for mono, coeff in poly.terms.items():
            for key, value in self.image(mono).terms.items():
                _accumulate(acc, key, value * coeff)
        return _canonical(PhasePoly, acc)


def apply_to_polynomial(op: "Operator | Action", poly: PhasePoly) -> PhasePoly:
    """Act on a position polynomial as a differential operator.

    One call into Action; pass an Action to reuse its derivative form
    and memoized images across calls.  Rejects polynomials containing
    px or py.
    """
    return Action.of(op)(poly)


def adjoint(op: Operator) -> Operator:
    """Formal adjoint: reverse each word and conjugate its coefficient."""
    out = Operator.zero()
    for mono, coeff in op.terms.items():
        reversed_word = op_mul(
            Operator.monomial(OpMono(c=mono.c, d=mono.d)),
            Operator.monomial(OpMono(a=mono.a, b=mono.b)),
        )
        out = out + reversed_word * coeff.conjugate()
    return out


def min_hbar_exponent(op: Operator) -> int:
    """Smallest hbar exponent over all terms; 0 for the zero operator."""
    exps = [m.h_exp for coeff in op.terms.values() for m in coeff.terms]
    return min(exps) if exps else 0


def min_omega_exponent(op: Operator) -> int:
    """Smallest omega exponent over all terms; 0 for the zero operator."""
    exps = [m.w_exp for coeff in op.terms.values() for m in coeff.terms]
    return min(exps) if exps else 0


def differential_terms(op: Operator) -> dict[OpMono, Coefficient]:
    """Coefficients of the operator written as x^a y^b d^c/dx^c d^d/dy^d.

    The returned monomials reuse OpMono with (c, d) read as derivative
    orders; each coefficient absorbs the (-i*hbar)^(c+d) factor of the
    momentum realization.  This one derivative form serves the action
    and the derivative renderers; it is a plain dict, as an Operator's
    product would be wrong for derivative words.
    """
    return {
        mono: coeff * neg_i_hbar_power(mono.c + mono.d)
        for mono, coeff in op.terms.items()
    }


def differential_text(op: Operator) -> str:
    """Plain-text rendering in derivative form."""
    return render.join_terms(
        differential_terms(op).items(), render.differential_factors, render.TEXT
    )


def differential_latex(op: Operator) -> str:
    return render.join_terms(
        differential_terms(op).items(), render.differential_factors, render.LATEX
    )
