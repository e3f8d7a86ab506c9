"""Exact arithmetic in the coefficient ring Q(i)[sqrt2][hbar, omega].

Every constant produced by the oscillator constructions lives in this
ring: Gaussian rationals carry the imaginary unit of the ladder factors
and of the momentum operator, hbar and omega are formal parameters, and
sqrt2 is a ring generator subject to the single reduction
sqrt2 * sqrt2 = 2, the only irrationality the constructions need.
Keeping hbar and omega symbolic makes claims such as "every commutator
term carries hbar^2 and omega" checkable as exact exponent bounds.

Values are immutable and operations are pure, so sharing between
concurrent tasks is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from quantlab import render


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    return Fraction(value)


@dataclass(frozen=True)
class Scalar:
    """Gaussian rational re + im*i with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", _as_fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", _as_fraction(self.im))

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def text(self) -> str:
        return render.scalar(self, render.TEXT)

    def latex(self) -> str:
        return render.scalar(self, render.LATEX)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class CoeffMono:
    """Parameter monomial hbar^h_exp * omega^w_exp * sqrt2^r_exp."""

    h_exp: int = 0
    w_exp: int = 0
    r_exp: int = 0

    def __post_init__(self):
        if self.h_exp < 0 or self.w_exp < 0:
            raise ValueError("hbar and omega exponents must be nonnegative")
        if self.r_exp not in (0, 1):
            raise ValueError("sqrt2 exponent must be reduced to 0 or 1")

    def sort_key(self) -> tuple[int, int, int]:
        return (self.h_exp, self.w_exp, self.r_exp)


def _accumulate(acc: dict, key, value) -> None:
    """Add value into acc[key] in place, dropping the key when the sum is zero.

    Every sparse sum in the package (coefficients, polynomials and
    operators) accumulates through this one rule, which keeps term maps
    canonical.
    """
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _canonical(cls, terms: dict):
    """An instance of term-map class cls over terms that hold no zero value.

    For maps built by _accumulate (or from nonzero values by an operation
    that keeps them nonzero), so the constructor's zero scan is skipped.
    """
    out = cls.__new__(cls)
    out._terms = terms
    return out


_UNIT = CoeffMono()
_TWO = Scalar(Fraction(2))


class Coefficient:
    """Finite Scalar-weighted sum of parameter monomials, kept canonical.

    Canonical form stores no zero scalars, so equality is structural and
    a - b == Coefficient.zero() exactly when a equals b.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[CoeffMono, Scalar] | None = None):
        clean: dict[CoeffMono, Scalar] = {}
        if terms:
            for mono, scalar in terms.items():
                if scalar:
                    clean[mono] = scalar
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Coefficient":
        return cls()

    @classmethod
    def of(cls, value) -> "Coefficient":
        """Coerce an int, Fraction, Scalar, CoeffMono or Coefficient."""
        if isinstance(value, Coefficient):
            return value
        if isinstance(value, CoeffMono):
            return cls({value: Scalar(Fraction(1))})
        if isinstance(value, Scalar):
            return cls({_UNIT: value})
        return cls({_UNIT: Scalar(_as_fraction(value))})

    @classmethod
    def one(cls) -> "Coefficient":
        return cls.of(1)

    @classmethod
    def i(cls) -> "Coefficient":
        return cls.of(Scalar(Fraction(0), Fraction(1)))

    @classmethod
    def hbar(cls, exp: int = 1) -> "Coefficient":
        return cls({CoeffMono(h_exp=exp): Scalar(Fraction(1))})

    @classmethod
    def omega(cls, exp: int = 1) -> "Coefficient":
        return cls({CoeffMono(w_exp=exp): Scalar(Fraction(1))})

    @classmethod
    def sqrt2(cls) -> "Coefficient":
        return cls({CoeffMono(r_exp=1): Scalar(Fraction(1))})

    @classmethod
    def term(cls, mono: CoeffMono, scalar: Scalar) -> "Coefficient":
        return cls({mono: scalar})

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> dict[CoeffMono, Scalar]:
        """Underlying term map; treat as read-only."""
        return self._terms

    def sorted_terms(self) -> list[tuple[CoeffMono, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def is_real(self) -> bool:
        return all(s.is_real() for s in self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def hbar_free_part(self) -> "Coefficient":
        return Coefficient({m: s for m, s in self._terms.items() if m.h_exp == 0})

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "Coefficient":
        if not isinstance(other, (Coefficient, CoeffMono, Scalar, int, Fraction)):
            return NotImplemented
        other = Coefficient.of(other)
        acc = dict(self._terms)
        for mono, scalar in other._terms.items():
            _accumulate(acc, mono, scalar)
        return _canonical(Coefficient, acc)

    __radd__ = __add__

    def __sub__(self, other) -> "Coefficient":
        if not isinstance(other, (Coefficient, CoeffMono, Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Coefficient.of(other))

    def __rsub__(self, other) -> "Coefficient":
        if not isinstance(other, (Coefficient, CoeffMono, Scalar, int, Fraction)):
            return NotImplemented
        return Coefficient.of(other) + (-self)

    def __neg__(self) -> "Coefficient":
        return _canonical(Coefficient, {m: -s for m, s in self._terms.items()})

    def __mul__(self, other) -> "Coefficient":
        if not isinstance(other, (Coefficient, CoeffMono, Scalar, int, Fraction)):
            return NotImplemented
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            # rational scaling never merges monomials
            if other == 0:
                return Coefficient.zero()
            return _canonical(
                Coefficient,
                {m: Scalar(s.re * other, s.im * other) for m, s in self._terms.items()},
            )
        other = Coefficient.of(other)
        acc: dict[CoeffMono, Scalar] = {}
        for m1, s1 in self._terms.items():
            for m2, s2 in other._terms.items():
                scalar = s1 * s2
                r = m1.r_exp + m2.r_exp
                if r == 2:
                    scalar = scalar * _TWO
                    r = 0
                mono = CoeffMono(m1.h_exp + m2.h_exp, m1.w_exp + m2.w_exp, r)
                _accumulate(acc, mono, scalar)
        return _canonical(Coefficient, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Coefficient":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Coefficient.one()
        for _ in range(exponent):
            out = out * self
        return out

    def conjugate(self) -> "Coefficient":
        """Map i to -i; hbar, omega and sqrt2 are fixed."""
        return Coefficient({m: s.conjugate() for m, s in self._terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar, CoeffMono)):
            other = Coefficient.of(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._terms == other._terms

    # -- rendering -------------------------------------------------------

    def text(self) -> str:
        return render.coefficient(self, render.TEXT)

    def latex(self) -> str:
        return render.coefficient(self, render.LATEX)

    def __repr__(self) -> str:
        return f"Coefficient({self.text()})"

    def __str__(self) -> str:
        return self.text()
