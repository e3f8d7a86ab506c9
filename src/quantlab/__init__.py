"""Exact symbolic comparison of Born-Jordan and Weyl operator ordering for
the superintegrable 2D anisotropic harmonic oscillator.

The package builds the oscillator's classical first integrals over an
exact coefficient ring, quantizes them under both monomial ordering
rules, and decides commutation with the quantized Hamiltonian by exact
normal-ordered algebra, cross-checked against an independent
differential-operator action.
"""

from quantlab.coeffring import Coefficient, Monomial
from quantlab.phasepoly import PhasePoly, PhaseVar, poisson
from quantlab.generators import (
    OscillatorParams,
    hamiltonian,
    k_integral,
    ladder_integrals,
)
from quantlab.weylalgebra import (
    Operator,
    apply_to_polynomial,
    classical_symbol,
    commutator,
    differential_text,
    min_hbar_exponent,
    min_omega_exponent,
    op_mul,
    probe_image,
)
from quantlab.quantizer import Scheme, quantize, quantize_ladder, quantize_monomial
from quantlab.vlab.parser import ParseError, UnknownSymbolError, parse_polynomial
from quantlab.vlab.verify import VerificationRecord, sweep, verify_pair

__version__ = "0.1.0"
