"""Expression front-end: grammar coverage, error reporting, and the
print-then-parse round trip."""

from fractions import Fraction
from itertools import islice, product
from random import Random

import pytest

from quantlab.coeffring import Coefficient, Monomial
from quantlab.generators import OscillatorParams, hamiltonian, k_integral, ladder_integrals
from quantlab.phasepoly import PhasePoly, PhaseVar
from quantlab.vlab import parser
from quantlab.vlab.parser import (
    MAX_COEFFICIENT_DIGITS,
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    MAX_PAIRS,
    MAX_TERMS,
    ParseError,
    UnknownSymbolError,
    parse_polynomial,
)

import reference_kernels as ref
from reference_kernels import l_integral
from randgen import rand_phase_poly, zero_case

X = PhasePoly.variable(PhaseVar.X)
Y = PhasePoly.variable(PhaseVar.Y)
PX = PhasePoly.variable(PhaseVar.PX)
PY = PhasePoly.variable(PhaseVar.PY)


def test_angular_momentum():
    assert parse_polynomial("x*py - y*px") == X * PY - Y * PX


def test_zero():
    assert parse_polynomial("0").is_zero()


def test_unknown_symbol():
    with pytest.raises(UnknownSymbolError) as err:
        parse_polynomial("p_z")
    message = str(err.value)
    for symbol in ("i", "hbar", "omega", "sqrt2", "x", "y", "px", "py"):
        assert symbol in message


def test_rationals_and_powers():
    assert parse_polynomial("3/4 * x^2") == X ** 2 * Fraction(3, 4)
    assert parse_polynomial("2^3") == PhasePoly.constant(8)
    assert parse_polynomial("(1/2)^2") == PhasePoly.constant(Fraction(1, 4))


def test_unary_minus():
    assert parse_polynomial("-x") == -X
    assert parse_polynomial("--x") == X
    assert parse_polynomial("1 - -2") == PhasePoly.constant(3)
    # a leading minus on the base of a power is ambiguous, so it is rejected
    pytest.raises(ParseError, parse_polynomial, "-x^2")


def test_precedence_and_parens():
    assert parse_polynomial("x + y * px") == X + Y * PX
    assert parse_polynomial("(x + y) * px") == (X + Y) * PX


def test_symbols_lower_to_constants():
    assert parse_polynomial("hbar * omega * sqrt2") == PhasePoly.constant(
        Coefficient.hbar() * Coefficient.omega() * Coefficient.sqrt2()
    )
    assert parse_polynomial("i*i") == PhasePoly.constant(-1)
    assert parse_polynomial("sqrt2 * sqrt2") == PhasePoly.constant(2)


def test_whitespace_insensitive():
    assert parse_polynomial("x\n  *py-y * px") == X * PY - Y * PX
    # every str.isspace() character separates, the separator '\x1c' too
    assert parse_polynomial("x\x1c+ y") == X + Y


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2 x")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y")
    assert err.value.line == 1
    assert err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse_polynomial("x +\n qq")
    assert err.value.line == 2
    assert err.value.column == 2


def test_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse_polynomial("x^-2")
    with pytest.raises(ParseError):
        parse_polynomial("x^y")


def test_exponent_literal_capped():
    assert parse_polynomial(f"x^{MAX_DEGREE}") == X ** MAX_DEGREE
    with pytest.raises(ParseError) as err:
        parse_polynomial(f"x^{MAX_DEGREE + 1}")
    assert err.value.column == 3


def test_degree_bound_capped():
    # atoms count 1, '+' takes the max, '*' sums and '^' multiplies: each
    # pair reaches MAX_DEGREE, then goes one over it
    half = MAX_DEGREE // 2
    for accepted, rejected in (
        (" * ".join(["x"] * MAX_DEGREE), " * ".join(["x"] * (MAX_DEGREE + 1))),
        (" * ".join(["2"] * MAX_DEGREE), " * ".join(["2"] * (MAX_DEGREE + 1))),
        (f"(x^{half} + y^{half}) * y^{half}", f"(x^{half} + y^{half + 1}) * y^{half}"),
        (f"x^{half} * y^{half}", f"x^{half} * y^{half} * hbar"),
        (f"(x * y)^{half}", f"(x * y)^{half} * 2"),
        (f"-(x^{half}) * y^{half}", f"-(x^{half}) * y^{half} * px"),
    ):
        parse_polynomial(accepted)
        with pytest.raises(ValueError, match=f"degree may reach {MAX_DEGREE + 1};"):
            parse_polynomial(rejected)
    with pytest.raises(ValueError, match="degree may reach 1600"):
        parse_polynomial("(2^40)^40")


def test_over_degree_cap_multiplies_nothing(monkeypatch):
    calls = []

    def counted(left, right, product=parser._product):
        calls.append((left, right))
        return product(left, right)

    monkeypatch.setattr(parser, "_product", counted)
    parse_polynomial(" * ".join(["(x + y)"] * MAX_DEGREE))
    assert len(calls) == MAX_DEGREE - 1
    calls.clear()
    # a product chain is refused by its summed bound before any product
    with pytest.raises(ValueError, match=f"degree may reach {MAX_DEGREE + 1};"):
        parse_polynomial(" * ".join(["(x + y)"] * (MAX_DEGREE + 1)))
    assert calls == []
    # a power is refused by its bound; only its base x * y was multiplied
    with pytest.raises(ValueError, match=f"degree may reach {MAX_DEGREE + 2};"):
        parse_polynomial(f"(x * y)^{MAX_DEGREE // 2 + 1}")
    assert len(calls) == 1


def test_power_starts_from_its_base(monkeypatch):
    # x^k makes k - 1 products, none of them by 1, and x^0 makes none
    calls = []

    def counted(left, right, product=parser._product):
        calls.append((left, right))
        return product(left, right)

    monkeypatch.setattr(parser, "_product", counted)
    base = X + Y
    for exponent in range(6):
        calls.clear()
        assert parse_polynomial(f"(x + y)^{exponent}") == base ** exponent
        assert len(calls) == max(exponent - 1, 0)
        assert all(left != PhasePoly.one() and right == base for left, right in calls)


def test_zeroth_power_of_part_over_degree_cap_rejected():
    assert parse_polynomial(f"(x^{MAX_DEGREE})^0") == PhasePoly.one()
    assert parse_polynomial(f"x^0 * y^{MAX_DEGREE}") == Y ** MAX_DEGREE
    # the part is refused before its exponent is read
    with pytest.raises(ValueError, match=f"degree may reach {MAX_DEGREE + 1};"):
        parse_polynomial(f"(x^{MAX_DEGREE} * x)^0")


def test_term_count_capped():
    # (x + y + px + py)^k has C(k+3, 3) terms: 1771 at k = 20, 2024 at k = 21
    assert len(parse_polynomial("(x + y + px + py)^20").terms) == 1771 <= MAX_TERMS
    with pytest.raises(ValueError, match=f"more than {MAX_TERMS} terms"):
        parse_polynomial("(x + y + px + py)^21")
    # the cap applies to every lowered part, not only to powers
    with pytest.raises(ValueError, match=f"more than {MAX_TERMS} terms"):
        parse_polynomial("(x + y + px + py)^20 * (1 + hbar)")
    # two parts under the term cap are refused before their product
    with pytest.raises(ValueError, match=f"more than {MAX_PAIRS} term pairs"):
        parse_polynomial("(x + y + px + py)^20 * (1 + x + y + px + py)^12")


def test_coefficient_digits_capped():
    cap = MAX_COEFFICIENT_DIGITS
    largest = 10**cap - 1
    message = f"coefficient of more than {cap} digits"
    # the cap holds for a numerator, a denominator and a power's product
    assert parse_polynomial(f"{largest} * x") == X * largest
    assert parse_polynomial(f"x + 1/{largest}") == X + Fraction(1, largest)
    assert parse_polynomial(f"({'9' * (cap // 4)})^4") == PhasePoly.constant((10 ** (cap // 4) - 1) ** 4)
    for text in (
        f"{largest + 1} * x",
        f"x + 1/{largest + 1}",
        f"({'9' * (cap // 4)})^5",
        "7" * 3000 + " * " + "7" * 3000,
        # over the shared denominator 3, the numerator of x breaks the cap
        f"{largest} * x + 1/3",
    ):
        with pytest.raises(ValueError, match=message):
            parse_polynomial(text)
    # a bound that could break the cap is checked against the part itself:
    # the sum of 1/k to 2000 has a denominator of 866 digits
    harmonic = sum(Fraction(1, k) for k in range(1, 2001))
    assert parse_polynomial(" + ".join(f"1/{k}" for k in range(1, 2001))) == PhasePoly.constant(harmonic)
    # and so is a literal over the cap that reduces under it
    assert parse_polynomial(f"{largest + 1}/{largest + 1}") == PhasePoly.one()


def test_long_chains_parse_without_recursion():
    # a sum of 1500 distinct monomials, read in one loop of the sum rule
    keys = [Monomial(*exps) for exps in islice(product(range(7), repeat=4), 1500)]
    text = " + ".join(f"x^{a} * y^{b} * px^{c} * py^{d}" for a, b, c, d, *_ in keys)
    assert max(map(sum, keys)) == 21
    assert parse_polynomial(text) == PhasePoly({key: 1 for key in keys})
    assert parse_polynomial(" - ".join(["x"] * 1500)) == X * -1498
    # a product of 1000 factors reaches the degree cap, not the recursion limit
    with pytest.raises(ValueError, match="degree may reach 1000"):
        parse_polynomial(" * ".join(["x"] * 1000))


def test_nesting_capped():
    deep = MAX_NESTING // 2
    assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == X
    assert parse_polynomial("-" * MAX_NESTING + "x") == X
    assert parse_polynomial("-(" * deep + "x" + ")" * deep) == X
    for text in (
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "-" * (MAX_NESTING + 1) + "x",
        "-(" * deep + "-x" + ")" * deep,
    ):
        with pytest.raises(ParseError, match=f"nest deeper than the maximum {MAX_NESTING}") as err:
            parse_polynomial(text)
        assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("1/0")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_polynomial("(x + y")


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_polynomial("x $ y")


def test_non_ascii_digit_rejected():
    # '²' passes str.isdigit() but is not an integer literal
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^²")
    assert err.value.line == 1
    assert err.value.column == 3


def test_long_integer_literal_is_a_parse_error():
    # int() alone refuses a literal this long with a ValueError whose text
    # varies by interpreter and names no line or column
    digits = "7" * MAX_DIGITS
    assert parse_polynomial(f"x + {digits}/{digits}") == X + 1
    for text, length, line, column in (
        ("x + " + "7" * 5000, 5000, 1, 5),
        ("1/\n  " + "9" * (MAX_DIGITS + 1), MAX_DIGITS + 1, 2, 3),
    ):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        message = f"integer literal of {length} digits exceeds the maximum {MAX_DIGITS}"
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


@pytest.mark.parametrize(
    "text, message",
    [
        # the end of input sits after the last character, on the last line
        ("x^\n", "got 'end of input' (line 2, column 1)"),
        ("x^\t", "got 'end of input' (line 1, column 4)"),
        # only '\n' starts a line; every other space, '\r' too, is a column
        ("x +\n\n  q", "unknown symbol 'q'; legal symbols are i, hbar, omega, sqrt2, x, y, px, py (line 3, column 3)"),
        ("\tqq", "unknown symbol 'qq'; legal symbols are i, hbar, omega, sqrt2, x, y, px, py (line 1, column 2)"),
        ("x\r\n+ )", "got ')' (line 2, column 3)"),
        ("  x ) ", "unexpected token after expression, got ')' (line 1, column 5)"),
        # a name starts with a letter or '_' (str.isalpha) and goes on with
        # letters, digits or '_' (str.isalnum): not with '\u00bd' (1/2) or
        # '\u0663' (Arabic-Indic three), but with '\u00e9' (e acute) and on
        # with '\u00b2' (superscript two)
        ("x * \u00bd", "unexpected character '\u00bd' (line 1, column 5)"),
        ("\u0663 * x", "unexpected character '\u0663' (line 1, column 1)"),
        ("\u00e9", "unknown symbol '\u00e9'; legal symbols are i, hbar, omega, sqrt2, x, y, px, py (line 1, column 1)"),
        ("x\u00b2", "unknown symbol 'x\u00b2'; legal symbols are i, hbar, omega, sqrt2, x, y, px, py (line 1, column 1)"),
    ],
)
def test_scanner_positions_and_characters(text, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert str(err.value).endswith(message)


@pytest.mark.parametrize(
    "text, column", [("-x^2", 3), ("-2^3", 3), ("--x^2", 4), ("(-x^2)", 4)]
)
def test_minus_on_power_base_rejected(text, column):
    # "-x^2" reads as -(x^2) or as (-x)^2; the error points at '^'
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert err.value.column == column
    assert "-(x^2) or (-x)^2" in err.value.message


def test_minus_outside_power_base_accepted():
    assert parse_polynomial("(-x)^2") == X ** 2
    assert parse_polynomial("-(x^2)") == -(X ** 2)
    assert parse_polynomial("-x * y^2") == -X * Y ** 2
    assert parse_polynomial("x^2 - y^2") == X ** 2 - Y ** 2
    assert parse_polynomial("0 - x^2") == -(X ** 2)
    assert parse_polynomial("1 - -2") == PhasePoly.constant(3)
    assert parse_polynomial("-1/2 * x") == X * Fraction(-1, 2)


def test_round_trip_generated_observables():
    for m in range(1, 6):
        for n in range(1, 7 - m):
            params = OscillatorParams(m, n)
            for poly in (
                hamiltonian(params),
                k_integral(params),
                *ladder_integrals(params),
            ):
                assert parse_polynomial(poly.text()) == poly
    assert parse_polynomial(l_integral().text()) == l_integral()
    for n in range(1, 8):
        g = ref.naive_g_poly(n)
        assert parse_polynomial(g.text()) == g


def test_round_trip_random():
    rng = Random(2718281828)
    for index in range(1_000):
        (poly,) = zero_case(index, rand_phase_poly(rng, max_terms=5, max_exp=3))
        assert parse_polynomial(poly.text()) == poly
