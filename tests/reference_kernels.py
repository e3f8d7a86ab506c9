"""Plain reference routes for the fast kernels of the package, and the
test-only pieces they build from.

The pieces: the phase variables as operators (x_hat, y_hat, px_hat,
py_hat), the separation integral L (l_integral), the conjugation
i -> -i of a term map (conjugate) and the partial derivative of a phase
polynomial (partial).  The program itself never needs them.

The package stores each key as one int; the kernels here work on the
Monomial tuples of the numerators view instead, term by term, and build
each result through the public constructor (_built).  Every product goes
through mono_mul, the tuple product of two keys with both reductions;
every reordering correction is lowered and multiplied by (-i hbar)^k as
a key of its own (neg_i_hbar), and every sum goes through
coeffring._accumulate.  op_mul, commutator and act here are built that
way.  probe_image relabels each key by neg_i_hbar and one mono_mul,
apart from weylalgebra's relabel, and probe_bracket runs act twice, each
factor's probe_image words here on the other's, and subtracts.
tests/test_packed_kernels.py checks the kernels of weylalgebra against
them.  adjoint, the formal adjoint that the self-adjointness
tests read, builds each reversed word as two operators, conjugates one,
multiplies them with the op_mul here and adds the products one by one;
the package has no adjoint of its own.

The classical layer has its own: poisson takes partial derivatives and
multiplies and adds whole term maps, hamiltonian builds H from powers of
the phase variables and Fraction weights, and quantize multiplies the
two one-pair images of each term's phase part with the op_mul here and
its parameter part into that product through _add_product.
The paper's K = P G_n + D {G_n, L} is built as the paper writes it:
naive_g_poly accumulates G_n term by term, paper_p_and_d sums P and D in
(u, pu) with Fraction weights, and paper_k takes the bracket with the
poisson here.  tests/test_phasepoly.py, test_generators.py and
test_quantizer.py check the one-pass kernels against them.

The renderer has one too: a list of factor strings per term, folded and
joined (join_terms, coefficient, differential_factors).  They are slow
and plain on purpose.
"""

from fractions import Fraction
from math import comb, factorial, lcm, perm

from quantlab import render
from quantlab.coeffring import Coefficient, Monomial, _accumulate
from quantlab.phasepoly import _VAR_SLOT, PhasePoly, PhaseVar
from quantlab.quantizer import quantize_monomial
from quantlab.weylalgebra import Operator

# Builds a key without the validation of Monomial.__new__, for exponents
# that an arithmetic rule has already reduced.
_make = tuple.__new__


def _built(cls, nums: dict, den: int = 1):
    """The term map of class cls over {Monomial: int} nums / den, through
    the public constructor."""
    return cls({key: Fraction(value, den) for key, value in nums.items()})


# -- the tuple product of keys --------------------------------------------------


def mono_mul(m1, m2) -> tuple[Monomial, int]:
    """The product of two keys as (key, factor), factor in {1, -1, 2, -2}.

    Exponents add, then the two reductions of the ring apply.
    """
    a1, b1, c1, d1, h1, w1, r1, e1 = m1
    a2, b2, c2, d2, h2, w2, r2, e2 = m2
    factor = 1
    r = r1 + r2
    if r == 2:
        # sqrt2 * sqrt2 = 2
        r = 0
        factor = 2
    e = e1 + e2
    if e == 2:
        # i * i = -1
        e = 0
        factor = -factor
    return _make(Monomial, (a1 + a2, b1 + b2, c1 + c2, d1 + d2, h1 + h2, w1 + w2, r, e)), factor


def neg_i_hbar(k: int) -> tuple[Monomial, int]:
    """(-i hbar)^k as (key, sign): the key is hbar^k i^(k mod 2), and the
    sign is -1 when k mod 4 is 1 or 2, as (-i)^k cycles 1, -i, -1, i."""
    return _make(Monomial, (0, 0, 0, 0, k, 0, 0, k & 1)), -1 if k % 4 in (1, 2) else 1


def _add_product(acc: dict, key: Monomial, value: int, nums: dict) -> None:
    """Accumulate the product of the term value * key with the numerators
    nums into acc; key commutes with the keys of nums."""
    for k, v in nums.items():
        product, factor = mono_mul(key, k)
        _accumulate(acc, product, value * v * factor)


def tuple_product(left, right):
    """The commutative product of two term maps of one class, one mono_mul
    per term pair."""
    acc: dict = {}
    for key, value in left.numerators.items():
        _add_product(acc, key, value, right.numerators)
    return _built(type(left), acc, left.denominator * right.denominator)


def tuple_poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} over term pairs, each key product a mono_mul lowered by one
    in a and c, or in b and d, with the weights of the one-pass kernel."""
    acc: dict = {}
    for k1, v1 in f.numerators.items():
        for k2, v2 in g.numerators.items():
            base, factor = mono_mul(k1, k2)
            x, y = k1.a * k2.c - k1.c * k2.a, k1.b * k2.d - k1.d * k2.b
            if x:
                _accumulate(acc, base._replace(a=base.a - 1, c=base.c - 1), v1 * v2 * factor * x)
            if y:
                _accumulate(acc, base._replace(b=base.b - 1, d=base.d - 1), v1 * v2 * factor * y)
    return _built(PhasePoly, acc, f.denominator * g.denominator)


# -- building blocks -----------------------------------------------------------


def x_hat() -> Operator:
    return Operator.monomial(Monomial(a=1))


def y_hat() -> Operator:
    return Operator.monomial(Monomial(b=1))


def px_hat() -> Operator:
    return Operator.monomial(Monomial(c=1))


def py_hat() -> Operator:
    return Operator.monomial(Monomial(d=1))


def l_integral() -> PhasePoly:
    """Separation integral L = px^2/2 + omega^2 x^2 of the x axis."""
    return _built(PhasePoly, {Monomial(c=2): 1, Monomial(a=2, w=2): 2}, 2)


def conjugate(tm):
    """Map i to -i; every other generator is fixed."""
    nums = {k: -v if k.e else v for k, v in tm.numerators.items()}
    return _built(type(tm), nums, tm.denominator)


def partial(poly: PhasePoly, var: PhaseVar) -> PhasePoly:
    """Formal partial derivative with respect to one phase variable."""
    slot = _VAR_SLOT[var]
    out = {}
    for mono, value in poly.numerators.items():
        exp = mono[slot]
        if exp:
            exps = list(mono)
            # a positive exponent lowered by one: still a valid key
            exps[slot] = exp - 1
            out[_make(Monomial, exps)] = value * exp
    return _built(PhasePoly, out, poly.denominator)


# -- kernels ------------------------------------------------------------------


def _lowered(key: Monomial, k1: int, k2: int) -> Monomial:
    """key with X and Px lowered by k1, Y and Py by k2."""
    a, b, c, d = key[:4]
    return key._replace(a=a - k1, b=b - k2, c=c - k1, d=d - k2)


def _corrections(s1: int, r1: int, s2: int, r2: int) -> list:
    """(k1, k2, weight) of each reordering correction of P^s1 X^r1 and
    P^s2 Y^r2, weight k! C(s,k) C(r,k) for each pair, k1 + k2 > 0."""
    return [
        (k1, k2, _swap(s1, r1, k1) * _swap(s2, r2, k2))
        for k1 in range(min(s1, r1) + 1)
        for k2 in range(min(s2, r2) + 1)
        if k1 or k2
    ]


def _swap(s: int, r: int, k: int) -> int:
    return factorial(k) * comb(s, k) * comb(r, k)


def _add_corrections(acc: dict, base: Monomial, value: int, corrections: list) -> None:
    for k1, k2, weight in corrections:
        power, sign = neg_i_hbar(k1 + k2)
        key, factor = mono_mul(_lowered(base, k1, k2), power)
        _accumulate(acc, key, value * sign * factor * weight)


def op_mul(left: Operator, right: Operator) -> Operator:
    acc: dict = {}
    for m1, v1 in left.numerators.items():
        for m2, v2 in right.numerators.items():
            base, factor = mono_mul(m1, m2)
            _accumulate(acc, base, v1 * v2 * factor)
            _add_corrections(acc, base, v1 * v2 * factor, _corrections(m1.c, m2.a, m1.d, m2.b))
    return _built(Operator, acc, left.denominator * right.denominator)


def commutator(left: Operator, right: Operator) -> Operator:
    acc: dict = {}
    for m1, v1 in left.numerators.items():
        for m2, v2 in right.numerators.items():
            base, factor = mono_mul(m1, m2)
            value = v1 * v2 * factor
            _add_corrections(acc, base, value, _corrections(m1.c, m2.a, m1.d, m2.b))
            _add_corrections(acc, base, -value, _corrections(m2.c, m1.a, m2.d, m1.b))
    return _built(Operator, acc, left.denominator * right.denominator)


def act(words: dict, state: dict, scale: int = 1) -> dict:
    """scale times the action of derivative words x^a y^b d^c/dx^c d^d/dy^d
    on a state p(x, y, s, t) e^(sx+ty), s and t in the c and d slots, by
    the Leibniz rule, as {Monomial: int} with no zero value."""
    acc: dict = {}
    for word, v in words.items():
        for term, u in state.items():
            base, factor = mono_mul(word, term)
            for k in range(min(word.c, term.a) + 1):
                for l in range(min(word.d, term.b) + 1):
                    weight = comb(word.c, k) * perm(term.a, k) * comb(word.d, l) * perm(term.b, l)
                    _accumulate(acc, _lowered(base, k, l), scale * v * u * factor * weight)
    return acc


def probe_image(op: Operator) -> PhasePoly:
    """op's derivative words: each key times (-i hbar)^(c+d), a key of its
    own (neg_i_hbar) multiplied in by mono_mul, and its sign."""
    out: dict = {}
    for mono, num in op.numerators.items():
        power, sign = neg_i_hbar(mono.c + mono.d)
        key, factor = mono_mul(mono, power)
        out[key] = num if sign == factor else -num
    return _built(PhasePoly, out, op.denominator)


def probe_bracket(left: Operator, right: Operator) -> PhasePoly:
    """left(right(e)) - right(left(e)) for e = e^(sx+ty), divided by e: two
    whole actions of the factors' probe_image words, base terms included."""
    left_words, right_words = probe_image(left).numerators, probe_image(right).numerators
    acc = act(left_words, right_words)
    for key, value in act(right_words, left_words, -1).items():
        _accumulate(acc, key, value)
    return _built(PhasePoly, acc, left.denominator * right.denominator)


def adjoint(op: Operator) -> Operator:
    """Reverse each word and conjugate its coefficient: Px^c Py^d times the
    conjugated X^a Y^b term, multiplied by op_mul and summed term by term."""
    out = Operator.zero()
    for mono, num in op.numerators.items():
        momenta = Operator.monomial(Monomial(c=mono.c, d=mono.d))
        positions = conjugate(Operator.monomial(mono._replace(c=0, d=0), num))
        out = out + op_mul(momenta, positions)
    return _built(Operator, out.numerators, out.denominator * op.denominator)


def poisson(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} as the sum over canonical pairs of df/dq * dg/dp -
    df/dp * dg/dq, each partial derivative a term map of its own."""
    out = PhasePoly.zero()
    for pos, mom in ((PhaseVar.X, PhaseVar.PX), (PhaseVar.Y, PhaseVar.PY)):
        out = out + partial(f, pos) * partial(g, mom) - partial(f, mom) * partial(g, pos)
    return out


def hamiltonian(params) -> PhasePoly:
    """H = (px^2 + py^2)/2 + omega^2 (x^2 + (n/m)^2 y^2) from powers and
    products of the phase variables."""
    x, y, px, py = (PhasePoly.variable(var) for var in PhaseVar)
    omega_sq = Coefficient.omega(2)
    kinetic = (px ** 2 + py ** 2) * Fraction(1, 2)
    return kinetic + x ** 2 * omega_sq + y ** 2 * (omega_sq * Fraction(params.n, params.m) ** 2)


def naive_g_poly(n: int) -> PhasePoly:
    """G_n = sum_k C(n, 2k+1) (-2 omega^2)^k x^(2k+1) px^(n-2k-1), each
    term a product of constants and phase variables, the terms added one
    by one."""
    x, px = PhasePoly.variable(PhaseVar.X), PhasePoly.variable(PhaseVar.PX)
    acc = PhasePoly.zero()
    for k in range((n - 1) // 2 + 1):
        term = PhasePoly.constant(comb(n, 2 * k + 1))
        for _ in range(k):
            term = term * PhasePoly.constant(Coefficient.omega(2) * (-2))
        for _ in range(2 * k + 1):
            term = term * x
        for _ in range(n - 2 * k - 1):
            term = term * px
        acc = acc + term
    return acc


def paper_p_and_d(params) -> tuple[PhasePoly, PhasePoly]:
    """The paper's P and D: each term of the sums
    P = sum_k C(m, 2k) (-(m/n) u)^(2k) pu^(m-2k) (-2 omega^2)^k and
    D = (1/n) sum_k C(m, 2k+1) (-(m/n) u)^(2k+1) pu^(m-2k-1) (-2 omega^2)^k
    with u -> (n/m) y and pu -> (m/n) py substituted."""
    m, n = params.m, params.n
    p_terms, d_terms = {}, {}
    for j in range(m + 1):
        # C(m, j) (-(m/n) u)^j pu^(m-j) (-2 omega^2)^(j//2)
        value = (
            comb(m, j)
            * (-Fraction(m, n)) ** j
            * Fraction(n, m) ** j
            * Fraction(m, n) ** (m - j)
            * (-2) ** (j // 2)
        )
        key = Monomial(b=j, d=m - j, w=2 * (j // 2))
        if j % 2 == 0:
            p_terms[key] = value
        else:
            d_terms[key] = value / n
    return PhasePoly(p_terms), PhasePoly(d_terms)


def paper_k(params) -> PhasePoly:
    """K = P G_n + D {G_n, L}, with L = px^2/2 + omega^2 x^2 and the
    bracket taken by the poisson here."""
    x, px = PhasePoly.variable(PhaseVar.X), PhasePoly.variable(PhaseVar.PX)
    l = px ** 2 * Fraction(1, 2) + x ** 2 * Coefficient.omega(2)
    p, d = paper_p_and_d(params)
    g = naive_g_poly(params.n)
    return p * g + d * poisson(g, l)


def quantize(scheme, poly: PhasePoly) -> Operator:
    """Each term's parameter part times the image of its phase part, one
    key product (mono_mul) per image term, over the lcm of the images'
    denominators.  The image of the phase part is the op_mul here of its
    two one-pair images."""
    parts = []
    for key, value in poly.numerators.items():
        image = op_mul(
            quantize_monomial(scheme, key.a, 0, key.c, 0),
            quantize_monomial(scheme, 0, key.b, 0, key.d),
        )
        parts.append((key._replace(a=0, b=0, c=0, d=0), value, image))
    den = lcm(*(op.denominator for _, _, op in parts))
    acc: dict = {}
    for key, value, op in parts:
        _add_product(acc, key, value * (den // op.denominator), op.numerators)
    return _built(Operator, acc, poly.denominator * den)


# -- rendering ----------------------------------------------------------------
# The list-based renderer: every term is a list of factor strings, built
# anew for each term, folded and joined.  tests/test_rendering.py checks
# render.join_terms, render.coefficient and render.key_text against it.

_ZERO, _ONE, _MINUS_ONE = (0, 1), (1, 1), (-1, 1)


def power_factors(names, exponents, style) -> list[str]:
    """name^exp for each nonzero exponent, a bare name for exponent 1."""
    out = []
    for name, exp in zip(names, exponents):
        if exp == 1:
            out.append(name)
        elif exp:
            out.append(style.power % (name, exp))
    return out


def scalar_factors(re, im, tail: list[str], style) -> list[str]:
    """Factors of (re + im*i) * <tail>, folding a unit scalar into the tail."""
    if im == _ZERO:
        if re == _ONE and tail:
            return tail
        if re == _MINUS_ONE and tail and (style.fold_powers or "^" not in tail[0]):
            return ["-" + tail[0]] + tail[1:]
        head = [render.fraction(re, style)]
    elif re != _ZERO:
        head = [style.open + render.scalar(re, im, style) + style.close]
    elif im in (_ONE, _MINUS_ONE):
        head = ["i" if im == _ONE else "-i"]
    else:
        head = [render.fraction(im, style), "i"]
    return head + tail


def coefficient(group, style) -> str:
    """A group's coefficient as a sum; a lone constant is written bare."""
    if len(group) == 1 and not any(group[0][0]):
        return render.scalar(group[0][1], group[0][2], style)
    names = style.names["coefficient"]
    return _join(
        (scalar_factors(re, im, power_factors(names, params, style), style)
         for params, re, im in group),
        style,
    )


def coefficient_factors(group, tail: list[str], style) -> list[str]:
    """Factors of a group's coefficient times <tail>: one term folds into
    the tail, a sum is parenthesized."""
    if len(group) == 1:
        ((params, re, im),) = group
        names = style.names["coefficient"]
        return scalar_factors(re, im, power_factors(names, params, style) + tail, style)
    return [style.open + coefficient(group, style) + style.close] + tail


def differential_factors(phase, style) -> list[str]:
    """x^a y^b then the derivative d^(c+d)/dx^c dy^d of an operator word."""
    x, y, d, dx, dy = style.names["differential"]
    out = power_factors((x, y), phase[:2], style)
    order = phase[2] + phase[3]
    if order:
        head = d if order == 1 else style.power % (d, order)
        dens = style.derivative_join.join(power_factors((dx, dy), phase[2:4], style))
        out.append(style.derivative % (head, dens))
    return out


def join_terms(groups, key_factors, style) -> str:
    """Sum of coefficient * key over grouped term maps; key_factors(phase,
    style) renders a key."""
    return _join(
        (coefficient_factors(group, key_factors(phase, style), style) for phase, group in groups),
        style,
    )


def _join(factor_lists, style) -> str:
    parts = []
    for factors in factor_lists:
        term = style.join.join(factors)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) or "0"
