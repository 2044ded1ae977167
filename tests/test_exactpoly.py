"""Exact polynomial arithmetic, rational functions, and root isolation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from extremal_lab import energy, exactpoly
from extremal_lab.exactpoly import (
    Polynomial,
    RationalFunction,
    cauchy_root_bound,
    count_real_roots,
    fraction_to_decimal,
    isolate_real_roots,
    symbols,
)
from extremal_lab.energy import energy_closed_form, one_point_energy, two_point_energy

ALPHA, BETA, DELTA = symbols("alpha beta delta")
X, = symbols("x")


# -- construction and canonical form ------------------------------------------

def test_zero_coefficients_are_dropped():
    p = Polynomial(("x",), {(1,): Fraction(0), (2,): Fraction(3)})
    assert p.terms == {(2,): Fraction(3)}


def test_unused_variables_are_dropped():
    p = Polynomial(("x", "y"), {(2, 0): Fraction(1)})
    assert p.variables == ("x",)
    assert p == X ** 2


def test_variable_order_is_canonical():
    p = Polynomial(("y", "x"), {(1, 2): Fraction(5)})
    q = Polynomial(("x", "y"), {(2, 1): Fraction(5)})
    assert p == q
    assert p.variables == ("x", "y")


def test_exponent_arity_is_validated():
    with pytest.raises(ValueError):
        Polynomial(("x",), {(1, 2): Fraction(1)})


def test_duplicate_variables_are_rejected():
    with pytest.raises(ValueError):
        Polynomial(("x", "x"), {(1, 1): Fraction(1)})


@pytest.mark.parametrize("build", [
    lambda: (X + 1) ** Fraction(1, 2),
    lambda: (X + 1) ** 2.5,
    lambda: Polynomial(("x",), {(1.5,): 1}),
], ids=["fraction-power", "float-power", "float-exponent"])
def test_non_integer_exponents_are_rejected(build):
    with pytest.raises(TypeError):
        build()


# -- arithmetic examples -------------------------------------------------------

def test_add_cancels_opposite_terms():
    assert (ALPHA + BETA) + (-ALPHA) == BETA


def test_add_zero_is_identity():
    p = ALPHA ** 2 - 3 * DELTA
    assert p + Polynomial.zero() == p
    assert p + 0 == p


def test_add_merges_like_terms():
    assert 2 * ALPHA + 3 * ALPHA == 5 * ALPHA


def test_scalar_minus_polynomial():
    # the one path into __rsub__
    assert 3 - X == -X + 3


def test_mul_difference_of_squares():
    assert (ALPHA + DELTA) * (ALPHA - DELTA) == ALPHA ** 2 - DELTA ** 2


def test_mul_one_is_identity():
    p = ALPHA * BETA - DELTA ** 3
    assert p * 1 == p
    assert p * Polynomial.constant(1) == p


def test_futaki_factor_has_third_coefficients():
    p = (BETA - ALPHA) * DELTA * (DELTA ** 2 / 3 + BETA * DELTA + BETA ** 2)
    assert p.coefficient(beta=1, delta=3) == Fraction(1, 3)
    assert p.coefficient(alpha=1, delta=3) == Fraction(-1, 3)
    tripled = 3 * p
    assert all(c.denominator == 1 for c in tripled.terms.values())


def test_scalar_division():
    assert (3 * ALPHA) / 3 == ALPHA
    assert ALPHA / 2 == Fraction(1, 2) * ALPHA


# -- calculus ------------------------------------------------------------------

def test_partial_power_rule():
    assert (ALPHA ** 2 * DELTA).partial("alpha") == 2 * ALPHA * DELTA


def test_partial_of_constant_is_zero():
    assert Polynomial.constant(7).partial("beta") == Polynomial.zero()
    assert not (ALPHA ** 2).partial("delta")


def test_euler_identity_for_variance_sextic():
    d = energy_closed_form().denominator
    total = (ALPHA * d.partial("alpha") + BETA * d.partial("beta")
             + DELTA * d.partial("delta"))
    assert total == 6 * d


# -- substitution and evaluation -----------------------------------------------

def test_substitute_beta_zero_in_variance_poly():
    d = energy_closed_form().denominator
    expected = DELTA ** 6 + 6 * DELTA ** 5 * ALPHA + 6 * DELTA ** 4 * ALPHA ** 2
    assert d.substitute({"beta": 0}) == expected


def test_substitute_alpha_zero_in_variance_poly():
    d = energy_closed_form().denominator
    expected = (12 * BETA ** 6 + 72 * BETA ** 5 * DELTA + 138 * BETA ** 4 * DELTA ** 2
                + 120 * BETA ** 3 * DELTA ** 3 + 54 * BETA ** 2 * DELTA ** 4
                + 12 * BETA * DELTA ** 5 + DELTA ** 6)
    assert d.substitute({"alpha": 0}) == expected


def test_substitute_identity_bindings():
    d = energy_closed_form().denominator
    assert d.substitute({"alpha": ALPHA, "beta": BETA, "delta": DELTA}) == d


def test_eval_variance_points():
    d = energy_closed_form().denominator
    assert d.eval({"alpha": 0, "beta": 1, "delta": 1}) == 409
    assert d.eval({"alpha": 1, "beta": 0, "delta": 1}) == 13


def test_eval_at_origin_gives_constant_term():
    p = 5 + 2 * ALPHA + BETA ** 2
    assert p.eval({"alpha": 0, "beta": 0}) == 5


def test_eval_requires_all_variables():
    with pytest.raises(ValueError):
        (ALPHA + BETA).eval({"alpha": 1})


# -- homogeneity ---------------------------------------------------------------

def test_variance_poly_is_sextic():
    assert {sum(e) for e in energy_closed_form().denominator.terms} == {6}


# -- property suites -----------------------------------------------------------

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def polynomials(draw):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=5))
    return Polynomial(("alpha", "beta", "delta"), terms)


@st.composite
def homogeneous_polynomials(draw):
    degree = draw(st.integers(0, 5))
    size = draw(st.integers(1, 4))
    terms = {}
    for _ in range(size):
        e0 = draw(st.integers(0, degree))
        e1 = draw(st.integers(0, degree - e0))
        terms[(e0, e1, degree - e0 - e1)] = draw(coefficients)
    return degree, Polynomial(("alpha", "beta", "delta"), terms)


class TestRingAxioms:
    @given(polynomials(), polynomials(), polynomials())
    def test_add_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polynomials(), polynomials())
    def test_add_commutative(self, p, q):
        assert p + q == q + p

    @given(polynomials())
    def test_additive_inverse(self, p):
        assert p - p == Polynomial.zero()

    @given(polynomials(), polynomials(), polynomials())
    @settings(deadline=None)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polynomials(), polynomials())
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(polynomials(), polynomials(), polynomials())
    @settings(deadline=None)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials(), st.integers(0, 5))
    @settings(deadline=None)
    def test_power_is_repeated_product(self, p, n):
        product = p if n else Polynomial.constant(1)
        for _ in range(n - 1):
            product = product * p
        assert p ** n == product


def test_power_builds_nothing_past_its_result(monkeypatch):
    # the square of the degree-4 Futaki core is an octic; no product of a
    # higher degree (the core's fourth power) may be formed on the way
    core = energy._slice_polynomials()[2]
    degrees = []
    mul = Polynomial.__mul__

    def recording_mul(self, other):
        out = mul(self, other)
        degrees.append(max((sum(e) for e in out.terms), default=0))
        return out

    monkeypatch.setattr(Polynomial, "__mul__", recording_mul)
    assert core ** 2 == mul(core, core)
    assert max(degrees) == 8


class TestCalculusProperties:
    @given(polynomials(), polynomials(), st.sampled_from(["alpha", "beta", "delta"]))
    @settings(deadline=None)
    def test_leibniz_rule(self, p, q, var):
        assert (p * q).partial(var) == p.partial(var) * q + p * q.partial(var)

    @given(homogeneous_polynomials())
    def test_euler_identity(self, degree_poly):
        degree, p = degree_poly
        total = sum((Polynomial.variable(v) * p.partial(v)
                     for v in ("alpha", "beta", "delta")), Polynomial.zero())
        assert total == degree * p

    @given(polynomials(), st.fractions(max_denominator=7),
           st.fractions(max_denominator=7), st.fractions(max_denominator=7))
    def test_substitute_then_eval_matches_direct_eval(self, p, a, b, d):
        partial_sub = p.substitute({"alpha": a})
        assert partial_sub.eval({"beta": b, "delta": d}) == \
            p.eval({"alpha": a, "beta": b, "delta": d})


NAMES = ("alpha", "beta", "delta", "x")


@st.composite
def polynomials_in_some_names(draw):
    """Terms over a drawn subset of NAMES, listed in a drawn order."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=len(NAMES)))
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    return Polynomial(names, draw(st.dictionaries(exps, coefficients, max_size=4)))


OPERATIONS = {
    "add": lambda p, q, data: p + q,
    "sub": lambda p, q, data: p - q,
    "cancel": lambda p, q, data: (p + q) - q,
    "mul": lambda p, q, data: p * q,
    "pow": lambda p, q, data: p ** data.draw(st.integers(0, 3)),
    "div": lambda p, q, data: p / data.draw(coefficients.filter(bool)),
    "partial": lambda p, q, data: p.partial(data.draw(st.sampled_from(NAMES))),
    "substitute": lambda p, q, data: p.substitute({data.draw(st.sampled_from(NAMES)): q}),
}


@pytest.mark.parametrize("op", OPERATIONS)
@settings(deadline=None)
@given(p=polynomials_in_some_names(), q=polynomials_in_some_names(), data=st.data())
def test_every_operation_returns_the_canonical_form(op, p, q, data):
    r = OPERATIONS[op](p, q, data)
    assert all(r.terms.values())
    assert all(any(e[i] for e in r.terms) for i in range(len(r.variables)))
    assert list(r.variables) == sorted(r.variables)
    assert r == Polynomial(r.variables, r.terms)


# -- rational functions --------------------------------------------------------

def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(X, Polynomial.zero())


def test_rational_derivative_quotient_rule():
    # (1/x)' = -1 / x^2, and (x / (x + 1))' = 1 / (x + 1)^2
    assert RationalFunction(Polynomial.constant(1), X).derivative_numerator("x") == -1
    assert RationalFunction(X, X + 1).derivative_numerator("x") == 1


def test_derivative_numerator_is_the_quotient_rule_numerator():
    # written out: the numerator of ((x^2 + 1) / (x - 2))' is 2x (x - 2) - (x^2 + 1)
    assert RationalFunction(X ** 2 + 1, X - 2).derivative_numerator("x") == X ** 2 - 4 * X - 1


def test_rational_eval_at_pole_raises():
    h = RationalFunction(Polynomial.constant(1), X)
    with pytest.raises(ZeroDivisionError):
        h.eval({"x": 0})


# -- refusals ------------------------------------------------------------------

@pytest.mark.parametrize("build, error, message", [
    (lambda: Polynomial(("x",), {(-1,): 1}), ValueError, "negative exponent"),
    (lambda: X / 0, ZeroDivisionError, None),
    (lambda: X ** -1, ValueError, None),
    (lambda: (X + 1).substitute({"x": 1.5}), TypeError, None),
    (lambda: RationalFunction(1.5), TypeError, None),
    (lambda: cauchy_root_bound(Polynomial.constant(3)), ValueError, None),
    (lambda: fraction_to_decimal(Fraction(1, 3), 0), ValueError, "digits must be >= 1"),
    (lambda: isolate_real_roots(X - 1, (0, 2), 0), ValueError, "digits must be >= 1"),
    (lambda: X + 1.5, TypeError, None),
], ids=["negative-exponent", "divide-by-zero", "negative-power", "float-substitute",
        "float-rational", "constant-root-bound", "decimal-digits", "isolate-digits",
        "float-addend"])
def test_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()


# -- root isolation ------------------------------------------------------------

def test_isolate_sqrt_two():
    brackets = isolate_real_roots(X ** 2 - 2, (0, 10), digits=10)
    assert len(brackets) == 1
    b = brackets[0]
    assert fraction_to_decimal(b.midpoint, 10) == "1.414213562"
    assert b.low ** 2 < 2 < b.high ** 2 or b.low == b.high


def test_isolate_no_real_roots():
    assert isolate_real_roots(X ** 2 + 1, (-10, 10)) == []


def test_isolate_one_point_derivative_numerator():
    f = one_point_energy()
    g = (f.numerator.partial("x") * f.denominator
         - f.numerator * f.denominator.partial("x"))
    brackets = isolate_real_roots(g, (0, 100), digits=10)
    assert len(brackets) == 1
    assert fraction_to_decimal(brackets[0].midpoint, 10) == "2.183933404"


def test_isolate_rational_roots_with_multiplicity():
    p = (X - Fraction(1, 2)) * (X - 3) ** 2
    brackets = isolate_real_roots(p, (0, 10), digits=12)
    assert len(brackets) == 2
    for b, root in zip(brackets, (Fraction(1, 2), Fraction(3))):
        assert b.low <= root <= b.high
        assert b.high - b.low <= Fraction(1, 10 ** 11)
    assert [fraction_to_decimal(b.midpoint, 12) for b in brackets] == ["0.5", "3"]


def test_isolate_returns_ascending_roots():
    p = (X + 2) * X * (X - Fraction(7, 3))
    brackets = isolate_real_roots(p, (-5, 5), digits=10)
    mids = [b.midpoint for b in brackets]
    assert mids == sorted(mids)
    assert len(brackets) == 3


def test_isolate_degenerate_interval():
    with pytest.raises(ValueError):
        isolate_real_roots(X, (5, 5))
    with pytest.raises(ValueError):
        isolate_real_roots(X, (7, 2))


def test_isolate_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        isolate_real_roots(Polynomial.zero(), (0, 1))
    with pytest.raises(ValueError, match="zero polynomial"):
        count_real_roots(Polynomial.zero(), (0, 1))


def test_isolate_multivariate_rejected():
    with pytest.raises(ValueError):
        isolate_real_roots(ALPHA * BETA, (0, 1))


def test_count_real_roots_half_open_semantics():
    p = (X - 1) * (X - 2)
    assert count_real_roots(p, (1, 2)) == 1  # root at low endpoint excluded
    assert count_real_roots(p, (0, 2)) == 2  # root at high endpoint included
    assert count_real_roots(p, (0, 1)) == 1
    assert count_real_roots(X - 1, (1, 2)) == 0


def test_cauchy_bound_contains_all_roots():
    p = (X - 5) * (X + 7) * (2 * X - 1)
    bound = cauchy_root_bound(p)
    assert bound >= 7
    assert count_real_roots(p, (-bound, bound)) == 3


def test_isolation_matches_sign_sweep_oracle():
    # small instance of the randomized oracle used in the acceptance suite
    roots = [Fraction(-3), Fraction(-1, 2), Fraction(2), Fraction(9, 2)]
    p = Polynomial.constant(2)
    for r in roots:
        p = p * (X - r)
    brackets = isolate_real_roots(p, (-5, 5), digits=8)
    assert len(brackets) == len(roots)

    sweep_count = 0
    prev = None
    step = Fraction(1, 1000)
    t = Fraction(-5)
    while t <= 5:
        v = p.eval({"x": t})
        if v == 0:
            sweep_count += 1
            prev = None
        else:
            s = 1 if v > 0 else -1
            if prev is not None and s != prev:
                sweep_count += 1
            prev = s
        t += step
    assert sweep_count == len(brackets)


def test_isolation_splits_roots_past_the_recursion_limit():
    # 1/10 -/+ 10^-300 are told apart only after about 1000 halvings of (0, 1)
    roots = Fraction(1, 10) - Fraction(1, 10 ** 300), Fraction(1, 10) + Fraction(1, 10 ** 300)
    p = (X - roots[0]) * (X - roots[1])
    assert count_real_roots(p, (0, 1)) == 2
    brackets = isolate_real_roots(p, (0, 1), 6)
    assert [fraction_to_decimal(b.midpoint, 6) for b in brackets] == ["0.1", "0.1"]
    assert brackets[0].high <= brackets[1].low
    for b, r in zip(brackets, roots):
        assert b.low <= r <= b.high


# -- integer Sturm layer against Fraction division ------------------------------

def _fraction_divmod(num, den):
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        f = num[i + len(den) - 1] / den[-1]
        quot[i] = f
        for j, dc in enumerate(den):
            num[i + j] -= f * dc
    return quot, exactpoly._u_trim(num[: len(den) - 1])


def _fraction_primitive(cs):
    cs = exactpoly._u_trim([Fraction(c) for c in cs])
    if not cs:
        return []
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in cs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [Fraction(v // g) for v in ints]


def _fraction_squarefree(cs):
    """Squarefree part by Fraction division: the reference for the integer layer."""
    cs = _fraction_primitive(cs)
    if len(cs) <= 2:
        return cs
    a, b = cs, _fraction_primitive(exactpoly._u_deriv(cs))
    while b:
        a, b = b, _fraction_primitive(_fraction_divmod(a, b)[1])
    if a[-1] < 0:
        a = [-c for c in a]
    return cs if len(a) == 1 else _fraction_primitive(_fraction_divmod(cs, a)[0])


def _fraction_sturm_chain(cs):
    chain = [_fraction_primitive(cs)]
    d = _fraction_primitive(exactpoly._u_deriv(chain[0]))
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        r = _fraction_primitive([-c for c in _fraction_divmod(chain[-2], chain[-1])[1]])
        if not r:
            break
        chain.append(r)
    return chain


nonzero_coefficients = coefficients.filter(bool)


@st.composite
def factored_coefficients(draw):
    """Dense coefficients of lead * prod f_i^m_i: rational and negative leading
    coefficients, repeated linear and quadratic factors."""
    p = Polynomial.constant(draw(nonzero_coefficients))
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(nonzero_coefficients) * X + draw(coefficients)
        if draw(st.booleans()):
            factor = factor * X + draw(coefficients)
        p = p * factor ** draw(st.integers(1, 3))
    return exactpoly.univariate_coefficients(p)


def _setup(cs):
    """q and its chain as `_sturm_setup` builds them for dense coefficients cs."""
    p = Polynomial(("x",), {(i,): c for i, c in enumerate(cs)})
    _, _, q, chain = exactpoly._sturm_setup(p, (0, 1))
    return q, chain


@settings(max_examples=200, deadline=None)
@given(cs=factored_coefficients())
def test_integer_sturm_layer_matches_fraction_division(cs):
    q, chain = _setup(cs)
    assert q == _fraction_squarefree(cs)
    assert chain == _fraction_sturm_chain(_fraction_squarefree(cs))
    assert all(type(c) is int for p in (q, *chain) for c in p)


@pytest.mark.parametrize("quotient, divisions", [(one_point_energy, 3), (two_point_energy, 9)])
def test_squarefree_input_runs_one_cascade(monkeypatch, quotient, divisions):
    # a squarefree g of degree n takes the n - 1 divisions of its own chain
    # and no second cascade
    calls = []
    divmod_ = exactpoly._u_divmod

    def counting(num, den):
        calls.append(num)
        return divmod_(num, den)

    monkeypatch.setattr(exactpoly, "_u_divmod", counting)
    f = quotient()
    var, = f.numerator.variables
    g = exactpoly.univariate_coefficients(f.derivative_numerator(var))
    q, chain = _setup(g)
    assert len(calls) == divisions == len(g) - 2
    assert q == exactpoly._u_primitive(g) and len(chain) == len(g)
    # a repeated root: p over its chain's last member, with p's sign
    p = -(X - 1) ** 3 * (X ** 2 + 1) / 2
    assert _setup(exactpoly.univariate_coefficients(p))[0] == [1, -1, 1, -1]


# -- refinement against plain bisection -----------------------------------------

def _horner_sign(cs, x: Fraction) -> int:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _plain_refine(q, lo, hi, digits):
    """Refinement by one Fraction evaluation per bisection step, after one
    float Newton jump: the reference the certified enclosure must reproduce."""
    def exact(x):
        return exactpoly.RootBracket(x, x)

    s_hi = _horner_sign(q, hi)
    if s_hi == 0:
        return exact(hi)
    s_lo = _horner_sign(q, lo)
    while s_lo == 0:
        mid = (lo + hi) / 2
        s_mid = _horner_sign(q, mid)
        if s_mid == 0:
            return exact(mid)
        if s_mid != s_hi:
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    if lo < 0 < hi and q[0] == 0:
        return exact(Fraction(0))
    tried_newton = False
    while True:
        target = Fraction(10) ** (exactpoly._decimal_exponent(max(abs(lo), abs(hi))) - digits)
        width = hi - lo
        if width <= target:
            break
        if not tried_newton and width <= max(abs(lo), abs(hi)) / (1 << 20):
            tried_newton = True
            x = exactpoly._float_newton(q, float((lo + hi) / 2))
            if x is not None:
                c = Fraction(x)
                half = max(target, max(abs(lo), abs(hi)) / (1 << 44)) / 2
                a, b = c - half, c + half
                if lo < a and b < hi:
                    sa = _horner_sign(q, a)
                    if sa == 0:
                        return exact(a)
                    sb = _horner_sign(q, b)
                    if sb == 0:
                        return exact(b)
                    if sa != sb:
                        lo, hi, s_lo, s_hi = a, b, sa, sb
                        continue
        mid = (lo + hi) / 2
        s_mid = _horner_sign(q, mid)
        if s_mid == 0:
            return exact(mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return exactpoly.RootBracket(lo, hi)


def _plain_isolate(p, interval, digits):
    lo, hi = (Fraction(v) for v in interval)
    q = _fraction_squarefree(exactpoly.univariate_coefficients(p))
    chain = _fraction_sturm_chain(q)

    def variations(x):
        signs = [s for s in (_horner_sign(cs, x) for cs in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    isolated = []

    def walk(a, b, count):
        if count == 1:
            isolated.append((a, b))
        elif count > 1:
            m = (a + b) / 2
            left = variations(a) - variations(m)
            walk(a, m, left)
            walk(m, b, count - left)

    walk(lo, hi, variations(lo) - variations(hi))
    return [_plain_refine(q, a, b, digits) for a, b in isolated]


# exact dyadic roots, negative ones included; bisection can land on them
dyadic_roots = st.builds(lambda k, j: Fraction(k, 2 ** j),
                         st.integers(-40, 40), st.integers(0, 5))
# roots just off 10^k, where the stop rule's decimal exponent drops mid-run
near_ten_roots = st.builds(lambda k, s, j: Fraction(10) ** k + Fraction(s, 10 ** j),
                           st.integers(-1, 2), st.sampled_from((-1, 1)), st.integers(2, 40))
# x^2 - m: a pair of irrational roots, some of them next to a power of ten
square_roots = st.one_of(st.integers(2, 2000), near_ten_roots.map(lambda r: r * r))


@st.composite
def refinement_cases(draw):
    p = Polynomial.constant(draw(st.sampled_from((1, -3, 7))))
    for r in draw(st.lists(st.one_of(dyadic_roots, near_ten_roots), max_size=3)):
        p = p * (X - r)
    for m in draw(st.lists(square_roots, max_size=2)):
        p = p * (X ** 2 - m)
    if draw(st.booleans()):
        # no real roots, but coefficients past float range: the float Newton
        # jump is never taken and the integer Newton starts from a midpoint
        p = p * (X ** 2 + 10 ** 350)
    if not p.variables:  # a nonzero constant
        p = p * (X - Fraction(1, 3))
    interval = draw(st.sampled_from(((-128, 128), (Fraction(-2000, 3), Fraction(1001, 7)),
                                     (Fraction(-1, 3), 1000))))
    return p, interval


@pytest.mark.parametrize("digits", [6, 12, 13, 20, 60])
@settings(max_examples=40, deadline=None)
@given(case=refinement_cases())
def test_refinement_matches_plain_bisection(digits, case):
    p, interval = case
    assert isolate_real_roots(p, interval, digits) == _plain_isolate(p, interval, digits)


def test_newton_enclosure_is_certified_or_the_bracket():
    q = [-2, 0, 1]  # x^2 - 2
    lo, hi = Fraction(141, 100), Fraction(142, 100)
    L, H, el, eh, D = exactpoly._newton_enclosure(q, lo, hi, 1, Fraction(1415, 1000), 30)
    assert (Fraction(L, D), Fraction(H, D)) == (lo, hi)
    assert L < el < eh < H
    assert Fraction(el, D) ** 2 < 2 < Fraction(eh, D) ** 2
    assert Fraction(eh - el, D) < Fraction(1, 10 ** 31)
    # a seed in the basin of -sqrt(2) converges outside (lo, hi): no window
    L, H, el, eh, D = exactpoly._newton_enclosure(q, lo, hi, 1, Fraction(-3, 2), 30)
    assert (el, eh) == (L, H)
    assert (Fraction(L, D), Fraction(H, D)) == (lo, hi)


@pytest.mark.parametrize("center, gap", [(10, 5), (10, 25), (100, 37)])
def test_close_root_pair_matches_plain_bisection(center, gap):
    # roots center -/+ 10^-gap: for at least one root of each pair, Newton
    # from the midpoint goes to the other root and certifies no window, so
    # bisection evaluates every midpoint
    p = (X - (center - Fraction(1, 10 ** gap))) * (X - (center + Fraction(1, 10 ** gap)))
    interval = (Fraction(-1, 3), 1000)
    assert isolate_real_roots(p, interval, 60) == _plain_isolate(p, interval, 60)


@pytest.mark.parametrize("digits", [6, 12, 60])
@pytest.mark.parametrize("root, interval", [
    (Fraction(1, 10 ** 20), (0, 10 ** 4)),
    (Fraction(1, 10 ** 60), (0, 10 ** 4)),
    (Fraction(1, 10 ** 100), (0, 10 ** 4)),
    (Fraction(-3, 10 ** 300), (-10 ** 4, 0)),
])
def test_tiny_root_meets_the_stop_rule(digits, root, interval):
    # from an endpoint at 0 the float proposal never fires, so the walk down
    # to the root's scale takes hundreds of bisections before the rule holds
    [b] = isolate_real_roots(X - root, interval, digits)
    assert b.low <= root <= b.high
    assert b.high - b.low <= Fraction(10) ** (exactpoly._decimal_exponent(abs(root)) - digits)
    assert [b] == _plain_isolate(X - root, interval, digits)


@pytest.mark.parametrize("digits", [6, 12, 60])
@pytest.mark.parametrize("p, interval", [
    (X * (2 * X - 1), (0, 1)),
    ((X - Fraction(1, 4)) * (X - Fraction(1, 3)), (Fraction(1, 4), 1)),
    (X * (X ** 2 - 2), (0, 2)),
    ((X + 1) * (X - Fraction(5, 7)), (-1, 1)),
    # isolation's midpoint 1 is a root 10^-30 left of the next one: the stop
    # rule and the float proposal wait until low moves off 1
    ((X - 1) * (X - 1 - Fraction(1, 10 ** 30)), (-128, 128)),
], ids=["first-midpoint", "interval-low", "sqrt-two", "negative-low", "close-pair"])
def test_root_at_the_low_end_matches_plain_bisection(digits, p, interval):
    # refinement never evaluates q at low: the one simple root in (low, high]
    # gives q the sign -q(high) just right of it
    brackets = isolate_real_roots(p, interval, digits)
    assert brackets == _plain_isolate(p, interval, digits)
    # every bracket has opposite nonzero signs at its ends, or is exact
    assert all(b.low == b.high or p.eval({"x": b.low}) * p.eval({"x": b.high}) < 0
               for b in brackets)


@pytest.mark.parametrize("digits", [6, 12, 60])
def test_first_midpoint_on_the_root_is_exact(digits):
    # (0, 1] has its low end at the root 0, and the first midpoint is 1/2
    assert isolate_real_roots(X * (2 * X - 1), (0, 1), digits) == [
        exactpoly.RootBracket(Fraction(1, 2), Fraction(1, 2))]


@pytest.mark.parametrize("digits", [6, 12, 60])
def test_root_at_zero_is_exact(digits):
    assert isolate_real_roots(X, (Fraction(-1, 3), Fraction(1, 2)), digits) == [
        exactpoly.RootBracket(Fraction(0), Fraction(0))]


# -- decimal formatting --------------------------------------------------------

@pytest.mark.parametrize("value, digits, expected", [
    (Fraction(1, 3), 12, "0.333333333333"),
    (Fraction(2), 12, "2"),
    (Fraction(1, 10 ** 9), 12, "1e-9"),
    (Fraction(1, 8), 12, "0.125"),
    (Fraction(-355, 113), 6, "-3.14159"),
    (Fraction(1000), 12, "1000"),
    (Fraction(1, 1024), 4, "0.0009766"),
    (Fraction(5, 2), 1, "3"),
    (Fraction(999999, 1000), 4, "1000"),
    (Fraction(0), 12, "0"),
    (Fraction(-1, 3), 3, "-0.333"),
])
def test_fraction_to_decimal(value, digits, expected):
    assert fraction_to_decimal(value, digits) == expected


def test_fraction_to_decimal_beyond_int_str_limit():
    # numerators past 4300 digits exceed Python's int-to-str conversion limit
    assert fraction_to_decimal(Fraction(10 ** 5001 + 7, 3), 10) == "3.333333333e+5000"
    assert fraction_to_decimal(Fraction(2, 3 * 10 ** 5001), 6) == "6.66667e-5002"
