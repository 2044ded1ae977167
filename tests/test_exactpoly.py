"""Exact polynomial arithmetic, rational functions, and root isolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extremal_lab import exactpoly
from extremal_lab.exactpoly import (
    ANY_DEGREE,
    Polynomial,
    RationalFunction,
    cauchy_root_bound,
    count_real_roots,
    fraction_to_decimal,
    isolate_real_roots,
    symbols,
)
from extremal_lab.energy import one_point_energy, t_variance_poly

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


# -- arithmetic examples -------------------------------------------------------

def test_add_cancels_opposite_terms():
    assert (ALPHA + BETA) + (-ALPHA) == BETA


def test_add_zero_is_identity():
    p = ALPHA ** 2 - 3 * DELTA
    assert p + Polynomial.zero() == p
    assert p + 0 == p


def test_add_merges_like_terms():
    assert 2 * ALPHA + 3 * ALPHA == 5 * ALPHA


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
    d = t_variance_poly()
    total = (ALPHA * d.partial("alpha") + BETA * d.partial("beta")
             + DELTA * d.partial("delta"))
    assert total == 6 * d


# -- substitution and evaluation -----------------------------------------------

def test_substitute_beta_zero_in_variance_poly():
    d = t_variance_poly()
    expected = DELTA ** 6 + 6 * DELTA ** 5 * ALPHA + 6 * DELTA ** 4 * ALPHA ** 2
    assert d.substitute({"beta": 0}) == expected


def test_substitute_alpha_zero_in_variance_poly():
    d = t_variance_poly()
    expected = (12 * BETA ** 6 + 72 * BETA ** 5 * DELTA + 138 * BETA ** 4 * DELTA ** 2
                + 120 * BETA ** 3 * DELTA ** 3 + 54 * BETA ** 2 * DELTA ** 4
                + 12 * BETA * DELTA ** 5 + DELTA ** 6)
    assert d.substitute({"alpha": 0}) == expected


def test_substitute_identity_bindings():
    d = t_variance_poly()
    assert d.substitute({"alpha": ALPHA, "beta": BETA, "delta": DELTA}) == d


def test_eval_variance_points():
    d = t_variance_poly()
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
    assert t_variance_poly().homogeneous_degree() == 6


def test_mixed_degrees_report_none():
    assert (ALPHA + BETA ** 2).homogeneous_degree() is None


def test_zero_polynomial_degree_sentinel():
    assert Polynomial.zero().homogeneous_degree() is ANY_DEGREE
    assert Polynomial.zero().total_degree() == -1


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


# -- rational functions --------------------------------------------------------

def test_rational_equality_by_cross_multiplication():
    f = RationalFunction(X ** 2 - 1, X - 1)
    g = RationalFunction(X + 1, Polynomial.constant(1))
    assert f == g


def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(X, Polynomial.zero())


def test_rational_derivative_quotient_rule():
    h = RationalFunction(Polynomial.constant(1), X)
    assert h.derivative("x") == RationalFunction(Polynomial.constant(-1), X ** 2)


def test_rational_eval_at_pole_raises():
    h = RationalFunction(Polynomial.constant(1), X)
    with pytest.raises(ZeroDivisionError):
        h.eval({"x": 0})


def test_rational_arithmetic():
    f = RationalFunction(Polynomial.constant(1), X)
    g = RationalFunction(X, Polynomial.constant(1))
    assert f * g == RationalFunction(Polynomial.constant(1), Polynomial.constant(1))
    assert f + f == RationalFunction(Polynomial.constant(2), X)


# -- root isolation ------------------------------------------------------------

def test_isolate_sqrt_two():
    brackets = isolate_real_roots(X ** 2 - 2, (0, 10), digits=10)
    assert len(brackets) == 1
    b = brackets[0]
    assert b.refined == "1.414213562"
    assert b.low ** 2 < 2 < b.high ** 2 or b.low == b.high


def test_isolate_no_real_roots():
    assert isolate_real_roots(X ** 2 + 1, (-10, 10)) == []


def test_isolate_one_point_derivative_numerator():
    f = one_point_energy()
    g = (f.numerator.partial("x") * f.denominator
         - f.numerator * f.denominator.partial("x"))
    brackets = isolate_real_roots(g, (0, 100), digits=10)
    assert len(brackets) == 1
    assert brackets[0].refined == "2.183933404"


def test_isolate_rational_roots_with_multiplicity():
    p = (X - Fraction(1, 2)) * (X - 3) ** 2
    brackets = isolate_real_roots(p, (0, 10), digits=12)
    assert len(brackets) == 2
    for b, root in zip(brackets, (Fraction(1, 2), Fraction(3))):
        assert b.low <= root <= b.high
        assert b.high - b.low <= Fraction(1, 10 ** 11)
    assert [b.refined for b in brackets] == ["0.5", "3"]


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
    with pytest.raises(ValueError):
        isolate_real_roots(Polynomial.zero(), (0, 1))


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
        return exactpoly.RootBracket(x, x, fraction_to_decimal(x, digits))

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
    tried_newton = False
    for _ in range(128 + 8 * digits):
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
    return exactpoly.RootBracket(lo, hi, fraction_to_decimal((lo + hi) / 2, digits))


def _plain_isolate(p, interval, digits):
    lo, hi = (Fraction(v) for v in interval)
    q = exactpoly._u_squarefree(exactpoly.univariate_coefficients(p))
    chain = exactpoly.sturm_chain(q)

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
    if p.total_degree() < 1:
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
    L, H, el, eh, D = exactpoly._newton_enclosure(q, lo, hi, -1, 1, Fraction(1415, 1000), 30)
    assert (Fraction(L, D), Fraction(H, D)) == (lo, hi)
    assert L < el < eh < H
    assert Fraction(el, D) ** 2 < 2 < Fraction(eh, D) ** 2
    assert Fraction(eh - el, D) < Fraction(1, 10 ** 31)
    # a seed in the basin of -sqrt(2) converges outside (lo, hi): no window
    L, H, el, eh, D = exactpoly._newton_enclosure(q, lo, hi, -1, 1, Fraction(-3, 2), 30)
    assert (el, eh) == (L, H)
    assert (Fraction(L, D), Fraction(H, D)) == (lo, hi)


def test_uncertified_enclosure_is_retried(monkeypatch):
    # roots 10 -/+ 10^-5: the first enclosure of the lower root certifies no
    # window; the retry from the midpoint of a bracket 2^20 times smaller does
    calls = []
    enclosure = exactpoly._newton_enclosure

    def recording(q, lo, hi, *args):
        L, H, el, eh, D = enclosure(q, lo, hi, *args)
        calls.append((lo, hi, (el, eh) != (L, H)))
        return L, H, el, eh, D

    monkeypatch.setattr(exactpoly, "_newton_enclosure", recording)
    p = (X - (10 - Fraction(1, 10 ** 5))) * (X - (10 + Fraction(1, 10 ** 5)))
    interval = (Fraction(-1, 3), 1000)
    assert isolate_real_roots(p, interval, 60) == _plain_isolate(p, interval, 60)
    (lo0, hi0, certified0), (lo1, hi1, certified1) = calls[:2]
    assert not certified0 and certified1
    assert lo0 <= lo1 < hi1 <= hi0 and (hi1 - lo1) * 2 ** 20 <= hi0 - lo0


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
