"""Exact polynomial arithmetic, rational functions, and root isolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
