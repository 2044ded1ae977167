"""Certified critical classes, exact gradients, and the slice resultant."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extremal_lab import exactpoly
from extremal_lab.critical import (
    DEFAULT_SEARCH_BOUND,
    _critical_class,
    gradient,
    page_class,
    two_point_class,
)
from extremal_lab.delpezzo import NotKahlerError
from extremal_lab.energy import energy_closed_form, one_point_energy, two_point_energy
from extremal_lab.exactpoly import Polynomial, RationalFunction, symbols

X, = symbols("x")

# independently computed to 30 digits; tests compare well inside bracket width
ONE_POINT_ROOT = Fraction("2.18393340447479633998948628907")
ONE_POINT_VALUE = Fraction("2.72620685274237027224466313483")
ONE_POINT_RESIDUAL = Fraction("0.178620558227110816733989404496")
TWO_POINT_ROOT = Fraction("0.957712805187761860686635999701")
TWO_POINT_VALUE = Fraction("2.37882482354103548537654605799")
TWO_POINT_RESIDUAL = Fraction("0.136474470623106456129638173967")


def closed_value(alpha, beta, delta) -> Fraction:
    return energy_closed_form().eval(
        {"alpha": Fraction(alpha), "beta": Fraction(beta), "delta": Fraction(delta)})


# -- certified critical classes --------------------------------------------------

def test_page_class_certificates():
    rep = page_class()
    mid = rep.critical.bracket.midpoint
    assert abs(mid - ONE_POINT_ROOT) < Fraction(1, 10 ** 11)
    assert rep.critical.classification == "local-min"
    assert rep.line_to_exceptional_ratio == 1 + mid
    assert rep.normalized_energy == one_point_energy().eval({"x": mid})
    assert abs(rep.normalized_energy - ONE_POINT_VALUE) < Fraction(1, 10 ** 11)
    assert rep.residual == 3 * rep.normalized_energy - 8
    assert abs(rep.residual - ONE_POINT_RESIDUAL) < Fraction(1, 10 ** 10)
    assert rep.root_count == 1
    assert rep.search_bound == DEFAULT_SEARCH_BOUND
    assert rep.derivative_root_bound <= DEFAULT_SEARCH_BOUND


def test_two_point_class_certificates():
    rep = two_point_class()
    mid = rep.critical.bracket.midpoint
    assert abs(mid - TWO_POINT_ROOT) < Fraction(1, 10 ** 11)
    assert rep.critical.classification == "local-min"
    assert rep.line_to_exceptional_ratio == 2 + mid
    assert rep.normalized_energy == two_point_energy().eval({"y": mid})
    assert abs(rep.normalized_energy - TWO_POINT_VALUE) < Fraction(1, 10 ** 11)
    assert rep.residual == 3 * rep.normalized_energy - 7
    assert abs(rep.residual - TWO_POINT_RESIDUAL) < Fraction(1, 10 ** 10)
    assert rep.root_count == 1
    assert rep.derivative_root_bound <= DEFAULT_SEARCH_BOUND


@pytest.mark.parametrize("builder", [page_class, two_point_class])
def test_critical_bracket_is_sign_certified(builder):
    rep = builder()
    b = rep.critical.bracket
    var = rep.critical.variable
    quotient = one_point_energy() if rep.k == 1 else two_point_energy()
    g = (quotient.numerator.partial(var) * quotient.denominator
         - quotient.numerator * quotient.denominator.partial(var))
    assert g.eval({var: b.low}) < 0 < g.eval({var: b.high})


# 20-digit brackets as bisection refined them from the float Newton
# proposal's bracket, once exact signs accepted it; a refinement change that
# moves either bracket fails here
PINNED_BRACKETS = {
    page_class: ("346058061380119509884569918729/158456325028528675187087900672",
                 "173029030690059754942871204677/79228162514264337593543950336"),
    two_point_class: ("1214045212342527655689911455767/1267650600228229401496703205376",
                      "607022606171263827845469896321/633825300114114700748351602688"),
}


@pytest.mark.parametrize("builder", [page_class, two_point_class])
def test_critical_brackets_are_pinned(builder):
    b = builder(20).critical.bracket
    assert (str(b.low), str(b.high)) == PINNED_BRACKETS[builder]


@pytest.mark.parametrize("digits", [6, 12, 150, 310, 580, 800])
@pytest.mark.parametrize("builder", [page_class, two_point_class])
def test_first_newton_window_certifies(monkeypatch, builder, digits):
    # the fast path of deep refinement, taken once per root: a refused window
    # falls back to one exact sign per bisection step, tens of times slower
    certified = []
    enclosure = exactpoly._newton_enclosure

    def recording(*args):
        L, H, el, eh, D = window = enclosure(*args)
        certified.append((el, eh) != (L, H))
        return window

    monkeypatch.setattr(exactpoly, "_newton_enclosure", recording)
    builder(digits)
    assert certified == [True]


@pytest.mark.parametrize("builder", [page_class, two_point_class])
def test_critical_point_is_a_minimum_by_second_derivative(builder):
    rep = builder()
    var = rep.critical.variable
    quotient = one_point_energy() if rep.k == 1 else two_point_energy()
    # f' = g / d^2 with g = n'd - nd', so f'' = g' / d^2 wherever g = 0, and the
    # bracket around the root of g is far narrower than any change of sign of g'
    g = quotient.derivative_numerator(var)
    assert g.partial(var).eval({var: rep.critical.bracket.midpoint}) > 0


@pytest.mark.parametrize("builder", [page_class, two_point_class])
def test_reports_hold_exact_values_only(builder):
    rep = builder()
    assert not [name for name in rep._fields if isinstance(getattr(rep, name), str)]
    assert type(rep.line_to_exceptional_ratio) is Fraction


def test_am_gm_critical_point():
    rep = _critical_class(1, RationalFunction(X ** 2 + 1, X), 12)
    assert rep.critical.bracket.low < 1 < rep.critical.bracket.high
    assert abs(rep.normalized_energy - 2) < Fraction(1, 10 ** 20)
    assert rep.root_count == 1


@pytest.mark.parametrize("f, message", [
    # -x - 1/x: a local maximum at x = 1
    (RationalFunction(-(X ** 2 + 1), X), "change sign"),
    # g = 3 (x - 2)^2 keeps its sign: an inflection at x = 2
    (RationalFunction((X - 2) ** 3, 1), "change sign"),
    # bisection of (0, 10^4] lands exactly on 625: a degenerate bracket
    (RationalFunction((X - 625) ** 2, 1), "change sign"),
    (RationalFunction(X, 1), "got 0"),
    (RationalFunction(((X - 1) * (X - 3)) ** 2, 1), "got 3"),
    # g = (x - 1)(x - 20000): one root inside, one past the truncation
    (RationalFunction(X ** 3 / 3 - 20001 * X ** 2 / 2 + 20000 * X, 1), "truncation"),
])
def test_critical_class_refuses_uncertified_points(f, message):
    with pytest.raises(ArithmeticError, match=message):
        _critical_class(1, f, 12)


def test_denominator_root_in_domain_rejected():
    f = RationalFunction(X ** 2 + 1, X - 1)
    with pytest.raises(ArithmeticError, match="denominator"):
        _critical_class(1, f, 12)


def test_multivariate_function_rejected():
    a, b = symbols("a b")
    with pytest.raises(ValueError):
        _critical_class(1, RationalFunction(a * b, Polynomial.constant(1)), 12)


def test_identically_flat_function_rejected():
    with pytest.raises(ValueError, match="zero polynomial"):
        _critical_class(1, RationalFunction(X, X), 12)


# -- exact gradient ----------------------------------------------------------------

def test_gradient_vanishes_at_anticanonical_point():
    assert gradient(1, 1, 0) == (Fraction(0), Fraction(0))


def test_gradient_matches_central_differences():
    h = Fraction(1, 10 ** 6)
    ga, gd = gradient(2, 1, 1)
    fd_a = (closed_value(2 + h, 1, 1) - closed_value(2 - h, 1, 1)) / (2 * h)
    fd_d = (closed_value(2, 1, 1 + h) - closed_value(2, 1, 1 - h)) / (2 * h)
    assert abs(ga - fd_a) < Fraction(1, 10 ** 8)
    assert abs(gd - fd_d) < Fraction(1, 10 ** 8)


def test_energy_does_not_decrease_leaving_boundary():
    # one-sided delta-derivative at the anti-canonical class
    assert gradient(1, 1, 0)[1] == 0
    h = Fraction(1, 1000)
    assert closed_value(1, 1, h) >= closed_value(1, 1, 0)


def test_gradient_rejects_non_kahler_point():
    with pytest.raises(NotKahlerError):
        gradient(-1, 1, 0)


class TestGradientProperties:
    slice_fractions = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=8)

    @given(slice_fractions, slice_fractions,
           st.fractions(min_value=0, max_value=6, max_denominator=8))
    @settings(deadline=None, max_examples=25)
    def test_euler_relation(self, a, b, d):
        # degree-0 homogeneity: a V_a + b V_b + d V_d = 0 with V_b from the quotient
        ga, gd = gradient(a, b, d)
        se = energy_closed_form()
        point = {"alpha": a, "beta": b, "delta": d}
        nv, dv = se.numerator.eval(point), se.denominator.eval(point)
        gb = (se.numerator.partial("beta").eval(point) * dv
              - nv * se.denominator.partial("beta").eval(point)) / dv ** 2
        assert a * ga + b * gb + d * gd == 0


# -- no critical point with delta > 0: an exact certificate -------------------------
#
# N/D is homogeneous of degree 0, so gauging beta = 1 loses no critical point
# with beta > 0.  There grad(N/D) = (g_alpha, g_delta) / D^2 with
# g_alpha = N_a D - N D_a and g_delta = N_d D - N D_d, and D > 0 on the Kahler
# cone, so a critical point is a common zero of g_alpha and g_delta.  Their
# resultant in alpha, R(delta), vanishes at every such delta once the leading
# alpha-coefficients do not; R is built here in pure integer arithmetic.

def _slice_gradient_numerators():
    closed = energy_closed_form()
    return tuple(closed.derivative_numerator(var).substitute({"beta": 1})
                 for var in ("alpha", "delta"))


def _alpha_coefficients(p):
    """p(alpha, delta) as its alpha-coefficients, highest first, each a dict
    {delta exponent: integer coefficient}."""
    assert p.variables == ("alpha", "delta")
    coefficients = [{} for _ in range(max(ea for ea, _ in p.terms) + 1)]
    for (ea, ed), c in p.terms.items():
        assert c.denominator == 1
        coefficients[-1 - ea][ed] = c.numerator
    return coefficients


def _at(coefficient, delta):
    return sum(c * delta ** e for e, c in coefficient.items())


def _sylvester(f, g):
    """Sylvester matrix of the coefficient lists f and g (highest first)."""
    m, n = len(f) - 1, len(g) - 1
    return ([[0] * i + f + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + g + [0] * (m - 1 - i) for i in range(m)])


def _bareiss_det(rows):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination;
    every division is exact."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _interpolate(xs, ys):
    """Coefficients, lowest first, of the polynomial of degree < len(xs)
    through the points (xs, ys): Newton divided differences, expanded."""
    newton = [Fraction(y) for y in ys]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - k])
    poly = []
    for c, x in zip(reversed(newton), reversed(xs)):
        poly = [a - x * b for a, b in zip([c] + poly, poly + [0])]  # poly * (t - x) + c
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _resultant_in_alpha(f, g):
    """(Res_alpha(f, g) as integer coefficients in delta, lowest first, and the
    sample points): Sylvester determinants at delta = 1..B+1, interpolated,
    where B bounds the delta-degree of the determinant."""
    fa, ga = _alpha_coefficients(f), _alpha_coefficients(g)

    def delta_degree(coefficients):
        return max(e for c in coefficients for e in c)

    bound = (len(ga) - 1) * delta_degree(fa) + (len(fa) - 1) * delta_degree(ga)
    points = range(1, bound + 2)
    dets = [_bareiss_det(_sylvester([_at(c, x) for c in fa], [_at(c, x) for c in ga]))
            for x in points]
    coefficients = _interpolate(list(points), dets)
    assert all(c.denominator == 1 for c in coefficients)
    return [c.numerator for c in coefficients], points


def test_slice_gradient_has_no_zero_at_positive_delta():
    g_alpha, g_delta = _slice_gradient_numerators()
    assert [max(map(sum, p.terms)) for p in (g_alpha, g_delta)] == [11, 11]
    fa, ga = _alpha_coefficients(g_alpha), _alpha_coefficients(g_delta)
    assert (len(fa) - 1, len(ga) - 1) == (4, 5)
    lead_alpha, lead_delta = fa[0], ga[0]
    # the leading alpha-coefficients have no zero with delta > -2
    d, = symbols("delta")
    assert lead_alpha == {e: c for (e,), c in (24 * (d + 2) ** 7).terms.items()}
    assert lead_delta == {e: c for (e,), c in (-24 * (d + 2) ** 6).terms.items()}

    r, points = _resultant_in_alpha(g_alpha, g_delta)
    assert all(_at(lead_alpha, x) != 0 and _at(lead_delta, x) != 0 for x in points)
    assert len(r) - 1 == 75
    assert r[:6] == [0] * 6 and r[6] != 0  # lowest term delta^6: the (1, 0) corner
    # Descartes: no sign change among the coefficients, so no root delta > 0
    signs = [c > 0 for c in r if c]
    assert all(s == signs[0] for s in signs)


def test_slice_resultant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    alpha, delta = sympy.symbols("alpha delta")
    g_alpha, g_delta = _slice_gradient_numerators()
    expected = sympy.Poly(sympy.resultant(
        *(sympy.Poly.from_dict({e: int(c) for e, c in p.terms.items()}, alpha, delta)
          for p in (g_alpha, g_delta)), alpha), delta)
    r, _ = _resultant_in_alpha(g_alpha, g_delta)
    assert r == [int(c) for c in reversed(expected.all_coeffs())]
