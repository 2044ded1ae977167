"""Calabi energy on the slice: sextics, identity, and specializations."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from extremal_lab import energy, sextics
from extremal_lab.delpezzo import NotKahlerError, slice_surface
from extremal_lab.energy import (
    energy_closed_form,
    energy_composed,
    gauss_bonnet_residual,
    kahler_point,
    one_point_energy,
    solve_unknown_coefficient,
    two_point_energy,
    verify_identity,
)
from extremal_lab.exactpoly import Polynomial, symbols

ALPHA, BETA, DELTA = symbols("alpha beta delta")

SLICE_VARS = ("alpha", "beta", "delta")


def closed_value(alpha, beta, delta) -> Fraction:
    return energy_closed_form().eval(
        {"alpha": Fraction(alpha), "beta": Fraction(beta), "delta": Fraction(delta)})


def omega_squared(a, b, d) -> Fraction:
    return Fraction((a + 2 * b + d) ** 2 - a ** 2 - 2 * b ** 2)


def futaki(a, b, d) -> Fraction:
    """F(Xi,[w]) = 4 (beta-alpha) delta (delta^2/3 + beta delta + beta^2) / w^2."""
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    return 4 * (b - a) * d * (d ** 2 / 3 + b * d + b ** 2) / omega_squared(a, b, d)


# -- the variance sextic ---------------------------------------------------------

def test_variance_poly_point_values():
    d = energy_closed_form().denominator
    assert d.eval({"alpha": 1, "beta": 0, "delta": 1}) == 13
    assert d.eval({"alpha": 0, "beta": 1, "delta": 1}) == 409
    assert d.eval({"alpha": 1, "beta": 1, "delta": 0}) == 180


def test_both_sextics_are_homogeneous_of_degree_six():
    se = energy_closed_form()
    assert {sum(e) for e in se.numerator.terms} == {6}
    assert {sum(e) for e in se.denominator.terms} == {6}


def test_sextic_polynomials_are_the_plain_data():
    # energy's Polynomials and the scan's tables read one source, term for term
    assert energy._NUMERATOR.variables == energy._VARIANCE.variables == SLICE_VARS
    assert energy._NUMERATOR.terms == sextics.NUMERATOR
    assert energy._VARIANCE.terms == sextics.VARIANCE
    assert all(type(c) is int for t in (sextics.NUMERATOR, sextics.VARIANCE) for c in t.values())


def test_numerator_point_values():
    n = energy_closed_form().numerator
    assert n.eval({"alpha": 0, "beta": 1, "delta": 1}) == 973
    assert n.eval({"alpha": 1, "beta": 1, "delta": 0}) == 360


# -- the exact identity ----------------------------------------------------------

def test_identity_holds_exactly():
    ok, residual = verify_identity()
    assert ok
    assert residual == Polynomial.zero()


def test_identity_point_checks():
    # hand evaluations of both sides at two slice points
    se = energy_closed_form()
    for point, w2 in (({"alpha": 1, "beta": 1, "delta": 0}, 6),
                      ({"alpha": 0, "beta": 1, "delta": 1}, 7)):
        a, b, d = (Fraction(point[v]) for v in SLICE_VARS)
        c1w = 2 * (a + 2 * b + d) + d
        futaki_core = (b - a) * d * (d ** 2 / 3 + b * d + b ** 2)
        lhs = (c1w ** 2 * se.denominator.eval(point) / 3 + 24 * futaki_core ** 2)
        assert lhs == w2 * se.numerator.eval(point)
    assert (Fraction(36) * 180 / 3) == 2160 == 6 * 360
    assert (Fraction(49) * 409 / 3 + Fraction(1176, 9)) == 6811 == 7 * 973


def test_identity_detects_perturbed_numerator(monkeypatch):
    bad = energy_closed_form().numerator + Polynomial(SLICE_VARS, {(1, 4, 1): Fraction(1)})
    monkeypatch.setattr(energy, "_NUMERATOR", bad)
    ok, residual = verify_identity()
    assert not ok
    assert residual != Polynomial.zero()


def test_coefficient_recovery():
    assert solve_unknown_coefficient(verify_identity()[1]) == 276


def test_coefficient_recovery_rejects_perturbed_numerator(monkeypatch):
    bad = energy_closed_form().numerator + Polynomial(SLICE_VARS, {(1, 4, 1): Fraction(1)})
    monkeypatch.setattr(energy, "_NUMERATOR", bad)
    with pytest.raises(ValueError, match="inconsistent"):
        solve_unknown_coefficient(verify_identity()[1])


@pytest.mark.parametrize("typed", [267, 300])
def test_coefficient_recovery_ignores_the_displayed_value(monkeypatch, typed):
    # a mistyped beta^4 alpha delta entry of D breaks the identity, and the
    # recovery still solves for the value the identity forces
    bad = energy_closed_form().denominator + Polynomial(SLICE_VARS, {(1, 4, 1): typed - 276})
    monkeypatch.setattr(energy, "_VARIANCE", bad)
    ok, residual = verify_identity()
    assert not ok
    assert solve_unknown_coefficient(residual) == 276


def test_recovered_coefficient_is_the_stored_one():
    assert energy_closed_form().denominator.coefficient(alpha=1, beta=4, delta=1) == 276


# a fresh interpreter counts the Polynomial products that importing the CLI
# and the energy module forms (the CLI imports energy only in the commands
# that run it), and then those of one verify_identity, so the counter is seen
# working
COUNT_PRODUCTS = """
from extremal_lab.exactpoly import Polynomial
mul, products = Polynomial.__mul__, []
def counting_mul(self, other):
    products.append(1)
    return mul(self, other)
Polynomial.__mul__ = counting_mul
import extremal_lab.cli
import extremal_lab.energy
print(len(products))
extremal_lab.energy.verify_identity()
print(len(products) > 0)
"""


def test_cli_import_forms_no_polynomial_product():
    # c1.w, w^2 and the Futaki quartic become polynomials only when the
    # identity first asks for them; the energies evaluate them at Fractions
    path = os.pathsep.join(filter(None, (str(Path(energy.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-c", COUNT_PRODUCTS], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert (res.returncode, res.stdout) == (0, "0\nTrue\n"), res.stderr


# -- Futaki restriction -----------------------------------------------------------

def test_futaki_vanishes_on_symmetric_classes():
    for point in ((1, 1, 3), (2, 5, 0)):
        assert futaki(*point) == 0
        assert energy_composed(*point).futaki_term == 0


def test_futaki_two_point_value():
    assert futaki(0, 1, 1) == Fraction(4, 3)
    # futaki_term = 144 F^2 w^2 / D with w^2 = 7 and D = 409
    assert energy_composed(0, 1, 1).futaki_term == 144 * Fraction(16, 9) * 7 / 409


# -- composed and closed-form routes ----------------------------------------------

def test_anticanonical_breakdown():
    bd = energy_composed(1, 1, 0)
    assert bd.futaki_term == 0
    assert bd.average_term == 192
    assert bd.total == 192
    assert bd.normalized == 2


def test_two_point_breakdown():
    bd = energy_composed(0, 1, 1)
    assert bd.average_term == 224
    assert bd.futaki_term == Fraction(1792, 409)
    assert bd.total == Fraction(93408, 409)
    assert bd.normalized == Fraction(973, 409)


def test_breakdown_terms_sum():
    bd = energy_composed(2, 3, Fraction(1, 2))
    assert bd.average_term + bd.futaki_term == bd.total
    assert bd.total == 96 * bd.normalized
    assert bd.futaki_term >= 0


def test_closed_form_point_values():
    assert closed_value(1, 1, 0) == 2
    assert closed_value(0, 1, 1) == Fraction(973, 409)


def test_one_point_slice_reproduced_by_composition():
    f = one_point_energy()
    for x in (Fraction(1, 2), Fraction(2), Fraction(7)):
        assert energy_composed(1, 0, x).normalized == f.eval({"x": x})


def test_futaki_term_is_even_in_futaki_invariant():
    # the decomposition uses the invariant only through its square
    a, b, d = Fraction(1), Fraction(3), Fraction(2)
    w2 = omega_squared(a, b, d)
    fut = futaki(a, b, d)
    dval = energy_closed_form().denominator.eval({"alpha": a, "beta": b, "delta": d})
    term = energy_composed(a, b, d).futaki_term
    assert term == 144 * fut ** 2 * w2 / dval
    assert term == 144 * (-fut) ** 2 * w2 / dval


# -- displayed univariate quotients ------------------------------------------------

def test_one_point_energy_values():
    f = one_point_energy()
    assert f.eval({"x": 1}) == Fraction(37, 13)
    # pole at x = 0: numerator constant 4, denominator vanishing
    assert f.numerator.eval({"x": 0}) == 4
    assert f.denominator.eval({"x": 0}) == 0


def test_two_point_energy_values():
    g = two_point_energy()
    assert g.eval({"y": 1}) == Fraction(973, 409)
    # y -> 0+ limit from the constant terms
    assert Fraction(g.numerator.eval({"y": 0}), g.denominator.eval({"y": 0})) == Fraction(8, 3)


#: the quotients as typed in before they were derived from N/D by blowing
#: down: (numerator, denominator) coefficients, index = exponent
ONE_POINT_COEFFICIENTS = ([4, 14, 16, 3], [0, 6, 6, 1])
TWO_POINT_COEFFICIENTS = ([32, 176, 318, 280, 132, 32, 3],
                          [12, 72, 138, 120, 54, 12, 1])


@pytest.mark.parametrize("quotient, var, pinned", [
    (one_point_energy, "x", ONE_POINT_COEFFICIENTS),
    (two_point_energy, "y", TWO_POINT_COEFFICIENTS),
])
def test_blown_down_quotients_are_the_pinned_polynomials(quotient, var, pinned):
    # equal polynomials, not merely proportional ones: Sturm and Newton see these
    f = quotient()
    for got, coefficients in zip((f.numerator, f.denominator), pinned):
        assert got == Polynomial((var,), {(e,): c for e, c in enumerate(coefficients)})


def test_slice_consistency_cross_multiplied():
    se = energy_closed_form()
    x, = symbols("x")
    one = one_point_energy()
    spec_n = se.numerator.substitute({"alpha": 1, "beta": 0, "delta": x})
    spec_d = se.denominator.substitute({"alpha": 1, "beta": 0, "delta": x})
    assert spec_n * one.denominator == one.numerator * spec_d

    y, = symbols("y")
    two = two_point_energy()
    spec_n = se.numerator.substitute({"alpha": 0, "beta": 1, "delta": y})
    spec_d = se.denominator.substitute({"alpha": 0, "beta": 1, "delta": y})
    assert spec_n * two.denominator == two.numerator * spec_d


def test_two_point_agreement_on_samples():
    g = two_point_energy()
    for y in (Fraction(1, 3), Fraction(5, 2), Fraction(4)):
        assert energy_composed(0, 1, y).normalized == g.eval({"y": y})


# -- domain handling ----------------------------------------------------------------

def slice_point(alpha, beta, delta):
    """kahler_point on the surface the blow-down rule reads the point on."""
    return kahler_point(slice_surface(alpha, beta), alpha, beta, delta)


def test_kahler_point_messages():
    for point, violation in (
            ((-1, 1, 0), "self-intersection Q(c,c) = -2 is not positive"),
            ((0, 1, 0), "curve H-E1-E2 has area 0 <= 0"),  # two-point surface
            ((0, 0, 0), "hyperplane multiple delta = 0 is not positive"),  # plane
            ((0, 0, Fraction(-1, 2)), "hyperplane multiple delta = -1/2 is not positive")):
        with pytest.raises(NotKahlerError) as exc:
            slice_point(*point)
        assert str(exc.value) == f"class is not Kahler: {violation}"


@pytest.mark.parametrize("k, point, expected", [
    (3, (1, 1, 0), (1, 1, 0)),
    (2, (None, 1, 1), (0, 1, 1)),  # two-point blow-down
    (2, (7, 1, 1), (0, 1, 1)),  # the area the surface lacks is 0
    (1, (1, None, 1), (1, 0, 1)),  # one-point blow-down
    (1, (1, 7, 1), (1, 0, 1)),
    (0, (None, None, 1), (0, 0, 1)),  # plane
    (3, (Fraction(1, 2), 2, 0.25), (Fraction(1, 2), 2, Fraction(1, 4))),
])
def test_kahler_point_returns_fractions(k, point, expected):
    got = kahler_point(k, *point)
    assert got == expected
    assert all(type(x) is Fraction for x in got)


def test_energy_rejects_non_kahler_input():
    with pytest.raises(NotKahlerError):
        energy_composed(-1, 1, 0)
    with pytest.raises(NotKahlerError):
        energy_composed(0, 1, 0)


def test_plane_value():
    assert energy_composed(0, 0, 1).normalized == 3


def test_negative_delta_kahler_class_accepted():
    # Cremona-reflected classes evaluate like their normalized images
    assert slice_point(2, 2, -1) == (2, 2, -1)
    assert energy_composed(2, 2, -1).normalized == closed_value(1, 1, 1)


def test_sextics_are_cremona_invariant():
    se = energy_closed_form()
    image = {"alpha": ALPHA + DELTA, "beta": BETA + DELTA, "delta": -1 * DELTA}
    assert se.numerator.substitute(image) == se.numerator
    assert se.denominator.substitute(image) == se.denominator


def test_slice_minimum_is_certified():
    # N/D >= 2 on the Kahler slice with delta >= 0, with equality only at
    # alpha = beta, delta = 0.  w^2 > 0 on a Kahler class, and
    #   3 w^2 (N - 2 D) = ((c1.w)^2 - 6 w^2) D + 72 F^2
    #   (c1.w)^2 - 6 w^2 = 4 (alpha - beta)^2 + 3 delta^2,
    # while every coefficient of D is positive, so D > 0 there: the right side
    # is >= 0, and 0 only where 4 (alpha - beta)^2 + 3 delta^2 is.  The
    # Cremona invariance above carries the bound to delta < 0.
    se = energy_closed_form()
    n, d = se.numerator, se.denominator
    a = ALPHA + 2 * BETA + DELTA  # the class (a; alpha, beta, beta)
    w2, c1w = a ** 2 - ALPHA ** 2 - 2 * BETA ** 2, 3 * a - ALPHA - 2 * BETA
    slice_c1w, slice_w2, futaki_core = energy._slice_polynomials()
    assert (w2, c1w) == (slice_w2, slice_c1w)
    hodge = 4 * (ALPHA - BETA) ** 2 + 3 * DELTA ** 2
    assert 3 * w2 * (n - 2 * d) == hodge * d + 72 * futaki_core ** 2
    assert c1w ** 2 - 6 * w2 == hodge
    assert len(d.terms) == 18 and all(c > 0 for c in d.terms.values())


# -- Gauss-Bonnet residual -----------------------------------------------------------

def test_residual_examples():
    assert gauss_bonnet_residual(3, Fraction(2)) == 0
    assert gauss_bonnet_residual(2, Fraction(973, 409)) == Fraction(56, 409)
    one_point_min = one_point_energy().eval({"x": Fraction(2)})
    assert gauss_bonnet_residual(1, one_point_min) == 3 * one_point_min - 8


def test_residual_rejects_bad_k():
    with pytest.raises(ValueError):
        gauss_bonnet_residual(0, Fraction(2))
    with pytest.raises(ValueError):
        gauss_bonnet_residual(4, Fraction(2))


# -- properties ----------------------------------------------------------------------

positive_fractions = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=12)
nonneg_fractions = st.fractions(min_value=0, max_value=8, max_denominator=12)


class TestSliceProperties:
    @given(positive_fractions, positive_fractions, nonneg_fractions, positive_fractions)
    @settings(deadline=None)
    def test_homogeneity_zero(self, a, b, d, scale):
        assert closed_value(scale * a, scale * b, scale * d) == closed_value(a, b, d)

    @given(positive_fractions, positive_fractions, nonneg_fractions)
    @settings(deadline=None)
    def test_route_equality(self, a, b, d):
        assert energy_composed(a, b, d).normalized == closed_value(a, b, d)

    @given(positive_fractions, positive_fractions, nonneg_fractions)
    @settings(deadline=None)
    def test_sextics_positive_on_cone(self, a, b, d):
        point = {"alpha": a, "beta": b, "delta": d}
        se = energy_closed_form()
        assert se.numerator.eval(point) > 0
        assert se.denominator.eval(point) > 0

    @given(positive_fractions, positive_fractions, nonneg_fractions)
    @settings(deadline=None)
    def test_futaki_term_nonnegative(self, a, b, d):
        assert energy_composed(a, b, d).futaki_term >= 0


# -- the moment polygon: a derivation that reads none of the tables -------------
#
# On a toric surface the extremal scalar curvature is the affine function
# theta with int_P theta f dx = int_dP f dsigma for every affine f, dsigma
# the lattice boundary measure, and A / 96 pi^2 = (1/6) int_P theta^2 dx.
# With M the moments of 1, x, y over the polygon P and b their boundary
# moments, theta = M^-1 b, so A / 96 pi^2 = b^T M^-1 b / 6.

def slice_polygon(alpha, beta, delta):
    """(vertices, lengths) of the moment hexagon of (a; alpha, beta, beta),
    a = alpha + 2 beta + delta: the triangle x, y >= 0, x + y <= a with its
    corners cut by alpha at the origin and by beta at the other two.  Edge e
    runs from vertex e to vertex e + 1 and has lattice length lengths[e]; a
    zero area leaves an edge of length 0, so the blow-downs need no case."""
    a = alpha + 2 * beta + delta
    vertices = [(alpha, 0), (a - beta, 0), (a - beta, beta), (beta, a - beta),
                (0, a - beta), (0, alpha)]
    return vertices, [beta + delta, beta, alpha + delta, beta, beta + delta, alpha]


def polygon_energy(vertices, lengths) -> Fraction:
    """b^T M^-1 b / 6 in Fractions: M from Green's theorem edge by edge, b
    from each edge's lattice length times dt for t in [0, 1], and M^-1 b by
    Cramer's rule."""
    m = [[Fraction(0)] * 3 for _ in range(3)]
    b = [Fraction(0)] * 3
    for (x0, y0), (x1, y1), length in zip(vertices, vertices[1:] + vertices[:1], lengths):
        c = Fraction(x0 * y1 - x1 * y0)
        m[0][0] += c / 2
        m[0][1] += (x0 + x1) * c / 6
        m[0][2] += (y0 + y1) * c / 6
        m[1][1] += (x0 * x0 + x0 * x1 + x1 * x1) * c / 12
        m[1][2] += (2 * x0 * y0 + x0 * y1 + x1 * y0 + 2 * x1 * y1) * c / 24
        m[2][2] += (y0 * y0 + y0 * y1 + y1 * y1) * c / 12
        b[0] += length
        b[1] += length * Fraction(x0 + x1) / 2
        b[2] += length * Fraction(y0 + y1) / 2
    m[1][0], m[2][0], m[2][1] = m[0][1], m[0][2], m[1][2]

    def det(rows):
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = rows
        return (a11 * (a22 * a33 - a23 * a32) - a12 * (a21 * a33 - a23 * a31)
                + a13 * (a21 * a32 - a22 * a31))

    theta = [det([[b[r] if col == k else m[r][col] for col in range(3)] for r in range(3)])
             for k in range(3)]
    return sum(t * v for t, v in zip(theta, b)) / (6 * det(m))


def test_surface_energy_matches_the_moment_polygon():
    # k = 0 to 3 at seeded rational classes; some have delta < 0, which the
    # hexagon takes as it is
    rng = random.Random(96)
    checked, negative = [0] * 4, 0
    for _ in range(40):
        point = [Fraction(rng.randint(-12, 40), rng.randint(1, 9)) for _ in range(3)]
        for k in range(4):
            try:
                alpha, beta, delta = kahler_point(k, *point)
            except NotKahlerError:
                continue
            want = polygon_energy(*slice_polygon(alpha, beta, delta))
            assert energy.surface_energy(k, *point).normalized == want, (k, point)
            checked[k] += 1
            negative += delta < 0
    assert min(checked) >= 15 and negative >= 3, (checked, negative)


def test_moment_polygon_pairs_each_edge_with_its_own_length():
    # with every edge given its neighbour's length, the energy still agrees
    # where alpha = beta or delta = 0, and only there: the classes above must
    # be asymmetric to see the pairing
    for point, seen in (((1, 2, Fraction(1, 2)), True), ((2, 3, -1), True),
                        ((1, 1, 3), False), ((1, 2, 0), False)):
        vertices, lengths = slice_polygon(*map(Fraction, point))
        want = energy.surface_energy(3, *point).normalized
        assert polygon_energy(vertices, lengths) == want
        assert (polygon_energy(vertices, lengths[1:] + lengths[:1]) != want) is seen, point
