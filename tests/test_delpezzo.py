"""Intersection theory and the slice classes of the blow-up surfaces."""

from fractions import Fraction
from itertools import product

import pytest

from extremal_lab.delpezzo import (
    CohomologyClass,
    curve_areas,
    intersect,
    kahler_violation,
    make_surface,
    slice_class,
    slice_surface,
)


def hexagon_class(alpha, beta, gamma, delta) -> CohomologyClass:
    """The 3-point class with exceptional areas (alpha, beta, gamma) whose
    lines H - E_i - E_j have area delta plus the third of them."""
    return CohomologyClass(alpha + beta + gamma + delta, (alpha, beta, gamma))


def cremona(c: CohomologyClass) -> CohomologyClass:
    """The quadratic transformation of the 3-point blow-up on classes:
    a' = 2a - b1 - b2 - b3 and b_i' = a - b_j - b_k."""
    a, (b1, b2, b3) = c.a, c.b
    return CohomologyClass(2 * a - b1 - b2 - b3, (a - b2 - b3, a - b1 - b3, a - b1 - b2))


# -- surface models ------------------------------------------------------------

def test_two_point_topology():
    s = make_surface(2)
    assert 2 * s.euler + 3 * s.signature == 7


def test_two_point_surface_has_one_line():
    labels = [label for label, _ in make_surface(2).minus_one_curves]
    assert labels == ["E1", "E2", "H-E1-E2"]


def test_three_point_surface_has_hexagon():
    s = make_surface(3)
    assert len(s.minus_one_curves) == 6
    labels = [label for label, _ in s.minus_one_curves]
    assert labels == ["E1", "E2", "E3", "H-E2-E3", "H-E1-E3", "H-E1-E2"]


def test_one_point_invariants():
    s = make_surface(1)
    assert s.euler == 4
    assert s.signature == 0
    assert len(s.minus_one_curves) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_topology_formula(k):
    s = make_surface(k)
    assert 2 * s.euler + 3 * s.signature == 9 - k


@pytest.mark.parametrize("k", [4, -1])
def test_make_surface_range(k):
    with pytest.raises(ValueError):
        make_surface(k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_curve_adjunction(k):
    s = make_surface(k)
    for label, curve in s.minus_one_curves:
        assert intersect(curve, curve) == -1, label
        assert intersect(curve, s.c1) == 1, label


@pytest.mark.parametrize("k", [1, 2, 3])
def test_curves_are_every_minus_one_class(k):
    # every class aH - sum(b_i E_i), 0 <= a <= 3 and |b_i| <= 3, with
    # Q(C, C) = -1 and Q(C, c1) = 1 is listed, and listed once
    s = make_surface(k)
    found = {c for a in range(4) for b in product(range(-3, 4), repeat=k)
             for c in [CohomologyClass(a, b)]
             if intersect(c, c) == -1 and intersect(c, s.c1) == 1}
    curves = [curve for _, curve in s.minus_one_curves]
    assert len(curves) == len(found) and set(curves) == found


# -- intersection form ---------------------------------------------------------

def test_intersection_form_diagonal():
    h = CohomologyClass(1, (0, 0, 0))
    e1 = CohomologyClass(0, (-1, 0, 0))
    e2 = CohomologyClass(0, (0, -1, 0))
    assert intersect(h, h) == 1
    assert intersect(e1, e2) == 0
    assert intersect(e1, e1) == -1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_anticanonical_square(k):
    s = make_surface(k)
    assert intersect(s.c1, s.c1) == 9 - k


def test_intersect_requires_matching_rank():
    with pytest.raises(ValueError):
        intersect(CohomologyClass(1, (1,)), CohomologyClass(1, (1, 1)))


# -- slice classes ----------------------------------------------------------------

def test_anticanonical_hexagon_coordinates():
    s = make_surface(3)
    assert slice_class(3, 1, 1, 0) == s.c1


def test_one_point_hexagon():
    c = slice_class(1, 1, None, 1)
    assert c == CohomologyClass(2, (1,))
    assert curve_areas(c) == (("E1", Fraction(1)),)


def test_slice_surface_blows_zero_areas_down():
    assert slice_surface(1, 1) == 3
    assert slice_surface(0, 1) == 2
    assert slice_surface(1, 0) == 1
    assert slice_surface(0, 0) == 0
    # a negative area stays, to be refused by the Kahler test
    assert slice_surface(-1, Fraction(1, 2)) == 3


def test_slice_class_on_each_surface():
    half = Fraction(1, 2)
    assert slice_class(3, 2, half, 3) == CohomologyClass(6, (2, half, half))
    assert slice_class(2, 2, half, 3) == CohomologyClass(4, (half, half))
    assert slice_class(1, 2, half, 3) == CohomologyClass(5, (2,))
    # k = 2 ignores alpha and k = 1 ignores beta
    assert slice_class(2, 7, half, 3) == slice_class(2, None, half, 3)
    assert slice_class(1, 2, 7, 3) == slice_class(1, 2, None, 3)
    with pytest.raises(ValueError):
        slice_class(4, 1, 1, 1)


def test_unequal_areas_hexagon():
    c = hexagon_class(1, 2, 3, 1)
    assert c == CohomologyClass(7, (1, 2, 3))
    # opposite side of the alpha-curve has area alpha + delta
    assert intersect(c, CohomologyClass(1, (0, 1, 1))) == 2


def test_curve_areas_match_hexagon_labels():
    s = make_surface(3)
    areas = curve_areas(hexagon_class(1, 2, 3, 1))
    assert tuple(a for _, a in areas) == (1, 2, 3, 2, 3, 4)
    c1_areas = curve_areas(s.c1)
    assert all(a == 1 for _, a in c1_areas)


def test_opposite_side_differences_are_homologous():
    # (H-Ej-Ek) - Ei is the same class for every i, pairing to delta
    s = make_surface(3)
    lines = {label: c for label, c in s.minus_one_curves}
    common = CohomologyClass(1, (1, 1, 1))
    for i, line_label in ((0, "H-E2-E3"), (1, "H-E1-E3"), (2, "H-E1-E2")):
        line = lines[line_label]
        exceptional = lines[f"E{i + 1}"]
        diff = CohomologyClass(line.a - exceptional.a,
                               tuple(lb - eb for lb, eb in zip(line.b, exceptional.b)))
        assert diff == common
    omega = hexagon_class(2, 3, 5, Fraction(7, 2))
    assert intersect(common, omega) == Fraction(7, 2)


# -- Cremona action --------------------------------------------------------------

def test_cremona_involution_flips_delta():
    # on the slice the quadratic transformation is (alpha, beta, delta) ->
    # (alpha + delta, beta + delta, -delta), the substitution the energy's
    # sextics are invariant under
    assert cremona(slice_class(3, 2, 2, -1)) == slice_class(3, 1, 1, 1)
    assert cremona(slice_class(3, 1, 1, 1)) == slice_class(3, 2, 2, -1)


def test_cremona_preserves_intersection_numbers():
    s = make_surface(3)
    before = hexagon_class(2, 3, 5, -1)
    after = cremona(before)
    assert intersect(before, before) == intersect(after, after)
    assert intersect(before, s.c1) == intersect(after, s.c1)


def test_cremona_permutes_curve_area_multiset():
    before = hexagon_class(2, 3, 5, -1)
    assert (sorted(a for _, a in curve_areas(before))
            == sorted(a for _, a in curve_areas(cremona(before))))


# -- Kahler cone -----------------------------------------------------------------

def test_anticanonical_is_kahler():
    s = make_surface(3)
    assert kahler_violation(s.c1) is None


def test_zero_area_line_is_not_kahler():
    assert kahler_violation(CohomologyClass(1, (1, 0, 0))) is not None
    # positive square but one line of area zero: violation names the curve
    c = CohomologyClass(3, (2, 1, 1))
    assert kahler_violation(c) is not None
    assert "H-E1-E3" in kahler_violation(c)


def test_oversized_exceptional_is_not_kahler():
    c = CohomologyClass(1, (2,))
    assert kahler_violation(c) is not None


def test_kahler_violation_names_failure():
    s = make_surface(3)
    assert kahler_violation(s.c1) is None
    negative_h = CohomologyClass(-1, (-1, -1, -1))
    assert "not positive" in kahler_violation(negative_h)


def test_negative_delta_kahler_class():
    # Kahler classes may carry delta < 0 before Cremona normalization
    c = hexagon_class(2, 2, 2, -1)
    assert kahler_violation(c) is None
    assert c.a - sum(c.b) < 0
