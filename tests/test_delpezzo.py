"""Intersection theory and hexagon parameterization of the blow-up surfaces."""

from fractions import Fraction

import pytest

from extremal_lab.delpezzo import (
    CohomologyClass,
    HexagonParams,
    class_to_hexagon,
    cremona_involution,
    cremona_normalize,
    curve_areas,
    hexagon_to_class,
    intersect,
    kahler_violation,
    make_surface,
)


# -- surface models ------------------------------------------------------------

def test_two_point_topology():
    s = make_surface(2)
    assert 2 * s.euler + 3 * s.signature == 7


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_topology_formula(k):
    s = make_surface(k)
    assert 2 * s.euler + 3 * s.signature == 9 - k


@pytest.mark.parametrize("k", [0, 4, -1])
def test_make_surface_range(k):
    with pytest.raises(ValueError):
        make_surface(k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_curve_adjunction(k):
    s = make_surface(k)
    for label, curve in s.minus_one_curves:
        assert intersect(curve, curve) == -1, label
        assert intersect(curve, s.c1) == 1, label


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


# -- hexagon parameterization ---------------------------------------------------

def test_anticanonical_hexagon_coordinates():
    s = make_surface(3)
    c = hexagon_to_class(s, HexagonParams(1, 1, 1, 0))
    assert c == s.c1


def test_one_point_hexagon():
    s = make_surface(1)
    c = hexagon_to_class(s, HexagonParams(alpha=1, delta=1))
    assert c == CohomologyClass(2, (1,))
    assert curve_areas(s, c) == (("E1", Fraction(1)),)


def test_unequal_areas_hexagon():
    s = make_surface(3)
    c = hexagon_to_class(s, HexagonParams(1, 2, 3, 1))
    assert c == CohomologyClass(7, (1, 2, 3))
    # opposite side of the alpha-curve has area alpha + delta
    assert intersect(c, CohomologyClass(1, (0, 1, 1))) == 2


def test_hexagon_round_trip():
    s = make_surface(3)
    p = HexagonParams(Fraction(1, 2), 2, Fraction(7, 3), 4)
    assert class_to_hexagon(s, hexagon_to_class(s, p)) == p


def test_class_to_hexagon_examples():
    s3 = make_surface(3)
    assert class_to_hexagon(s3, CohomologyClass(3, (1, 1, 1))) == HexagonParams(1, 1, 1, 0)
    s1 = make_surface(1)
    assert class_to_hexagon(s1, CohomologyClass(2, (1,))) == HexagonParams(alpha=1, delta=1)


def test_class_to_hexagon_flags_negative_delta():
    s = make_surface(3)
    p = class_to_hexagon(s, CohomologyClass(1, (1, 1, 1)))
    assert p.delta == -2  # negative: awaits a Cremona reflection


def test_two_point_hexagon_requires_equal_areas():
    s = make_surface(2)
    with pytest.raises(ValueError):
        class_to_hexagon(s, CohomologyClass(3, (1, 2)))


def test_hexagon_wrong_parameter_set():
    s = make_surface(2)
    with pytest.raises(ValueError):
        hexagon_to_class(s, HexagonParams(alpha=1, beta=1, delta=0))
    with pytest.raises(ValueError):
        hexagon_to_class(make_surface(3), HexagonParams(alpha=1, beta=1, delta=0))
    with pytest.raises(ValueError):
        hexagon_to_class(make_surface(1), HexagonParams(beta=1, delta=0))


def test_curve_areas_match_hexagon_labels():
    s = make_surface(3)
    areas = curve_areas(s, hexagon_to_class(s, HexagonParams(1, 2, 3, 1)))
    assert tuple(a for _, a in areas) == (1, 2, 3, 2, 3, 4)
    c1_areas = curve_areas(s, s.c1)
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
    omega = hexagon_to_class(s, HexagonParams(2, 3, 5, Fraction(7, 2)))
    assert intersect(common, omega) == Fraction(7, 2)


# -- Cremona action --------------------------------------------------------------

def test_cremona_involution_is_involution():
    p = HexagonParams(1, 2, 3, -1)
    assert cremona_involution(cremona_involution(p)) == p


def test_cremona_involution_flips_delta():
    p = HexagonParams(2, 2, 2, -1)
    q = cremona_involution(p)
    assert q == HexagonParams(1, 1, 1, 1)


def test_cremona_normalize_fixes_nonnegative_delta():
    p = HexagonParams(1, 2, 3, 0)
    assert cremona_normalize(p) == p
    q = HexagonParams(1, 2, 3, 5)
    assert cremona_normalize(q) == q


def test_cremona_normalize_is_idempotent():
    p = HexagonParams(3, 5, 4, -2)
    once = cremona_normalize(p)
    assert once.delta >= 0
    assert cremona_normalize(once) == once


def test_cremona_preserves_intersection_numbers():
    s = make_surface(3)
    p = HexagonParams(2, 2, 2, -1)
    before = hexagon_to_class(s, p)
    after = hexagon_to_class(s, cremona_normalize(p))
    assert intersect(before, before) == intersect(after, after)
    assert intersect(before, s.c1) == intersect(after, s.c1)


def test_cremona_permutes_curve_area_multiset():
    s = make_surface(3)
    p = HexagonParams(2, 2, 2, -1)
    before = sorted(a for _, a in curve_areas(s, hexagon_to_class(s, p)))
    after = sorted(a for _, a in curve_areas(s, hexagon_to_class(s, cremona_normalize(p))))
    assert before == after


def test_cremona_requires_full_parameter_set():
    with pytest.raises(ValueError):
        cremona_involution(HexagonParams(alpha=1, delta=1))


# -- Kahler cone -----------------------------------------------------------------

def test_anticanonical_is_kahler():
    s = make_surface(3)
    assert kahler_violation(s, s.c1) is None


def test_zero_area_line_is_not_kahler():
    s = make_surface(3)
    assert kahler_violation(s, CohomologyClass(1, (1, 0, 0))) is not None
    # positive square but one line of area zero: violation names the curve
    c = CohomologyClass(3, (2, 1, 1))
    assert kahler_violation(s, c) is not None
    assert "H-E1-E3" in kahler_violation(s, c)


def test_oversized_exceptional_is_not_kahler():
    s = make_surface(1)
    c = CohomologyClass(1, (2,))
    assert kahler_violation(s, c) is not None


def test_kahler_violation_names_failure():
    s = make_surface(3)
    assert kahler_violation(s, s.c1) is None
    negative_h = CohomologyClass(-1, (-1, -1, -1))
    assert "not positive" in kahler_violation(s, negative_h)


def test_negative_delta_kahler_class():
    # Kahler classes may carry delta < 0 before Cremona normalization
    s = make_surface(3)
    c = hexagon_to_class(s, HexagonParams(2, 2, 2, -1))
    assert kahler_violation(s, c) is None
    assert class_to_hexagon(s, c).delta < 0
