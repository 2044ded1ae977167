"""Certified critical classes, exact gradients, and the slice scan."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal_lab import scan
from extremal_lab.critical import (
    DEFAULT_SEARCH_BOUND,
    critical_points_of,
    gradient,
    page_class,
    two_point_class,
)
from extremal_lab.delpezzo import NotKahlerError
from extremal_lab.energy import energy_closed_form, one_point_energy, two_point_energy
from extremal_lab.exactpoly import Polynomial, RationalFunction, symbols
from extremal_lab.scan import polish_interior_zero, scan_three_point

X, = symbols("x")

# independently computed to 30 digits; tests compare well inside bracket width
ONE_POINT_ROOT = Fraction("2.18393340447479633998948628907")
ONE_POINT_VALUE = Fraction("2.72620685274237027224466313483")
ONE_POINT_RESIDUAL = Fraction("0.178620558227110816733989404496")
TWO_POINT_ROOT = Fraction("0.957712805187761860686635999701")
TWO_POINT_VALUE = Fraction("2.37882482354103548537654605799")
TWO_POINT_RESIDUAL = Fraction("0.136474470623106456129638173967")


def closed_value(alpha, beta, delta) -> Fraction:
    return energy_closed_form().quotient.eval(
        {"alpha": Fraction(alpha), "beta": Fraction(beta), "delta": Fraction(delta)})


# -- certified critical classes --------------------------------------------------

def test_page_class_certificates():
    rep = page_class()
    mid = rep.critical.bracket.midpoint
    assert abs(mid - ONE_POINT_ROOT) < Fraction(1, 10 ** 11)
    assert rep.critical.classification == "local-min"
    assert rep.critical.line_to_exceptional_ratio == "3.18393340447"
    assert abs(rep.normalized_energy - ONE_POINT_VALUE) < Fraction(1, 10 ** 11)
    assert abs(rep.residual - ONE_POINT_RESIDUAL) < Fraction(1, 10 ** 10)
    assert rep.root_count == 1
    assert rep.search_bound == DEFAULT_SEARCH_BOUND
    assert rep.derivative_root_bound <= DEFAULT_SEARCH_BOUND


def test_two_point_class_certificates():
    rep = two_point_class()
    mid = rep.critical.bracket.midpoint
    assert abs(mid - TWO_POINT_ROOT) < Fraction(1, 10 ** 11)
    assert rep.critical.classification == "local-min"
    assert rep.critical.line_to_exceptional_ratio == "2.95771280519"
    assert rep.normalized_energy_decimal == "2.37882482354"
    assert rep.three_times_decimal == "7.13647447062"
    assert rep.residual_decimal == "0.136474470623"
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


# 20-digit brackets as plain bisection refined them; a refinement change that
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


@pytest.mark.parametrize("builder", [page_class, two_point_class])
def test_critical_point_is_a_minimum_by_second_derivative(builder):
    rep = builder()
    var = rep.critical.variable
    quotient = one_point_energy() if rep.k == 1 else two_point_energy()
    second = quotient.derivative(var).derivative(var)
    assert second.eval({var: rep.critical.bracket.midpoint}) > 0


def test_am_gm_critical_point():
    f = RationalFunction(X ** 2 + 1, X)
    results = critical_points_of(f, (0, 10))
    assert len(results) == 1
    res = results[0]
    assert res.classification == "local-min"
    assert res.bracket.low <= 1 <= res.bracket.high
    assert res.value_at_critical == "2"
    assert res.line_to_exceptional_ratio is None


def test_classification_of_maximum_and_inflection():
    # -(x^2) has a maximum at 0; x^3 has an inflection there
    down = RationalFunction(-1 * X ** 2, Polynomial.constant(1))
    res, = critical_points_of(down, (-5, 5))
    assert res.classification == "local-max"
    cubic = RationalFunction(X ** 3, Polynomial.constant(1))
    res, = critical_points_of(cubic, (-5, 5))
    assert res.classification == "inflection"


def test_denominator_root_in_domain_rejected():
    f = RationalFunction(Polynomial.constant(1), X - 1)
    with pytest.raises(ValueError, match="denominator"):
        critical_points_of(f, (0, 10))


def test_empty_domain_rejected():
    f = RationalFunction(X ** 2 + 1, X)
    with pytest.raises(ValueError, match="domain"):
        critical_points_of(f, (3, 3))


def test_multivariate_function_rejected():
    a, b = symbols("a b")
    f = RationalFunction(a * b, Polynomial.constant(1))
    with pytest.raises(ValueError, match="univariate"):
        critical_points_of(f, (0, 1))


def test_identically_flat_function_rejected():
    f = RationalFunction(X, X)
    with pytest.raises(ValueError, match="vanishes"):
        critical_points_of(f, (1, 2))


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


# -- slice scan ---------------------------------------------------------------------

def test_scan_finds_boundary_minimum():
    report = scan_three_point(grid_counts=(32, 32))
    m = report.global_min
    assert (m.alpha, m.delta) == (1.0, 0.0)
    assert m.value == 2.0
    assert m.grad_norm == 0.0
    assert m.boundary
    assert report.minima == (m,)
    assert report.interior_zeros == ()


def test_scan_alpha_grid_is_anchored():
    report = scan_three_point(grid_counts=(25, 8))
    alphas = report.alphas.tolist()
    assert alphas[0] == 0.05
    assert alphas[-1] == 20.0
    assert 1.0 in alphas
    assert "anchored" in report.grid.alpha_spacing


def test_scan_minima_are_strictly_below_neighbors():
    report = scan_three_point(grid_counts=(24, 24))
    values = report.values
    for cell in report.minima:
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == dj == 0:
                    continue
                i, j = cell.i + di, cell.j + dj
                if 0 <= i < values.shape[0] and 0 <= j < values.shape[1]:
                    assert values[cell.i, cell.j] < values[i, j]


def test_scan_is_deterministic():
    a = scan_three_point(grid_counts=(16, 16))
    b = scan_three_point(grid_counts=(16, 16))
    assert a.values.tobytes() == b.values.tobytes()
    assert a.grad_norms.tobytes() == b.grad_norms.tobytes()
    assert a.cells == b.cells
    assert a.global_min == b.global_min


def test_scan_cells_are_row_major():
    report = scan_three_point(grid_counts=(5, 4))
    cells = report.cells
    assert len(cells) == 20
    assert [c[0] for c in cells[:4]] == [report.alphas[0]] * 4
    assert [c[1] for c in cells[:4]] == report.deltas.tolist()


def test_scan_cells_match_indexed_lookup():
    report = scan_three_point(grid_counts=(6, 5))
    expected = [(float(report.alphas[i]), float(report.deltas[j]),
                 float(report.values[i, j]), float(report.grad_norms[i, j]))
                for i in range(6) for j in range(5)]
    cells = report.cells
    assert cells == expected
    assert all(type(x) is float for cell in cells for x in cell)


def test_scan_grid_values_match_exact_evaluation():
    report = scan_three_point(grid_counts=(7, 7))
    i, j = 3, 5
    a = Fraction(float(report.alphas[i]))
    d = Fraction(float(report.deltas[j]))
    exact = closed_value(a, 1, d)
    assert abs(report.values[i, j] - float(exact)) < 1e-9


def test_scan_range_validation():
    with pytest.raises(ValueError):
        scan_three_point(alpha_range=(0, 20), grid_counts=(8, 8))
    with pytest.raises(ValueError):
        scan_three_point(delta_range=(5, 1), grid_counts=(8, 8))
    with pytest.raises(ValueError):
        scan_three_point(grid_counts=(1, 8))
    with pytest.raises(ValueError, match="finite"):
        scan_three_point(alpha_range=(0.05, float("inf")), grid_counts=(8, 8))


@pytest.mark.parametrize("converged, listed", [(True, False), (False, True)])
def test_polish_below_delta_zero_is_dropped_only_when_converged(monkeypatch,
                                                                converged, listed):
    def polish(alpha0, delta0):
        return alpha0, -1e-18, 1e-18 if converged else 1.0, converged, 3

    monkeypatch.setattr(scan, "polish_interior_zero", polish)
    report = scan_three_point(alpha_range=(0.999, 1.001), delta_range=(0.0, 1e-7),
                              grid_counts=(50, 50))
    assert bool(report.interior_zeros) is listed


def test_newton_polish_converges_to_boundary_minimum():
    a, d, norm, converged, iterations = polish_interior_zero(1.05, 0.02)
    assert converged
    assert abs(a - 1) < 1e-9
    assert abs(d) < 1e-9
    assert norm < 1e-12
    assert iterations < 20
