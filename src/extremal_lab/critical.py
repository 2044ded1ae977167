"""Certified critical classes of the one- and two-point energies.

Their derivative numerators are isolated with Sturm certificates on
(0, 10^4], the Cauchy bound showing no root can exceed the truncation, and
refined in exact arithmetic.  The exact gradient of the three-point slice
energy is here as well; the float scan of that slice is in `scan`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import energy
from .exactpoly import (
    Polynomial,
    RationalFunction,
    RootBracket,
    _u_primitive,
    _u_sign,
    cauchy_root_bound,
    count_real_roots,
    fraction_to_decimal,
    isolate_real_roots,
    univariate_coefficients,
)

#: truncation of (0, infinity) domains; certified by the Cauchy root bound
DEFAULT_SEARCH_BOUND = 10 ** 4


@dataclass(frozen=True)
class CriticalPointResult:
    """One certified critical point of a univariate rational function."""

    variable: str
    bracket: RootBracket
    value: Fraction  # f at the bracket midpoint, exactly
    value_at_critical: str
    classification: str  # local-min | local-max | inflection


def critical_points_of(f: RationalFunction, domain=(0, DEFAULT_SEARCH_BOUND),
                       digits: int = 12) -> list[CriticalPointResult]:
    """Certified critical points of f on the half-open interval (low, high].

    Roots of the derivative numerator f'_num = n'd - nd' are isolated by
    Sturm counts and refined to `digits`; each is classified by the exact
    sign change of f'_num across its bracket (d^2 > 0 there, so this is the
    sign change of f').
    """
    return _critical_points(f, domain, digits)[1]


def _critical_points(f: RationalFunction, domain,
                     digits: int) -> tuple[Polynomial, list[CriticalPointResult]]:
    """`critical_points_of`, together with the derivative numerator it isolated."""
    names = sorted(set(f.numerator.variables) | set(f.denominator.variables))
    if len(names) != 1:
        raise ValueError(f"need a univariate function, got variables {names!r}")
    var = names[0]
    lo, hi = (Fraction(v) for v in domain)
    if lo >= hi:
        raise ValueError(f"empty domain: ({lo}, {hi}]")
    den = f.denominator
    if den.total_degree() >= 1 and count_real_roots(den, (lo, hi)) > 0:
        raise ValueError("denominator has a root inside the domain")
    g = f.derivative_numerator(var)
    if not g:
        raise ValueError("derivative vanishes identically")
    brackets = isolate_real_roots(g, (lo, hi), digits)
    # g scaled by a positive factor to coprime integers: same signs, integer Horner
    g_ints = _u_primitive(univariate_coefficients(g))
    results = []
    for i, br in enumerate(brackets):
        if br.low < br.high:
            s_left, s_right = _u_sign(g_ints, br.low), _u_sign(g_ints, br.high)
        else:
            # exact rational root: probe halfway toward the neighbors
            left_ref = brackets[i - 1].high if i else lo
            right_ref = brackets[i + 1].low if i + 1 < len(brackets) else hi
            s_left = _u_sign(g_ints, (left_ref + br.low) / 2)
            s_right = _u_sign(g_ints, (br.high + right_ref) / 2)
        if s_left < 0 < s_right:
            klass = "local-min"
        elif s_left > 0 > s_right:
            klass = "local-max"
        else:
            klass = "inflection"
        value = f.eval({var: br.midpoint})
        results.append(CriticalPointResult(
            variable=var,
            bracket=br,
            value=value,
            value_at_critical=fraction_to_decimal(value, digits),
            classification=klass,
        ))
    return g, results


@dataclass(frozen=True)
class CriticalClassReport:
    """Critical class of the k-point energy plus its certificates."""

    k: int
    critical: CriticalPointResult
    line_to_exceptional_ratio: str  # H.w / E.w of the class (k b + delta; b, ...): k + delta/b
    normalized_energy: Fraction
    normalized_energy_decimal: str
    three_times_decimal: str
    residual: Fraction
    residual_decimal: str
    root_count: int
    search_bound: Fraction
    derivative_root_bound: Fraction


def _critical_class(k: int, f: RationalFunction, digits: int) -> CriticalClassReport:
    g, results = _critical_points(f, (0, DEFAULT_SEARCH_BOUND), digits)
    if len(results) != 1 or results[0].classification != "local-min":
        raise ArithmeticError(f"expected a unique interior minimum, got {results!r}")
    res = results[0]
    bound = cauchy_root_bound(g)
    if bound > DEFAULT_SEARCH_BOUND:
        raise ArithmeticError("truncation bound does not dominate the root bound")
    val = res.value
    resid = energy.gauss_bonnet_residual(k, val)
    return CriticalClassReport(
        k=k,
        critical=res,
        line_to_exceptional_ratio=fraction_to_decimal(k + res.bracket.midpoint, digits),
        normalized_energy=val,
        normalized_energy_decimal=fraction_to_decimal(val, digits),
        three_times_decimal=fraction_to_decimal(3 * val, digits),
        residual=resid,
        residual_decimal=fraction_to_decimal(resid, digits),
        # one bracket per distinct root of g in the domain: the Sturm count
        root_count=len(results),
        search_bound=Fraction(DEFAULT_SEARCH_BOUND),
        derivative_root_bound=bound,
    )


def page_class(digits: int = 12) -> CriticalClassReport:
    """The unique critical class of the 1-point energy (the Page class)."""
    return _critical_class(1, energy.one_point_energy(), digits)


def two_point_class(digits: int = 12) -> CriticalClassReport:
    """The unique critical class of the 2-point energy."""
    return _critical_class(2, energy.two_point_energy(), digits)


# -- exact gradient on the slice ---------------------------------------------

@functools.cache
def _grad_polys():
    se = energy.energy_closed_form()
    n, d = se.numerator, se.denominator
    return (n, d, n.partial("alpha"), d.partial("alpha"),
            n.partial("delta"), d.partial("delta"))


def gradient(alpha, beta, delta) -> tuple[Fraction, Fraction]:
    """Exact (d/d alpha, d/d delta) of the normalized energy at fixed beta."""
    alpha, beta, delta = energy._require_slice_kahler(alpha, beta, delta)
    point = {"alpha": alpha, "beta": beta, "delta": delta}
    n, d, n_a, d_a, n_d, d_d = _grad_polys()
    nv, dv = n.eval(point), d.eval(point)
    return ((n_a.eval(point) * dv - nv * d_a.eval(point)) / dv ** 2,
            (n_d.eval(point) * dv - nv * d_d.eval(point)) / dv ** 2)

