"""Certified critical classes and the three-point slice scan.

The one- and two-point energies get exact treatment: their derivative
numerators are isolated with Sturm certificates on (0, 10^4], the Cauchy
bound showing no root can exceed the truncation.  The three-point slice is
explored numerically on a grid (beta gauged to 1 by homogeneity); grid-level
gradient zeros, were any to appear, are polished by Newton iteration with
exact derivatives.  The scan corroborates the absence of interior critical
classes at grid resolution; it is not a proof.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _kernels, energy
from .delpezzo import NotKahlerError
from .exactpoly import (
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

#: gradient norms below this count as zero candidates on the scan grid
ZERO_GRAD_THRESHOLD = 1e-9
#: truncation of (0, infinity) domains; certified by the Cauchy root bound
DEFAULT_SEARCH_BOUND = 10 ** 4


@dataclass(frozen=True)
class CriticalPointResult:
    """One certified critical point of a univariate rational function."""

    variable: str
    bracket: RootBracket
    value_at_critical: str
    classification: str  # local-min | local-max | inflection
    line_to_exceptional_ratio: Optional[str] = None


def critical_points_of(f: RationalFunction, domain=(0, DEFAULT_SEARCH_BOUND),
                       digits: int = 12,
                       ratio_offset: Optional[Fraction] = None) -> list[CriticalPointResult]:
    """Certified critical points of f on the half-open interval (low, high].

    Roots of the derivative numerator f'_num = n'd - nd' are isolated by
    Sturm counts and refined to `digits`; each is classified by the exact
    sign change of f'_num across its bracket (d^2 > 0 there, so this is the
    sign change of f').  `ratio_offset`, when given, fills the
    line/exceptional ratio field with root + offset.
    """
    return _critical_points(f, domain, digits, ratio_offset)[1]


def _critical_points(f: RationalFunction, domain, digits: int,
                     ratio_offset: Optional[Fraction]):
    """(f'_num, its critical points, f at each bracket midpoint):
    `critical_points_of` with the numerator and the exact values."""
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
    g = f.numerator.partial(var) * den - f.numerator * den.partial(var)
    if not g:
        raise ValueError("derivative vanishes identically")
    brackets = isolate_real_roots(g, (lo, hi), digits)
    # g scaled by a positive factor to coprime integers: same signs, integer Horner
    g_ints = [int(c) for c in _u_primitive(univariate_coefficients(g))]

    def g_at(t: Fraction) -> int:
        return _u_sign(g_ints, t)

    results, values = [], []
    for i, br in enumerate(brackets):
        if br.low < br.high:
            s_left, s_right = g_at(br.low), g_at(br.high)
        else:
            # exact rational root: probe halfway toward the neighbors
            left_ref = brackets[i - 1].high if i else lo
            right_ref = brackets[i + 1].low if i + 1 < len(brackets) else hi
            s_left = g_at((left_ref + br.low) / 2)
            s_right = g_at((br.high + right_ref) / 2)
        if s_left < 0 < s_right:
            klass = "local-min"
        elif s_left > 0 > s_right:
            klass = "local-max"
        else:
            klass = "inflection"
        mid = br.midpoint
        ratio = None
        if ratio_offset is not None:
            ratio = fraction_to_decimal(mid + ratio_offset, digits)
        values.append(f.eval({var: mid}))
        results.append(CriticalPointResult(
            variable=var,
            bracket=br,
            value_at_critical=fraction_to_decimal(values[-1], digits),
            classification=klass,
            line_to_exceptional_ratio=ratio,
        ))
    return g, results, values


@dataclass(frozen=True)
class CriticalClassReport:
    """Critical class of the k-point energy plus its certificates."""

    k: int
    critical: CriticalPointResult
    normalized_energy: Fraction
    normalized_energy_decimal: str
    three_times_decimal: str
    residual: Fraction
    residual_decimal: str
    root_count: int
    search_bound: Fraction
    derivative_root_bound: Fraction


def _critical_class(k: int, f: RationalFunction, offset: int, digits: int) -> CriticalClassReport:
    g, results, values = _critical_points(f, (0, DEFAULT_SEARCH_BOUND), digits,
                                          Fraction(offset))
    if len(results) != 1 or results[0].classification != "local-min":
        raise ArithmeticError(f"expected a unique interior minimum, got {results!r}")
    res = results[0]
    bound = cauchy_root_bound(g)
    if bound > DEFAULT_SEARCH_BOUND:
        raise ArithmeticError("truncation bound does not dominate the root bound")
    val = values[0]
    resid = energy.gauss_bonnet_residual(k, val)
    return CriticalClassReport(
        k=k,
        critical=res,
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
    return _critical_class(1, energy.one_point_energy(), offset=1, digits=digits)


def two_point_class(digits: int = 12) -> CriticalClassReport:
    """The unique critical class of the 2-point energy."""
    return _critical_class(2, energy.two_point_energy(), offset=2, digits=digits)


# -- exact gradient on the slice ---------------------------------------------

@functools.cache
def _grad_polys():
    se = energy.energy_closed_form()
    n, d = se.numerator, se.denominator
    return (n, d, n.partial("alpha"), d.partial("alpha"),
            n.partial("delta"), d.partial("delta"))


def gradient(alpha, beta, delta) -> tuple[Fraction, Fraction]:
    """Exact (d/d alpha, d/d delta) of the normalized energy at fixed beta."""
    violation = energy.slice_kahler_violation(alpha, beta, delta)
    if violation is not None:
        raise NotKahlerError(f"class is not Kahler: {violation}")
    point = {"alpha": Fraction(alpha), "beta": Fraction(beta), "delta": Fraction(delta)}
    n, d, n_a, d_a, n_d, d_d = _grad_polys()
    nv, dv = n.eval(point), d.eval(point)
    return ((n_a.eval(point) * dv - nv * d_a.eval(point)) / dv ** 2,
            (n_d.eval(point) * dv - nv * d_d.eval(point)) / dv ** 2)


# -- three-point slice scan ---------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    alpha_min: float
    alpha_max: float
    alpha_count: int
    alpha_spacing: str
    delta_min: float
    delta_max: float
    delta_count: int
    delta_spacing: str


@dataclass(frozen=True)
class ScanCell:
    i: int
    j: int
    alpha: float
    delta: float
    value: float
    grad_norm: float
    boundary: bool  # lies on the delta = 0 edge of the fundamental domain


@dataclass(frozen=True)
class PolishedZero:
    """A grid zero candidate after Newton polishing with exact derivatives."""

    cell: ScanCell
    alpha: float
    delta: float
    grad_norm: float
    converged: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class ScanReport:
    grid: GridSpec
    alphas: np.ndarray
    deltas: np.ndarray
    values: np.ndarray
    grad_norms: np.ndarray
    minima: tuple[ScanCell, ...]
    global_min: ScanCell
    interior_zeros: tuple[PolishedZero, ...]
    digits: int

    @property
    def cells(self) -> list[tuple[float, float, float, float]]:
        """Row-major (alpha outer, delta inner) cell tuples."""
        deltas = self.deltas.tolist()
        return [(a, d, v, g)
                for a, values, grad_norms in zip(self.alphas.tolist(), self.values.tolist(),
                                                 self.grad_norms.tolist())
                for d, v, g in zip(deltas, values, grad_norms)]


def _geometric_grid(lo: float, hi: float, n: int, anchor: float = 1.0):
    """Geometric grid with exact endpoints; the point nearest `anchor` is
    snapped to it when the anchor lies inside the range, so the distinguished
    class sits on a grid node exactly."""
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n))
    grid[0], grid[-1] = lo, hi
    anchored = False
    if lo < anchor < hi:
        grid[int(np.argmin(np.abs(grid - anchor)))] = anchor
        anchored = True
    return grid, anchored


@functools.cache
def _term_tables() -> tuple[np.ndarray, ...]:
    """Read-only coefficient matrices of the beta = 1 slice polynomials (n, d
    and their alpha and delta partials); entry [i, j] multiplies
    alpha^i delta^j.  Every coefficient is an integer below 2^53, so float64
    holds it exactly."""
    matrices = []
    for p in _grad_polys():
        q = p.substitute({"beta": 1})
        assert q.variables == ("alpha", "delta")
        c = np.zeros((_kernels.POWERS, _kernels.POWERS))
        for (i, j), coef in q.terms.items():
            assert coef.denominator == 1 and abs(coef.numerator) < 2 ** 53
            c[i, j] = coef.numerator
        c.flags.writeable = False
        matrices.append(c)
    return tuple(matrices)


@functools.cache
def _hessian_pieces():
    v = energy.energy_closed_form().quotient.substitute({"beta": 1})
    v_a = v.derivative("alpha")
    v_d = v.derivative("delta")
    return (v_a, v_d, v_a.derivative("alpha"),
            v_a.derivative("delta"), v_d.derivative("delta"))


def polish_interior_zero(alpha0: float, delta0: float,
                         max_iter: int = 40, tol: float = 1e-13):
    """Newton-polish a gradient-zero candidate using exact derivatives.

    Returns (alpha, delta, grad_norm, converged, iterations).  Derivatives
    and the Hessian are evaluated exactly at the float iterate, so the only
    approximation is the float step itself.
    """
    v_a, v_d, v_aa, v_ad, v_dd = _hessian_pieces()
    a, d = float(alpha0), float(delta0)
    norm = math.inf
    for it in range(max_iter):
        if not (math.isfinite(a) and math.isfinite(d)):
            break
        point = {"alpha": Fraction(a), "delta": Fraction(d)}
        try:
            ga, gd = float(v_a.eval(point)), float(v_d.eval(point))
            norm = math.hypot(ga, gd)
            if norm < tol:
                return a, d, norm, True, it
            haa = float(v_aa.eval(point))
            had = float(v_ad.eval(point))
            hdd = float(v_dd.eval(point))
        except ZeroDivisionError:
            break
        det = haa * hdd - had * had
        if det == 0 or not math.isfinite(det):
            break
        a -= (ga * hdd - gd * had) / det
        d -= (gd * haa - ga * had) / det
    return a, d, norm, norm < tol, max_iter


def scan_three_point(alpha_range=(0.05, 20.0), delta_range=(0.0, 10.0),
                     grid_counts=(200, 200), digits: int = 12) -> ScanReport:
    """Grid scan of the normalized energy on the slice, beta gauged to 1.

    alpha runs geometrically (anchored so alpha = 1 is a grid node when in
    range), delta linearly from its minimum.  Reports strict 8-neighbor
    local minima, the global minimum cell, and any interior (delta > 0)
    cells whose gradient norm falls below ZERO_GRAD_THRESHOLD, each polished
    by exact-derivative Newton iteration.
    """
    amin, amax = (float(v) for v in alpha_range)
    dmin, dmax = (float(v) for v in delta_range)
    na, nd = (int(c) for c in grid_counts)
    if not all(math.isfinite(v) for v in (amin, amax, dmin, dmax)):
        raise ValueError("alpha and delta ranges must be finite")
    if not (0 < amin < amax):
        raise ValueError("alpha range must satisfy 0 < min < max")
    if not (0 <= dmin < dmax):
        raise ValueError("delta range must satisfy 0 <= min < max")
    if na < 2 or nd < 2:
        raise ValueError("grid counts must be >= 2")

    alphas, anchored = _geometric_grid(amin, amax, na)
    deltas = np.linspace(dmin, dmax, nd)
    values, grad_norms = _kernels.scan_eval(alphas, deltas, _term_tables())

    def cell(i: int, j: int) -> ScanCell:
        return ScanCell(i=int(i), j=int(j),
                        alpha=float(alphas[i]), delta=float(deltas[j]),
                        value=float(values[i, j]), grad_norm=float(grad_norms[i, j]),
                        boundary=bool(deltas[j] == 0.0))

    pad = np.full((na + 2, nd + 2), np.inf)
    pad[1:-1, 1:-1] = values
    strict = np.ones((na, nd), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            strict &= values < pad[1 + di:1 + di + na, 1 + dj:1 + dj + nd]
    minima = tuple(cell(i, j) for i, j in np.argwhere(strict))

    flat = int(np.argmin(values))
    global_min = cell(*divmod(flat, nd))

    zeros = []
    for i, j in np.argwhere((grad_norms < ZERO_GRAD_THRESHOLD) & (deltas[None, :] > 0)):
        c = cell(i, j)
        a, d, norm, converged, iters = polish_interior_zero(c.alpha, c.delta)
        zeros.append(PolishedZero(cell=c, alpha=a, delta=d, grad_norm=norm,
                                  converged=converged, iterations=iters))

    spacing = "geometric (anchored at 1)" if anchored else "geometric"
    grid = GridSpec(alpha_min=amin, alpha_max=amax, alpha_count=na,
                    alpha_spacing=spacing,
                    delta_min=dmin, delta_max=dmax, delta_count=nd,
                    delta_spacing="linear")
    return ScanReport(grid=grid, alphas=alphas, deltas=deltas, values=values,
                      grad_norms=grad_norms, minima=minima, global_min=global_min,
                      interior_zeros=tuple(zeros), digits=digits)
