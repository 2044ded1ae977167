"""Float grid scan of the three-point slice, beta gauged to 1; the only
module that imports numpy.

A slice polynomial p(alpha, delta) has degree at most 6 in each variable, so
it is a 7x7 coefficient matrix C, and its values on the whole grid are one
product Pa @ C @ Pd^T of increasing Vandermonde matrices of the two axes.
Grid-level gradient zeros, were any to appear, are polished by Newton
iteration with exact derivatives.  The scan corroborates the absence of
interior critical classes at grid resolution; it is not a proof.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import energy
from .critical import _grad_polys

#: powers alpha^0..alpha^6 and delta^0..delta^6 span the slice polynomials
POWERS = 7
#: gradient norms below this count as zero candidates on the scan grid
ZERO_GRAD_THRESHOLD = 1e-9


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
    def finite(self) -> bool:
        """Whether every value and gradient-norm cell is finite."""
        return bool(np.isfinite(self.values).all() and np.isfinite(self.grad_norms).all())

    @property
    def cells(self) -> list[tuple[float, float, float, float]]:
        """Row-major (alpha outer, delta inner) cell tuples."""
        deltas = self.deltas.tolist()
        return [(a, d, v, g)
                for a, values, grad_norms in zip(self.alphas.tolist(), self.values.tolist(),
                                                 self.grad_norms.tolist())
                for d, v, g in zip(deltas, values, grad_norms)]

    def interleaved_rows(self):
        """Per alpha row, the tuple (value, grad_norm, value, grad_norm, ...) of
        Python floats along delta."""
        pairs = np.empty(2 * self.deltas.size)
        for values, grad_norms in zip(self.values, self.grad_norms):
            pairs[0::2] = values
            pairs[1::2] = grad_norms
            yield tuple(pairs.tolist())


def scan_eval(alphas, deltas, matrices):
    """Evaluate value and gradient norm on the alpha x delta grid.

    `matrices` holds six POWERS x POWERS coefficient matrices: numerator,
    denominator, and their alpha and delta partials.  Returns (values,
    grad_norms) as float64 arrays of shape (len(alphas), len(deltas)).
    Cells where float64 overflows come out inf or nan, without a warning;
    the caller decides what a non-finite cell means.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa = np.vander(np.asarray(alphas, dtype=np.float64), POWERS, increasing=True)
        pd = np.vander(np.asarray(deltas, dtype=np.float64), POWERS, increasing=True)
        n, d, n_a, d_a, n_d, d_d = (pa @ c @ pd.T for c in matrices)
        values = n / d
        ga = (n_a * d - n * d_a) / (d * d)
        gd = (n_d * d - n * d_d) / (d * d)
        return values, np.sqrt(ga * ga + gd * gd)


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
        c = np.zeros((POWERS, POWERS))
        for (i, j), coef in q.terms.items():
            assert coef.denominator == 1 and abs(coef.numerator) < 2 ** 53
            c[i, j] = coef.numerator
        c.flags.writeable = False
        matrices.append(c)
    return tuple(matrices)


@functools.cache
def _hessian_pieces():
    v = energy.energy_closed_form().quotient.substitute({"beta": 1})
    v_a, v_d = v.derivative("alpha"), v.derivative("delta")
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
            haa, had, hdd = (float(h.eval(point)) for h in (v_aa, v_ad, v_dd))
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
    by exact-derivative Newton iteration.  A candidate whose polish converges
    to delta <= 0 has left the Kahler cone for the boundary and is not an
    interior zero; unconverged candidates are kept.
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
    values, grad_norms = scan_eval(alphas, deltas, _term_tables())

    def cell(i: int, j: int) -> ScanCell:
        return ScanCell(i=int(i), j=int(j),
                        alpha=float(alphas[i]), delta=float(deltas[j]),
                        value=float(values[i, j]), grad_norm=float(grad_norms[i, j]),
                        boundary=bool(deltas[j] == 0.0))

    pad = np.pad(values, 1, constant_values=np.inf)
    strict = np.ones((na, nd), dtype=bool)
    for di, dj in itertools.product((0, 1, 2), repeat=2):
        if (di, dj) != (1, 1):
            strict &= values < pad[di:di + na, dj:dj + nd]
    minima = tuple(cell(i, j) for i, j in np.argwhere(strict))

    global_min = cell(*np.unravel_index(np.argmin(values), values.shape))

    zeros = []
    for i, j in np.argwhere((grad_norms < ZERO_GRAD_THRESHOLD) & (deltas[None, :] > 0)):
        c = cell(i, j)
        a, d, norm, converged, iters = polish_interior_zero(c.alpha, c.delta)
        if converged and d <= 0:
            continue
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
