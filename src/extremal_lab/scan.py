"""Float grid scan of the three-point slice, beta gauged to 1; the only
module that imports numpy.

A slice polynomial p(alpha, delta) has degree at most 6 in each variable, so
it is a 7x7 coefficient matrix C, and its values on the whole grid are one
product Pa @ C @ Pd^T of increasing Vandermonde matrices of the two axes.
The scan reports the grid's minima and proves nothing: that the slice has
no critical point with delta > 0 is certified exactly, by a resultant whose
coefficients never change sign, in tests/test_critical.py
(`test_slice_gradient_has_no_zero_at_positive_delta`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .critical import _grad_polys

#: powers alpha^0..alpha^6 and delta^0..delta^6 span the slice polynomials
POWERS = 7


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


@dataclass(frozen=True, eq=False)
class ScanReport:
    grid: GridSpec
    alphas: np.ndarray
    deltas: np.ndarray
    values: np.ndarray
    grad_norms: np.ndarray
    minima: tuple[ScanCell, ...]
    global_min: ScanCell
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


def scan_three_point(alpha_range=(0.05, 20.0), delta_range=(0.0, 10.0),
                     grid_counts=(200, 200), digits: int = 12) -> ScanReport:
    """Grid scan of the normalized energy on the slice, beta gauged to 1.

    alpha runs geometrically (anchored so alpha = 1 is a grid node when in
    range), delta linearly from its minimum.  Reports strict 8-neighbor
    local minima and the global minimum cell.
    """
    amin, amax = (float(v) for v in alpha_range)
    dmin, dmax = (float(v) for v in delta_range)
    na, nd = (int(n) for n in grid_counts)
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

    spacing = "geometric (anchored at 1)" if anchored else "geometric"
    grid = GridSpec(alpha_min=amin, alpha_max=amax, alpha_count=na,
                    alpha_spacing=spacing,
                    delta_min=dmin, delta_max=dmax, delta_count=nd,
                    delta_spacing="linear")
    return ScanReport(grid=grid, alphas=alphas, deltas=deltas, values=values,
                      grad_norms=grad_norms, minima=minima, global_min=global_min,
                      digits=digits)
