"""Float grid scan of the three-point slice, beta gauged to 1; the only
module that imports numpy.

A slice polynomial p(alpha, delta) has degree at most 6 in each variable, so
it is a 7x7 coefficient matrix C, and its values on the whole grid are one
product Pa @ C @ Pd^T of increasing Vandermonde matrices of the two axes.
The matrices of N and D are read from the closed form in `energy`, and
those of their partials by shifting an index.  The kernel then applies the
quotient rule in place, with five grid-sized arrays live at once.  Each
product is one BLAS call over the whole grid, so a cell's last bit can
depend on the BLAS build and its thread count.
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

from . import energy

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

    def interleaved_rows(self, start: int, stop: int):
        """Per alpha row in [start, stop), the tuple (value, grad_norm, value,
        grad_norm, ...) of Python floats along delta."""
        pairs = np.empty(2 * self.deltas.size)
        for values, grad_norms in zip(self.values[start:stop], self.grad_norms[start:stop]):
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

    Five grid-sized arrays are live at once.  Each polynomial is one
    full-grid product Pa @ C @ Pd^T, and the quotient rule then runs in
    place with the operands and order of values = n / d,
    ga = (n_a * d - n * d_a) / (d * d), gd likewise and
    grad_norms = sqrt(ga * ga + gd * gd), so every cell rounds as it would
    with whole-array temporaries.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa = np.vander(np.asarray(alphas, dtype=np.float64), POWERS, increasing=True)
        pd = np.vander(np.asarray(deltas, dtype=np.float64), POWERS, increasing=True)
        c_n, c_d, c_na, c_da, c_nd, c_dd = matrices

        def grid(c, out=None):
            return np.matmul(pa @ c, pd.T, out=out)

        n, d = grid(c_n), grid(c_d)
        ga = grid(c_na)
        ga *= d
        nd_prime = grid(c_da)  # holds n * d_a, then n * d_d
        nd_prime *= n
        ga -= nd_prime
        gd = grid(c_nd)
        gd *= d
        grid(c_dd, out=nd_prime)
        nd_prime *= n
        gd -= nd_prime
        values = n
        values /= d
        d *= d
        ga /= d
        gd /= d
        ga *= ga
        gd *= gd
        ga += gd
        return values, np.sqrt(ga, out=ga)


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


def _beta_one(p) -> np.ndarray:
    """Integer coefficient matrix of p(alpha, 1, delta): entry [i, k] sums the
    coefficients of alpha^i beta^j delta^k over j."""
    assert p.variables == ("alpha", "beta", "delta")
    c = np.zeros((POWERS, POWERS), dtype=object)
    for (i, _, k), coef in p.terms.items():
        assert coef.denominator == 1
        c[i, k] += coef.numerator
    return c


@functools.cache
def _term_tables() -> tuple[np.ndarray, ...]:
    """Read-only coefficient matrices of the beta = 1 slice polynomials (n, d
    and their alpha and delta partials); entry [i, j] multiplies
    alpha^i delta^j.  n and d come from the closed form N / D, and a partial
    shifts an index: C_a[i-1, k] = i C[i, k], C_d[i, k-1] = k C[i, k].  Every
    coefficient is an integer below 2^53, so float64 holds it exactly."""
    closed = energy.energy_closed_form()
    n, d = _beta_one(closed.numerator), _beta_one(closed.denominator)
    weights = np.arange(1, POWERS)
    partials = []
    for c in (n, d):
        c_a = np.zeros_like(c)
        c_a[:-1] = c[1:] * weights[:, None]
        partials.append(c_a)
    for c in (n, d):
        c_d = np.zeros_like(c)
        c_d[:, :-1] = c[:, 1:] * weights
        partials.append(c_d)
    matrices = []
    for c in (n, d, *partials):
        assert all(abs(v) < 2 ** 53 for v in c.flat)
        c = c.astype(np.float64)
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
