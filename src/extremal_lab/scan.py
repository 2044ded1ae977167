"""Float grid scan of the three-point slice, beta gauged to 1; the only
module that imports numpy.

A slice polynomial p(alpha, delta) has degree at most 6 in each variable, so
it is a 7x7 coefficient matrix C, and its values on a block of alpha rows are
one product Pa[rows] @ C @ Pd^T of increasing Vandermonde matrices of the two
axes.  The matrices of N and D are read from the closed form in `energy`, and
those of their partials from `Polynomial.partial`.  The kernel runs BLOCK_ROWS
alpha rows at a time and applies the quotient rule in place, so besides the
value and gradient-norm grids it holds five block-sized buffers.  No product
has more than BLOCK_ROWS rows, whatever the grid, and with OpenBLAS 0.3 on
x86-64 such a product has the same bits on one thread or two; a cell's last
bit can still depend on the BLAS build and the CPU.
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
#: alpha rows per kernel block: five block buffers at 1000 cells per delta
#: take 2.5 MB, and every product has at most this many rows whatever the grid
BLOCK_ROWS = 64


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

    @property
    def finite(self) -> bool:
        """Whether every value and gradient-norm cell is finite."""
        return bool(np.isfinite(self.values).all() and np.isfinite(self.grad_norms).all())

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

    The grid is evaluated BLOCK_ROWS alpha rows at a time, in five
    block-sized buffers; `values` and `grad_norms` are the only grid-sized
    arrays.  In each block every polynomial is one product
    Pa[rows] @ C @ Pd^T, and the quotient rule then runs in place with the
    operands and order of values = n / d, ga = (n_a * d - n * d_a) / (d * d),
    gd likewise and grad_norms = sqrt(ga * ga + gd * gd), so every cell
    rounds as it would with whole-block temporaries.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa = np.vander(np.asarray(alphas, dtype=np.float64), POWERS, increasing=True)
        pd = np.vander(np.asarray(deltas, dtype=np.float64), POWERS, increasing=True)
        c_n, c_d, c_na, c_da, c_nd, c_dd = matrices
        shape = (pa.shape[0], pd.shape[0])
        values, grad_norms = np.empty(shape), np.empty(shape)
        workspace = np.empty((5, min(shape[0], BLOCK_ROWS), shape[1]))
        for start in range(0, shape[0], BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, shape[0])
            block = pa[start:stop]
            # nd_prime holds n * d_a, then n * d_d
            n, d, ga, gd, nd_prime = workspace[:, :stop - start]

            def grid(c, out):
                return np.matmul(block @ c, pd.T, out=out)

            grid(c_n, n)
            grid(c_d, d)
            grid(c_na, ga)
            ga *= d
            grid(c_da, nd_prime)
            nd_prime *= n
            ga -= nd_prime
            grid(c_nd, gd)
            gd *= d
            grid(c_dd, nd_prime)
            nd_prime *= n
            gd -= nd_prime
            np.divide(n, d, out=values[start:stop])
            d *= d
            ga /= d
            gd /= d
            ga *= ga
            gd *= gd
            ga += gd
            np.sqrt(ga, out=grad_norms[start:stop])
        return values, grad_norms


def _geometric_grid(lo: float, hi: float, n: int):
    """(grid, anchored): a geometric grid with exact endpoints.  When
    lo < 1 < hi, the interior node nearest 1 is snapped to 1, so the
    anti-canonical class sits on a grid node exactly; `anchored` is False
    when there is no interior node to snap, and the endpoints never move."""
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n))
    grid[0], grid[-1] = lo, hi
    interior = grid[1:-1]  # a view: snapping it writes into grid
    anchored = lo < 1.0 < hi and interior.size > 0
    if anchored:
        interior[int(np.argmin(np.abs(interior - 1.0)))] = 1.0
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
    and their alpha and delta partials, taken by `Polynomial.partial`); entry
    [i, j] multiplies alpha^i delta^j.  n and d come from the closed form
    N / D.  Every coefficient is an integer below 2^53, so float64 holds it
    exactly."""
    closed = energy.energy_closed_form()
    n, d = closed.numerator, closed.denominator
    partials = [p.partial(var) for var in ("alpha", "delta") for p in (n, d)]
    matrices = []
    for p in (n, d, *partials):
        c = _beta_one(p)
        assert all(abs(v) < 2 ** 53 for v in c.flat)
        c = c.astype(np.float64)
        c.flags.writeable = False
        matrices.append(c)
    return tuple(matrices)


def _strict_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the cells below each of their 8 neighbours; a neighbour beyond
    the edge counts as +inf, which the starting mask `values < inf` covers.
    Compares overlapping slices, so no padded copy of the grid is made."""

    def shift(step: int, n: int) -> tuple[slice, slice]:
        # slices (here, there) of range(n) with there = here + step
        return slice(max(-step, 0), n - max(step, 0)), slice(max(step, 0), n + min(step, 0))

    na, nd = values.shape
    strict = values < np.inf
    for di, dj in itertools.product((-1, 0, 1), repeat=2):
        if (di, dj) != (0, 0):
            (rows, rows_there), (cols, cols_there) = shift(di, na), shift(dj, nd)
            strict[rows, cols] &= values[rows, cols] < values[rows_there, cols_there]
    return strict


def scan_three_point(alpha_range=(0.05, 20.0), delta_range=(0.0, 10.0),
                     grid_counts=(200, 200)) -> ScanReport:
    """Grid scan of the normalized energy on the slice, beta gauged to 1.

    alpha runs geometrically (anchored so alpha = 1 is an interior grid node
    when in range), delta linearly from its minimum.  Reports strict 8-neighbor
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

    minima = tuple(cell(i, j) for i, j in np.argwhere(_strict_minima(values)))

    global_min = cell(*np.unravel_index(np.argmin(values), values.shape))

    spacing = "geometric (anchored at 1)" if anchored else "geometric"
    grid = GridSpec(alpha_min=amin, alpha_max=amax, alpha_count=na,
                    alpha_spacing=spacing,
                    delta_min=dmin, delta_max=dmax, delta_count=nd,
                    delta_spacing="linear")
    return ScanReport(grid=grid, alphas=alphas, deltas=deltas, values=values,
                      grad_norms=grad_norms, minima=minima, global_min=global_min)
