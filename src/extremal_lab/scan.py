"""Float grid scan of the three-point slice, beta gauged to 1; the only
module that imports numpy.

A slice polynomial p(alpha, delta) has degree at most 6 in each variable, so
it is a 7x7 coefficient matrix C, and its values on a block of alpha rows are
one product Pa[rows] @ C @ Pd^T of increasing Vandermonde matrices of the two
axes.  The matrices of N and D are read from the closed form in `energy`, and
those of their partials from `Polynomial.partial`.  The kernel `_blocks`,
the one code that evaluates cells, runs BLOCK_ROWS alpha rows at a time in
five block-sized buffers.  No product has more than BLOCK_ROWS rows, and with
OpenBLAS 0.3 on x86-64 such a product has the same bits on one thread or
two; a cell's last bit can still depend on the BLAS build, the CPU and, with
some kernels, the row its block starts at.  `scan_three_point` reduces each
block in the kernel's buffers and holds only its last row across the seam,
and `ScanReport.interleaved_rows`, the one read of cells the csv and json
exports make, evaluates its rows again in the same blocks.
The scan reports the grid's minima and proves nothing: that the slice has
no critical point with delta > 0 is certified exactly, by a resultant whose
coefficients never change sign, in tests/test_critical.py
(`test_slice_gradient_has_no_zero_at_positive_delta`).
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple

# OpenBLAS starts a worker thread per core on load unless this variable, which
# a caller may still set, says otherwise.  The kernel's products are small and
# their bits do not depend on it.  On 2 cores with OpenBLAS 0.3.31 one thread
# cut the CPU time of importing numpy from 0.26 to 0.19 s and of scan3 --grid
# 1000 from 0.35 to 0.28 s (medians of 15 interleaved pairs).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import energy

#: powers alpha^0..alpha^6 and delta^0..delta^6 span the slice polynomials
POWERS = 7
#: alpha rows per kernel block: five block buffers at 1000 cells per delta
#: take 2.5 MB, and every product has at most this many rows whatever the grid
BLOCK_ROWS = 64


class GridSpec(namedtuple("GridSpec", "alpha_min alpha_max alpha_count alpha_spacing "
                                      "delta_min delta_max delta_count delta_spacing")):
    __slots__ = ()


class ScanCell(namedtuple("ScanCell", "i j alpha delta value grad_norm boundary")):
    """One grid cell; boundary is True when it lies on the delta = 0 edge of
    the fundamental domain."""

    __slots__ = ()


class ScanReport(namedtuple("ScanReport", "grid alphas deltas minima global_min finite")):
    """A scan's GridSpec, its axes as arrays, its strict local minima and
    global minimum as ScanCells, and whether every value and gradient-norm
    cell is finite.  Cells are read through `interleaved_rows`.  Equality is
    identity: the fields hold arrays."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def interleaved_rows(self):
        """Per alpha row, in order, the tuple (value, grad_norm, value,
        grad_norm, ...) of Python floats along delta, evaluated again from
        row 0 in the scan's own blocks, so every cell has the summary's bits."""
        pairs = np.empty(2 * self.deltas.size)
        for _, values, grad_norms in _blocks(self.alphas, self.deltas):
            for value_row, grad_row in zip(values, grad_norms):
                pairs[0::2] = value_row
                pairs[1::2] = grad_row
                yield tuple(pairs.tolist())


def _blocks(alphas, deltas):
    """Yield (start, values, grad_norms) for the grid's alpha rows [start,
    start + BLOCK_ROWS), in row order, as views the next block overwrites.

    Every polynomial is one product Pa[rows] @ C @ Pd^T, C from
    `_term_tables`, and the quotient rule runs in place with the operands
    and order of values = n / d, ga = (n_a * d - n * d_a) / (d * d), gd
    likewise and grad_norms = sqrt(ga * ga + gd * gd), so every cell rounds
    as with whole-block temporaries.  Overflowing cells come out inf or nan
    without a warning.
    """
    with np.errstate(over="ignore"):  # a power of a huge axis value is inf
        pa = np.vander(np.asarray(alphas, dtype=np.float64), POWERS, increasing=True)
        pd = np.vander(np.asarray(deltas, dtype=np.float64), POWERS, increasing=True)
    c_n, c_d, c_na, c_da, c_nd, c_dd = _term_tables()
    workspace = np.empty((5, min(pa.shape[0], BLOCK_ROWS), pd.shape[0]))
    for start in range(0, pa.shape[0], BLOCK_ROWS):
        block = pa[start:start + BLOCK_ROWS]
        # nd_prime holds n * d_a, then n * d_d
        n, d, ga, gd, nd_prime = workspace[:, :block.shape[0]]

        def grid(c, out):
            return np.matmul(block @ c, pd.T, out=out)

        # not held across the yield, where the caller's code runs
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
            np.divide(n, d, out=n)
            d *= d
            ga /= d
            gd /= d
            ga *= ga
            gd *= gd
            ga += gd
            np.sqrt(ga, out=ga)
        yield start, n, ga


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


def _lower(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the cells of rows `a` below the cells of rows `b` in their own
    and both neighbouring columns; a column beyond the edge counts as +inf."""
    lower = a < b
    lower[..., 1:] &= a[..., 1:] < b[..., :-1]
    lower[..., :-1] &= a[..., :-1] < b[..., 1:]
    return lower


def _strict_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the cells below each of their 8 neighbours; a neighbour beyond
    the edge counts as +inf, which the starting mask `values < inf` covers.
    Rows are compared by `_lower`, as `_summarize` compares them at a seam."""
    strict = values < np.inf
    strict[:, 1:] &= values[:, 1:] < values[:, :-1]
    strict[:, :-1] &= values[:, :-1] < values[:, 1:]
    strict[1:] &= _lower(values[1:], values[:-1])
    strict[:-1] &= _lower(values[:-1], values[1:])
    return strict


def _summarize(blocks):
    """(minima, global_min, finite) of the grid that `blocks` yields as
    `_blocks` does.  A cell is (i, j, value, grad_norm): minima are those of
    `_strict_minima` on the whole value grid, in row-major order, and
    global_min is the one np.argmin picks.  Each block is reduced where it
    lies; its last row waits for the next block's first row, so only that
    row's values, gradient norms and minima mask are held across the seam."""
    minima, global_min, finite, held = [], None, True, None

    def emit(start, values, grad_norms, mask):  # rows [start, ...) of the grid
        minima.extend((start + i, j, float(values[i, j]), float(grad_norms[i, j]))
                      for i, j in np.argwhere(mask).tolist())

    for start, values, grad_norms in blocks:
        finite = finite and bool(np.isfinite(values).all() and np.isfinite(grad_norms).all())
        i, j = divmod(int(np.argmin(values)), values.shape[1])
        if global_min is None or np.argmin((global_min[2], values[i, j])):
            global_min = (start + i, j, float(values[i, j]), float(grad_norms[i, j]))
        strict = _strict_minima(values)
        if held:  # [row, values, grad_norms, mask] of the last row, each 1 x nd
            strict[:1] &= _lower(values[:1], held[1])
            held[3] &= _lower(held[1], values[:1])
            emit(*held)
        emit(start, values[:-1], grad_norms[:-1], strict[:-1])
        held = [start + len(values) - 1, values[-1:].copy(), grad_norms[-1:].copy(), strict[-1:]]
    emit(*held)
    return minima, global_min, finite


def scan_three_point(alpha_range=(0.05, 20.0), delta_range=(0.0, 10.0),
                     grid_counts=(200, 200)) -> ScanReport:
    """Grid scan of the normalized energy on the slice, beta gauged to 1.

    alpha runs geometrically (anchored so alpha = 1 is an interior grid node
    when in range), delta linearly from its minimum.  Reports strict 8-neighbor
    local minima, the global minimum cell and whether every cell is finite.
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
    minima, global_min, finite = _summarize(_blocks(alphas, deltas))

    def cell(i: int, j: int, value: float, grad_norm: float) -> ScanCell:
        return ScanCell(i=i, j=j, alpha=float(alphas[i]), delta=float(deltas[j]),
                        value=value, grad_norm=grad_norm, boundary=bool(deltas[j] == 0.0))

    spacing = "geometric (anchored at 1)" if anchored else "geometric"
    grid = GridSpec(alpha_min=amin, alpha_max=amax, alpha_count=na,
                    alpha_spacing=spacing,
                    delta_min=dmin, delta_max=dmax, delta_count=nd,
                    delta_spacing="linear")
    return ScanReport(grid=grid, alphas=alphas, deltas=deltas,
                      minima=tuple(cell(*c) for c in minima), global_min=cell(*global_min),
                      finite=finite)
