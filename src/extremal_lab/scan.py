"""Float grid scan of the three-point slice, beta gauged to 1; the only
module that imports numpy.

A polynomial p(alpha, delta) is a coefficient matrix C, entry [i, k] the
coefficient of alpha^i delta^k, and its values on a block of alpha rows are
one product Pa[rows] @ C @ Pd^T of increasing Vandermonde matrices of the two
axes.  Four are evaluated: N and D of the closed form N / D, read from the
plain data of `sextics`, so a scan loads no exact arithmetic, and the
numerators g_v = N_v D - N D_v of the exact gradient g_v / D^2, formed from
N and D in integers, so no difference of nearly equal float products enters
the gradient norm.  The kernel `_blocks`, the one code that evaluates
cells, runs BLOCK_ROWS alpha rows at a time in four block-sized buffers, both
axes padded to whole groups of 8.  With OpenBLAS 0.3 on x86-64 a cell then
has the same bits on one thread or two and in blocks of 8, 16, 32 or 64 rows;
its last bit can still depend on the BLAS build and the CPU.
`scan_three_point` reduces each block in the kernel's buffers from
candidates, the cells below their left neighbour whose right neighbour is not
below them, about one a row, and holds only the last row and its surviving
candidates across the seam.
`ScanReport.interleaved_rows`, the one read of cells the csv and json exports
make, evaluates its rows again in the same blocks.
The scan reports the grid's minima and proves nothing: that the slice has
no critical point with delta > 0 is certified exactly, by a resultant whose
coefficients never change sign, in tests/test_critical.py
(`test_slice_gradient_has_no_zero_at_positive_delta`).
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter, namedtuple

# OpenBLAS starts a worker thread per core on load unless this variable, which
# a caller may still set, says otherwise.  The kernel's products are small and
# their bits do not depend on it.  On 2 cores with OpenBLAS 0.3.31 one thread
# cut the CPU time of importing numpy from 0.26 to 0.19 s and of scan3 --grid
# 1000 from 0.35 to 0.28 s (medians of 15 interleaved pairs).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import sextics

#: powers alpha^0..alpha^6 span every kernel table's rows, and delta^0..delta^6
#: the columns of N and D
POWERS = 7
#: alpha rows per kernel block: four block buffers at 1000 cells per delta
#: take 0.5 MB, and every product has at most this many rows whatever the grid
BLOCK_ROWS = 16


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

    Each table C of `_term_tables` (n, d, g_alpha, g_delta) is one product
    Pa[rows] @ C @ Pd^T, over as many powers of each axis as C has rows and
    columns, into its own block buffer.  Then values = n / d and grad_norms
    = sqrt((g_alpha / d^2)^2 + (g_delta / d^2)^2) run in place; overflowing
    cells come out inf or nan without a warning.  Both axes are padded with
    zeros to whole groups of 8, cut off at the yield: OpenBLAS's dgemm
    kernels round the last nd % 8 columns of a product by its row count,
    and its odd, trailing or lone rows apart from the others, so unpadded,
    a cell's bits would follow BLOCK_ROWS and the ragged last block.
    """
    def padded(axis):
        return np.concatenate([axis, np.zeros(-len(axis) % 8)])

    tables, na, nd = _term_tables(), len(alphas), len(deltas)
    with np.errstate(over="ignore"):  # a power of a huge axis value is inf
        pd = np.vander(padded(deltas), max(c.shape[1] for c in tables), increasing=True)
    workspace = np.empty((4, min(na + -na % 8, BLOCK_ROWS), len(pd)))

    for start in range(0, na, BLOCK_ROWS):
        rows = alphas[start:start + BLOCK_ROWS]
        # not held across the yield, where the caller's code runs
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            block = np.vander(padded(rows), POWERS, increasing=True)
            n, d, ga, gd = grids = workspace[:, :len(block)]
            for c, out in zip(tables, grids):
                np.matmul(block[:, :len(c)] @ c, pd[:, :c.shape[1]].T, out=out)
            n /= d
            d *= d
            ga /= d
            gd /= d
            ga *= ga
            gd *= gd
            ga += gd
            np.sqrt(ga, out=ga)
        yield start, n[:len(rows), :nd], ga[:len(rows), :nd]


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


def _increasing(axis) -> bool:
    """Whether the nodes of `axis` strictly increase; the list of them dies
    with the call, before the scan runs."""
    nodes = axis.tolist()
    return all(a < b for a, b in zip(nodes, nodes[1:]))


def _beta_one(sextic: dict) -> Counter:
    """A sextic of `sextics` at beta = 1, as {(i, k): integer coefficient of
    alpha^i delta^k}."""
    terms = Counter()
    for (i, _, k), coef in sextic.items():
        terms[i, k] += coef
    return terms


def _gradient_numerator(n: Counter, d: Counter, axis: int) -> Counter:
    """n_v d - n d_v, v the variable of exponent `axis` (0: alpha, 1: delta):
    a x^e times b x^f contributes a b (e_v - f_v) x^(e + f - 1_v)."""
    g, unit = Counter(), (1 - axis, axis)
    for e, a in n.items():
        for f, b in d.items():
            if e[axis] != f[axis]:
                g[e[0] + f[0] - unit[0], e[1] + f[1] - unit[1]] += a * b * (e[axis] - f[axis])
    return g


def _matrix(terms: Counter, shape=None) -> np.ndarray:
    """Read-only float64 matrix of {(i, k): integer}, as small as its nonzero
    terms allow unless `shape` is given; float64 holds each exactly."""
    terms = {e: c for e, c in terms.items() if c}
    c = np.zeros(shape or [1 + max(e) for e in zip(*terms)])
    for e, coef in terms.items():
        assert abs(coef) < 2 ** 53
        c[e] = coef
    c.flags.writeable = False
    return c


@functools.cache
def _term_tables() -> tuple[np.ndarray, ...]:
    """Read-only coefficient matrices of the beta = 1 slice polynomials n, d,
    g_alpha and g_delta, g_v = n_v d - n d_v the numerator of the exact
    gradient's v component, over d^2; entry [i, k] multiplies alpha^i
    delta^k.  n and d are the closed form's N and D from `sextics`, POWERS x
    POWERS; each g is formed from them in integers, trimmed to its terms
    (5x12 and 6x11)."""
    n, d = _beta_one(sextics.NUMERATOR), _beta_one(sextics.VARIANCE)
    return (_matrix(n, (POWERS, POWERS)), _matrix(d, (POWERS, POWERS)),
            *(_matrix(_gradient_numerator(n, d, axis)) for axis in (0, 1)))


def _below(v, row, j) -> bool:
    """Whether v lies below the cells of `row` in columns j - 1, j and j + 1; a
    column beyond the edge counts as +inf."""
    return all(v < x for x in row[max(j - 1, 0):j + 2].tolist())


def _summarize(blocks):
    """(minima, global_min, finite) of the grid that `blocks` yields as
    `_blocks` does.  A cell is (i, j, value, grad_norm): minima are the cells
    below each of their 8 neighbours on the whole value grid, a neighbour
    beyond the edge counting as +inf, in row-major order, and global_min is
    the one np.argmin on the whole value grid picks.

    Each block is reduced where it lies, from candidates: the cells below
    their left neighbour whose right neighbour is not below them, about one
    a row on a smooth grid.  Only at a candidate are its right neighbour and
    the rows above and below read, one Python float at a time, which is
    cheaper than a numpy call on so few cells.  A block's last row waits for
    the next block's first row, so only a copy of that row and its surviving
    candidates are held across the seam.  finite comes from reductions: the
    argmin cell is NaN or -inf when any value is, the maximum is NaN or +inf
    when any value is, and a gradient norm, a square root, is never below
    zero."""
    minima, global_min, finite = [], None, True
    above, held = None, []  # the last block's last row and its surviving candidates
    left = None

    for start, values, grad_norms in blocks:
        rows, nd = values.shape
        # np.argmin's cell from the row minima: np.argmin copies a strided block
        i = int(np.argmin(values.min(axis=1)))
        j = int(np.argmin(values[i]))
        low = values[i, j]
        if global_min is None or np.argmin((global_min[2], low)):
            global_min = (start + i, j, float(low), float(grad_norms[i, j]))
        finite = finite and all(map(math.isfinite, (low, values.max(), grad_norms.max())))

        minima.extend(cell for cell in held if _below(cell[2], values[0], cell[1]))
        held = []
        # left[i, j]: cell (i, j) lies below its left neighbour; the columns
        # beyond the edges, -1 and nd, count as +inf.  One mask, sized by the
        # first block, the largest, serves every block's leading rows
        if left is None:
            left = np.empty((rows, nd + 1), dtype=bool)
            left[:, 0], left[:, nd] = True, False
        np.less(values[:, 1:], values[:, :-1], out=left[:rows, 1:nd])
        # candidates: left[i, j] and not left[i, j + 1], taken on the flat
        # mask, where column nd, False, pairs with the next row's column 0
        # and is never a candidate itself
        flat = left[:rows].ravel()
        for k in np.flatnonzero(flat[:-1] & ~flat[1:]).tolist():
            i, j = divmod(k, nd + 1)
            v = values.item(i, j)
            if not (v < math.inf and (j == nd - 1 or v < values.item(i, j + 1))):
                continue
            up = values[i - 1] if i else above
            if up is not None and not _below(v, up, j):
                continue
            cell = (start + i, j, v, grad_norms.item(i, j))
            if i + 1 == rows:
                held.append(cell)
            elif _below(v, values[i + 1], j):
                minima.append(cell)
        above = values[-1].copy()
    minima.extend(held)
    return minima, global_min, finite


def scan_three_point(alpha_range=(0.05, 20.0), delta_range=(0.0, 10.0),
                     grid_counts=(200, 200)) -> ScanReport:
    """Grid scan of the normalized energy on the slice, beta gauged to 1.

    alpha runs geometrically (anchored so alpha = 1 is an interior grid node
    when in range), delta linearly from its minimum.  Reports strict 8-neighbor
    local minima, the global minimum cell and whether every cell is finite.
    Raises ValueError when a range is invalid or so narrow that adjacent
    float64 nodes of an axis repeat: a cell then equals its neighbour and is
    never a strict minimum.
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
    for name, axis in (("alpha", alphas), ("delta", deltas)):
        if not _increasing(axis):
            raise ValueError(f"the {name} grid nodes repeat: the {name} range is too "
                             "narrow for this grid count in float64")
    minima, global_min, finite = _summarize(_blocks(alphas, deltas))

    def cell(i: int, j: int, value: float, grad_norm: float) -> ScanCell:
        return ScanCell(i=i, j=j, alpha=float(alphas[i]), delta=float(deltas[j]),
                        value=value, grad_norm=grad_norm, boundary=bool(deltas[j] == 0.0))

    spacing = "geometric (anchored at 1)" if anchored else "geometric"
    grid = GridSpec(alpha_min=amin, alpha_max=amax, alpha_count=na, alpha_spacing=spacing,
                    delta_min=dmin, delta_max=dmax, delta_count=nd, delta_spacing="linear")
    return ScanReport(grid=grid, alphas=alphas, deltas=deltas,
                      minima=tuple(cell(*c) for c in minima), global_min=cell(*global_min),
                      finite=finite)
