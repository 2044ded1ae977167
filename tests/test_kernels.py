"""The slice scan and its kernel against exact rational evaluation."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extremal_lab import scan as _kernels
from extremal_lab.critical import gradient
from extremal_lab.energy import energy_closed_form
from extremal_lab.scan import _geometric_grid, _term_tables, scan_three_point

from scan_blocks import _one_buffer_blocks, _whole_grids


def closed_value(alpha, beta, delta) -> Fraction:
    return energy_closed_form().eval(
        {"alpha": Fraction(alpha), "beta": Fraction(beta), "delta": Fraction(delta)})


#: float64 rounding bound set before measuring: 7x7 products of integer
#: coefficients below 2^53 lose a few ulps, and the gradient a few more
RELATIVE_TOLERANCE = 1e-12


def test_term_tables_are_exact_integer_coefficients():
    matrices = _term_tables()
    assert len(matrices) == 6
    for c in matrices:
        assert c.shape == (_kernels.POWERS, _kernels.POWERS)
        assert c.dtype == np.float64
        assert not c.flags.writeable
        assert np.all(c == np.round(c))
        assert np.all(np.abs(c) < 2.0 ** 53)
    assert _term_tables() is matrices


def test_invalid_backend_name_rejected():
    # numpy is the only scan path: a backend keyword is refused, not ignored
    with pytest.raises(TypeError, match="backend"):
        scan_three_point(grid_counts=(4, 4), backend="fortran")


def test_scan_cells_match_exact_evaluation():
    report = scan_three_point(grid_counts=(9, 7))
    values, grad_norms = _whole_grids(report.alphas, report.deltas)
    quotient = energy_closed_form()
    for i, a in enumerate(report.alphas.tolist()):
        for j, d in enumerate(report.deltas.tolist()):
            point = {"alpha": Fraction(a), "beta": Fraction(1), "delta": Fraction(d)}
            value = float(quotient.eval(point))
            ga, gd = gradient(a, 1, d)
            norm = math.sqrt(ga * ga + gd * gd)
            assert math.isclose(values[i, j], value,
                                rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0)
            assert math.isclose(grad_norms[i, j], norm,
                                rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0)


# -- lean kernel against whole-array oracle ------------------------------------
#
# The oracles are the earlier table builder, which substitutes beta = 1 into
# N, D and their partials, and the earlier kernel, which builds every
# product and quotient as a whole-array temporary.  The kernel must match
# them bit for bit.

def _oracle_term_tables():
    closed = energy_closed_form()
    n, d = closed.numerator, closed.denominator
    partials = [p.partial(var) for var in ("alpha", "delta") for p in (n, d)]
    matrices = []
    for p in (n, d, *partials):
        q = p.substitute({"beta": 1})
        c = np.zeros((_kernels.POWERS, _kernels.POWERS))
        for (i, j), coef in q.terms.items():
            c[i, j] = coef.numerator
        matrices.append(c)
    return matrices


def _oracle_scan_eval(alphas, deltas, matrices):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa = np.vander(np.asarray(alphas, dtype=np.float64), _kernels.POWERS, increasing=True)
        pd = np.vander(np.asarray(deltas, dtype=np.float64), _kernels.POWERS, increasing=True)
        n, d, n_a, d_a, n_d, d_d = (pa @ c @ pd.T for c in matrices)
        values = n / d
        ga = (n_a * d - n * d_a) / (d * d)
        gd = (n_d * d - n * d_d) / (d * d)
        return values, np.sqrt(ga * ga + gd * gd)


#: (alpha_min, alpha_max, delta_max): the default window, the seeded window
#: of tests/test_cli.py, and a wide one spanning six decades of alpha
WINDOWS = [(0.05, 20.0, 10.0), (0.3303, 16.13, 8.362), (1e-3, 1e3, 100.0)]


def test_term_tables_match_substituted_gradient():
    for c, oracle in zip(_term_tables(), _oracle_term_tables(), strict=True):
        assert np.array_equal(c, oracle)


@pytest.mark.parametrize("shape", [(2, 2), (37, 37), (5, 300), (300, 7)])
@pytest.mark.parametrize("window", WINDOWS)
def test_scan_eval_matches_whole_array_oracle(shape, window):
    amin, amax, dmax = window
    alphas, _ = _geometric_grid(amin, amax, shape[0])
    deltas = np.linspace(0.0, dmax, shape[1])
    values, grad_norms = _whole_grids(alphas, deltas)
    want_values, want_norms = _oracle_scan_eval(alphas, deltas, _oracle_term_tables())
    assert values.shape == grad_norms.shape == shape
    assert values.tobytes() == want_values.tobytes()
    assert grad_norms.tobytes() == want_norms.tobytes()


@pytest.mark.parametrize("shape", [(1003, 300), (200, 700), (130, 1003)])
@pytest.mark.parametrize("window", WINDOWS)
def test_scan_eval_blocks_match_whole_array_oracle(shape, window):
    # several blocks and a ragged last one: each block of BLOCK_ROWS alpha
    # rows has exactly the bits of the whole-array kernel run on those rows
    assert shape[0] > _kernels.BLOCK_ROWS and shape[0] % _kernels.BLOCK_ROWS
    amin, amax, dmax = window
    alphas, _ = _geometric_grid(amin, amax, shape[0])
    deltas = np.linspace(0.0, dmax, shape[1])
    values, grad_norms = _whole_grids(alphas, deltas)
    tables = _oracle_term_tables()
    for start in range(0, shape[0], _kernels.BLOCK_ROWS):
        rows = slice(start, start + _kernels.BLOCK_ROWS)
        want_values, want_norms = _oracle_scan_eval(alphas[rows], deltas, tables)
        assert values[rows].tobytes() == want_values.tobytes()
        assert grad_norms[rows].tobytes() == want_norms.tobytes()


@pytest.mark.parametrize("n", [130, 270])
def test_interleaved_rows_match_whole_grids(n):
    # the exports' rows are evaluated again from row 0 in the scan's blocks,
    # a ragged last one included, so every row keeps the whole grids' bits
    amin, amax, dmax = WINDOWS[1]
    report = scan_three_point((amin, amax), (0.0, dmax), (n, n))
    values, grad_norms = _whole_grids(report.alphas, report.deltas)
    rows = np.array(list(report.interleaved_rows()))
    assert rows.shape == (n, 2 * n)
    assert rows[:, 0::2].tobytes() == values.tobytes()
    assert rows[:, 1::2].tobytes() == grad_norms.tobytes()


def _scan_peak(shape) -> int:
    """tracemalloc's peak over one scan_three_point; numpy reports its data
    buffers to tracemalloc."""
    scan_three_point(grid_counts=(4, 4))  # builds the cached term tables
    tracemalloc.start()
    try:
        scan_three_point(grid_counts=shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_scan_peak_memory_is_under_three_quarters_of_a_grid_array():
    # the scan holds no grid-sized array: the five block buffers, one block's
    # minima mask and the row held across a seam come to 0.39 of one.
    # Copying each block to reduce it one block late peaked at 0.51, keeping
    # the value and gradient-norm grids at 2.34, and the whole-grid kernel
    # with a padded copy for the minima test at 5.02.
    n = 1000
    assert _scan_peak((n, n)) <= 0.75 * n * n * 8


def test_scan_summary_holds_one_row_not_a_block_copy():
    # 0.39 of a grid array; a copy of each block and its gradient norms
    # for the summary took the peak to 0.51
    n = 1000
    assert _scan_peak((n, n)) <= 0.42 * n * n * 8


def test_scan_peak_memory_does_not_grow_with_alpha_rows():
    assert _scan_peak((4000, 1000)) <= 1.1 * _scan_peak((1000, 1000))


# -- the streamed summary against the whole-grid oracle ------------------------

def _oracle_summary(values, grad_norms):
    """(minima, global_min, finite) as `_summarize` gives them, taken on the
    whole grids."""
    def cell(i, j):
        return (i, j, float(values[i, j]), float(grad_norms[i, j]))

    minima = [cell(i, j) for i, j in np.argwhere(_kernels._strict_minima(values)).tolist()]
    i, j = np.unravel_index(np.argmin(values), values.shape)
    finite = bool(np.isfinite(values).all() and np.isfinite(grad_norms).all())
    return minima, cell(int(i), int(j)), finite


def _same(got, want) -> bool:
    """Equality of summaries in which a NaN equals a NaN."""
    return repr(got) == repr(want)


@pytest.mark.parametrize("shape", [(2, 2), (64, 9), (65, 9), (129, 7), (1003, 300)])
@pytest.mark.parametrize("window", WINDOWS)
def test_summary_matches_whole_grid_oracle(shape, window):
    amin, amax, dmax = window
    alphas, _ = _geometric_grid(amin, amax, shape[0])
    deltas = np.linspace(0.0, dmax, shape[1])
    want = _oracle_summary(*_whole_grids(alphas, deltas))
    got = _kernels._summarize(_kernels._blocks(alphas, deltas))
    assert got == want
    report = scan_three_point((amin, amax), (0.0, dmax), shape)
    assert [(c.i, c.j, c.value, c.grad_norm) for c in report.minima] == want[0]
    g = report.global_min
    assert (g.i, g.j, g.value, g.grad_norm) == want[1]
    assert report.finite is want[2]


def test_summary_of_a_non_finite_window_matches_whole_grid_oracle():
    report = scan_three_point(delta_range=(0.0, 1e300), grid_counts=(130, 9))
    want = _oracle_summary(*_whole_grids(report.alphas, report.deltas))
    assert not want[2] and math.isnan(want[1][2])
    got = _kernels._summarize(_kernels._blocks(report.alphas, report.deltas))
    assert _same(got, want)
    assert report.finite is False
    g = report.global_min
    assert _same((g.i, g.j, g.value, g.grad_norm), want[1])


#: rows a block in the hand-built grids: at 1 every row is a seam, and the
#: held row is also its block's first row, so its mask is cut from above and
#: from below
HAND_BUILT_BLOCK_ROWS = (1, 2, 3, _kernels.BLOCK_ROWS)


def test_summary_finds_minima_on_block_edges():
    # a plateau with strict minima on rows 63, 64 and 127, the last and first
    # rows of blocks, and two cells that are lower than every neighbour in
    # their own block but not lower than one across the block edge
    values = np.full((200, 6), 2.0)
    values[63, 0] = values[64, 3] = values[64, 5] = values[127, 5] = -1.0
    values[63, 5] = values[64, 0] = 0.0
    grad_norms = np.arange(values.size, dtype=np.float64).reshape(values.shape)
    for block_rows in HAND_BUILT_BLOCK_ROWS:
        got = _kernels._summarize(_one_buffer_blocks(values, grad_norms, block_rows))
        assert got == _oracle_summary(values, grad_norms)
        assert [(i, j) for i, j, *_ in got[0]] == [(63, 0), (64, 3), (64, 5), (127, 5)]
        assert got[1] == (63, 0, -1.0, 378.0)


@pytest.mark.parametrize("na", [1, 2, 63, 64, 65, 128, 129, 200])
def test_summary_of_hand_built_blocks_matches_whole_grid_oracle(na):
    rng = np.random.default_rng(na)
    for trial, block_rows in itertools.product(range(30), HAND_BUILT_BLOCK_ROWS):
        # four levels: ties, plateaus and minima on every row, edges included
        values = rng.integers(0, 4, size=(na, 5)).astype(np.float64)
        grad_norms = rng.uniform(0.0, 1.0, size=values.shape)
        if trial % 3 == 1:
            # a non-finite window: inf, -inf and NaN values in any block
            values.flat[rng.integers(0, values.size, size=3)] = [np.inf, -np.inf, np.nan]
        elif trial % 3 == 2:
            grad_norms.flat[rng.integers(0, values.size)] = np.inf
        got = _kernels._summarize(_one_buffer_blocks(values, grad_norms, block_rows))
        assert _same(got, _oracle_summary(values, grad_norms))


# -- strict minima against the padded-copy oracle -----------------------------

def _padded_strict_minima(values):
    """The earlier mask: compare each cell with a +inf-padded copy."""
    na, nd = values.shape
    pad = np.pad(values, 1, constant_values=np.inf)
    strict = np.ones((na, nd), dtype=bool)
    for di, dj in itertools.product((0, 1, 2), repeat=2):
        if (di, dj) != (1, 1):
            strict &= values < pad[di:di + na, dj:dj + nd]
    return strict


def test_strict_minima_match_padded_mask():
    rng = np.random.default_rng(13)
    edge_minima = corner_minima = 0
    for _ in range(400):
        shape = tuple(int(n) for n in rng.integers(1, 10, size=2))
        # four levels on a small grid: ties, plateaus and minima on the edges
        values = rng.integers(0, 4, size=shape).astype(np.float64)
        specials = rng.integers(0, values.size, size=2)
        values.flat[specials] = rng.choice([np.inf, -np.inf, np.nan], size=2)
        got = _kernels._strict_minima(values)
        assert got.dtype == bool and got.shape == shape
        assert np.array_equal(got, _padded_strict_minima(values))
        border = np.ones(shape, dtype=bool)
        border[1:-1, 1:-1] = False
        edge_minima += int((got & border).sum())
        corner_minima += int(got[::shape[0] - 1 or 1, ::shape[1] - 1 or 1].sum())
    assert edge_minima > 100 and corner_minima > 50


# -- slice scan ---------------------------------------------------------------------

def test_scan_finds_boundary_minimum():
    report = scan_three_point(grid_counts=(32, 32))
    m = report.global_min
    assert (m.alpha, m.delta) == (1.0, 0.0)
    assert m.value == 2.0
    assert m.grad_norm == 0.0
    assert m.boundary
    assert report.minima == (m,)


def test_scan_alpha_grid_is_anchored():
    report = scan_three_point(grid_counts=(25, 8))
    alphas = report.alphas.tolist()
    assert alphas[0] == 0.05
    assert alphas[-1] == 20.0
    assert 1.0 in alphas
    assert "anchored" in report.grid.alpha_spacing


@pytest.mark.parametrize("lo, hi, n, anchored", [
    (0.5, 1.01, 3, True),  # the node nearest 1 is the endpoint 1.01
    (0.99, 5.0, 2, False),  # no interior node to snap
    (0.99, 5.0, 3, True),
])
def test_scan_anchor_never_moves_an_endpoint(lo, hi, n, anchored):
    report = scan_three_point(alpha_range=(lo, hi), grid_counts=(n, 4))
    alphas = report.alphas.tolist()
    assert (alphas[0], alphas[-1]) == (lo, hi)
    assert alphas == sorted(set(alphas))
    assert (1.0 in alphas) == anchored
    assert report.grid.alpha_spacing == (
        "geometric (anchored at 1)" if anchored else "geometric")


def test_scan_minima_are_strictly_below_neighbors():
    report = scan_three_point(grid_counts=(24, 24))
    values, _ = _whole_grids(report.alphas, report.deltas)
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
    grids_a, grids_b = (_whole_grids(r.alphas, r.deltas) for r in (a, b))
    assert [g.tobytes() for g in grids_a] == [g.tobytes() for g in grids_b]
    assert a.minima == b.minima
    assert a.global_min == b.global_min


def test_scan_cells_match_indexed_lookup():
    # interleaved_rows is what the exporters read: per alpha row, the
    # (value, grad_norm) pairs along delta as Python floats
    report = scan_three_point(grid_counts=(6, 5))
    values, grad_norms = _whole_grids(report.alphas, report.deltas)
    expected = [tuple(x for j in range(5) for x in (float(values[i, j]), float(grad_norms[i, j])))
                for i in range(6)]
    rows = list(report.interleaved_rows())
    assert rows == expected
    assert all(type(x) is float for row in rows for x in row)


def test_scan_grid_values_match_exact_evaluation():
    report = scan_three_point(grid_counts=(7, 7))
    i, j = 3, 5
    a = Fraction(float(report.alphas[i]))
    d = Fraction(float(report.deltas[j]))
    exact = closed_value(a, 1, d)
    values, _ = _whole_grids(report.alphas, report.deltas)
    assert abs(values[i, j] - float(exact)) < 1e-9


def test_scan_range_validation():
    with pytest.raises(ValueError):
        scan_three_point(alpha_range=(0, 20), grid_counts=(8, 8))
    with pytest.raises(ValueError):
        scan_three_point(delta_range=(5, 1), grid_counts=(8, 8))
    with pytest.raises(ValueError):
        scan_three_point(grid_counts=(1, 8))
    with pytest.raises(ValueError, match="finite"):
        scan_three_point(alpha_range=(0.05, float("inf")), grid_counts=(8, 8))
