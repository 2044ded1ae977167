"""The slice scan and its kernel against exact rational evaluation."""

import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from extremal_lab import scan as _kernels
from extremal_lab.critical import gradient
from extremal_lab.energy import energy_closed_form
from extremal_lab.scan import _geometric_grid, _term_tables, scan_three_point

from scan_blocks import _blas_is_openblas, _one_buffer_blocks, _whole_grids


def closed_value(alpha, beta, delta) -> Fraction:
    return energy_closed_form().eval(
        {"alpha": Fraction(alpha), "beta": Fraction(beta), "delta": Fraction(delta)})


#: float64 rounding bound set before measuring: 7x7 products of integer
#: coefficients below 2^53 lose a few ulps, and the gradient a few more
RELATIVE_TOLERANCE = 1e-12


def test_term_tables_are_exact_integer_coefficients():
    # n and d, then the gradient numerators trimmed to their terms
    matrices = _term_tables()
    shapes = [(_kernels.POWERS, _kernels.POWERS)] * 2 + [(5, 12), (6, 11)]
    assert [c.shape for c in matrices] == shapes
    for c in matrices:
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
# The oracles are a table builder that substitutes beta = 1 into N, D and
# the derivative numerators of `RationalFunction`, and a kernel that builds
# every product and quotient as a whole-array temporary.  The kernel must
# match them bit for bit.

def _oracle_term_tables():
    closed = energy_closed_form()
    polynomials = (closed.numerator, closed.denominator,
                   *(closed.derivative_numerator(v) for v in ("alpha", "delta")))
    matrices = []
    for p in polynomials:
        # n and d are POWERS x POWERS; each gradient numerator as small as
        # its terms allow
        q = p.substitute({"beta": 1})
        assert q.variables == ("alpha", "delta")
        support = tuple(1 + max(e[axis] for e in q.terms) for axis in (0, 1))
        c = np.zeros((_kernels.POWERS,) * 2 if len(matrices) < 2 else support)
        for (i, k), coef in q.terms.items():
            assert coef.denominator == 1
            c[i, k] = coef.numerator
        matrices.append(c)
    return matrices


def _oracle_scan_eval(alphas, deltas, matrices):
    # both axes are padded with zeros to whole groups of 8, as the kernel
    # pads them: unpadded, OpenBLAS's kernels round the last nd % 8 columns
    # by the product's row count, and the odd or trailing rows of a product
    # with inner dimension 12 apart from the others.  The comparison is the
    # in-place order against whole-array temporaries.
    na, nd = len(alphas), len(deltas)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa = np.vander(np.concatenate([alphas, np.zeros(-na % 8)]), _kernels.POWERS,
                       increasing=True)
        pd = np.vander(np.concatenate([deltas, np.zeros(-nd % 8)]), 12, increasing=True)
        n, d, g_a, g_d = (pa[:, :c.shape[0]] @ c @ pd[:, :c.shape[1]].T for c in matrices)
        values = n / d
        ga = g_a / (d * d)
        gd = g_d / (d * d)
        return values[:na, :nd], np.sqrt(ga * ga + gd * gd)[:na, :nd]


#: (alpha_min, alpha_max, delta_max): the default window, the seeded window
#: of tests/test_cli.py, and a wide one spanning six decades of alpha
WINDOWS = [(0.05, 20.0, 10.0), (0.3303, 16.13, 8.362), (1e-3, 1e3, 100.0)]


def test_term_tables_match_substituted_gradient():
    for c, oracle in zip(_term_tables(), _oracle_term_tables(), strict=True):
        assert c.shape == oracle.shape
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


@pytest.mark.parametrize("window, shape", [(WINDOWS[0], (420, 420)), (WINDOWS[1], (270, 270)),
                                           (WINDOWS[0], (1003, 300)), (WINDOWS[0], (130, 1003))],
                         ids=["420", "270-seeded", "1003x300", "130x1003"])
def test_block_rows_do_not_change_any_bit(monkeypatch, window, shape):
    # delta is padded to whole groups of 8 columns, so no cell's bits follow
    # its block's row count; unpadded, the AVX-512 kernel moved the last
    # nd % 8 columns of each of these grids between 8, 16, 32 and 64 rows
    amin, amax, dmax = window
    alphas, _ = _geometric_grid(amin, amax, shape[0])
    deltas = np.linspace(0.0, dmax, shape[1])
    grids = set()
    for block_rows in (8, 16, 32, 64):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", block_rows)
        grids.add(b"".join(g.tobytes() for g in _whole_grids(alphas, deltas)))
    assert len(grids) == 1


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as f:
            return {flag for line in f if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


#: sha256 of the whole grids at 37, 65, 270 and 420 cells in the seeded window
#: and at 1004 in the default one, one line each; the last blocks of the
#: first two have 5 rows and 1
GRID_HASHES = """
import hashlib
import numpy as np
from extremal_lab import scan
for (amin, amax, dmax), n in [(WINDOW, 37), (WINDOW, 65), (WINDOW, 270), (WINDOW, 420),
                              ((0.05, 20.0, 10.0), 1004)]:
    alphas, _ = scan._geometric_grid(amin, amax, n)
    digest = hashlib.sha256()
    for _, values, grad_norms in scan._blocks(alphas, np.linspace(0.0, dmax, n)):
        digest.update(values.tobytes() + grad_norms.tobytes())
    print(digest.hexdigest())
""".replace("WINDOW", repr(WINDOWS[1]))


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.machine() in ("x86_64", "AMD64")
                         and {"avx2", "fma"} <= _cpu_flags() and _blas_is_openblas()),
                    reason="needs OpenBLAS on an x86-64 Linux CPU with AVX2 and FMA")
def test_default_blas_kernel_gives_haswell_bits():
    # OpenBLAS's AVX-512 kernel rounded the last nd % 8 delta columns apart
    # from its Haswell kernel, and a lone row of a product apart too; with
    # both axes padded to whole groups of 8, these grids have Haswell's bits
    # under either, ragged last blocks included.  That is no claim of CPU
    # independence: the Nehalem kernel rounds other cells differently.
    path = os.pathsep.join(filter(None, (str(Path(_kernels.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    runs = [subprocess.run([sys.executable, "-c", GRID_HASHES], capture_output=True, text=True,
                           env=dict(base, PYTHONPATH=path, **coretype), check=True).stdout
            for coretype in ({}, {"OPENBLAS_CORETYPE": "Haswell"})]
    assert len(runs[0].split()) == 5
    assert runs[0] == runs[1]


@pytest.mark.parametrize("window, n", [(WINDOWS[0], 1004), (WINDOWS[1], 270)],
                         ids=["1004", "270-seeded"])
def test_grad_norm_near_the_minimum_matches_exact_gradient(window, n):
    # the gradient is a quotient of exact integer numerator tables, so no
    # float difference of two nearly equal products enters it where the
    # gradient vanishes: the 20 cells of the five alpha rows around 1 and
    # the first four delta columns read at most 1.7e-14 relative, where the
    # float quotient rule (n_a d - n d_a) / d^2 read 4.2e-13 and 1.4e-13
    amin, amax, dmax = window
    alphas, _ = _geometric_grid(amin, amax, n)
    deltas = np.linspace(0.0, dmax, n)
    _, grad_norms = _whole_grids(alphas, deltas)
    i = alphas.tolist().index(1.0)
    for a, d in itertools.product(range(i - 2, i + 3), range(4)):
        ga, gd = gradient(Fraction(float(alphas[a])), 1, Fraction(float(deltas[d])))
        want = math.sqrt(ga * ga + gd * gd)
        assert abs(grad_norms[a, d] - want) <= 1e-13 * want


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


def test_kernel_holds_four_block_buffers():
    # n, d and the two gradient numerators each fill one buffer, and the
    # quotients run in place in them.  With 16-row blocks the padded delta
    # Vandermonde, 12 columns for the gradient numerators, is 0.75 of a
    # buffer, and the traced peak reads 4.80 buffers, the block's alpha
    # Vandermonde and the tables included.  64-row blocks read 4.21 and pass
    # too; a fifth block buffer would read 5.80 and fail.
    n = 1000
    alphas, _ = _geometric_grid(0.05, 20.0, n)
    deltas = np.linspace(0.0, 10.0, n)
    width = max(c.shape[1] for c in _term_tables())  # powers of delta
    tracemalloc.start()
    try:
        for _ in _kernels._blocks(alphas, deltas):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffer = _kernels.BLOCK_ROWS * n * 8
    assert peak <= 4 * buffer + n * width * 8 + 0.25 * buffer


def test_scan_peak_memory_is_under_three_quarters_of_a_grid_array():
    # the scan holds no grid-sized array: the four block buffers, the padded
    # delta Vandermonde, one block's bool candidate mask and the copy of a
    # block's last row held across a seam come to 0.10 of one in 16-row
    # blocks (0.31 in 64-row blocks).
    # Copying each block to reduce it one block late peaked at 0.51, keeping
    # the value and gradient-norm grids at 2.34, and the whole-grid kernel
    # with a padded copy for the minima test at 5.02.
    n = 1000
    assert _scan_peak((n, n)) <= 0.75 * n * n * 8


def test_scan_summary_holds_one_row_not_a_block_copy():
    # 0.10 of a grid array (0.31 in 64-row blocks); a copy of each 64-row
    # block and its gradient norms for the summary took the peak to 0.51
    n = 1000
    assert _scan_peak((n, n)) <= 0.42 * n * n * 8


def test_scan_in_sixteen_row_blocks_holds_under_a_sixth_of_a_grid_array():
    # 0.10 of a grid array: four 16-row buffers and the padded delta
    # Vandermonde; 64-row blocks read 0.31
    n = 1000
    assert _scan_peak((n, n)) <= 0.15 * n * n * 8


def test_scan_peak_memory_does_not_grow_with_alpha_rows():
    # each block builds its own alpha Vandermonde and pads its own rows, so
    # only the axis itself grows: 4000 rows read 1.03 times 1000 rows (1.07
    # with the whole axis's Vandermonde held)
    assert _scan_peak((4000, 1000)) <= 1.1 * _scan_peak((1000, 1000))


# -- the streamed summary against the whole-grid oracle ------------------------

def _lower(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the cells of rows `a` below the cells of rows `b` in their own
    and both neighbouring columns; a column beyond the edge counts as +inf."""
    lower = a < b
    lower[..., 1:] &= a[..., 1:] < b[..., :-1]
    lower[..., :-1] &= a[..., :-1] < b[..., 1:]
    return lower


def _strict_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the cells below each of their 8 neighbours on the whole grid; a
    neighbour beyond the edge counts as +inf, which the starting mask
    `values < inf` covers."""
    strict = values < np.inf
    strict[:, 1:] &= values[:, 1:] < values[:, :-1]
    strict[:, :-1] &= values[:, :-1] < values[:, 1:]
    strict[1:] &= _lower(values[1:], values[:-1])
    strict[:-1] &= _lower(values[:-1], values[1:])
    return strict


def _oracle_summary(values, grad_norms):
    """(minima, global_min, finite) as `_summarize` gives them, taken on the
    whole grids."""
    def cell(i, j):
        return (i, j, float(values[i, j]), float(grad_norms[i, j]))

    minima = [cell(i, j) for i, j in np.argwhere(_strict_minima(values)).tolist()]
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
        got = _strict_minima(values)
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


@pytest.mark.parametrize("axis, window", [
    ("delta", {"delta_range": (0.0, 5e-324)}),
    ("alpha", {"alpha_range": (0.5, 0.5000000000000001)}),
])
def test_scan_refuses_repeated_grid_nodes(axis, window):
    # five nodes in a window a few ulps wide repeat ([0, 0, 0, 5e-324, 5e-324]
    # in delta), and a cell equal to its neighbour is never a strict minimum:
    # such a scan reported no minimum where (1, 0), the global one, is a node
    with pytest.raises(ValueError, match=f"the {axis} grid nodes repeat"):
        scan_three_point(grid_counts=(5, 5), **window)
    # two nodes, the window's ends, are distinct and scan
    scan_three_point(grid_counts=(2, 2), **window)
