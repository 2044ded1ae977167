"""The scan kernel against exact rational evaluation."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extremal_lab import scan as _kernels
from extremal_lab.critical import _grad_polys, gradient
from extremal_lab.energy import energy_closed_form
from extremal_lab.scan import _geometric_grid, _term_tables, scan_eval, scan_three_point

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
    axis = np.linspace(0.5, 2.0, 4)
    with pytest.raises(TypeError, match="backend"):
        _kernels.scan_eval(axis, axis, _term_tables(), backend="numpy")


def test_scan_cells_match_exact_evaluation():
    report = scan_three_point(grid_counts=(9, 7))
    quotient = energy_closed_form()
    for i, a in enumerate(report.alphas.tolist()):
        for j, d in enumerate(report.deltas.tolist()):
            point = {"alpha": Fraction(a), "beta": Fraction(1), "delta": Fraction(d)}
            value = float(quotient.eval(point))
            ga, gd = gradient(a, 1, d)
            norm = math.sqrt(ga * ga + gd * gd)
            assert math.isclose(report.values[i, j], value,
                                rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0)
            assert math.isclose(report.grad_norms[i, j], norm,
                                rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0)


# -- lean kernel against whole-array oracle ------------------------------------
#
# The oracles are the earlier table builder, which substitutes beta = 1 into
# the exact gradient polynomials, and the earlier kernel, which builds every
# product and quotient as a whole-array temporary.  The kernel must match
# them bit for bit.

def _oracle_term_tables():
    matrices = []
    for p in _grad_polys():
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
    values, grad_norms = scan_eval(alphas, deltas, _term_tables())
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
    values, grad_norms = scan_eval(alphas, deltas, _term_tables())
    tables = _oracle_term_tables()
    for start in range(0, shape[0], _kernels.BLOCK_ROWS):
        rows = slice(start, start + _kernels.BLOCK_ROWS)
        want_values, want_norms = _oracle_scan_eval(alphas[rows], deltas, tables)
        assert values[rows].tobytes() == want_values.tobytes()
        assert grad_norms[rows].tobytes() == want_norms.tobytes()


def test_scan_peak_memory_is_under_two_and_a_half_grid_arrays():
    # numpy reports its data buffers to tracemalloc.  values and grad_norms
    # are the only grid-sized arrays; the five block buffers, the minima
    # mask and its comparison temporaries add about a third of one.  The
    # whole-grid kernel with a padded copy for the minima test peaked at 5.02.
    n = 1000
    scan_three_point(grid_counts=(4, 4))  # builds the cached term tables
    tracemalloc.start()
    try:
        scan_three_point(grid_counts=(n, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


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
