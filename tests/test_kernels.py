"""The scan kernel against exact rational evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from extremal_lab import _kernels
from extremal_lab.critical import _term_tables, gradient, scan_three_point
from extremal_lab.energy import energy_closed_form

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
    quotient = energy_closed_form().quotient
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
