"""Exact Calabi-energy landscape on 1-, 2- and 3-point blow-ups of the plane.

The package computes the energy functional over Kahler classes with exact
rational arithmetic, certifies the critical classes of the one- and two-point
families with Sturm brackets, and scans the symmetric three-point slice with
a vectorized numpy kernel.
"""

from .exactpoly import (
    ANY_DEGREE,
    Polynomial,
    RationalFunction,
    RootBracket,
    cauchy_root_bound,
    count_real_roots,
    fraction_to_decimal,
    isolate_real_roots,
    symbols,
)

__version__ = "0.1.0"

__all__ = [
    "ANY_DEGREE",
    "Polynomial",
    "RationalFunction",
    "RootBracket",
    "cauchy_root_bound",
    "count_real_roots",
    "fraction_to_decimal",
    "isolate_real_roots",
    "symbols",
    "__version__",
]
