"""Exact Calabi-energy landscape on 1-, 2- and 3-point blow-ups of the plane.

The package computes the energy functional over Kahler classes with exact
rational arithmetic, certifies the critical classes of the one- and two-point
families with Sturm brackets, and scans the symmetric three-point slice with
a vectorized numpy kernel.
"""

__version__ = "0.1.0"
