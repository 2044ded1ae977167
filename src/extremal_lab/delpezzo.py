"""Intersection theory of the projective plane and its k-point blow-ups, k <= 3.

Second cohomology is modeled in the basis {H, E_1..E_k} with intersection
form diag(1, -1, ..., -1) and the sign convention omega = a*H - sum(b_i E_i),
so the slice coordinates of `slice_class` are literally exceptional-curve
areas.  Coefficients are kept as given: Fractions, or the slice polynomials
from which `energy` reads c1.w and w^2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations


class NotKahlerError(ValueError):
    """A class failed one of the listed positivity conditions."""


class CohomologyClass(namedtuple("CohomologyClass", "a b")):
    """Class a*H - sum(b_i E_i); b is a tuple with one entry per blown-up point."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.b)


def intersect(x: CohomologyClass, y: CohomologyClass) -> Fraction:
    """Q(x, y) = a_x a_y - sum b_{x,i} b_{y,i}."""
    if x.k != y.k:
        raise ValueError(f"classes live on different surfaces (k={x.k} vs k={y.k})")
    return x.a * y.a - sum(p * q for p, q in zip(x.b, y.b))


class SurfaceModel(namedtuple("SurfaceModel", "euler signature c1 minus_one_curves")):
    """The k-point blow-up: topology, c1, and its full list of (-1)-curves as
    (label, CohomologyClass) pairs; its classes carry k."""

    __slots__ = ()


def make_surface(k: int) -> SurfaceModel:
    """Blow-up of the plane at k points, k from 0 (the plane itself) to 3.  Its
    (-1)-curves are E1..Ek, then the line H-Ei-Ej through each pair of
    points, the pairs in reverse lexicographic order; the plane has none."""
    if k not in range(4):
        raise ValueError(f"k must be 0, 1, 2, or 3, got {k!r}")
    points = range(k)
    curves = [(f"E{i+1}", CohomologyClass(0, tuple(-int(m == i) for m in points)))
              for i in points]
    curves += [(f"H-E{i+1}-E{j+1}", CohomologyClass(1, tuple(int(m in (i, j)) for m in points)))
               for i, j in sorted(combinations(points, 2), reverse=True)]
    return SurfaceModel(euler=3 + k, signature=1 - k, c1=CohomologyClass(3, (1,) * k),
                        minus_one_curves=tuple(curves))


def slice_surface(alpha, beta) -> int:
    """The k of the blow-up a slice point lives on: zero areas blow down, so
    alpha = 0 gives the 2-point surface, beta = 0 the 1-point surface and
    both the plane (k = 0).  A negative area stays, to be refused."""
    return (alpha != 0) + 2 * (beta != 0)


def slice_class(k: int, alpha, beta, delta) -> CohomologyClass:
    """The slice point (alpha, beta, delta) as a class of the k-point blow-up.

    k=3: (alpha+2*beta+delta; alpha, beta, beta), so each line H-E_i-E_j
    has area delta plus the exceptional area of the third point.  k=2:
    (2*beta+delta; beta, beta), alpha unused.  k=1: (alpha+delta; alpha),
    beta unused.  k=0: (delta; ), the plane.
    """
    if k not in range(4):
        raise ValueError(f"k must be 0, 1, 2, or 3, got {k!r}")
    # the bits of k, as in slice_surface: 1 is the alpha point, 2 the beta pair
    areas = (alpha,) * (k & 1) + (beta,) * (k & 2)
    return CohomologyClass(delta + sum(areas), areas)


def curve_areas(c: CohomologyClass) -> tuple[tuple[str, Fraction], ...]:
    """Pairing of c with every (-1)-curve of its surface, in make_surface's order."""
    return tuple((label, intersect(c, curve)) for label, curve in make_surface(c.k).minus_one_curves)


def kahler_violation(c: CohomologyClass) -> str | None:
    """First violated positivity condition on c's surface, or None when the
    class is Kahler."""
    if c.a <= 0:
        return f"hyperplane coefficient a = {c.a} is not positive"
    square = intersect(c, c)
    if square <= 0:
        return f"self-intersection Q(c,c) = {square} is not positive"
    for label, area in curve_areas(c):
        if area <= 0:
            return f"curve {label} has area {area} <= 0"
    return None
