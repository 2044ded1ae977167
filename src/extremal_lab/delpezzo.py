"""Intersection theory of the k-point blow-ups of the projective plane, k <= 3.

Second cohomology is modeled in the basis {H, E_1..E_k} with intersection
form diag(1, -1, ..., -1) and the sign convention omega = a*H - sum(b_i E_i),
so the hexagon area parameters are literally the exceptional-curve areas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


class NotKahlerError(ValueError):
    """A class failed one of the listed positivity conditions."""


@dataclass(frozen=True)
class CohomologyClass:
    """Class a*H - sum(b_i E_i); b has one entry per blown-up point."""

    a: Fraction
    b: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))

    @property
    def k(self) -> int:
        return len(self.b)


def intersect(x: CohomologyClass, y: CohomologyClass) -> Fraction:
    """Q(x, y) = a_x a_y - sum b_{x,i} b_{y,i}."""
    if x.k != y.k:
        raise ValueError(f"classes live on different surfaces (k={x.k} vs k={y.k})")
    return x.a * y.a - sum(p * q for p, q in zip(x.b, y.b))


@dataclass(frozen=True)
class SurfaceModel:
    """The k-point blow-up: topology plus its full list of (-1)-curves."""

    k: int
    euler: int
    signature: int
    c1: CohomologyClass
    minus_one_curves: tuple[tuple[str, CohomologyClass], ...]


def make_surface(k: int) -> SurfaceModel:
    """Blow-up of the plane at k points; k must be 1, 2, or 3."""
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k!r}")
    c1 = CohomologyClass(3, (1,) * k)

    def e(i: int) -> CohomologyClass:
        return CohomologyClass(0, tuple(-1 if j == i else 0 for j in range(k)))

    def line(i: int, j: int) -> CohomologyClass:
        return CohomologyClass(1, tuple(1 if m in (i, j) else 0 for m in range(k)))

    curves: list[tuple[str, CohomologyClass]] = [(f"E{i+1}", e(i)) for i in range(k)]
    if k == 2:
        curves.append(("H-E1-E2", line(0, 1)))
    elif k == 3:
        curves.extend([
            ("H-E2-E3", line(1, 2)),
            ("H-E1-E3", line(0, 2)),
            ("H-E1-E2", line(0, 1)),
        ])
    return SurfaceModel(k=k, euler=3 + k, signature=1 - k, c1=c1,
                        minus_one_curves=tuple(curves))


@dataclass(frozen=True)
class HexagonParams:
    """Curve-area coordinates (alpha, beta, gamma, delta) on the Kahler cone.

    Fields not used by a surface stay None: k=1 uses (alpha, delta), k=2 uses
    (beta, delta) with gamma pinned to beta, k=3 uses all four.  delta is the
    common pairing of the three opposite-side differences with omega.
    """

    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    gamma: Optional[Fraction] = None
    delta: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, Fraction(v))


def hexagon_to_class(s: SurfaceModel, p: HexagonParams) -> CohomologyClass:
    """Class with exceptional areas given by the parameters.

    k=3: (alpha+beta+gamma+delta; alpha, beta, gamma), so each line
    H-E_i-E_j has area (third parameter)+delta.  k=2: (2*beta+delta;
    beta, beta).  k=1: (alpha+delta; alpha).
    """
    if s.k == 3:
        if any(v is None for v in (p.alpha, p.beta, p.gamma, p.delta)):
            raise ValueError("k=3 needs all of alpha, beta, gamma, delta")
        return CohomologyClass(p.alpha + p.beta + p.gamma + p.delta,
                               (p.alpha, p.beta, p.gamma))
    if s.k == 2:
        if p.beta is None or p.delta is None or p.alpha is not None:
            raise ValueError("k=2 needs beta and delta only")
        if p.gamma is not None and p.gamma != p.beta:
            raise ValueError("k=2 requires gamma equal to beta")
        return CohomologyClass(2 * p.beta + p.delta, (p.beta, p.beta))
    if p.alpha is None or p.delta is None or p.beta is not None or p.gamma is not None:
        raise ValueError("k=1 needs alpha and delta only")
    return CohomologyClass(p.alpha + p.delta, (p.alpha,))


def class_to_hexagon(s: SurfaceModel, c: CohomologyClass) -> HexagonParams:
    """Inverse of hexagon_to_class; k=3 results may carry delta < 0.

    For k=2 the parameterization covers only classes with equal exceptional
    areas; anything else has no hexagon coordinates and is rejected.
    """
    if c.k != s.k:
        raise ValueError(f"class has k={c.k}, surface has k={s.k}")
    if s.k == 3:
        return HexagonParams(alpha=c.b[0], beta=c.b[1], gamma=c.b[2],
                             delta=c.a - c.b[0] - c.b[1] - c.b[2])
    if s.k == 2:
        if c.b[0] != c.b[1]:
            raise ValueError("k=2 class has unequal exceptional areas; "
                             "not in the symmetric parameterization")
        return HexagonParams(beta=c.b[0], delta=c.a - 2 * c.b[0])
    return HexagonParams(alpha=c.b[0], delta=c.a - c.b[0])


def cremona_involution(p: HexagonParams) -> HexagonParams:
    """Quadratic-transformation action: self-inverse, flips the sign of delta.

    On classes this is a' = 2a - b1 - b2 - b3, b_i' = a - b_j - b_k; in area
    coordinates (alpha+delta, beta+delta, gamma+delta, -delta).
    """
    if any(v is None for v in (p.alpha, p.beta, p.gamma, p.delta)):
        raise ValueError("Cremona reflection needs a full k=3 parameter set")
    return HexagonParams(alpha=p.alpha + p.delta, beta=p.beta + p.delta,
                         gamma=p.gamma + p.delta, delta=-p.delta)


def cremona_normalize(p: HexagonParams) -> HexagonParams:
    """Apply the Cremona reflection when delta < 0; idempotent."""
    if any(v is None for v in (p.alpha, p.beta, p.gamma, p.delta)):
        raise ValueError("Cremona normalization needs a full k=3 parameter set")
    return cremona_involution(p) if p.delta < 0 else p


def curve_areas(s: SurfaceModel, c: CohomologyClass) -> tuple[tuple[str, Fraction], ...]:
    """Pairing of c with every listed (-1)-curve, in the model's fixed order."""
    if c.k != s.k:
        raise ValueError(f"class has k={c.k}, surface has k={s.k}")
    return tuple((label, intersect(c, curve)) for label, curve in s.minus_one_curves)


def kahler_violation(s: SurfaceModel, c: CohomologyClass) -> Optional[str]:
    """First violated positivity condition, or None when the class is Kahler."""
    if c.k != s.k:
        raise ValueError(f"class has k={c.k}, surface has k={s.k}")
    if c.a <= 0:
        return f"hyperplane coefficient a = {c.a} is not positive"
    square = intersect(c, c)
    if square <= 0:
        return f"self-intersection Q(c,c) = {square} is not positive"
    for label, area in curve_areas(s, c):
        if area <= 0:
            return f"curve {label} has area {area} <= 0"
    return None
