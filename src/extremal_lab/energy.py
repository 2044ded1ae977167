"""Calabi energy on the symmetric slice of the three-point blow-up.

Kahler classes on the slice are coordinatized by (alpha, beta, delta) with
the two symmetric exceptional areas equal (gamma = beta), giving the class
(alpha + 2*beta + delta; alpha, beta, beta).  The energy decomposes as

    A = 32 pi^2 (c1.w)^2 / w^2 + F(Xi,[w])^2 * 144 pi^2 w^2 / D(alpha,beta,delta)

where D is the variance sextic of the torus moment function (D represents
144 pi^2 w^2 Var(t)) and F is the restricted Futaki character.  Both routes
to A/96pi^2 - this composition and the closed-form quotient N/D of two
homogeneous sextics - agree identically; `verify_identity` checks the cross-
multiplied polynomial identity binding them.

pi^2 is kept symbolic: every energy is an exact rational multiple of pi^2,
and the normalized value A/96pi^2 is a plain rational.  Formulas are only
evaluated on Kahler classes; zero alpha and/or beta are interpreted by
blowing down to the 2- or 1-point surface (or the plane), matching the
slice specializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import delpezzo
from .delpezzo import HexagonParams, NotKahlerError
from .exactpoly import Polynomial, RationalFunction

_VARS = ("alpha", "beta", "delta")

# Exponent keys are (alpha, beta, delta).  The variance sextic D: the
# beta^4*alpha*delta coefficient is re-derived by solve_unknown_coefficient
# (expected 276), and the full coefficient table is pinned down by the exact
# identity in verify_identity.
_VARIANCE = Polynomial(_VARS, {
    (0, 0, 6): 1, (0, 1, 5): 12, (0, 2, 4): 54, (0, 3, 3): 120,
    (0, 4, 2): 138, (0, 5, 1): 72, (0, 6, 0): 12,
    (1, 0, 5): 6, (1, 1, 4): 60, (1, 2, 3): 216, (1, 3, 2): 360,
    (1, 4, 1): 276, (1, 5, 0): 72,
    (2, 0, 4): 6, (2, 1, 3): 48, (2, 2, 2): 144, (2, 3, 1): 192,
    (2, 4, 0): 96,
})

# Numerator sextic N of the closed form: A|_P / 96 pi^2 = N / D.
_NUMERATOR = Polynomial(_VARS, {
    (0, 6, 0): 32, (1, 5, 0): 160, (0, 5, 1): 176, (0, 4, 2): 318,
    (2, 4, 0): 136, (1, 4, 1): 536, (3, 3, 0): 32, (0, 3, 3): 280,
    (1, 3, 2): 696, (2, 3, 1): 320, (1, 2, 3): 440, (2, 2, 2): 276,
    (3, 2, 1): 48, (0, 2, 4): 132, (0, 1, 5): 32, (2, 1, 3): 104,
    (3, 1, 2): 24, (1, 1, 4): 136, (3, 0, 3): 4, (2, 0, 4): 14,
    (1, 0, 5): 16, (0, 0, 6): 3,
})

_ALPHA = Polynomial.variable("alpha")
_BETA = Polynomial.variable("beta")
_DELTA = Polynomial.variable("delta")

_A_COEFF = _ALPHA + 2 * _BETA + _DELTA            # hyperplane coefficient of the class
_C1_DOT_OMEGA = 2 * _A_COEFF + _DELTA             # c1 . omega = 2 alpha + 4 beta + 3 delta
_OMEGA_SQ = _A_COEFF ** 2 - _ALPHA ** 2 - 2 * _BETA ** 2
# w^2 F(Xi,[w]) = 4 (beta - alpha) delta (delta^2/3 + beta delta + beta^2)
_FUTAKI_CORE = (_BETA - _ALPHA) * _DELTA * (_DELTA ** 2 / 3 + _BETA * _DELTA + _BETA ** 2)
_UNKNOWN_MONOMIAL = Polynomial(_VARS, {(1, 4, 1): 1})


@dataclass(frozen=True)
class EnergyBreakdown:
    """Decomposition of A at one class; all terms are multiples of pi^2.

    average_term + futaki_term = total, and normalized = total / 96 is the
    dimensionless value A / 96 pi^2.
    """

    average_term: Fraction
    futaki_term: Fraction
    total: Fraction
    normalized: Fraction


def energy_closed_form() -> RationalFunction:
    """A|_P / 96 pi^2 = N / D as a quotient of homogeneous sextics."""
    return RationalFunction(_NUMERATOR, _VARIANCE)


def surface_kahler_violation(k: int, alpha, beta, delta) -> Optional[str]:
    """Why the slice point (alpha, beta, delta) is not a Kahler class of the
    k-point blow-up, or None; k = 0 is the plane.

    Nothing blows down: k = 3 reads the areas (alpha, beta, beta, delta),
    k = 2 reads (beta, delta) and k = 1 reads (alpha, delta), and each
    exceptional curve must have positive area on that surface.
    """
    if k == 0:
        return None if delta > 0 else f"hyperplane multiple delta = {delta} is not positive"
    if k == 3:
        params = HexagonParams(alpha=alpha, beta=beta, gamma=beta, delta=delta)
    elif k == 2:
        params = HexagonParams(beta=beta, delta=delta)
    else:
        params = HexagonParams(alpha=alpha, delta=delta)
    s = delpezzo.make_surface(k)
    return delpezzo.kahler_violation(s, delpezzo.hexagon_to_class(s, params))


def slice_kahler_violation(alpha, beta, delta) -> Optional[str]:
    """Why (alpha, beta, delta) is not a Kahler slice class, or None.

    Zero parameters blow down: alpha = 0 gives the 2-point surface,
    beta = 0 the 1-point surface, both zero the plane.  With alpha and
    beta positive, delta = 0 (the anti-canonical ray) is allowed.
    """
    alpha, beta, delta = Fraction(alpha), Fraction(beta), Fraction(delta)
    if alpha < 0:
        return f"exceptional area alpha = {alpha} is negative"
    if beta < 0:
        return f"exceptional area beta = {beta} is negative"
    # k = 3 with both areas positive, 2 at alpha = 0, 1 at beta = 0, 0 at both
    return surface_kahler_violation((alpha > 0) + 2 * (beta > 0), alpha, beta, delta)


def _require_slice_kahler(alpha, beta, delta) -> tuple[Fraction, Fraction, Fraction]:
    alpha, beta, delta = Fraction(alpha), Fraction(beta), Fraction(delta)
    violation = slice_kahler_violation(alpha, beta, delta)
    if violation is not None:
        raise NotKahlerError(f"class is not Kahler: {violation}")
    return alpha, beta, delta


def _composition(alpha: Fraction, beta: Fraction, delta: Fraction) -> EnergyBreakdown:
    point = {"alpha": alpha, "beta": beta, "delta": delta}
    c1w = _C1_DOT_OMEGA.eval(point)
    w2 = _OMEGA_SQ.eval(point)
    d_val = _VARIANCE.eval(point)
    assert w2 > 0 and d_val > 0  # positive on the Kahler slice cone
    g = 4 * _FUTAKI_CORE.eval(point)
    average = 32 * c1w ** 2 / w2
    futaki = 144 * g ** 2 / (w2 * d_val)
    total = average + futaki
    return EnergyBreakdown(average_term=average, futaki_term=futaki,
                           total=total, normalized=total / 96)


def energy_composed(alpha, beta, delta) -> EnergyBreakdown:
    """A at the slice class, via the average / Futaki decomposition.

    average_term = 32 (c1.w)^2 / w^2 and futaki_term = 144 G^2 / (w^2 D)
    with G = w^2 F(Xi,[w]); both as exact multiples of pi^2.  Zero areas
    blow down, as in slice_kahler_violation.
    """
    return _composition(*_require_slice_kahler(alpha, beta, delta))


def surface_energy(k: int, alpha, beta, delta) -> EnergyBreakdown:
    """energy_composed at a slice point read as a class of the k-point
    blow-up: raises NotKahlerError unless surface_kahler_violation accepts
    it, so no area blows down."""
    alpha, beta, delta = Fraction(alpha), Fraction(beta), Fraction(delta)
    violation = surface_kahler_violation(k, alpha, beta, delta)
    if violation is not None:
        raise NotKahlerError(f"class is not Kahler: {violation}")
    return _composition(alpha, beta, delta)


def _residual(num: Polynomial, den: Polynomial) -> Polynomial:
    """(1/3)(c1.w)^2 den + 24 ((beta-alpha) delta (...))^2 - w^2 num."""
    return _C1_DOT_OMEGA ** 2 * den / 3 + 24 * _FUTAKI_CORE ** 2 - _OMEGA_SQ * num


def verify_identity(numerator: Polynomial | None = None,
                    denominator: Polynomial | None = None) -> tuple[bool, Polynomial]:
    """Check (1/3)(c1.w)^2 D + 24 ((beta-alpha) delta (...))^2 = w^2 N exactly.

    Returns (holds, residual); the residual is the zero polynomial iff the
    identity holds.  Overrides exist so a deliberately perturbed sextic can
    be shown to fail.
    """
    residual = _residual(_NUMERATOR if numerator is None else numerator,
                         _VARIANCE if denominator is None else denominator)
    return (not residual, residual)


def solve_unknown_coefficient(numerator: Polynomial | None = None) -> Fraction:
    """Re-derive the beta^4*alpha*delta coefficient of D from the identity.

    Treats that single coefficient as an unknown c, substitutes into the
    identity of verify_identity, and solves the linear condition; the rest
    of D is taken as displayed.  Raises ValueError when no value of c makes
    the identity hold (an inconsistent system would mean some other
    coefficient is wrong).
    """
    # residual(c) = base + c * slope must vanish identically
    base = _residual(_NUMERATOR if numerator is None else numerator,
                     _VARIANCE - 276 * _UNKNOWN_MONOMIAL)
    slope = _C1_DOT_OMEGA ** 2 * _UNKNOWN_MONOMIAL / 3
    exps, coeff = next(iter(slope.sorted_terms()))
    c = -base.coefficient(**dict(zip(slope.variables, exps))) / coeff
    if base + c * slope:
        raise ValueError("inconsistent linear system: no coefficient value "
                         "satisfies the energy identity")
    return c


def _blow_down(p: Polynomial, zero: str, var: str, drop: int = 0) -> Polynomial:
    """The sextic p at `zero` = 0 and the other area 1, in `var` = delta,
    divided by var^drop.  p is homogeneous, so filtering its exponent tuples
    is exact, and far cheaper than substitution."""
    iz, idelta = p.variables.index(zero), p.variables.index("delta")
    return Polynomial((var,), {(e[idelta] - drop,): c
                               for e, c in p.terms.items() if e[iz] == 0})


def one_point_energy() -> RationalFunction:
    """Normalized energy of the 1-point surface in x = delta/alpha: N/D at
    beta = 0, alpha = 1, with the common factor x^3 removed."""
    return RationalFunction(_blow_down(_NUMERATOR, "beta", "x", drop=3),
                            _blow_down(_VARIANCE, "beta", "x", drop=3))


def two_point_energy() -> RationalFunction:
    """Normalized energy of the 2-point surface in y = delta/beta: N/D at
    alpha = 0, beta = 1."""
    return RationalFunction(_blow_down(_NUMERATOR, "alpha", "y"),
                            _blow_down(_VARIANCE, "alpha", "y"))


def gauss_bonnet_residual(k: int, normalized_energy):
    """3 * (A/96pi^2) - (2 chi + 3 tau): the trace-free Ricci energy
    (1/8pi^2) int |r0|^2 of the k-point blow-up.

    Zero exactly when a would-be extremal representative is Kahler-Einstein.
    """
    s = delpezzo.make_surface(k)
    return 3 * normalized_energy - (2 * s.euler + 3 * s.signature)
