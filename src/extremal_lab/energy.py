"""Calabi energy on the symmetric slice of the three-point blow-up.

Kahler classes on the slice are coordinatized by (alpha, beta, delta) with
the two symmetric exceptional areas equal (gamma = beta), giving the class
(alpha + 2*beta + delta; alpha, beta, beta).  The energy decomposes as

    A = 32 pi^2 (c1.w)^2 / w^2 + F(Xi,[w])^2 * 144 pi^2 w^2 / D(alpha,beta,delta)

where D is the variance sextic of the torus moment function (D represents
144 pi^2 w^2 Var(t)) and F is the restricted Futaki character.  D and the
numerator N of the closed form A/96pi^2 = N/D are the only tables, the plain
data of `sextics`: an energy evaluates D from it at Fractions, and the
blow-downs filter its terms.  c1.w, w^2 and the Futaki quartic w^2 F / 4
come from one function of the class, at Fractions for an energy.  Only the
closed form, the blow-downs and `verify_identity`, the cross-multiplied
identity binding the two routes, build Polynomials, on first use, so an
energy at a point loads no polynomial arithmetic.

pi^2 is kept symbolic: every energy is an exact rational multiple of pi^2,
and the normalized value A/96pi^2 is a plain rational.  Formulas are only
evaluated on Kahler classes; zero alpha and/or beta are interpreted by
blowing down to the 2- or 1-point surface (or the plane), matching the
slice specializations.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

from . import delpezzo, sextics
from .delpezzo import NotKahlerError

_VARS = ("alpha", "beta", "delta")


class EnergyBreakdown(namedtuple("EnergyBreakdown",
                                 "average_term futaki_term total normalized")):
    """Decomposition of A at one class; each term is a Fraction, the multiple
    of pi^2.

    average_term + futaki_term = total, and normalized = total / 96 is the
    dimensionless value A / 96 pi^2.
    """

    __slots__ = ()


@cache
def _sextic_polynomials() -> tuple[Polynomial, Polynomial]:
    """(N, D), the hand-entered sextics of `sextics` as Polynomials over the
    slice variables, built on first use: the numerator N of the closed form
    A|_P / 96 pi^2 = N / D, and the variance sextic D."""
    from .exactpoly import Polynomial

    return Polynomial(_VARS, sextics.NUMERATOR), Polynomial(_VARS, sextics.VARIANCE)


def energy_closed_form() -> RationalFunction:
    """A|_P / 96 pi^2 = N / D as a quotient of homogeneous sextics."""
    from .exactpoly import RationalFunction

    return RationalFunction(*_sextic_polynomials())


def kahler_point(k: int, alpha, beta, delta) -> tuple[Fraction, Fraction, Fraction]:
    """The slice point as Fractions, read on the k-point blow-up.

    The areas the surface lacks (alpha at k = 2, beta at k = 1, both at
    k = 0, the plane; either may be None) are set to 0.  Raises
    NotKahlerError unless slice_class(k, alpha, beta, delta) is a Kahler
    class, so no area blows down.
    """
    alpha = Fraction(alpha) if k & 1 else Fraction(0)
    beta = Fraction(beta) if k & 2 else Fraction(0)
    delta = Fraction(delta)
    violation = delpezzo.kahler_violation(delpezzo.slice_class(k, alpha, beta, delta))
    if violation is not None:
        raise NotKahlerError(f"class is not Kahler: {violation}")
    return alpha, beta, delta


def _slice_terms(alpha, beta, delta):
    """(c1.w, w^2, G) of the slice class, G = w^2 F / 4 the Futaki quartic; the
    same arithmetic serves Fractions and Polynomials."""
    omega = delpezzo.slice_class(3, alpha, beta, delta)
    return (delpezzo.intersect(delpezzo.make_surface(3).c1, omega),
            delpezzo.intersect(omega, omega),
            (beta - alpha) * delta * (delta ** 2 / 3 + beta * delta + beta ** 2))


@cache
def _slice_polynomials() -> tuple[Polynomial, Polynomial, Polynomial]:
    """_slice_terms over the slice variables, built on first use."""
    from .exactpoly import Polynomial

    return _slice_terms(*map(Polynomial.variable, _VARS))


def surface_energy(k: int, alpha, beta, delta) -> EnergyBreakdown:
    """A at slice_class(k, alpha, beta, delta) on the k-point blow-up, lacking
    areas set to 0 by kahler_point: average_term = 32 (c1.w)^2 / w^2 and
    futaki_term = 144 (4 G)^2 / (w^2 D), exact multiples of pi^2."""
    alpha, beta, delta = kahler_point(k, alpha, beta, delta)
    c1w, w2, g = _slice_terms(alpha, beta, delta)
    d_val = sum(c * alpha ** i * beta ** j * delta ** e
                for (i, j, e), c in sextics.VARIANCE.items())
    assert w2 > 0 and d_val > 0  # positive on the Kahler slice cone
    average = 32 * c1w ** 2 / w2
    futaki = 144 * (4 * g) ** 2 / (w2 * d_val)
    total = average + futaki
    return EnergyBreakdown(average_term=average, futaki_term=futaki,
                           total=total, normalized=total / 96)


def energy_composed(alpha, beta, delta) -> EnergyBreakdown:
    """surface_energy on the surface the slice point lives on: zero areas
    blow down, as in delpezzo.slice_surface."""
    return surface_energy(delpezzo.slice_surface(alpha, beta), alpha, beta, delta)


def verify_identity() -> tuple[bool, Polynomial]:
    """Check (1/3)(c1.w)^2 D + 24 G^2 = w^2 N exactly, G the Futaki quartic.

    Both sides are homogeneous of degree 8 in (alpha, beta, delta): the
    sextics D and N times the quadrics (c1.w)^2 and w^2.  Returns
    (holds, residual), where residual = left side - right side is the zero
    polynomial iff the identity holds.
    """
    c1w, w2, g = _slice_polynomials()
    numerator, variance = _sextic_polynomials()
    residual = c1w ** 2 * variance / 3 + 24 * g ** 2 - w2 * numerator
    return (not residual, residual)


def solve_unknown_coefficient(residual: Polynomial) -> Fraction:
    """Re-derive the beta^4*alpha*delta coefficient of D from the identity.

    `residual` is the second member of verify_identity's result.  Treating
    that single coefficient of D as an unknown c, the residual is linear in
    c: it moves by (c - shown) * slope, with shown the displayed coefficient
    and slope = (c1.w)^2 beta^4 alpha delta / 3.  The rest of D is taken as
    displayed, so the returned c does not depend on the displayed value.
    Raises ValueError when no value of c makes the identity hold (an
    inconsistent system would mean some other coefficient is wrong).
    """
    from .exactpoly import Polynomial

    shown = _sextic_polynomials()[1].coefficient(alpha=1, beta=4, delta=1)
    slope = _slice_polynomials()[0] ** 2 * Polynomial(_VARS, {(1, 4, 1): 1}) / 3
    exps, coeff = next(iter(slope.terms.items()))
    c = shown - residual.coefficient(**dict(zip(slope.variables, exps))) / coeff
    if residual + (c - shown) * slope:
        raise ValueError("inconsistent linear system: no coefficient value "
                         "satisfies the energy identity")
    return c


def _blow_down(zero: str, var: str) -> RationalFunction:
    """N/D at `zero` = 0 and the other area 1, in `var` = delta, over the lowest
    power of var both share.  The sextics are homogeneous, so filtering their
    exponent tuples is exact, and far cheaper than substitution."""
    from .exactpoly import Polynomial, RationalFunction

    iz, idelta = _VARS.index(zero), _VARS.index("delta")
    kept = [{e[idelta]: c for e, c in terms.items() if e[iz] == 0}
            for terms in (sextics.NUMERATOR, sextics.VARIANCE)]
    shared = min(min(terms) for terms in kept)
    return RationalFunction(*(Polynomial((var,), {(e - shared,): c for e, c in terms.items()})
                              for terms in kept))


def one_point_energy() -> RationalFunction:
    """Normalized energy of the 1-point surface in x = delta/alpha: N/D at
    beta = 0, alpha = 1, where x^3 divides both sextics."""
    return _blow_down("beta", "x")


def two_point_energy() -> RationalFunction:
    """Normalized energy of the 2-point surface in y = delta/beta: N/D at
    alpha = 0, beta = 1, where the sextics share no power of y."""
    return _blow_down("alpha", "y")


def gauss_bonnet_residual(k: int, normalized_energy):
    """3 * (A/96pi^2) - (2 chi + 3 tau): the trace-free Ricci energy
    (1/8pi^2) int |r0|^2 of the k-point blow-up.

    Zero exactly when a would-be extremal representative is Kahler-Einstein.
    """
    s = delpezzo.make_surface(k)
    return 3 * normalized_energy - (2 * s.euler + 3 * s.signature)
