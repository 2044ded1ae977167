"""Certified critical classes of the one- and two-point energies.

Each class is the one critical point of a univariate quotient f = n/d on
(0, 10^4], certified in exact arithmetic by four checks: (1) d has no root
there; (2) Sturm isolation finds exactly one root of g = n'd - nd' there;
(3) the Cauchy bound of g is at most 10^4, so no root lies past the
truncation; (4) g is negative at the low end of that root's bracket and
positive at the high end, so the point is a minimum.  The reports hold exact
values only, and the CLI renders them.  The exact gradient of the
three-point slice energy is here as well; the float scan is in `scan`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import delpezzo, energy
from .exactpoly import (
    RationalFunction,
    _u_primitive,
    _u_sign,
    cauchy_root_bound,
    count_real_roots,
    isolate_real_roots,
    univariate_coefficients,
)

#: truncation of (0, infinity) domains; certified by the Cauchy root bound
DEFAULT_SEARCH_BOUND = 10 ** 4


class CriticalPointResult(namedtuple("CriticalPointResult",
                                     "variable bracket classification")):
    """The certified critical point of a univariate rational function: the
    variable's name, its RootBracket, and the classification, always
    "local-min"; any other point is refused."""

    __slots__ = ()


class CriticalClassReport(namedtuple("CriticalClassReport", (
        "k critical normalized_energy residual root_count search_bound "
        "derivative_root_bound"))):
    """Critical class of the k-point energy plus its certificates: every
    field but k, root_count and critical is a Fraction."""

    __slots__ = ()

    @property
    def line_to_exceptional_ratio(self) -> Fraction:
        """H.w / E.w of the class (k b + delta; b, ...): k + delta/b."""
        return self.k + self.critical.bracket.midpoint


def _critical_class(k: int, f: RationalFunction, digits: int) -> CriticalClassReport:
    """The k-point critical class from the quotient f, refined to `digits`.

    Raises ArithmeticError unless the four checks of the module docstring
    pass; an exact rational root (low == high, g = 0 there) fails check (4).
    """
    var, = set(f.numerator.variables) | set(f.denominator.variables)
    domain = (0, DEFAULT_SEARCH_BOUND)
    if count_real_roots(f.denominator, domain):
        raise ArithmeticError("denominator has a root inside the domain")
    g = f.derivative_numerator(var)
    brackets = isolate_real_roots(g, domain, digits)
    if len(brackets) != 1:
        raise ArithmeticError(f"expected one critical point, got {len(brackets)}")
    bound = cauchy_root_bound(g)
    if bound > DEFAULT_SEARCH_BOUND:
        raise ArithmeticError("truncation bound does not dominate the root bound")
    br = brackets[0]
    # g scaled by a positive factor to coprime integers: same signs, integer Horner
    g_ints = _u_primitive(univariate_coefficients(g))
    if not _u_sign(g_ints, br.low) < 0 < _u_sign(g_ints, br.high):
        raise ArithmeticError(f"expected g to change sign from - to + across {br!r}")
    value = f.eval({var: br.midpoint})
    return CriticalClassReport(
        k=k,
        critical=CriticalPointResult(variable=var, bracket=br, classification="local-min"),
        normalized_energy=value,
        residual=energy.gauss_bonnet_residual(k, value),
        # one bracket per distinct root of g in the domain: the Sturm count
        root_count=len(brackets),
        search_bound=Fraction(DEFAULT_SEARCH_BOUND),
        derivative_root_bound=bound,
    )


def page_class(digits: int = 12) -> CriticalClassReport:
    """The unique critical class of the 1-point energy (the Page class)."""
    return _critical_class(1, energy.one_point_energy(), digits)


def two_point_class(digits: int = 12) -> CriticalClassReport:
    """The unique critical class of the 2-point energy."""
    return _critical_class(2, energy.two_point_energy(), digits)


# -- exact gradient on the slice ---------------------------------------------

def gradient(alpha, beta, delta) -> tuple[Fraction, Fraction]:
    """Exact (d/d alpha, d/d delta) of the normalized energy N / D at fixed
    beta, by the quotient rule (N_v D - N D_v) / D^2 at the point."""
    alpha, beta, delta = energy.kahler_point(delpezzo.slice_surface(alpha, beta),
                                             alpha, beta, delta)
    point = {"alpha": alpha, "beta": beta, "delta": delta}
    f = energy.energy_closed_form()
    n, d = f.numerator, f.denominator
    n_at, d_at = n.eval(point), d.eval(point)
    return tuple((n.partial(v).eval(point) * d_at - n_at * d.partial(v).eval(point)) / d_at ** 2
                 for v in ("alpha", "delta"))
