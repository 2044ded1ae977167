"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction`, terms live in a dict keyed by
exponent tuples, and every ring operation stays exact.  A dense univariate
layer provides Sturm chains, certified root counting on half-open
intervals, and bisection brackets whose endpoints remain exact rationals.
Signs are taken by integer Horner evaluation.  Refinement proposes one
float Newton bracket, then runs Newton on scaled integers to a root
enclosure that two exact signs certify; bisection reads the sign of every
midpoint outside that enclosure from its side, so no float result and no
unchecked Newton estimate ever decides a bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, isfinite, lcm, log2
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class _AnyDegree:
    """Degree sentinel for the zero polynomial (homogeneous of any degree)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ANY_DEGREE"


ANY_DEGREE = _AnyDegree()


class Polynomial:
    """Multivariate polynomial with exact rational coefficients.

    Canonical form: variable names sorted, variables absent from every term
    dropped, zero coefficients dropped.  Two polynomials are equal iff their
    canonical forms coincide, so `x + y - y == x` regardless of how either
    side was built.  Instances are treated as immutable.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms: Mapping | None = None):
        vs = tuple(str(v) for v in variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names: {vs!r}")
        tm: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != len(vs):
                raise ValueError(f"exponent tuple {key!r} does not match variables {vs!r}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key!r}")
            c = Fraction(coef)
            if c:
                tm[key] = c
        if vs and tm:
            used = [any(e[i] for e in tm) for i in range(len(vs))]
            if not all(used):
                keep = [i for i, u in enumerate(used) if u]
                vs = tuple(vs[i] for i in keep)
                tm = {tuple(e[i] for i in keep): c for e, c in tm.items()}
            order = sorted(range(len(vs)), key=lambda i: vs[i])
            if order != list(range(len(vs))):
                vs = tuple(vs[i] for i in order)
                tm = {tuple(e[i] for i in order): c for e, c in tm.items()}
        elif not tm:
            vs = ()
        self.variables = vs
        self.terms = tm

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((), {(): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls((name,), {(1,): Fraction(1)})

    @staticmethod
    def _coerce(value):
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def _aligned(self, other: "Polynomial"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = tuple(sorted(set(self.variables) | set(other.variables)))

        def remap(vs, terms):
            pos = [merged.index(v) for v in vs]
            out = {}
            for exps, c in terms.items():
                key = [0] * len(merged)
                for p, e in zip(pos, exps):
                    key[p] = e
                out[tuple(key)] = c
            return out

        return merged, remap(self.variables, self.terms), remap(other.variables, other.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vs, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vs, a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Polynomial(vs, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar division only; polynomial quotients live in RationalFunction
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and evaluation --------------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative; a symbol absent from the support gives 0."""
        if var not in self.variables:
            return Polynomial.zero()
        i = self.variables.index(var)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
        return Polynomial(self.variables, out)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point; every variable must be bound."""
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for v, e in zip(self.variables, exps):
                if e:
                    val *= Fraction(point[v]) ** e
            total += val
        return total

    def substitute(self, bindings: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Replace symbols by polynomials or rationals; unbound symbols persist."""
        out = Polynomial.zero()
        for exps, c in self.terms.items():
            term = Polynomial.constant(c)
            for v, e in zip(self.variables, exps):
                if not e:
                    continue
                repl = bindings.get(v)
                base = Polynomial.variable(v) if repl is None else self._coerce(repl)
                if base is NotImplemented:
                    raise TypeError(f"cannot substitute {bindings[v]!r} for {v}")
                term = term * base ** e
            out = out + term
        return out

    # -- structure ----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self):
        """Common total degree of all terms, None if mixed, ANY_DEGREE for 0."""
        if not self.terms:
            return ANY_DEGREE
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def coefficient(self, **exponents: int) -> Fraction:
        """Coefficient of the monomial with the named exponents (others 0)."""
        for name, e in exponents.items():
            if e and name not in self.variables:
                return Fraction(0)
        key = tuple(exponents.get(v, 0) for v in self.variables)
        return self.terms.get(key, Fraction(0))

    def sorted_terms(self):
        """Terms in graded-lexicographic descending order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps) if e
            )
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            bits.append(piece)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def symbols(names: str) -> tuple[Polynomial, ...]:
    """Build variable polynomials from a space- or comma-separated list."""
    return tuple(Polynomial.variable(n) for n in names.replace(",", " ").split())


class RationalFunction:
    """Quotient of two polynomials.

    No gcd cancellation is attempted: equality is decided by
    cross-multiplication, which is exact and needs no factorization.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=1):
        n = Polynomial._coerce(numerator)
        d = Polynomial._coerce(denominator)
        if n is NotImplemented or d is NotImplemented:
            raise TypeError("numerator and denominator must be polynomials or rationals")
        if not d:
            raise ZeroDivisionError("zero denominator")
        self.numerator = n
        self.denominator = d

    @staticmethod
    def _coerce(value):
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (Polynomial, int, Fraction)):
            return RationalFunction(value)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.numerator:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.numerator * other.denominator,
                                self.denominator * other.numerator)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        den = self.denominator.eval(point)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at {dict(point)!r}")
        return self.numerator.eval(point) / den

    def substitute(self, bindings) -> "RationalFunction":
        return RationalFunction(self.numerator.substitute(bindings),
                                self.denominator.substitute(bindings))

    def derivative(self, var: str) -> "RationalFunction":
        n, d = self.numerator, self.denominator
        return RationalFunction(n.partial(var) * d - n * d.partial(var), d * d)

    def __str__(self) -> str:
        if self.denominator == Polynomial.constant(1):
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# -- dense univariate layer --------------------------------------------------
#
# Coefficient lists are indexed by exponent and trimmed; [] is the zero
# polynomial.  Sturm chains are normalized to primitive integer content at
# every step, which changes no sign anywhere and keeps coefficient growth down.


def univariate_coefficients(p: Polynomial) -> list[Fraction]:
    """Dense coefficient list (index = exponent) of a univariate polynomial."""
    if len(p.variables) > 1:
        raise ValueError(f"polynomial in {p.variables!r} is not univariate")
    if not p.terms:
        return []
    if not p.variables:
        return [p.terms[()]]
    deg = max(e[0] for e in p.terms)
    cs = [Fraction(0)] * (deg + 1)
    for (e,), c in p.terms.items():
        cs[e] = c
    return cs


def _u_trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _u_hom(cs, num: int, den: int) -> int:
    """den^n * p(num / den) for the integer coefficients cs of degree n."""
    acc = cs[-1]
    scale = 1
    for c in cs[-2::-1]:
        scale *= den
        acc = acc * num + c * scale
    return acc


def _u_deriv(cs) -> list[Fraction]:
    return [i * cs[i] for i in range(1, len(cs))]


def _u_divmod(num, den):
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    if len(num) < len(den):
        return [], _u_trim(num)
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        f = num[i + len(den) - 1] / lead
        if f:
            quot[i] = f
            for j, dc in enumerate(den):
                num[i + j] -= f * dc
    return quot, _u_trim(num[: len(den) - 1])


def _u_primitive(cs) -> list[Fraction]:
    """Scale to coprime integer coefficients; signs are preserved."""
    cs = _u_trim(list(cs))
    if not cs:
        return []
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in cs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [Fraction(v // g) for v in ints]


def _u_gcd(a, b) -> list[Fraction]:
    a, b = _u_primitive(a), _u_primitive(b)
    while b:
        _, r = _u_divmod(a, b)
        a, b = b, _u_primitive(r)
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _u_squarefree(cs) -> list[Fraction]:
    """Primitive squarefree part; keeps the sign of the leading coefficient."""
    cs = _u_primitive(cs)
    if len(cs) <= 2:
        return cs
    g = _u_gcd(cs, _u_deriv(cs))
    if len(g) == 1:
        return cs
    quot, rem = _u_divmod(cs, g)
    assert not rem
    return _u_primitive(quot)


def sturm_chain(cs) -> list[list[Fraction]]:
    """Sturm chain (negated-remainder cascade) of a nonzero polynomial."""
    first = _u_primitive(cs)
    if not first:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [first]
    d = _u_primitive(_u_deriv(first))
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        _, r = _u_divmod(chain[-2], chain[-1])
        r = _u_primitive([-c for c in r])
        if not r:
            break
        chain.append(r)
    return chain


def _sign(x) -> int:
    return 0 if x == 0 else (1 if x > 0 else -1)


def _u_sign(cs, x) -> int:
    """Sign of the integer-coefficient polynomial cs at the rational x."""
    return _sign(_u_hom(cs, x.numerator, x.denominator))


def _integer_sturm_chain(q) -> list[list[int]]:
    return [[int(c) for c in cs] for cs in sturm_chain(q)]


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (_u_sign(cs, x) for cs in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Polynomial, interval) -> int:
    """Number of distinct real roots in the half-open interval (low, high]."""
    lo, hi = (Fraction(x) for x in interval)
    if lo >= hi:
        raise ValueError(f"degenerate interval: low {lo} >= high {hi}")
    cs = univariate_coefficients(p)
    if not cs:
        raise ValueError("root count of the zero polynomial is undefined")
    if len(cs) == 1:
        return 0
    chain = _integer_sturm_chain(_u_squarefree(cs))
    return _variations(chain, lo) - _variations(chain, hi)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """1 + max|a_i| / |a_n|: every real root lies inside [-bound, bound]."""
    cs = _u_trim(univariate_coefficients(p))
    if len(cs) <= 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(cs[-1])
    return 1 + max(abs(c) for c in cs[:-1]) / lead


@dataclass(frozen=True)
class RootBracket:
    """Certified enclosure of one real root.

    The squarefree part of the isolated polynomial has opposite nonzero signs
    at low and high; low == high marks an exact rational root.  `refined` is
    the decimal of the bracket midpoint to the requested significant digits.
    """

    low: Fraction
    high: Fraction
    refined: str

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2


def _decimal_exponent(x: Fraction) -> int:
    """The e with 10^e <= x < 10^(e+1); requires x > 0."""
    n, d = x.numerator, x.denominator
    # log10(2) times the bit-length gap is within two of the answer, and the
    # loops below make it exact; str(n) would fail past 4300 digits
    e = int((n.bit_length() - d.bit_length()) * 0.30102999566398120)

    def ge(k: int) -> bool:
        return n * 10 ** max(0, -k) >= d * 10 ** max(0, k)

    while not ge(e):
        e -= 1
    while ge(e + 1):
        e += 1
    return e


def fraction_to_decimal(x, digits: int = 12) -> str:
    """Decimal string of x rounded to `digits` significant figures.

    Rounding is half-away-from-zero on exact integers, so the output is
    deterministic.  Plain positional notation is used for moderate exponents,
    otherwise a compact exponent form like 3.2e-7.
    """
    digits = int(digits)
    if digits < 1:
        raise ValueError("digits must be >= 1")
    x = Fraction(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    ax = -x if x < 0 else x
    e = _decimal_exponent(ax)
    shift = digits - 1 - e
    n, d = ax.numerator, ax.denominator
    if shift >= 0:
        num, den = n * 10 ** shift, d
    else:
        num, den = n, d * 10 ** (-shift)
    q, r = divmod(num, den)
    if 2 * r >= den:
        q += 1
    s = str(q)
    if len(s) == digits + 1:
        # rounding carried into a new leading digit (e.g. 99.96 -> 100)
        e += 1
        s = s[:digits]
    if -4 <= e < digits:
        if e >= 0:
            int_part, frac_part = s[: e + 1], s[e + 1:]
        else:
            int_part, frac_part = "0", "0" * (-e - 1) + s
        frac_part = frac_part.rstrip("0")
        return sign + int_part + ("." + frac_part if frac_part else "")
    mant = s.rstrip("0")
    head, tail = mant[0], mant[1:]
    return sign + head + ("." + tail if tail else "") + f"e{'+' if e >= 0 else '-'}{abs(e)}"


def _float_newton(cs, seed: float) -> float | None:
    """Float Newton iteration used only to propose candidate cut points."""
    dcs = _u_deriv(cs)
    try:
        fcs = [float(c) for c in cs]
        fds = [float(c) for c in dcs]
        x = float(seed)
    except OverflowError:
        return None

    def horner(coeffs, t):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    for _ in range(80):
        fx = horner(fcs, x)
        dfx = horner(fds, x)
        if not isfinite(fx) or not isfinite(dfx) or dfx == 0.0:
            return None
        step = fx / dfx
        x_new = x - step
        if not isfinite(x_new):
            return None
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


def _exact_root(x: Fraction, digits: int) -> RootBracket:
    return RootBracket(x, x, fraction_to_decimal(x, digits))


def _shared_denominator(lo: Fraction, hi: Fraction, den: int = 1) -> tuple[int, int, int]:
    """(L, H, D) with lo = L/D, hi = H/D and den dividing D."""
    D = lcm(lo.denominator, hi.denominator, den)
    return lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator), D


#: the integer Newton estimate X / 2^p is certified at X -/+ 2^_GUARD_BITS
_GUARD_BITS = 24


def _newton_enclosure(q, lo: Fraction, hi: Fraction, s_lo: int, s_hi: int,
                      seed: Fraction, digits: int):
    """(L, H, el, eh, D): lo = L/D, hi = H/D and an enclosure (el/D, eh/D).

    Newton runs on scaled integers X / 2^p from `seed`, p doubling per step up
    to the bits that resolve 10^-digits at the root's scale plus a guard, and
    takes one more step at full precision.  The window (X -/+ 2^24) / 2^p,
    clipped to (lo, hi), is kept only if q has sign s_lo at its left end and
    s_hi at its right end; the one root of q in (lo, hi) then lies inside it.
    Otherwise the enclosure is (lo, hi) itself.  The bracket must exclude 0.
    """
    # the stop rule's exponent is never below that of min(|lo|, |hi|)
    smallest = min(abs(lo), abs(hi))
    bits = max(1, ceil((digits - _decimal_exponent(smallest)) * log2(10)) + _GUARD_BITS + 8)
    L, H, D = _shared_denominator(lo, hi, 1 << bits)
    # Newton doubles the bits relative to the root, so plan them relative to
    # its size; 16 spare bits per level absorb the curvature and rounding
    size = hi.numerator.bit_length() - hi.denominator.bit_length()
    width = hi - lo
    seed_bits = width.denominator.bit_length() - width.numerator.bit_length() + size
    plan = [bits]
    while plan[-1] + size > max(seed_bits, 48):
        plan.append((plan[-1] + size) // 2 + 16 - size)
    dq = _u_deriv(q)
    p = max(plan[-1], 0)
    x = (seed.numerator << p) // seed.denominator
    for nxt in [*reversed(plan), bits]:
        nxt = max(nxt, 0)
        x <<= nxt - p
        p = nxt
        slope = _u_hom(dq, x, 1 << p)
        if slope == 0:
            return L, H, L, H, D
        x -= _u_hom(q, x, 1 << p) // slope
    guard = 1 << _GUARD_BITS
    el, eh = (x - guard) * (D >> bits), (x + guard) * (D >> bits)
    if (eh <= L or el >= H
            or el > L and _sign(_u_hom(q, x - guard, 1 << bits)) != s_lo
            or eh < H and _sign(_u_hom(q, x + guard, 1 << bits)) != s_hi):
        return L, H, L, H, D
    return L, H, max(el, L), min(eh, H), D


def _refine_bracket(q, lo: Fraction, hi: Fraction, digits: int) -> RootBracket:
    """Shrink an isolating interval (lo, hi] of squarefree q to `digits`.

    q has coprime integer coefficients.  Bisection stops once
    high - low <= 10^(e - digits), e the decimal exponent of max(|low|, |high|).
    When the bracket is down to 2^-20 of its size, a float Newton root is
    tried as the centre of a narrower bracket, kept only if q changes sign
    across it, and `_newton_enclosure` certifies a much smaller window around
    the root; when it cannot, it is tried once more from the midpoint after
    20 further halvings.  Bisection then goes on to the end: a midpoint left
    of the window takes the sign at low, one right of it the sign at high,
    and only a midpoint inside it is evaluated exactly.  Every sign is therefore
    exact, and the bracket is the one plain bisection returns.  Endpoints are
    kept as integer numerators over one denominator.
    """
    s_hi = _u_sign(q, hi)
    if s_hi == 0:
        return _exact_root(hi, digits)
    s_lo = _u_sign(q, lo)
    while s_lo == 0:
        # lo is a root of q outside (lo, hi]; walk inward until signs split
        mid = (lo + hi) / 2
        s_mid = _u_sign(q, mid)
        if s_mid == 0:
            return _exact_root(mid, digits)
        if s_mid != s_hi:
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid

    # lo = L/D, hi = H/D; midpoints strictly inside (el/D, eh/D) are evaluated
    L, H, D = _shared_denominator(lo, hi)
    el, eh = L, H
    exp = None
    tried_newton = False
    retry_in = None  # bisection steps until an uncertified enclosure is retried
    for _ in range(128 + 8 * digits):
        mag = max(abs(L), abs(H))
        if exp is None or mag * 10 ** max(-exp, 0) < D * 10 ** max(exp, 0):
            # the bracket was rescaled, or max(|lo|, |hi|) fell below 10^exp;
            # H - L stays fixed while bisecting, only D doubles
            exp = _decimal_exponent(Fraction(mag, D))
            width = (H - L) * 10 ** max(digits - exp, 0)
            unit = 10 ** max(exp - digits, 0)
        if width <= D * unit:
            break
        if not tried_newton and (H - L) << 20 <= mag:
            tried_newton = True
            lo, hi = Fraction(L, D), Fraction(H, D)
            seed = (lo + hi) / 2
            x = _float_newton(q, float(seed))
            jumped = False
            if x is not None:
                c = Fraction(x)
                half = max(Fraction(10) ** (exp - digits), Fraction(mag, D << 44)) / 2
                a, b = c - half, c + half
                if lo < a and b < hi:
                    sa = _u_sign(q, a)
                    if sa == 0:
                        return _exact_root(a, digits)
                    sb = _u_sign(q, b)
                    if sb == 0:
                        return _exact_root(b, digits)
                    if sa != sb:
                        lo, hi, s_lo, s_hi, seed, jumped = a, b, sa, sb, c, True
            L, H, el, eh, D = _newton_enclosure(q, lo, hi, s_lo, s_hi, seed, digits)
            exp = None
            if (el, eh) == (L, H):
                # Newton went to a root just outside the bracket; retry once
                # the bracket is 2^20 times smaller, so that root lies
                # relatively farther from the seed
                retry_in = 20
            if jumped:
                continue
        elif retry_in == 0:
            retry_in = None
            lo, hi = Fraction(L, D), Fraction(H, D)
            L, H, el, eh, D = _newton_enclosure(q, lo, hi, s_lo, s_hi, (lo + hi) / 2, digits)
            exp = None
        mid = L + H
        L, H, el, eh, D = L << 1, H << 1, el << 1, eh << 1, D << 1
        if mid <= el:
            s_mid = s_lo
        elif mid >= eh:
            s_mid = s_hi
        else:
            s_mid = _sign(_u_hom(q, mid, D))
            if s_mid == 0:
                return _exact_root(Fraction(mid, D), digits)
        if s_mid == s_lo:
            L = mid
        else:
            H = mid
        if retry_in:
            retry_in -= 1
    lo, hi = Fraction(L, D), Fraction(H, D)
    return RootBracket(lo, hi, fraction_to_decimal((lo + hi) / 2, digits))


def isolate_real_roots(p: Polynomial, interval, digits: int = 12) -> list[RootBracket]:
    """Certified brackets for every distinct real root of p in (low, high].

    Counting uses a Sturm chain of the squarefree part, so multiple roots are
    reported once.  Brackets come back in ascending order, each refined until
    high - low <= 10^(floor(log10 |root|) - digits).
    """
    lo, hi = (Fraction(x) for x in interval)
    if lo >= hi:
        raise ValueError(f"degenerate interval: low {lo} >= high {hi}")
    digits = int(digits)
    if digits < 1:
        raise ValueError("digits must be >= 1")
    cs = univariate_coefficients(p)
    if not cs:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if len(cs) == 1:
        return []
    q = [int(c) for c in _u_squarefree(cs)]
    chain = _integer_sturm_chain(q)
    var_cache: dict[Fraction, int] = {}

    def variations(x: Fraction) -> int:
        if x not in var_cache:
            var_cache[x] = _variations(chain, x)
        return var_cache[x]

    isolated: list[tuple[Fraction, Fraction]] = []

    def walk(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            isolated.append((a, b))
            return
        m = (a + b) / 2
        left = variations(a) - variations(m)
        walk(a, m, left)
        walk(m, b, count - left)

    walk(lo, hi, variations(lo) - variations(hi))
    return [_refine_bracket(q, a, b, digits) for a, b in isolated]
