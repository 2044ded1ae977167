"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction`, terms live in a dict keyed by
exponent tuples, and every ring operation stays exact.  A dense univariate
layer provides Sturm chains over primitive integer coefficients (built by
integer pseudo-division; a chain's last member is gcd(p, p')), certified
root counting on half-open intervals, and bisection brackets whose endpoints
remain exact rationals.  Signs are taken by integer Horner evaluation.
Refinement takes one float Newton proposal as its bracket once two exact
signs accept it, so that float sets where bisection starts; Newton then runs
once on scaled integers to an enclosure two exact signs certify, and every
sign bisection reads is evaluated exactly or taken from that enclosure.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from math import ceil, gcd, isfinite, lcm, log2
from operator import index


class Polynomial:
    """Multivariate polynomial with exact rational coefficients.

    Canonical form: variable names sorted, variables absent from every term
    dropped, zero coefficients dropped.  The constructor alone makes it and
    every operation returns through it, so two polynomials are equal iff
    their canonical forms coincide: `x + y - y == x` however either side was
    built.  Instances are treated as immutable.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms: Mapping | None = None):
        vs = tuple(str(v) for v in variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names: {vs!r}")
        tm: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in (terms or {}).items():
            key = tuple(map(index, exps))
            if len(key) != len(vs):
                raise ValueError(f"exponent tuple {key!r} does not match variables {vs!r}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key!r}")
            c = Fraction(coef)
            if c:
                tm[key] = c
        # the variables some term uses, sorted by name; no terms leaves none
        order = sorted((i for i in range(len(vs)) if any(e[i] for e in tm)), key=vs.__getitem__)
        if order != list(range(len(vs))):
            vs = tuple(vs[i] for i in order)
            tm = {tuple(e[i] for i in order): c for e, c in tm.items()}
        self.variables = vs
        self.terms = tm

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: int | Fraction) -> "Polynomial":
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
            out[e] = out.get(e, 0) + c
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
                out[key] = out.get(key, 0) + c1 * c2
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
        n = index(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(1)
        for _ in range(n):
            out = out * self
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

    def eval(self, point: Mapping[str, int | Fraction]) -> Fraction:
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

    def substitute(self, bindings: Mapping[str, Polynomial | int | Fraction]) -> "Polynomial":
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

    def coefficient(self, **exponents: int) -> Fraction:
        """Coefficient of the monomial with the named exponents (others 0)."""
        for name, e in exponents.items():
            if e and name not in self.variables:
                return Fraction(0)
        key = tuple(exponents.get(v, 0) for v in self.variables)
        return self.terms.get(key, Fraction(0))

    def __repr__(self) -> str:
        return f"Polynomial({self.variables!r}, {self.terms!r})"


def symbols(names: str) -> tuple[Polynomial, ...]:
    """Build variable polynomials from a space- or comma-separated list."""
    return tuple(Polynomial.variable(n) for n in names.replace(",", " ").split())


class RationalFunction:
    """Quotient of two polynomials; no gcd cancellation is attempted."""

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

    def eval(self, point: Mapping[str, int | Fraction]) -> Fraction:
        den = self.denominator.eval(point)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at {dict(point)!r}")
        return self.numerator.eval(point) / den

    def derivative_numerator(self, var: str) -> Polynomial:
        """n' d - n d', the numerator of the quotient rule; its sign is that of
        the derivative wherever d != 0, since the denominator d^2 is positive."""
        n, d = self.numerator, self.denominator
        return n.partial(var) * d - n * d.partial(var)


# -- dense univariate layer --------------------------------------------------
#
# Coefficient lists are indexed by exponent and trimmed; [] is the zero
# polynomial.  `_u_primitive` turns rational coefficients into coprime
# integers; everything after it (division, Sturm chain, and the squarefree
# part, p over its chain's last member) stays in integers, made primitive at
# every step, which changes no sign and keeps coefficient growth down.


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


def _u_trim(cs: list) -> list:
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


def _u_deriv(cs: list[int]) -> list[int]:
    return [i * cs[i] for i in range(1, len(cs))]


def _u_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Integer pseudo-division: (quot, rem) with s * num = quot * den + rem.

    Each step scales num by |lead(den)| / gcd(top, lead(den)), so s > 0:
    quot and rem are s times the rational quotient and remainder, and every
    sign is kept.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        top = num[i + len(den) - 1]
        if top:
            g = gcd(top, lead)
            # scale * top == f * lead with scale > 0
            scale, f = abs(lead) // g, (top if lead > 0 else -top) // g
            if scale != 1:
                num = [scale * c for c in num]
                quot = [scale * c for c in quot]
            quot[i] = f
            for j, dc in enumerate(den):
                num[i + j] -= f * dc
    return quot, _u_trim(num[: len(den) - 1])


def _u_primitive(cs) -> list[int]:
    """Scale rational coefficients by a positive factor to coprime integers."""
    cs = _u_trim(list(cs))
    if not cs:
        return []
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*ints)
    return [v // g for v in ints]


def sturm_chain(cs: list[int]) -> list[list[int]]:
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


def _u_sign(cs: list[int], x: Fraction) -> int:
    """Sign of the integer-coefficient polynomial cs at the rational x."""
    return _sign(_u_hom(cs, x.numerator, x.denominator))


def _variations(chain, x: Fraction) -> tuple[int, bool]:
    """(sign variations of the chain at x, whether x is a root of its first member)."""
    signs = [_u_sign(cs, x) for cs in chain]
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b), not signs[0]


def _sturm_setup(p: Polynomial, interval):
    """(low, high, q, chain): the interval as fractions, the primitive
    squarefree part q of p (p over the last member of its own chain), and
    q's Sturm chain.  A nonzero constant p gives the chain [[1]] or [[-1]],
    which has no sign variations anywhere."""
    lo, hi = (Fraction(x) for x in interval)
    if lo >= hi:
        raise ValueError(f"degenerate interval: low {lo} >= high {hi}")
    chain = sturm_chain(univariate_coefficients(p))
    g = chain[-1]
    if len(g) == 1:
        return lo, hi, chain[0], chain
    # g is gcd(p, p') up to sign; a positive lead keeps the sign of p in q
    quot, rem = _u_divmod(chain[0], g if g[-1] > 0 else [-c for c in g])
    assert not rem
    q = _u_primitive(quot)
    return lo, hi, q, sturm_chain(q)


def count_real_roots(p: Polynomial, interval) -> int:
    """Number of distinct real roots in the half-open interval (low, high]."""
    lo, hi, _, chain = _sturm_setup(p, interval)
    return _variations(chain, lo)[0] - _variations(chain, hi)[0]


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """1 + max|a_i| / |a_n|: every real root lies inside [-bound, bound]."""
    cs = univariate_coefficients(p)
    if len(cs) <= 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(cs[-1])
    return 1 + max(abs(c) for c in cs[:-1]) / lead


class RootBracket(namedtuple("RootBracket", "low high")):
    """Certified enclosure of one real root, by two Fractions.

    The squarefree part of the isolated polynomial has opposite nonzero signs
    at low and high; low == high marks an exact rational root.
    """

    __slots__ = ()

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


def _shared_denominator(lo: Fraction, hi: Fraction, den: int = 1) -> tuple[int, int, int]:
    """(L, H, D) with lo = L/D, hi = H/D and den dividing D."""
    D = lcm(lo.denominator, hi.denominator, den)
    return lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator), D


#: the integer Newton estimate X / 2^p is certified at X -/+ 2^_GUARD_BITS
_GUARD_BITS = 24


def _newton_enclosure(q, lo: Fraction, hi: Fraction, s_hi: int, seed: Fraction, digits: int):
    """(L, H, el, eh, D): lo = L/D, hi = H/D and an enclosure (el/D, eh/D).

    Newton runs on scaled integers X / 2^p from `seed`, p doubling per step up
    to the bits that resolve 10^-digits at the root's scale plus a guard, and
    takes one more step at full precision.  (lo, hi) holds one simple root, so
    the window (X -/+ 2^24) / 2^p, clipped to (lo, hi), holds it if q has sign
    -s_hi at its left end and s_hi at its right end, and is kept only then;
    otherwise the enclosure is (lo, hi) itself.  The bracket must exclude 0.
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
            or el > L and _sign(_u_hom(q, x - guard, 1 << bits)) != -s_hi
            or eh < H and _sign(_u_hom(q, x + guard, 1 << bits)) != s_hi):
        return L, H, L, H, D
    return L, H, max(el, L), min(eh, H), D


def _refine_bracket(q, lo: Fraction, hi: Fraction, root_at_low: bool,
                   digits: int) -> RootBracket:
    """Shrink an isolating interval (lo, hi] of squarefree q to `digits`.

    q has coprime integer coefficients.  (lo, hi] holds exactly one root of q,
    and that root is simple, so q has sign -q(hi) just right of lo and is
    evaluated at hi, never at lo.  If lo is a root too (`root_at_low`, known
    from isolation), the stop rule and the float proposal wait until low moves
    off it.  Bisection stops once high - low <= 10^(e - digits), e the decimal
    exponent of max(|low|, |high|).  When the bracket first reaches 2^-20 of
    its magnitude, a float Newton root is tried as the centre of a narrower
    bracket, kept only if q changes sign across it, and `_newton_enclosure`
    runs once to certify a much smaller window around the root.  Bisection goes
    on to the end: a midpoint left of the window takes the sign at low, one
    right of it the sign at high, and every other midpoint (all of them if no
    window was certified) is evaluated exactly.  So every sign is exact, and
    bisection starts from the float proposal's bracket once exact signs accept
    it: the result is not plain bisection's.  Endpoints are integer numerators
    over one denominator.  A root at 0 inside (lo, hi) comes back exact; no
    bracket around 0 meets the stop rule.
    """
    s_hi = _u_sign(q, hi)
    if s_hi == 0:
        return RootBracket(hi, hi)
    s_lo = -s_hi
    if lo < 0 < hi and q[0] == 0:
        # the one root in (lo, hi] is 0, which bisection may never land on
        return RootBracket(Fraction(0), Fraction(0))

    # lo = L/D, hi = H/D; midpoints strictly inside (el/D, eh/D) are evaluated
    L, H, D = _shared_denominator(lo, hi)
    el, eh = L, H
    exp = None
    tried = False
    while True:
        mag = max(abs(L), abs(H))
        if exp is None or mag * 10 ** max(-exp, 0) < D * 10 ** max(exp, 0):
            # the bracket was rescaled, or max(|lo|, |hi|) fell below 10^exp;
            # H - L stays fixed while bisecting, only D doubles
            exp = _decimal_exponent(Fraction(mag, D))
            width = (H - L) * 10 ** max(digits - exp, 0)
            unit = 10 ** max(exp - digits, 0)
        if width <= D * unit and not root_at_low:
            break
        if not tried and not root_at_low and (H - L) << 20 <= mag:
            tried = True
            lo, hi = Fraction(L, D), Fraction(H, D)
            seed = (lo + hi) / 2
            x = _float_newton(q, float(seed))
            if x is not None:
                c = Fraction(x)
                half = max(Fraction(10) ** (exp - digits), Fraction(mag, D << 44)) / 2
                a, b = c - half, c + half
                if lo < a and b < hi:
                    sa = _u_sign(q, a)
                    if sa == 0:
                        return RootBracket(a, a)
                    sb = _u_sign(q, b)
                    if sb == 0:
                        return RootBracket(b, b)
                    if sa != sb:
                        lo, hi, seed = a, b, c
            L, H, el, eh, D = _newton_enclosure(q, lo, hi, s_hi, seed, digits)
            exp = None
            continue
        mid = L + H
        L, H, el, eh, D = L << 1, H << 1, el << 1, eh << 1, D << 1
        if mid <= el:
            s_mid = s_lo
        elif mid >= eh:
            s_mid = s_hi
        else:
            s_mid = _sign(_u_hom(q, mid, D))
            if s_mid == 0:
                root = Fraction(mid, D)
                return RootBracket(root, root)
        if s_mid == s_lo:
            L, root_at_low = mid, False
        else:
            H = mid
    return RootBracket(Fraction(L, D), Fraction(H, D))


def isolate_real_roots(p: Polynomial, interval, digits: int = 12) -> list[RootBracket]:
    """Certified brackets for every distinct real root of p in (low, high].

    Counting uses a Sturm chain of the squarefree part, so multiple roots are
    reported once.  Brackets come back in ascending order, each refined until
    high - low <= 10^(floor(log10 |root|) - digits).
    """
    digits = int(digits)
    if digits < 1:
        raise ValueError("digits must be >= 1")
    lo, hi, q, chain = _sturm_setup(p, interval)
    brackets: list[RootBracket] = []
    # (a, b, variations at a, whether a is a root, variations at b): (a, b]
    # holds v_a - v_b roots; the left half pops first, so brackets ascend
    stack = [(lo, hi, *_variations(chain, lo), _variations(chain, hi)[0])]
    while stack:
        a, b, v_a, root_a, v_b = stack.pop()
        if v_a - v_b == 1:
            brackets.append(_refine_bracket(q, a, b, root_a, digits))
        elif v_a - v_b > 1:
            m = (a + b) / 2
            v_m, root_m = _variations(chain, m)
            stack += [(m, b, v_m, root_m, v_b), (a, m, v_a, root_a, v_m)]
    return brackets
