"""Acceptance gate: nine go/no-go checks, one pass/fail line each.

Every check recomputes its quantities from the package, prints a single
PASS or FAIL line to the terminal, then asserts.  Exact quantities must match
exactly; decimal quantities must land inside the stated tolerance.
"""

import math
import random
import time
from fractions import Fraction

from extremal_lab import energy
from extremal_lab.critical import (
    gradient,
    page_class,
    two_point_class,
)
from extremal_lab.delpezzo import intersect, make_surface
from extremal_lab.exactpoly import (
    Polynomial,
    count_real_roots,
    isolate_real_roots,
    symbols,
    univariate_coefficients,
)
from extremal_lab.scan import _blocks, scan_three_point

TOL8 = Fraction(1, 10 ** 8)
TOL9 = Fraction(1, 10 ** 9)


def report(capsys, number, ok, text):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {text}")


def closed_value(alpha, beta, delta) -> Fraction:
    return energy.energy_closed_form().eval(
        {"alpha": Fraction(alpha), "beta": Fraction(beta), "delta": Fraction(delta)})


def test_criterion_1_energy_identity_is_exact(capsys):
    start = time.perf_counter()
    ok, residual = energy.verify_identity()
    elapsed = time.perf_counter() - start
    passed = ok and not residual and elapsed < 1.0
    report(capsys, 1, passed,
           f"energy identity residual is exactly zero ({elapsed:.3f}s)")
    assert passed


def test_criterion_2_variance_coefficient_recovery(capsys):
    coeff = energy.solve_unknown_coefficient()
    passed = coeff == 276
    report(capsys, 2, passed, f"recovered variance coefficient {coeff} == 276")
    assert passed


def test_criterion_3_one_point_critical_class(capsys):
    rep = page_class()
    x = rep.critical.bracket.midpoint
    err_x = abs(x - Fraction("2.183933404"))
    err_r = abs(x + 1 - Fraction("3.183933404"))
    passed = (err_x <= TOL8 and err_r <= TOL8 and rep.root_count == 1
              and rep.critical.classification == "local-min")
    report(capsys, 3, passed,
           f"one-point critical parameter 2.183933404 (err {float(err_x):.2e} <= 1e-8), "
           f"ratio 3.183933404 (err {float(err_r):.2e}), unique root on (0, 10^4]")
    assert passed


def test_criterion_4_two_point_critical_class(capsys):
    rep = two_point_class()
    y = rep.critical.bracket.midpoint
    err_y = abs(y - Fraction("0.9577128052"))
    err_r = abs(y + 2 - Fraction("2.9577128052"))
    three = 3 * rep.normalized_energy
    err_3 = abs(three - Fraction("7.136474469"))
    err_d = abs(rep.residual - Fraction("0.136474469"))
    passed = (err_y <= TOL9 and err_r <= TOL9 and err_3 <= TOL8 and err_d <= TOL8
              and rep.root_count == 1)
    report(capsys, 4, passed,
           f"two-point critical parameter 0.9577128052 (err {float(err_y):.2e} <= 1e-9), "
           f"3x energy 7.136474469 (err {float(err_3):.2e} <= 1e-8), "
           f"deficit 0.136474469 (err {float(err_d):.2e} <= 1e-8)")
    assert passed


def test_criterion_5_anticanonical_point_is_exact(capsys):
    breakdown = energy.energy_composed(1, 1, 0)
    residual = energy.gauss_bonnet_residual(3, breakdown.normalized)
    passed = breakdown.normalized == 2 and residual == 0
    report(capsys, 5, passed,
           f"normalized energy at (1,1,0) is exactly {breakdown.normalized}, "
           f"deficit exactly {residual}")
    assert passed


def test_criterion_6_specializations_match_displayed_quotients(capsys):
    se = energy.energy_closed_form()
    x, = symbols("x")
    one = energy.one_point_energy()
    one_n = se.numerator.substitute({"alpha": 1, "beta": 0, "delta": x})
    one_d = se.denominator.substitute({"alpha": 1, "beta": 0, "delta": x})
    one_ok = one_n * one.denominator == one.numerator * one_d

    y, = symbols("y")
    two = energy.two_point_energy()
    two_n = se.numerator.substitute({"alpha": 0, "beta": 1, "delta": y})
    two_d = se.denominator.substitute({"alpha": 0, "beta": 1, "delta": y})
    two_ok = two_n * two.denominator == two.numerator * two_d

    passed = one_ok and two_ok
    report(capsys, 6, passed,
           "one- and two-point specializations equal the displayed quotients "
           "(cross-multiplied polynomial identities)")
    assert passed


def test_criterion_7_default_scan_minimum(capsys):
    start = time.perf_counter()
    rep = scan_three_point()
    elapsed = time.perf_counter() - start
    m = rep.global_min
    # the kernel's blocks, streamed: no cell with delta > 0 has grad norm < 1e-9
    interior = any(((grad_norms < 1e-9) & (rep.deltas > 0)).any()
                   for _, _, grad_norms in _blocks(rep.alphas, rep.deltas))
    passed = (m.alpha == 1.0 and m.delta == 0.0 and abs(m.value - 2.0) <= 1e-9
              and not interior and elapsed < 60.0)
    report(capsys, 7, passed,
           f"200x200 scan minimum at (alpha, delta) = ({m.alpha:g}, {m.delta:g}), "
           f"value {m.value:.12g}, no interior gradient zeros ({elapsed:.2f}s < 60s)")
    assert passed


# -- criterion 8: randomized exactness ----------------------------------------

NAMES = ("x", "y", "z")


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_poly(rng, names, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in names)
        terms[exps] = rand_fraction(rng)
    return Polynomial(names, terms)


def _ring_axiom_failures(rng, cases):
    bad = 0
    for _ in range(cases):
        p = rand_poly(rng, NAMES)
        q = rand_poly(rng, NAMES)
        r = rand_poly(rng, NAMES)
        ok = ((p + q) + r == p + (q + r)
              and p + q == q + p
              and p * q == q * p
              and (p * q) * r == p * (q * r)
              and p * (q + r) == p * q + p * r
              and not (p + (-p)))
        bad += not ok
    return bad


def _leibniz_failures(rng, cases):
    bad = 0
    for _ in range(cases):
        p = rand_poly(rng, NAMES)
        q = rand_poly(rng, NAMES)
        v = rng.choice(NAMES)
        bad += (p * q).partial(v) != p.partial(v) * q + p * q.partial(v)
    return bad


def _euler_failures(rng, cases):
    xs = symbols("x y z")
    bad = 0
    for _ in range(cases):
        m = rng.randint(1, 6)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e1 = rng.randint(0, m)
            e2 = rng.randint(0, m - e1)
            terms[(e1, e2, m - e1 - e2)] = rand_fraction(rng)
        p = Polynomial(NAMES, terms)
        if not p:
            continue
        euler = sum((xp * p.partial(v) for xp, v in zip(xs, NAMES)),
                    start=Polynomial.zero())
        bad += euler != m * p
    return bad


def _rescale_failures(rng, cases):
    bad = 0
    for _ in range(cases):
        a = Fraction(rng.randint(1, 24), 4)
        b = Fraction(rng.randint(1, 24), 4)
        d = Fraction(rng.randint(0, 16), 4)
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        bad += closed_value(lam * a, lam * b, lam * d) != closed_value(a, b, d)
    return bad


def _compose_failures(rng, cases):
    bad = 0
    for i in range(cases):
        a = Fraction(rng.randint(1, 24), 4)
        b = Fraction(rng.randint(1, 24), 4)
        d = Fraction(rng.randint(0, 16), 4)
        if i % 10 == 3:
            a, d = Fraction(0), d + 1  # two-point wall of the slice cone
        elif i % 10 == 7:
            b, d = Fraction(0), d + 1  # one-point wall of the slice cone
        bad += energy.energy_composed(a, b, d).normalized != closed_value(a, b, d)
    return bad


def _gradient_fd_failures(rng, cases):
    h = Fraction(1, 10 ** 6)
    tol = Fraction(1, 10 ** 8)
    bad = 0
    for _ in range(cases):
        a = Fraction(rng.randint(1, 24), 4)
        b = Fraction(rng.randint(1, 24), 4)
        d = Fraction(rng.randint(0, 16), 4)
        ga, gd = gradient(a, b, d)
        fd_a = (closed_value(a + h, b, d) - closed_value(a - h, b, d)) / (2 * h)
        fd_d = (closed_value(a, b, d + h) - closed_value(a, b, d - h)) / (2 * h)
        bad += not (abs(ga - fd_a) < tol and abs(gd - fd_d) < tol)
    return bad


ROOT_POOL = sorted({Fraction(m, den) for m in range(-5, 6)
                    for den in (1, 2, 4, 5, 8, 10)})
SWEEP_DEN = 200  # every pool root is a sweep node: all pool denominators divide 200


def _sign_sweep_count(p, lo=-6, hi=6):
    """Count distinct roots of univariate p on (lo, hi] by brute force.

    Evaluates p at every node k / SWEEP_DEN with exact integer arithmetic and
    counts zero nodes plus sign changes between consecutive nonzero values.
    """
    cs = univariate_coefficients(p)
    scale = math.lcm(*(c.denominator for c in cs))
    deg = len(cs) - 1
    weighted = [int(c * scale) * SWEEP_DEN ** (deg - i) for i, c in enumerate(cs)]
    count = 0
    last = 0
    for k in range(lo * SWEEP_DEN + 1, hi * SWEEP_DEN + 1):
        v = weighted[deg]
        for i in range(deg - 1, -1, -1):
            v = v * k + weighted[i]
        if v == 0:
            count += 1
            last = 0
            continue
        s = 1 if v > 0 else -1
        if last and s != last:
            count += 1
        last = s
    return count


def _isolation_failures(rng, cases):
    x, = symbols("x")
    bad = 0
    for _ in range(cases):
        roots = rng.sample(ROOT_POOL, rng.randint(1, 4))
        if len(roots) < 4 and rng.random() < 0.25:
            roots.append(rng.choice(roots))  # one multiple root
        scale = rng.choice([s for s in range(-5, 6) if s])
        p = Polynomial.constant(scale)
        for r in roots:
            p = p * (x - r)
        distinct = sorted(set(roots))
        brackets = isolate_real_roots(p, (-6, 6), 12)
        ok = (_sign_sweep_count(p) == len(distinct)
              and count_real_roots(p, (-6, 6)) == len(distinct)
              and len(brackets) == len(distinct)
              and all(br.low <= r <= br.high
                      for br, r in zip(brackets, distinct)))
        bad += not ok
    return bad


def test_criterion_8_randomized_exactness(capsys):
    rng = random.Random(20260819)
    failures = {
        "ring axioms (1000)": _ring_axiom_failures(rng, 1000),
        "Leibniz rule (1000)": _leibniz_failures(rng, 1000),
        "Euler relation (1000)": _euler_failures(rng, 1000),
        "degree-0 rescaling (100)": _rescale_failures(rng, 100),
        "composed vs closed form (100)": _compose_failures(rng, 100),
        "gradient vs centered differences (25)": _gradient_fd_failures(rng, 25),
        "root isolation vs sign sweep (100)": _isolation_failures(rng, 100),
    }
    passed = not any(failures.values())
    detail = "; ".join(f"{name}: {n} failures" for name, n in failures.items())
    report(capsys, 8, passed, detail)
    assert passed, failures


def test_criterion_9_topology_and_curves(capsys):
    ok = True
    for k, expected in ((1, 8), (2, 7), (3, 6)):
        s = make_surface(k)
        ok = ok and 2 * s.euler + 3 * s.signature == expected
        for _, curve in s.minus_one_curves:
            ok = ok and intersect(curve, curve) == -1
            ok = ok and intersect(curve, s.c1) == 1
    report(capsys, 9, ok,
           "2 chi + 3 tau = 8, 7, 6 for k = 1, 2, 3 and every (-1)-curve has "
           "Q(C,C) = -1, Q(C,c1) = 1")
    assert ok
