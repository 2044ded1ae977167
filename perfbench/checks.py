"""Check every op's output against references that do not use extremal-lab.

* Critical classes: the paper's derivative numerators, written out below,
  are solved with mpmath at digits + 10; the roots must agree with the
  constants in PAPER.md to 10 digits before they are trusted.
* Energies: the normalized energy A / 96 pi^2 of a Kahler class is
  (1/6) int_P theta^2 dx over its moment polygon P, where theta is the
  affine function with int_P theta f dx = int_dP f dsigma for every affine f
  (dsigma the lattice boundary measure).  The average term
  32 (c1.w)^2 / w^2 comes from intersection numbers.  Both are exact.
* scan3: the global minimum is the anti-canonical class (alpha, delta) =
  (1, 0) with value 2, there are no interior gradient zeros, and an export
  holds G^2 finite rows.

Each checker returns None when the output is right and a reason otherwise.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional

import mpmath

from workloads import Op

# Derivative numerators n'd - nd' of the displayed one- and two-point energy
# quotients n/d, made primitive (ascending coefficients).
CRITICAL_NUMERATORS = {
    1: (-12, -24, 0, 4, 1),
    2: (-48, -300, -708, -624, 120, 720, 680, 336, 96, 15, 1),
}
# The displayed quotients themselves: (numerator, denominator), ascending.
ENERGY_QUOTIENTS = {
    1: ((4, 14, 16, 3), (0, 6, 6, 1)),
    2: ((32, 176, 318, 280, 132, 32, 3), (12, 72, 138, 120, 54, 12, 1)),
}
#: line/exceptional ratio = critical parameter + offset
RATIO_OFFSET = {1: 1, 2: 2}
# PAPER.md: ratio, normalized energy, 3 x normalized energy, Ricci deficit.
PAPER = {
    1: {"ratio": "3.183933404", "energy": "2.726206852"},
    2: {"ratio": "2.957712805", "three": "7.136474470", "residual": "0.136474470"},
}
PAPER_TOLERANCE = "1e-9"  # agreement to 10 significant digits

SCAN_MIN = {"alpha": 1.0, "delta": 0.0, "value": 2.0}
SCAN_TOLERANCE = 1e-9


# -- independent references ---------------------------------------------------

@functools.cache
def critical_reference(k: int, digits: int) -> dict:
    """mpmath values at digits + 10 for the k-point critical class."""
    offset = RATIO_OFFSET[k]
    with mpmath.workdps(digits + 10):
        g = CRITICAL_NUMERATORS[k][::-1]
        num, den = (c[::-1] for c in ENERGY_QUOTIENTS[k])
        seed = mpmath.mpf(PAPER[k]["ratio"]) - offset
        root = mpmath.findroot(lambda t: mpmath.polyval(g, t), seed)
        eps = mpmath.mpf(10) ** -(digits + 5)
        if not mpmath.polyval(g, root - eps) < 0 < mpmath.polyval(g, root + eps):
            raise RuntimeError(f"no sign change at the k={k} reference root")
        energy = mpmath.polyval(num, root) / mpmath.polyval(den, root)
        ref = {"root": root, "ratio": root + offset, "energy": energy,
               "three": 3 * energy, "residual": 3 * energy - (9 - k)}
        for key, text in PAPER[k].items():
            if abs(ref[key] - mpmath.mpf(text)) > mpmath.mpf(PAPER_TOLERANCE):
                raise RuntimeError(f"k={k} {key} disagrees with PAPER.md: {ref[key]}")
    return ref


def slice_class(k: int, point) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(a; b_1, ..) of the slice point, as the CLI's --k/--alpha/--beta/--delta
    describe it: k=3 (alpha+2beta+delta; alpha, beta, beta), k=2
    (2beta+delta; beta, beta), k=1 (alpha+delta; alpha)."""
    alpha, beta, delta = point
    if k == 3:
        return alpha + 2 * beta + delta, (alpha, beta, beta)
    if k == 2:
        return 2 * beta + delta, (beta, beta)
    return alpha + delta, (alpha,)


def moment_polygon(a, b) -> list[tuple[Fraction, Fraction]]:
    """The triangle x, y >= 0, x + y <= a with corners cut by b_1, b_2, b_3."""
    b1, b2, b3 = (list(b) + [0, 0, 0])[:3]
    corners = [(b1, 0), (a - b2, 0), (a - b2, b2), (b3, a - b3), (0, a - b3), (0, b1)]
    poly: list[tuple[Fraction, Fraction]] = []
    for x, y in corners:
        p = (Fraction(x), Fraction(y))
        if not poly or poly[-1] != p:
            poly.append(p)
    if poly[0] == poly[-1]:
        poly.pop()
    return poly


def _moments(poly):
    """Integrals of 1, x, y, x^2, xy, y^2 over a convex polygon (fan from vertex 0)."""
    m = [Fraction(0)] * 6
    x0, y0 = poly[0]
    for (x1, y1), (x2, y2) in zip(poly[1:], poly[2:]):
        area = ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2
        xs, ys = (x0, x1, x2), (y0, y1, y2)
        m[0] += area
        m[1] += area * sum(xs) / 3
        m[2] += area * sum(ys) / 3
        m[3] += area * (sum(v * v for v in xs) + x0 * x1 + x0 * x2 + x1 * x2) / 6
        m[4] += area * sum(xs[i] * ys[j] * (2 if i == j else 1)
                           for i in range(3) for j in range(3)) / 12
        m[5] += area * (sum(v * v for v in ys) + y0 * y1 + y0 * y2 + y1 * y2) / 6
    return m


def _boundary_moments(poly):
    """Integrals of 1, x, y over the boundary in lattice length."""
    b = [Fraction(0)] * 3
    for p, q in zip(poly, poly[1:] + poly[:1]):
        dx, dy = q[0] - p[0], q[1] - p[1]
        if dx == 0:
            length = abs(dy)
        elif dy == 0:
            length = abs(dx)
        else:
            length = abs(dx) / (dy / dx).denominator
        b[0] += length
        b[1] += length * (p[0] + q[0]) / 2
        b[2] += length * (p[1] + q[1]) / 2
    return b


def _solve(matrix, rhs):
    rows = [list(r) + [v] for r, v in zip(matrix, rhs)]
    n = len(rows)
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def toric_normalized_energy(a, b) -> Fraction:
    """A / 96 pi^2 = (1/6) int_P theta^2 dx on the moment polygon of (a; b)."""
    m = _moments(moment_polygon(a, b))
    rhs = _boundary_moments(moment_polygon(a, b))
    gram = [[m[0], m[1], m[2]], [m[1], m[3], m[4]], [m[2], m[4], m[5]]]
    theta = _solve(gram, rhs)
    return sum(t * r for t, r in zip(theta, rhs)) / 6


def average_term(a, b) -> Fraction:
    """32 (c1.w)^2 / w^2 with c1.w = 3a - sum b and w^2 = a^2 - sum b^2."""
    c1w = 3 * a - sum(b)
    return 32 * c1w ** 2 / (a * a - sum(v * v for v in b))


# -- output parsing -----------------------------------------------------------

def _table_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return [re.split(r"\s{2,}", ln.strip()) for ln in lines[2:]]


def _rows(text: str, fmt: str) -> list[list[str]]:
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))[1:]
    return _table_rows(text)


_CRITICAL_JSON = {"refined_root": "root", "line_to_exceptional_ratio": "ratio",
                  "normalized_energy": "energy", "three_times_normalized": "three",
                  "residual": "residual", "classification": "classification",
                  "root_count": "count"}
_CRITICAL_ROWS = {"refined root": "root", "line/exceptional ratio": "ratio",
                  "normalized energy": "energy", "3 * normalized energy": "three",
                  "trace-free Ricci deficit": "residual",
                  "classification": "classification",
                  "derivative roots in domain": "count"}
_VERIFY_DECIMALS = {
    "one-point critical parameter": (1, "root"),
    "one-point line/exceptional ratio": (1, "ratio"),
    "two-point critical parameter": (2, "root"),
    "two-point line/exceptional ratio": (2, "ratio"),
    "two-point 3 * normalized energy": (2, "three"),
    "two-point trace-free Ricci deficit": (2, "residual"),
}
_ENERGY_KEYS = ("average term", "futaki term", "total", "normalized")


def _close(text: str, ref, digits: int) -> bool:
    """|text - ref| is at most one unit in the `digits`-th significant place."""
    with mpmath.workdps(digits + 10):
        scale = int(mpmath.floor(mpmath.log10(abs(ref))))
        return abs(mpmath.mpf(text) - ref) <= mpmath.mpf(10) ** (scale - digits + 1)


def check_critical(op: Op, stdout: str) -> Optional[str]:
    if op.fmt == "json":
        payload = json.loads(stdout)
        got = {short: str(payload[key]) for key, short in _CRITICAL_JSON.items()}
    else:
        got = {_CRITICAL_ROWS[r[0]]: r[1] for r in _rows(stdout, op.fmt)
               if r and r[0] in _CRITICAL_ROWS}
    if got.get("classification") != "local-min" or got.get("count") != "1":
        return f"expected one local minimum, got {got.get('classification')!r}"
    ref = critical_reference(op.k, op.digits)
    for key in ("root", "ratio", "energy", "three", "residual"):
        if key not in got or not _close(got[key], ref[key], op.digits):
            return f"{key} {got.get(key)!r} disagrees with the mpmath reference"
    return None


def check_verify(op: Op, stdout: str) -> Optional[str]:
    if op.fmt == "json":
        records = {r["name"]: (r["computed"], r["pass"]) for r in json.loads(stdout)}
    else:
        records = {r[0]: (r[2], r[-1] in ("pass", "true"))
                   for r in _rows(stdout, op.fmt) if len(r) >= 6}
    exact = {"energy identity residual": "0", "variance coefficient recovery": "276",
             "anti-canonical normalized energy":
                 str(toric_normalized_energy(3, (1, 1, 1)))}
    for k in (1, 2, 3):
        euler, signature = 3 + k, 1 - k
        exact[f"2 chi + 3 tau (k={k})"] = str(2 * euler + 3 * signature)
    if set(records) != set(exact) | set(_VERIFY_DECIMALS):
        return f"unexpected records: {sorted(records)}"
    failed = [name for name, (_, passed) in records.items() if not passed]
    if failed:
        return f"records marked failed: {failed}"
    for name, expected in exact.items():
        if records[name][0] != expected:
            return f"{name}: {records[name][0]!r}, expected {expected}"
    for name, (k, key) in _VERIFY_DECIMALS.items():
        ref = critical_reference(k, max(op.digits, 12))[key]
        if not _close(records[name][0], ref, op.digits):
            return f"{name}: {records[name][0]!r} disagrees with the mpmath reference"
    return None


def check_energy(op: Op, stdout: str) -> Optional[str]:
    if op.fmt == "json":
        payload = json.loads(stdout)
        got = {}
        for name in _ENERGY_KEYS:
            entry = payload[name.replace(" ", "_")]
            got[name] = entry.get("pi2_multiple", entry.get("exact"))
    else:
        got = {r[0]: r[1].removesuffix(" pi^2") for r in _rows(stdout, op.fmt)
               if r and r[0] in _ENERGY_KEYS}
    try:
        values = {name: Fraction(got[name]) for name in _ENERGY_KEYS}
    except (KeyError, ValueError, TypeError):
        return f"unparsable energy output: {got!r}"
    a, b = slice_class(op.k, op.point)
    normalized = toric_normalized_energy(a, b)
    average = average_term(a, b)
    expected = {"average term": average, "futaki term": 96 * normalized - average,
                "total": 96 * normalized, "normalized": normalized}
    for name in _ENERGY_KEYS:
        if values[name] != expected[name]:
            return f"{name} {values[name]} != toric reference {expected[name]}"
    return None


_SUMMARY_MIN = re.compile(r"global minimum: alpha = (\S+), delta = (\S+), "
                          r"value = (\S+), grad norm = (\S+)")


def _is_scan_min(alpha: float, delta: float, value: float) -> bool:
    return (abs(alpha - SCAN_MIN["alpha"]) <= SCAN_TOLERANCE
            and delta == SCAN_MIN["delta"]
            and abs(value - SCAN_MIN["value"]) <= SCAN_TOLERANCE)


def check_scan_summary(stdout: str) -> Optional[str]:
    m = _SUMMARY_MIN.search(stdout)
    if not m:
        return "no global minimum line"
    alpha, delta, value, grad = (float(v) for v in m.groups())
    if not all(math.isfinite(v) for v in (alpha, delta, value, grad)):
        return f"non-finite global minimum: {m.group(0)}"
    if not _is_scan_min(alpha, delta, value):
        return f"global minimum is not the anti-canonical class: {m.group(0)}"
    if "interior gradient zeros (delta > 0): none" not in stdout:
        return "interior gradient zeros reported"
    return None


def check_scan_csv(path: Path, grid: int) -> Optional[str]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["alpha", "delta", "value", "grad_norm"]:
            return "bad csv header"
        rows = 0
        best = (math.inf, 0.0, 0.0)
        for row in reader:
            a, d, v, g = (float(x) for x in row)
            if not all(math.isfinite(x) for x in (a, d, v, g)):
                return f"non-finite csv row {rows}"
            best = min(best, (v, a, d))
            rows += 1
    if rows != grid * grid:
        return f"{rows} csv rows, expected {grid * grid}"
    value, alpha, delta = best
    if not _is_scan_min(alpha, delta, value):
        return f"csv minimum {best} is not the anti-canonical class"
    return None


def check_scan_json(path: Path, grid: int) -> Optional[str]:
    with open(path) as fh:
        payload = json.load(fh)
    g = payload["grid"]
    if (g["alpha_count"], g["delta_count"]) != (grid, grid):
        return f"grid {g['alpha_count']} x {g['delta_count']}, expected {grid}"
    cells = payload["cells"]
    if len(cells) != grid * grid:
        return f"{len(cells)} json cells, expected {grid * grid}"
    if not all(math.isfinite(x) for cell in cells for x in cell):
        return "non-finite json cell"
    m = payload["global_min"]
    if not _is_scan_min(m["alpha"], m["delta"], m["value"]):
        return f"json global minimum {m} is not the anti-canonical class"
    if payload["interior_zeros"]:
        return "json lists interior gradient zeros"
    return None


def check_op(op: Op, returncode: int, stdout: str, workdir: Path) -> Optional[str]:
    """None when the op exited 0 with correct output, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        if op.command == "critical":
            return check_critical(op, stdout)
        if op.command == "verify":
            return check_verify(op, stdout)
        if op.command == "energy":
            return check_energy(op, stdout)
        reason = check_scan_summary(stdout)
        if reason is None and op.fmt == "csv":
            reason = check_scan_csv(workdir / op.out_name, op.grid)
        if reason is None and op.fmt == "json":
            reason = check_scan_json(workdir / op.out_name, op.grid)
        return reason
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_probe(op: Op, returncode: int, stdout: str, stderr: str,
                workdir: Path) -> Optional[str]:
    """A hostile input passes with a correct exit 0, or with exit 2 and an
    error line that names the offending flag as spelled on the command line.
    Exit 0 with NaN output or an error raised from inside Python fails."""
    if returncode == 2:
        if "Traceback" in stderr or not stderr.startswith("error:"):
            return f"unclean refusal: {stderr.strip()[:200]!r}"
        if op.probe_flag not in stderr:
            return f"refusal does not name {op.probe_flag}: {stderr.strip()[:200]!r}"
        return None
    return check_op(op, returncode, stdout, workdir)
