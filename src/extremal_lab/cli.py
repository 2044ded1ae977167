"""Command-line interface: verification records, energy evaluation,
certified critical classes, and the three-point grid scan.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage, parse, or
domain errors.  Output is deterministic for a fixed configuration; every
pi^2 multiple is printed exactly with a float column alongside.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__, critical, energy
from .delpezzo import (
    HexagonParams,
    NotKahlerError,
    hexagon_to_class,
    kahler_violation,
    make_surface,
)
from .exactpoly import Polynomial, fraction_to_decimal

ENV_FAULT = "EXTREMAL_LAB_INJECT_FAULT"

#: cap on --digits.  At 800, verify took 0.35 s and critical --k 2 0.33 s end
#: to end (Python 3.11, x86-64 Linux), mostly interpreter start and imports;
#: the exact work grows faster than linearly in the digits
MAX_DIGITS = 800
#: cap on --grid cells per axis.  Peak RSS grows with grid^2; at 1024 scan3
#: peaked at 119 MiB for each of table, csv and json (the exports are
#: streamed row by row) with Python 3.11 and numpy 2.4 on x86-64 Linux
MAX_GRID = 1024

PI_SQUARED = math.pi ** 2


class UsageError(Exception):
    """Bad flag combinations or out-of-domain requests; exit code 2."""


@dataclass(frozen=True)
class VerificationRecord:
    name: str
    expected: str
    computed: str
    abs_error: Optional[str]  # None when the check could not produce a number
    tolerance: str
    passed: bool


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _check_digits(digits: int) -> None:
    if not 6 <= digits <= MAX_DIGITS:
        raise UsageError(f"--digits must be between 6 and {MAX_DIGITS}")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_table(header, rows) -> str:
    cols = list(zip(header, *rows))
    widths = [max(len(str(c)) for c in col) for col in cols]

    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- verify -------------------------------------------------------------------

def _verify_records(digits: int) -> list[VerificationRecord]:
    internal = max(digits, 12)
    tol8, tol9 = Fraction(1, 10 ** 8), Fraction(1, 10 ** 9)
    recs: list[VerificationRecord] = []

    def dec(x: Fraction) -> str:
        return fraction_to_decimal(x, digits)

    def add(name, expected, computed, err, tol, tol_label):
        passed = err is not None and err <= tol
        recs.append(VerificationRecord(
            name=name, expected=expected, computed=computed,
            abs_error=None if err is None else dec(err),
            tolerance=tol_label, passed=passed))

    num = energy.energy_closed_form().numerator
    if os.environ.get(ENV_FAULT, "").strip():
        num = num + Polynomial(("alpha", "beta", "delta"), {(1, 4, 1): Fraction(1)})

    ok, residual = energy.verify_identity(numerator=num)
    if ok:
        add("energy identity residual", "0", "0", Fraction(0), Fraction(0), "0")
    else:
        worst = max(abs(c) for c in residual.terms.values())
        add("energy identity residual", "0",
            f"nonzero ({len(residual.terms)} terms)", worst, Fraction(0), "0")

    try:
        coeff = energy.solve_unknown_coefficient(numerator=num)
        add("variance coefficient recovery", "276", str(coeff),
            abs(coeff - 276), Fraction(0), "0")
    except ValueError:
        add("variance coefficient recovery", "276", "inconsistent system",
            None, None, "0")

    page = critical.page_class(digits=internal)
    x = page.critical.bracket.midpoint
    add("one-point critical parameter", "2.183933404", dec(x),
        abs(x - Fraction("2.183933404")), tol8, "1e-8")
    add("one-point line/exceptional ratio", "3.183933404", dec(x + 1),
        abs(x + 1 - Fraction("3.183933404")), tol8, "1e-8")

    two = critical.two_point_class(digits=internal)
    y = two.critical.bracket.midpoint
    add("two-point critical parameter", "0.9577128052", dec(y),
        abs(y - Fraction("0.9577128052")), tol9, "1e-9")
    add("two-point line/exceptional ratio", "2.9577128052", dec(y + 2),
        abs(y + 2 - Fraction("2.9577128052")), tol9, "1e-9")
    three = 3 * two.normalized_energy
    add("two-point 3 * normalized energy", "7.136474469", dec(three),
        abs(three - Fraction("7.136474469")), tol8, "1e-8")
    add("two-point trace-free Ricci deficit", "0.136474469", dec(two.residual),
        abs(two.residual - Fraction("0.136474469")), tol8, "1e-8")

    anti = energy.energy_composed(1, 1, 0).normalized
    add("anti-canonical normalized energy", "2", str(anti),
        abs(anti - 2), Fraction(0), "0")

    for k, expected in ((1, 8), (2, 7), (3, 6)):
        s = make_surface(k)
        got = 2 * s.euler + 3 * s.signature
        add(f"2 chi + 3 tau (k={k})", str(expected), str(got),
            Fraction(abs(got - expected)), Fraction(0), "0")

    return recs


def _records_table(recs) -> str:
    header = ("record", "expected", "computed", "abs error", "tolerance", "status")
    rows = [(r.name, r.expected, r.computed,
             "-" if r.abs_error is None else r.abs_error,
             r.tolerance, "pass" if r.passed else "FAIL") for r in recs]
    return _render_table(header, rows)


def _records_json(recs) -> str:
    payload = [{"name": r.name, "expected": r.expected, "computed": r.computed,
                "abs_error": r.abs_error, "tolerance": r.tolerance,
                "pass": r.passed} for r in recs]
    return json.dumps(payload, indent=2) + "\n"


def _records_csv(recs) -> str:
    rows = [(r.name, r.expected, r.computed,
             "" if r.abs_error is None else r.abs_error,
             r.tolerance, "true" if r.passed else "false") for r in recs]
    return _csv_text(("name", "expected", "computed", "abs_error", "tolerance", "pass"), rows)


def cmd_verify(args) -> int:
    _check_digits(args.digits)
    recs = _verify_records(args.digits)
    if args.format == "json":
        text = _records_json(recs)
    elif args.format == "csv":
        text = _records_csv(recs)
    else:
        text = _records_table(recs)
    _emit(args, text)
    return 0 if all(r.passed for r in recs) else 1


# -- energy -------------------------------------------------------------------

def cmd_energy(args) -> int:
    _check_digits(args.digits)
    k, alpha, beta = args.k, args.alpha, args.beta
    delta = Fraction(0) if args.delta is None else args.delta
    if k == 3:
        if alpha is None or beta is None:
            raise UsageError("k=3 takes --alpha, --beta and optional --delta")
        params = HexagonParams(alpha=alpha, beta=beta, gamma=beta, delta=delta)
        slice_point = (alpha, beta, delta)
    elif k == 2:
        if beta is None or alpha is not None:
            raise UsageError("k=2 takes --beta and optional --delta (no --alpha)")
        params = HexagonParams(beta=beta, delta=delta)
        slice_point = (Fraction(0), beta, delta)
    else:
        if alpha is None or beta is not None:
            raise UsageError("k=1 takes --alpha and optional --delta (no --beta)")
        params = HexagonParams(alpha=alpha, delta=delta)
        slice_point = (alpha, Fraction(0), delta)

    surface = make_surface(k)
    violation = kahler_violation(surface, hexagon_to_class(surface, params))
    if violation is not None:
        raise UsageError(f"class is not Kahler: {violation}")
    breakdown = energy.energy_composed(*slice_point)

    digits = args.digits

    def flt(x: Fraction, pi2: bool) -> float:
        return float(x) * (PI_SQUARED if pi2 else 1.0)

    quantities = [
        ("average term", breakdown.average_term, True),
        ("futaki term", breakdown.futaki_term, True),
        ("total", breakdown.total, True),
        ("normalized", breakdown.normalized, False),
    ]
    if args.format == "json":
        payload = {
            "k": k,
            "alpha": None if k == 2 else str(slice_point[0]),
            "beta": None if k == 1 else str(slice_point[1]),
            "delta": str(delta),
        }
        for name, value, pi2 in quantities:
            key = name.replace(" ", "_")
            entry = {"pi2_multiple" if pi2 else "exact": str(value),
                     "value": flt(value, pi2)}
            payload[key] = entry
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [(name, f"{value} pi^2" if pi2 else str(value),
                 f"{flt(value, pi2):.{digits}g}") for name, value, pi2 in quantities]
        header = ("quantity", "exact", "float")
        text = _csv_text(header, rows) if args.format == "csv" else _render_table(header, rows)
    _emit(args, text)
    return 0


# -- critical -----------------------------------------------------------------

def cmd_critical(args) -> int:
    _check_digits(args.digits)
    if args.k not in (1, 2):
        raise UsageError("--k must be 1 or 2; the three-point family has no single "
                         "critical parameter, use the scan3 subcommand instead")
    report = critical.page_class(args.digits) if args.k == 1 else critical.two_point_class(args.digits)
    c = report.critical
    if args.format == "json":
        payload = {
            "k": report.k,
            "variable": c.variable,
            "bracket": {"low": str(c.bracket.low), "high": str(c.bracket.high)},
            "refined_root": c.bracket.refined,
            "classification": c.classification,
            "line_to_exceptional_ratio": c.line_to_exceptional_ratio,
            "normalized_energy": report.normalized_energy_decimal,
            "three_times_normalized": report.three_times_decimal,
            "residual": report.residual_decimal,
            "root_count": report.root_count,
            "search_bound": str(report.search_bound),
            "derivative_root_bound": str(report.derivative_root_bound),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [
            ("variable", c.variable),
            ("bracket low", str(c.bracket.low)),
            ("bracket high", str(c.bracket.high)),
            ("refined root", c.bracket.refined),
            ("classification", c.classification),
            ("line/exceptional ratio", c.line_to_exceptional_ratio),
            ("normalized energy", report.normalized_energy_decimal),
            ("3 * normalized energy", report.three_times_decimal),
            ("trace-free Ricci deficit", report.residual_decimal),
            ("derivative roots in domain", str(report.root_count)),
            ("search bound", str(report.search_bound)),
            ("derivative root bound", str(report.derivative_root_bound)),
        ]
        header = ("quantity", "value")
        text = _csv_text(header, rows) if args.format == "csv" else _render_table(header, rows)
    _emit(args, text)
    return 0


# -- scan3 --------------------------------------------------------------------

def _cell_payload(cell) -> dict:
    return {"i": cell.i, "j": cell.j, "alpha": cell.alpha, "delta": cell.delta,
            "value": cell.value, "grad_norm": cell.grad_norm,
            "boundary": cell.boundary}


def _scan_csv(report, fh) -> None:
    """Write the csv export to the open file `fh`, one alpha row at a time.

    Each axis value is formatted once; a row's value and grad_norm cells go
    through one %-template built for that row.
    """
    fmt = f"%.{report.digits}g"
    fh.write("alpha,delta,value,grad_norm\n")
    # joining the cells with the row's alpha puts it in front of each of them
    cells = ["," + fmt % d + f",{fmt},{fmt}\n" for d in report.deltas.tolist()]
    for alpha, row in zip(report.alphas.tolist(), _interleaved_rows(report)):
        lead = fmt % alpha
        fh.write((lead + lead.join(cells)) % row)


def _scan_json(report, fh) -> None:
    """Write the json export to the open file `fh`, one alpha row at a time.

    Everything but "cells" is rendered by json.dumps(indent=2); the cell
    array follows in the same layout.  Cells are finite, so each prints as
    float.__repr__, as json writes finite floats.
    """
    g = report.grid
    head = {
        "grid": {
            "alpha_min": g.alpha_min, "alpha_max": g.alpha_max,
            "alpha_count": g.alpha_count, "alpha_spacing": g.alpha_spacing,
            "delta_min": g.delta_min, "delta_max": g.delta_max,
            "delta_count": g.delta_count, "delta_spacing": g.delta_spacing,
        },
        "digits": report.digits,
        "global_min": _cell_payload(report.global_min),
        "minima": [_cell_payload(c) for c in report.minima],
        "interior_zeros": [
            {"cell": _cell_payload(z.cell), "alpha": z.alpha, "delta": z.delta,
             "grad_norm": z.grad_norm, "converged": z.converged,
             "iterations": z.iterations}
            for z in report.interior_zeros
        ],
    }
    # reopen the head's closing "\n}" to append the cell array
    fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "cells": [\n')
    # a cell is "    [\n      alpha,\n      delta,\n      value,\n      grad_norm\n    ]"
    cells = [",\n      " + repr(d) + ",\n      %r,\n      %r\n    ]"
             for d in report.deltas.tolist()]
    sep = ""
    for alpha, row in zip(report.alphas.tolist(), _interleaved_rows(report)):
        lead = "    [\n      " + repr(alpha)
        fh.write(sep + (lead + (",\n" + lead).join(cells)) % row)
        sep = ",\n"
    fh.write("\n  ]\n}\n")


def _interleaved_rows(report):
    """Per alpha row, the tuple (value, grad_norm, value, grad_norm, ...) of
    Python floats along delta."""
    pairs = np.empty(2 * report.deltas.size)
    for values, grad_norms in zip(report.values, report.grad_norms):
        pairs[0::2] = values
        pairs[1::2] = grad_norms
        yield tuple(pairs.tolist())


def _scan_summary(report) -> str:
    g = report.grid
    d = report.digits
    m = report.global_min
    lines = [
        f"grid: alpha [{g.alpha_min:g}, {g.alpha_max:g}] x {g.alpha_count} ({g.alpha_spacing}), "
        f"delta [{g.delta_min:g}, {g.delta_max:g}] x {g.delta_count} ({g.delta_spacing})",
        f"global minimum: alpha = {m.alpha:.{d}g}, delta = {m.delta:.{d}g}, "
        f"value = {m.value:.{d}g}, grad norm = {m.grad_norm:.{d}g} "
        f"({'boundary' if m.boundary else 'interior'})",
        f"strict local minima: {len(report.minima)}",
    ]
    if report.interior_zeros:
        lines.append(f"interior gradient zeros (delta > 0): {len(report.interior_zeros)}")
        for z in report.interior_zeros:
            lines.append(f"  cell ({z.cell.alpha:.6g}, {z.cell.delta:.6g}) -> "
                         f"polished ({z.alpha:.{d}g}, {z.delta:.{d}g}), "
                         f"|grad| = {z.grad_norm:.3g}, converged = {z.converged}")
    else:
        lines.append("interior gradient zeros (delta > 0): none")
    return "\n".join(lines) + "\n"


def cmd_scan3(args) -> int:
    _check_digits(args.digits)
    if not 2 <= args.grid <= MAX_GRID:
        raise UsageError(f"--grid must be between 2 and {MAX_GRID}")
    for flag in ("alpha_min", "alpha_max", "delta_max"):
        if not math.isfinite(getattr(args, flag)):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite")
    if not 0 < args.alpha_min < args.alpha_max:
        raise UsageError("alpha range must satisfy 0 < --alpha-min < --alpha-max")
    if args.delta_max <= 0:
        raise UsageError("--delta-max must be positive")
    report = critical.scan_three_point(
        alpha_range=(args.alpha_min, args.alpha_max),
        delta_range=(0.0, args.delta_max),
        grid_counts=(args.grid, args.grid),
        digits=args.digits,
    )
    if not (np.isfinite(report.values).all() and np.isfinite(report.grad_norms).all()):
        raise UsageError("the scan overflows float64 on this window; "
                         "lower --alpha-max or --delta-max")
    note = None
    if args.format == "csv":
        path = args.out or "scan3.csv"
        with open(path, "w", newline="\n") as fh:
            _scan_csv(report, fh)
        note = f"wrote {path} ({args.grid * args.grid} rows)"
    elif args.format == "json":
        path = args.out or "scan3.json"
        with open(path, "w", newline="\n") as fh:
            _scan_json(report, fh)
        note = f"wrote {path}"
    summary = _scan_summary(report)
    if args.format == "table" and args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(summary)
    else:
        sys.stdout.write(summary)
    if note is not None:
        sys.stdout.write(note + "\n")
    return 0


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-lab",
        description="Exact Calabi-energy computations on blow-ups of the "
                    "projective plane: identity verification, certified "
                    "critical classes, and slice scans.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=12,
                        help=f"significant digits for printed decimals "
                             f"(6 to {MAX_DIGITS}, default 12)")
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format (default table)")
    common.add_argument("--out", help="write output to this path instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification record suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("energy", parents=[common],
                       help="energy decomposition at one Kahler class")
    p.add_argument("--k", type=int, choices=(1, 2, 3), required=True,
                   help="number of blown-up points")
    p.add_argument("--alpha", type=_fraction_arg, help="exceptional area (k=1, k=3)")
    p.add_argument("--beta", type=_fraction_arg, help="exceptional area (k=2, k=3)")
    p.add_argument("--delta", type=_fraction_arg, help="opposite-side excess (default 0)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("critical", parents=[common],
                       help="certified critical class of the k-point energy")
    p.add_argument("--k", type=int, required=True, help="1 or 2")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("scan3", parents=[common],
                       help="grid scan of the three-point slice (beta = 1 gauge)")
    p.add_argument("--grid", type=int, default=200,
                   help=f"cells per axis (2 to {MAX_GRID}, default 200)")
    p.add_argument("--alpha-min", type=float, default=0.05)
    p.add_argument("--alpha-max", type=float, default=20.0)
    p.add_argument("--delta-max", type=float, default=10.0)
    p.set_defaults(func=cmd_scan3)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
