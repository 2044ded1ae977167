"""Command-line interface: verification records, energy evaluation,
certified critical classes, and the three-point grid scan.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage, parse, or
domain errors.  Output is deterministic for a fixed configuration; every
pi^2 multiple is printed exactly with a float column alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__, critical, energy
from .delpezzo import make_surface
from .exactpoly import fraction_to_decimal

#: cap on --digits.  At 800, verify took 0.18 s and critical --k 2 0.12 s end
#: to end (Python 3.11, x86-64 Linux), mostly interpreter start and imports;
#: the exact work grows faster than linearly in the digits
MAX_DIGITS = 800
#: cap on the length of a rational flag, its decimal exponent counted in full
#: (1e300 counts 303).  energy prints integers of up to about 16 digits per
#: digit of its longest flag: 3162 at 200, inside Python's 4300-digit
#: int-to-str limit, in 9 ms (Python 3.11, x86-64 Linux)
MAX_RATIONAL_DIGITS = 200
#: cap on --grid cells per axis.  Peak RSS grows with grid^2; at 1024 scan3
#: peaked at 48 MiB for each of table, csv and json (two grid arrays plus
#: block buffers in the kernel, exports streamed row by row) with Python 3.11
#: and numpy 2.4 on x86-64 Linux
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
    # sized before Fraction builds the integers: 1e1000000000 never gets built
    size = len(text)
    exponent = text.lower().partition("e")[2]
    if size <= MAX_RATIONAL_DIGITS and exponent:
        try:
            size += abs(int(exponent))
        except ValueError:
            pass  # not a rational; Fraction refuses it below
    if size > MAX_RATIONAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{text[:24]!r} has more than {MAX_RATIONAL_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _check_digits(digits: int) -> None:
    if not 6 <= digits <= MAX_DIGITS:
        raise UsageError(f"--digits must be between 6 and {MAX_DIGITS}")


@contextlib.contextmanager
def _open_out(path: Optional[str]):
    """The text stream for the --out `path`, or stdout when path is None or "".

    A regular or absent file is written to a new sibling of its real path,
    opened with "x" so its mode follows the umask, and os.replace moves the
    sibling over it once the block succeeds; any exception removes the
    sibling instead.  Anything else (os.devnull, a FIFO) is written in place.
    An OSError leaving the block names `path`, never the sibling.
    """
    if not path:
        yield sys.stdout
        return
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    target = os.path.realpath(path)
    temp = f"{target}.{os.urandom(4).hex()}.tmp" if regular else path
    try:
        with open(temp, "x" if regular else "w", newline="\n") as fh:
            yield fh
        if regular:
            os.replace(temp, target)
    except BaseException as exc:
        if regular:
            with contextlib.suppress(OSError):
                os.unlink(temp)
        if isinstance(exc, OSError):
            raise OSError(f"{path}: {exc.strerror or exc}") from exc
        raise


def _emit(path: Optional[str], text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


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
    recs: list[VerificationRecord] = []

    def dec(x: Fraction) -> str:
        return fraction_to_decimal(x, digits)

    def add(name, expected, computed, err, tolerance):
        passed = err is not None and err <= Fraction(tolerance)
        recs.append(VerificationRecord(
            name=name, expected=expected, computed=computed,
            abs_error=None if err is None else dec(err),
            tolerance=tolerance, passed=passed))

    ok, residual = energy.verify_identity()
    if ok:
        add("energy identity residual", "0", "0", Fraction(0), "0")
    else:
        worst = max(abs(c) for c in residual.terms.values())
        add("energy identity residual", "0",
            f"nonzero ({len(residual.terms)} terms)", worst, "0")

    try:
        coeff = energy.solve_unknown_coefficient()
        add("variance coefficient recovery", "276", str(coeff), abs(coeff - 276), "0")
    except ValueError:
        add("variance coefficient recovery", "276", "inconsistent system", None, "0")

    x = critical.page_class(digits=internal).critical.bracket.midpoint
    two = critical.two_point_class(digits=internal)
    y = two.critical.bracket.midpoint
    for name, expected, value, tolerance in (
            ("one-point critical parameter", "2.183933404", x, "1e-8"),
            ("one-point line/exceptional ratio", "3.183933404", x + 1, "1e-8"),
            ("two-point critical parameter", "0.9577128052", y, "1e-9"),
            ("two-point line/exceptional ratio", "2.9577128052", y + 2, "1e-9"),
            ("two-point 3 * normalized energy", "7.136474469", 3 * two.normalized_energy, "1e-8"),
            ("two-point trace-free Ricci deficit", "0.136474469", two.residual, "1e-8")):
        add(name, expected, dec(value), abs(value - Fraction(expected)), tolerance)

    anti = energy.energy_composed(1, 1, 0).normalized
    add("anti-canonical normalized energy", "2", str(anti), abs(anti - 2), "0")

    for k, expected in ((1, 8), (2, 7), (3, 6)):
        s = make_surface(k)
        got = 2 * s.euler + 3 * s.signature
        add(f"2 chi + 3 tau (k={k})", str(expected), str(got),
            Fraction(abs(got - expected)), "0")

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
    render = {"json": _records_json, "csv": _records_csv, "table": _records_table}
    _emit(args.out, render[args.format](recs))
    return 0 if all(r.passed for r in recs) else 1


# -- energy -------------------------------------------------------------------

def cmd_energy(args) -> int:
    _check_digits(args.digits)
    k, alpha, beta = args.k, args.alpha, args.beta
    delta = Fraction(0) if args.delta is None else args.delta
    if k == 3:
        if alpha is None or beta is None:
            raise UsageError("k=3 takes --alpha, --beta and optional --delta")
        slice_point = (alpha, beta, delta)
    elif k == 2:
        if beta is None or alpha is not None:
            raise UsageError("k=2 takes --beta and optional --delta (no --alpha)")
        slice_point = (Fraction(0), beta, delta)
    else:
        if alpha is None or beta is not None:
            raise UsageError("k=1 takes --alpha and optional --delta (no --beta)")
        slice_point = (alpha, Fraction(0), delta)
    breakdown = energy.surface_energy(k, *slice_point)

    digits = args.digits
    quantities = [
        ("average term", breakdown.average_term, True),
        ("futaki term", breakdown.futaki_term, True),
        ("total", breakdown.total, True),
        ("normalized", breakdown.normalized, False),
    ]
    try:
        floats = [float(value) * (PI_SQUARED if pi2 else 1.0) for _, value, pi2 in quantities]
        finite = all(map(math.isfinite, floats))
    except OverflowError:
        finite = False
    if not finite:
        raise UsageError("the energy of this class overflows float64; "
                         "bring --alpha, --beta and --delta closer in size")
    if args.format == "json":
        payload = {
            "k": k,
            "alpha": None if k == 2 else str(slice_point[0]),
            "beta": None if k == 1 else str(slice_point[1]),
            "delta": str(delta),
        }
        for (name, value, pi2), flt in zip(quantities, floats):
            key = name.replace(" ", "_")
            entry = {"pi2_multiple" if pi2 else "exact": str(value),
                     "value": flt}
            payload[key] = entry
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [(name, f"{value} pi^2" if pi2 else str(value),
                 f"{flt:.{digits}g}") for (name, value, pi2), flt in zip(quantities, floats)]
        header = ("quantity", "exact", "float")
        text = _csv_text(header, rows) if args.format == "csv" else _render_table(header, rows)
    _emit(args.out, text)
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
            "line_to_exceptional_ratio": report.line_to_exceptional_ratio,
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
            ("line/exceptional ratio", report.line_to_exceptional_ratio),
            ("normalized energy", report.normalized_energy_decimal),
            ("3 * normalized energy", report.three_times_decimal),
            ("trace-free Ricci deficit", report.residual_decimal),
            ("derivative roots in domain", str(report.root_count)),
            ("search bound", str(report.search_bound)),
            ("derivative root bound", str(report.derivative_root_bound)),
        ]
        header = ("quantity", "value")
        text = _csv_text(header, rows) if args.format == "csv" else _render_table(header, rows)
    _emit(args.out, text)
    return 0


# -- scan3 --------------------------------------------------------------------

def _cell_payload(cell) -> dict:
    return {"i": cell.i, "j": cell.j, "alpha": cell.alpha, "delta": cell.delta,
            "value": cell.value, "grad_norm": cell.grad_norm,
            "boundary": cell.boundary}


def _render_rows(fh, render, rows: int) -> None:
    """Write alpha rows [0, rows) to the open export `fh`, where
    `render(out, start, stop)` writes rows [start, stop) to the file `out`.

    With more than one core available and os.fork present, a forked child
    renders rows [rows // 2, rows) into an unlinked temporary file while this
    process renders [0, rows // 2) into `fh`; the child's bytes are then
    appended undecoded, so the file does not depend on the core count.  The
    work is CPython float formatting, which one interpreter runs on one core;
    fork hands the child the report without pickling it.  The child calls no
    BLAS, and it leaves through os._exit, with status 0 only once its rows
    are flushed.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        render(fh, 0, rows)
        return
    # imported here, as numpy is in cmd_scan3, to keep them off the exact commands
    import shutil
    import tempfile

    half = rows // 2
    with tempfile.TemporaryFile("w+", encoding=fh.encoding, newline="\n") as tail:
        for stream in (fh, sys.stdout, sys.stderr):
            stream.flush()  # nothing buffered before the fork is written twice
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                render(tail, half, rows)
                tail.flush()
                status = 0
            finally:
                os._exit(status)  # no traceback, no exit handlers, no flushes
        try:
            render(fh, 0, half)
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise OSError(f"the child process rendering alpha rows "
                          f"{half} to {rows - 1} exited with status {status}")
        fh.flush()
        tail.seek(0)
        shutil.copyfileobj(tail.buffer, fh.buffer)


def _scan_csv(report, fh) -> None:
    """Write the csv export to the open file `fh`, one alpha row at a time.

    Each axis value is formatted once; a row's value and grad_norm cells go
    through one %-template built for that row.  The rows are split between
    this process and a forked child as `_render_rows` describes.
    """
    fmt = f"%.{report.digits}g"
    fh.write("alpha,delta,value,grad_norm\n")
    # joining the cells with the row's alpha puts it in front of each of them
    cells = ["," + fmt % d + f",{fmt},{fmt}\n" for d in report.deltas.tolist()]
    alphas = report.alphas.tolist()

    def render(out, start, stop):
        for alpha, row in zip(alphas[start:stop], report.interleaved_rows(start, stop)):
            lead = fmt % alpha
            out.write((lead + lead.join(cells)) % row)

    _render_rows(fh, render, len(alphas))


def _scan_json(report, fh) -> None:
    """Write the json export to the open file `fh`, one alpha row at a time.

    Everything but "cells" is rendered by json.dumps(indent=2); the cell
    array follows in the same layout.  Cells are finite, so each prints as
    float.__repr__, as json writes finite floats.  The rows are split between
    this process and a forked child as `_render_rows` describes.
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
        "interior_zeros": [],
    }
    # reopen the head's closing "\n}" to append the cell array
    fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "cells": [\n')
    # a cell is "    [\n      alpha,\n      delta,\n      value,\n      grad_norm\n    ]"
    cells = [",\n      " + repr(d) + ",\n      %r,\n      %r\n    ]"
             for d in report.deltas.tolist()]
    alphas = report.alphas.tolist()

    def render(out, start, stop):
        sep = ",\n" if start else ""
        for alpha, row in zip(alphas[start:stop], report.interleaved_rows(start, stop)):
            lead = "    [\n      " + repr(alpha)
            out.write(sep + (lead + (",\n" + lead).join(cells)) % row)
            sep = ",\n"

    _render_rows(fh, render, len(alphas))
    fh.write("\n  ]\n}\n")


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
        # certified for every window by the resultant in tests/test_critical.py,
        # test_slice_gradient_has_no_zero_at_positive_delta
        "interior gradient zeros (delta > 0): none",
    ]
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
    from . import scan  # the only command that needs numpy

    report = scan.scan_three_point(
        alpha_range=(args.alpha_min, args.alpha_max),
        delta_range=(0.0, args.delta_max),
        grid_counts=(args.grid, args.grid),
        digits=args.digits,
    )
    if not report.finite:
        raise UsageError("the scan overflows float64 on this window; "
                         "lower --alpha-max or --delta-max")
    if args.format == "table":
        _emit(args.out, _scan_summary(report))
        return 0
    path = args.out or f"scan3.{args.format}"
    with _open_out(path) as fh:
        (_scan_csv if args.format == "csv" else _scan_json)(report, fh)
    rows = f" ({args.grid * args.grid} rows)" if args.format == "csv" else ""
    sys.stdout.write(f"{_scan_summary(report)}wrote {path}{rows}\n")
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
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
