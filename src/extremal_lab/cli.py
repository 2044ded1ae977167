"""Command-line interface: verification records, energy evaluation,
certified critical classes, and the three-point grid scan.  `_report` is
the one place verify, energy and critical switch on --format; `main`
checks --digits once for every subcommand, before any other flag.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage, parse, or
domain errors.  Output is deterministic for a fixed configuration; every
pi^2 multiple is printed exactly with a float column alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import stat
import sys

# fractions, energy, delpezzo, exactpoly, critical, json, csv and numpy are
# imported where they are used, so each command loads only what it runs:
# energy loads no polynomial layer (exactpoly, critical); scan3 loads scan,
# which also renders its reports, the plain-data sextics and numpy, and no
# exact arithmetic; and no exact command loads scan
from . import __version__

#: cap on --digits.  At 800, verify took 0.08 s and critical --k 2 0.07 s end
#: to end (Python 3.11, x86-64 Linux, no bytecode cache), about half of it
#: interpreter start; the package's own modules import in 14-15 ms without a
#: bytecode cache and 2 ms with one, and the exact work grows faster than
#: linearly in the digits
MAX_DIGITS = 800
#: cap on the length of a rational flag, its decimal exponent counted in full
#: (1e300 counts 303).  energy prints integers of up to about 16 digits per
#: digit of its longest flag: 3162 at 200, inside Python's 4300-digit
#: int-to-str limit, in 9 ms (Python 3.11, x86-64 Linux)
MAX_RATIONAL_DIGITS = 200
#: cap on --grid cells per axis.  No format holds a grid-sized array, only
#: 16-row blocks: at 1024 the table, csv and json peaked at 30.0-30.5 MiB
#: (Python 3.11, numpy 2.4, OpenBLAS 0.3, x86-64 Linux)
MAX_GRID = 1024

PI_SQUARED = math.pi ** 2


class UsageError(Exception):
    """Bad flag combinations or out-of-domain requests; exit code 2."""


def _fraction_arg(text: str):
    from fractions import Fraction

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


@contextlib.contextmanager
def _open_out(path: str | None):
    """The text stream for the --out `path`, or stdout when path is None or "".

    A `path` naming stdout's or stderr's own file, as /dev/stdout and
    /dev/stderr do, is written through that stream.  Any other regular or
    absent file is written to a new sibling of its real path, opened with
    "x" so its mode follows the umask, and os.replace moves the sibling over
    it once the block succeeds; any exception removes the sibling instead.
    Anything else (os.devnull, a FIFO) is written in place.  An OSError
    leaving the block names `path`, never the sibling.
    """
    def names(stream) -> bool:
        try:  # a stream captured in memory has no descriptor, so no path names it
            return os.path.samestat(os.stat(path), os.fstat(stream.fileno()))
        except (OSError, ValueError):  # io.UnsupportedOperation is both
            return False

    stream = next(filter(names, (sys.stdout, sys.stderr)), None) if path else sys.stdout
    if stream is not None:
        yield stream
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


#: how csv and the table spell the cells that are not strings: a verify
#: record's missing abs_error and its verdict
_CELL_WORDS = {"csv": {None: "", True: "true", False: "false"},
               "table": {None: "-", True: "pass", False: "FAIL"}}
#: header keys the table spells otherwise
_TABLE_LABELS = {"name": "record", "abs_error": "abs error", "pass": "status"}


def _report(args, header, rows, payload) -> None:
    """Write `payload` as json, or `header` and `rows` (cells str, None or
    bool) as csv or a table, in `args.format` to `args.out`."""
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2) + "\n"
    else:
        words = _CELL_WORDS[args.format]
        rows = [[c if isinstance(c, str) else words[c] for c in row] for row in rows]
        if args.format == "csv":
            import csv

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            text = buf.getvalue()
        else:
            header = [_TABLE_LABELS.get(h, h) for h in header]
            widths = [max(map(len, col)) for col in zip(header, *rows)]
            text = "".join(
                "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"
                for cells in (header, ["-" * w for w in widths], *rows))
    with _open_out(args.out) as fh:
        fh.write(text)


# -- verify -------------------------------------------------------------------

def _verify_records(digits: int) -> list[dict]:
    """The verify records, each keyed name, expected, computed, abs_error,
    tolerance and pass; abs_error is None when the check could not produce
    a number."""
    from fractions import Fraction

    from . import critical, energy
    from .delpezzo import make_surface
    from .exactpoly import fraction_to_decimal

    internal = max(digits, 12)
    recs: list[dict] = []

    def dec(x) -> str:
        return fraction_to_decimal(x, digits)

    def add(name, expected, computed, err, tolerance):
        recs.append({"name": name, "expected": expected, "computed": computed,
                     "abs_error": None if err is None else dec(err),
                     "tolerance": tolerance,
                     "pass": err is not None and err <= Fraction(tolerance)})

    ok, residual = energy.verify_identity()
    if ok:
        add("energy identity residual", "0", "0", Fraction(0), "0")
    else:
        worst = max(abs(c) for c in residual.terms.values())
        add("energy identity residual", "0",
            f"nonzero ({len(residual.terms)} terms)", worst, "0")

    try:
        coeff = energy.solve_unknown_coefficient(residual)
        add("variance coefficient recovery", "276", str(coeff), abs(coeff - 276), "0")
    except ValueError:
        add("variance coefficient recovery", "276", "inconsistent system", None, "0")

    one = critical.page_class(digits=internal)
    two = critical.two_point_class(digits=internal)
    x, y = one.critical.bracket.midpoint, two.critical.bracket.midpoint
    for name, expected, value, tolerance in (
            ("one-point critical parameter", "2.183933404", x, "1e-8"),
            ("one-point line/exceptional ratio", "3.183933404",
             one.line_to_exceptional_ratio, "1e-8"),
            ("two-point critical parameter", "0.9577128052", y, "1e-9"),
            ("two-point line/exceptional ratio", "2.9577128052",
             two.line_to_exceptional_ratio, "1e-9"),
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


def cmd_verify(args) -> int:
    recs = _verify_records(args.digits)
    _report(args, list(recs[0]), [list(r.values()) for r in recs], recs)
    return 0 if all(r["pass"] for r in recs) else 1


# -- energy -------------------------------------------------------------------

def cmd_energy(args) -> int:
    from . import energy

    k, alpha, beta, delta = args.k, args.alpha, args.beta, args.delta
    # the bits of k, as in delpezzo.slice_class: 1 is --alpha, 2 is --beta.
    # delta = 0 is a Kahler class only at k = 3, so only k = 3 has a default
    flags = (("--alpha", alpha, k & 1), ("--beta", beta, k & 2))
    optional = "" if k < 3 else "optional "
    if any((value is None) == bool(bit) for _, value, bit in flags) or delta is None and k < 3:
        takes = ", ".join(name for name, _, bit in flags if bit)
        lacks = "".join(f" (no {name})" for name, _, bit in flags if not bit)
        raise UsageError(f"k={k} takes {takes} and {optional}--delta{lacks}")
    delta = 0 if delta is None else delta
    breakdown = energy.surface_energy(k, alpha, beta, delta)

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
    payload = {
        "k": k,
        "alpha": None if alpha is None else str(alpha),
        "beta": None if beta is None else str(beta),
        "delta": str(delta),
    }
    rows = []
    for (name, value, pi2), flt in zip(quantities, floats):
        payload[name.replace(" ", "_")] = {"pi2_multiple" if pi2 else "exact": str(value),
                                           "value": flt}
        rows.append((name, f"{value} pi^2" if pi2 else str(value), f"{flt:.{args.digits}g}"))
    _report(args, ("quantity", "exact", "float"), rows, payload)
    return 0


# -- critical -----------------------------------------------------------------

def cmd_critical(args) -> int:
    if args.k not in (1, 2):
        raise UsageError("--k must be 1 or 2; the three-point family has no single "
                         "critical parameter, use the scan3 subcommand instead")
    from . import critical
    from .exactpoly import fraction_to_decimal

    report = critical.page_class(args.digits) if args.k == 1 else critical.two_point_class(args.digits)
    c = report.critical

    def dec(x) -> str:
        return fraction_to_decimal(x, args.digits)

    quantities = [
        ("variable", "variable", c.variable),
        ("low", "bracket low", str(c.bracket.low)),
        ("high", "bracket high", str(c.bracket.high)),
        ("refined_root", "refined root", dec(c.bracket.midpoint)),
        ("classification", "classification", c.classification),
        ("line_to_exceptional_ratio", "line/exceptional ratio", dec(report.line_to_exceptional_ratio)),
        ("normalized_energy", "normalized energy", dec(report.normalized_energy)),
        ("three_times_normalized", "3 * normalized energy", dec(3 * report.normalized_energy)),
        ("residual", "trace-free Ricci deficit", dec(report.residual)),
        ("root_count", "derivative roots in domain", report.root_count),
        ("search_bound", "search bound", str(report.search_bound)),
        ("derivative_root_bound", "derivative root bound", str(report.derivative_root_bound)),
    ]
    payload = {"k": report.k}
    for key, _, value in quantities:
        (payload.setdefault("bracket", {}) if key in ("low", "high") else payload)[key] = value
    rows = [(label, str(value)) for _, label, value in quantities]
    _report(args, ("quantity", "value"), rows, payload)
    return 0


# -- scan3 --------------------------------------------------------------------

def cmd_scan3(args) -> int:
    if not 2 <= args.grid <= MAX_GRID:
        raise UsageError(f"--grid must be between 2 and {MAX_GRID}")
    for flag in ("alpha_min", "alpha_max", "delta_max"):
        if not math.isfinite(getattr(args, flag)):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite")
    if not 0 < args.alpha_min < args.alpha_max:
        raise UsageError("alpha range must satisfy 0 < --alpha-min < --alpha-max")
    if args.delta_max <= 0:
        raise UsageError("--delta-max must be positive")
    try:
        from . import scan  # the only command that needs numpy
    except ImportError as exc:
        raise UsageError("scan3 needs numpy, which cannot be imported") from exc

    report = scan.scan_three_point(
        alpha_range=(args.alpha_min, args.alpha_max),
        delta_range=(0.0, args.delta_max),
        grid_counts=(args.grid, args.grid),
    )
    if not report.finite:
        raise UsageError("the scan overflows float64 on this window; "
                         "lower --alpha-max or --delta-max")
    if args.format == "table":
        with _open_out(args.out) as fh:
            fh.write(report.summary(args.digits))
        return 0
    path = args.out or f"scan3.{args.format}"
    with _open_out(path) as fh:
        (report.write_csv if args.format == "csv" else report.write_json)(fh, args.digits)
    rows = f" ({args.grid * args.grid} rows)" if args.format == "csv" else ""
    sys.stdout.write(f"{report.summary(args.digits)}wrote {path}{rows}\n")
    return 0


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False here and on each subparser: a flag is spelled in
    # full, so --del -1/2 is refused like --del=-1/2 rather than slipping
    # past _join_negative_rationals
    parser = argparse.ArgumentParser(
        prog="extremal-lab", allow_abbrev=False,
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

    p = sub.add_parser("verify", parents=[common], allow_abbrev=False,
                       help="run the verification record suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("energy", parents=[common], allow_abbrev=False,
                       help="energy decomposition at one Kahler class")
    p.add_argument("--k", type=int, choices=(1, 2, 3), required=True,
                   help="number of blown-up points")
    p.add_argument("--alpha", type=_fraction_arg, help="exceptional area (k=1, k=3)")
    p.add_argument("--beta", type=_fraction_arg, help="exceptional area (k=2, k=3)")
    p.add_argument("--delta", type=_fraction_arg,
                   help="opposite-side excess (needed at k=1, k=2; default 0)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("critical", parents=[common], allow_abbrev=False,
                       help="certified critical class of the k-point energy")
    p.add_argument("--k", type=int, required=True, help="1 or 2")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("scan3", parents=[common], allow_abbrev=False,
                       help="grid scan of the three-point slice (beta = 1 gauge)")
    p.add_argument("--grid", type=int, default=200,
                   help=f"cells per axis (2 to {MAX_GRID}, default 200)")
    p.add_argument("--alpha-min", type=float, default=0.05)
    p.add_argument("--alpha-max", type=float, default=20.0)
    p.add_argument("--delta-max", type=float, default=10.0)
    p.set_defaults(func=cmd_scan3)
    return parser


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """argv with `--alpha -1/2` joined into `--alpha=-1/2`, and so on: argparse
    takes a token like -1/2 or -1e5 for an option, but not in the = form."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--alpha", "--beta", "--delta") and re.match(r"-[0-9.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _join_negative_rationals(sys.argv[1:] if argv is None else argv))
    try:
        # every subcommand takes --digits, so it is checked here, first
        if not 6 <= args.digits <= MAX_DIGITS:
            raise UsageError(f"--digits must be between 6 and {MAX_DIGITS}")
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
