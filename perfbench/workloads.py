"""Seeded workloads: the argv of every op a benchmark run starts.

Each workload is a list of rounds.  A round is a fixed mix of ops whose
sizes are drawn from strata with a small seeded jitter, so every seed does
about the same amount of work and run-to-run spread reflects the program,
not the draw.  Within a workload the strata are chosen so that every op
costs about the same: a median or tail taken over ops of very different
costs would sit on the gap between two kinds and jump between runs.

The number of rounds is fixed by --seconds and the round's nominal
duration, measured on a shared 2-core Xeon box with Python 3.11 and
numpy 2.4 without numba, on the program as this benchmark was written.
A run therefore does a fixed amount of work that takes about --seconds
there, and a faster program finishes sooner.

The program sees only the argv built here.  Relative --out paths land in
the run's work directory, which is the child's working directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

FORMATS = ("table", "json", "csv")
#: exact-deep digit strata per op kind, each op taking 0.4-0.7 s when this
#: benchmark was written; each op adds a seeded jitter below EXACT_JITTER
EXACT_STRATA = {
    ("critical", 1): (420, 500, 580),
    ("critical", 2): (250, 310, 370),
    ("verify", 0): (150, 210, 270),
}
EXACT_JITTER = 10
#: cells per axis.  A large scan's grid arrays are 4x L2; at 1440-2000 cells
#: an op's time swung by a third as neighbours loaded the memory system.
#: Exports write every cell; json costs about 2.5x as much per cell as csv,
#: so its grid is smaller and both formats cost about the same per op.
SCAN_LARGE_GRID = 1000
SCAN_EXPORT_GRID = {"csv": 420, "json": 270}
GRID_JITTER = 8


@dataclass(frozen=True)
class Op:
    """One program invocation: `python -m extremal_lab *argv`."""

    command: str
    argv: tuple[str, ...]
    fmt: str = "table"
    digits: int = 12
    k: int = 0
    point: tuple[Fraction, ...] = ()  # energy: (alpha, beta, delta) on the slice
    grid: int = 0
    out_name: str = ""  # file the op writes in the work directory
    probe_flag: str = ""  # hostile-input probe: the flag a clean refusal names

    @property
    def cells(self) -> int:
        return self.grid * self.grid


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nominal_round_s: float
    make_round: Callable[[random.Random, int], list[Op]]
    warmup: tuple[Op, ...]
    probes: tuple[Op, ...] = field(default=())


def _critical(k: int, digits: int, fmt: str = "json") -> Op:
    return Op("critical", ("critical", "--k", str(k), "--digits", str(digits),
                           "--format", fmt), fmt=fmt, digits=digits, k=k)


def _verify(digits: int, fmt: str = "json") -> Op:
    return Op("verify", ("verify", "--digits", str(digits), "--format", fmt),
              fmt=fmt, digits=digits)


def _energy(k: int, alpha, beta, delta, fmt: str) -> Op:
    argv = ["energy", "--k", str(k)]
    if k != 2:
        argv += ["--alpha", str(alpha)]
    if k != 1:
        argv += ["--beta", str(beta)]
    argv += ["--delta", str(delta), "--format", fmt]
    point = (Fraction(alpha), Fraction(beta), Fraction(delta))
    return Op("energy", tuple(argv), fmt=fmt, k=k, point=point)


def _scan(grid: int, alpha_min: str = "0.05", alpha_max: str = "20",
          delta_max: str = "10", fmt: str = "table", out_name: str = "") -> Op:
    argv = ["scan3", "--grid", str(grid), "--alpha-min", alpha_min,
            "--alpha-max", alpha_max, "--delta-max", delta_max, "--format", fmt]
    if out_name:
        argv += ["--out", out_name]
    return Op("scan3", tuple(argv), fmt=fmt, grid=grid, out_name=out_name)


def _scan_ranges(rng: random.Random) -> dict:
    """Seeded scan window that keeps the anti-canonical class alpha = 1 inside."""
    return {"alpha_min": f"{rng.uniform(0.05, 0.5):.4g}",
            "alpha_max": f"{rng.uniform(5.0, 20.0):.4g}",
            "delta_max": f"{rng.uniform(2.0, 10.0):.4g}"}


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 60), rng.randint(1, 12))


def _big(rng: random.Random) -> Fraction:
    """A rational whose numerator has at least 64 bits."""
    return Fraction(rng.randint(2 ** 64, 2 ** 70), rng.randint(2 ** 40, 2 ** 66))


def exact_deep_round(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for (command, k), strata in EXACT_STRATA.items():
        for base in strata:
            digits = base + rng.randrange(EXACT_JITTER)
            ops.append(_verify(digits) if command == "verify" else _critical(k, digits))
    rng.shuffle(ops)
    return ops


def cli_quick_round(rng: random.Random, index: int) -> list[Op]:
    """Default-size ops of all four subcommands.

    Formats rotate with the round index rather than the seed, so every seed
    writes the same mix of output formats.
    """
    def fmt(i: int) -> str:
        return FORMATS[(i + index) % len(FORMATS)]

    ops = [_verify(12, fmt(0)), _critical(1, 12, fmt(1)), _critical(2, 12, fmt(2)),
           _scan(200)]
    classes = [
        (1, _small(rng), 0, _small(rng)),
        (1, _big(rng), 0, _big(rng)),
        (2, 0, _small(rng), _small(rng)),
        (2, 0, _big(rng), _big(rng)),
        (3, _small(rng), _small(rng), _small(rng)),
        (3, _big(rng), _big(rng), _big(rng)),
        (3, _small(rng), _small(rng), 0),  # the anti-canonical ray delta = 0
        (3, _big(rng), _small(rng), _big(rng)),
    ]
    ops += [_energy(k, a, b, d, fmt(i)) for i, (k, a, b, d) in enumerate(classes)]
    rng.shuffle(ops)
    return ops


def scan_large_round(rng: random.Random, index: int) -> list[Op]:
    return [_scan(SCAN_LARGE_GRID + rng.randrange(GRID_JITTER), **_scan_ranges(rng))]


def scan_export_round(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for fmt, grid in SCAN_EXPORT_GRID.items():
        ops.append(_scan(grid + rng.randrange(GRID_JITTER), fmt=fmt,
                         out_name=f"export-{index}.{fmt}", **_scan_ranges(rng)))
    return ops


PROBE_VERIFY_DIGITS = Op("verify", ("verify", "--digits", "1000"), digits=1000,
                         probe_flag="--digits")
PROBE_ALPHA_INF = Op("scan3", ("scan3", "--alpha-max", "inf"), grid=200,
                     probe_flag="--alpha-max")
PROBE_DELTA_HUGE = Op("scan3", ("scan3", "--delta-max", "1e300"), grid=200,
                      probe_flag="--delta-max")
SCAN_PROBES = (PROBE_ALPHA_INF, PROBE_DELTA_HUGE)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="exact-deep",
        why="critical and verify at 150-590 digits: Sturm isolation and Fraction "
            "refinement dominate, the scan kernel never runs",
        nominal_round_s=4.7,
        make_round=exact_deep_round,
        warmup=(_critical(1, 12), _verify(12)),
        probes=(PROBE_VERIFY_DIGITS,),
    ),
    Workload(
        name="cli-quick",
        why="default-size ops of all four subcommands: interpreter start and "
            "imports dominate, the exact layers and kernel take milliseconds",
        nominal_round_s=2.8,
        make_round=cli_quick_round,
        warmup=(_verify(12, "table"), _critical(2, 12, "table"),
                _energy(3, 1, 1, 0, "table"), _scan(200)),
        probes=SCAN_PROBES,
    ),
    Workload(
        name="scan-large",
        why="scan3 on a 1000x1000 grid with seeded ranges: the scan kernel is "
            "the largest layer and each grid array is 4x L2",
        nominal_round_s=0.8,
        make_round=scan_large_round,
        warmup=(_scan(200),),
        probes=SCAN_PROBES,
    ),
    Workload(
        name="scan-export",
        why="scan3 at 270-430 cells per axis exported as csv and json files: "
            "serialization of every cell dominates, unlike the reduced scans",
        nominal_round_s=2.2,
        make_round=scan_export_round,
        warmup=(_scan(20, fmt="csv", out_name="warmup.csv"),
                _scan(20, fmt="json", out_name="warmup.json")),
        probes=SCAN_PROBES,
    ),
)}


def schedule(workload: str, seed: int, seconds: float) -> list[Op]:
    """The ops of one run: whole rounds filling about `seconds` at nominal speed."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    rounds = max(1, round(seconds / w.nominal_round_s))
    return [op for i in range(rounds) for op in w.make_round(rng, i)]
