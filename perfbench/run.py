"""extremal-lab benchmark: end-to-end CLI runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
load is a closed loop with one client: one `python -m extremal_lab ...`
process at a time, each timed from process start to exit, with CPU time and
peak RSS taken from os.wait4 for that child alone.  Inputs come from --seed
(see workloads.py); every output is checked against references that do not
use extremal-lab (see checks.py).

--trace 0 prints the end-to-end metrics.  Set-up deletes the program's
bytecode caches and runs one warm-up op of each subcommand the workload
uses.  It runs before the first timed op and SETUP_REPS - 1 more times
spread over the run, untimed; setup_s is the median.
After the timed ops, hostile-input probes run; they count in ok_ratio only.
Three figures are printed but not bounded in BENCHMARK.json: cpu_s, which
moves with the load on the other core, and certified_digits_per_s and
mcells_per_s, which are zero on workloads without exact or scan ops.

--trace 1 runs the workload at half size twice per op, once plainly and once
under traced_cli.py, which puts spans around each module's public functions.
It prints per-layer self times, call counts and sizes, the import times of a
fresh process, and the tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it name every metric with its unit, plus the
workload-specific rates and the environment.  `--workload all` runs every
workload in turn and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Optional

import checks
import envinfo
import spans
from ops import OpResult, TAIL_BEYOND, run_process, tail_latency
from workloads import WORKLOADS, Op, schedule

HERE = Path(__file__).resolve().parent

# (name, unit, better, bound): measured with tracing off.  On the shared
# 2-core box the workloads were sized on, one op's time varies by up to 40%
# between identical runs, and ten 20 s runs by 10-20% (interquartile range
# over median) as neighbours load the machine for minutes at a time, so
# every time-based bound is the widest allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("export_mb_per_s", "MB/s", "higher", 0.25),
)

# (name, unit, better): from the traced run.
PER_LAYER = (
    ("import.cli_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    *((f"{spans.span_name(m, f)}.{stat}", unit, "lower")
      for m, f in spans.TARGETS for stat, unit in (("self_s", "s"), ("calls", "count"))),
    ("exactpoly.isolate_real_roots.degree_max", "count", "lower"),
    ("exactpoly.isolate_real_roots.endpoint_bits_sum", "bits", "lower"),
    ("exactpoly.isolate_real_roots.endpoint_bits_max", "bits", "lower"),
    ("exactpoly.sturm_chain.length_max", "count", "lower"),
    ("critical.scan_three_point.interior_zero_candidates", "count", "lower"),
    ("kernels.scan_eval.cells", "count", "higher"),
    ("kernels.scan_eval.mcells_per_s", "Mcells/s", "higher"),
    ("kernels.scan_eval.terms", "count", "lower"),
    ("kernels.scan_eval.flops_per_cell_computed", "flop", "lower"),
    ("kernels.scan_eval.bytes_per_cell_computed", "B", "lower"),
    ("kernels.numba_check.ran", "count", "higher"),
    ("kernels.numba_check.mismatched_cells", "count", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

SETUP_REPS = 5
IMPORT_REPS = 5
NUMBA_CHECK_GRID = 257
OP_TIMEOUT_S = 120.0
PROBE_TIMEOUT_S = 60.0
#: no op starts after this, so a run ends well inside 180 s
RUN_DEADLINE_S = 140.0
#: classes certified by one op of each exact subcommand
CERTIFIED_CLASSES = {"critical": 1, "verify": 2}


class BenchmarkError(Exception):
    """The benchmark cannot run here; exit without a result."""


@dataclass
class Outcome:
    op: Op
    result: Optional[OpResult]  # None when the op was never started
    reason: Optional[str]  # None when the output is correct
    out_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.reason is None


class Runner:
    """Starts program processes from one checkout and checks their output."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.capture = workdir / "capture"
        self.capture.mkdir(parents=True)
        paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, argv, timeout_s: float = OP_TIMEOUT_S) -> OpResult:
        return run_process(argv, self.env, self.workdir, self.capture, timeout_s)

    def execute(self, op: Op, trace_path: Optional[Path] = None, op_id: int = 0,
                probe: bool = False) -> Outcome:
        if time.monotonic() > self.deadline:
            return Outcome(op, None, "not started: run deadline passed")
        if trace_path is None:
            argv = [sys.executable, "-m", "extremal_lab", *op.argv]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(op_id),
                    str(trace_path), *op.argv]
        res = self.run(argv, PROBE_TIMEOUT_S if probe else OP_TIMEOUT_S)
        out_file = self.workdir / op.out_name if op.out_name else None
        if res.timed_out:
            reason = "timed out"
        elif probe:
            reason = checks.check_probe(op, res.returncode, res.stdout, res.stderr,
                                        self.workdir)
        else:
            reason = checks.check_op(op, res.returncode, res.stdout, self.workdir)
        out_bytes = res.stdout_bytes
        if out_file is not None and out_file.exists():
            out_bytes += out_file.stat().st_size
            out_file.unlink()
        return Outcome(op, res, reason, out_bytes)

    def clear_bytecode(self) -> None:
        for cache in (self.root / "src").rglob("__pycache__"):
            shutil.rmtree(cache)

    def setup(self, ops) -> tuple[float, list[Outcome]]:
        """Clear the bytecode caches and run each warm-up op; return the time."""
        start = time.perf_counter()
        self.clear_bytecode()
        cleared = time.perf_counter() - start
        done = [self.execute(op) for op in ops]
        return cleared + sum(o.result.wall_s for o in done if o.result), done

    def import_times(self) -> tuple[float, float]:
        """Median cumulative import time (ms) of extremal_lab.cli and of numpy
        inside it, each in a fresh process (-X importtime)."""
        cli_ms, numpy_ms = [], []
        for _ in range(IMPORT_REPS):
            res = self.run([sys.executable, "-X", "importtime", "-c",
                            "import extremal_lab.cli"])
            if res.returncode != 0:
                raise BenchmarkError(f"cannot import extremal_lab.cli: {res.stderr[-500:]}")
            cumulative = _import_cumulative_us(res.stderr)
            cli_ms.append(cumulative.get("extremal_lab.cli", 0) / 1000)
            numpy_ms.append(cumulative.get("numpy", 0) / 1000)
        return median(cli_ms), median(numpy_ms)

    def numba_check(self) -> Optional[int]:
        """Cells where numba and numpy disagree, or None when numba is absent."""
        if not envinfo.numba_importable():
            return None
        res = self.run([sys.executable, str(HERE / "kernel_check.py"),
                        str(NUMBA_CHECK_GRID)])
        if res.returncode != 0:
            raise BenchmarkError(f"numba kernel check failed: {res.stderr[-500:]}")
        return json.loads(res.stdout.splitlines()[-1])["mismatched_cells"]


def _import_cumulative_us(stderr: str) -> dict[str, int]:
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]))
    return cumulative


def _scan_backend(outcomes) -> str:
    for o in outcomes:
        if o.result and o.op.command == "scan3":
            for line in o.result.stdout.splitlines():
                if line.startswith("backend: "):
                    return line.removeprefix("backend: ").strip()
    return "not used"


def _kernel_model(terms: int) -> tuple[int, int]:
    """Computed flops and bytes per cell of the numpy scan path.

    Each of `terms` terms does three full-grid float64 operations:
    p = pa * pd (write 8 B), q = coef * p (read 8, write 8), acc = acc + q
    (read 16, write 8): 3 flops and 48 B.  Six accumulators are zeroed
    (8 B each).  Combining n, d and the four partials into the value and the
    gradient norm takes 15 flops and 352 B of streamed operands.
    """
    if not terms:
        return 0, 0
    return 3 * terms + 15, 48 * terms + 6 * 8 + 352


def end_to_end(runner: Runner, name: str, seed: int, seconds: float, lines: list):
    workload = WORKLOADS[name]
    ops = schedule(name, seed, seconds)
    # The set-up reps are spread over the run, so that their median, like the
    # ops' figures, covers the whole run and not one moment of the host's
    # load.  A rep leaves the bytecode warm, so the op after it is warm too.
    setups, warmups, outcomes = [], [], []
    due = Counter(j * len(ops) // SETUP_REPS for j in range(SETUP_REPS))
    for i, op in enumerate(ops):
        for _ in range(due[i]):
            took, done = runner.setup(workload.warmup)
            setups.append(took)
            warmups += done
        outcomes.append(runner.execute(op))
    setup_s = median(setups)
    probes = [runner.execute(op, probe=True) for op in workload.probes]

    ran = [o for o in outcomes if o.result is not None]
    walls = [o.result.wall_s for o in ran]
    if not walls:
        raise BenchmarkError("no op ran")
    wall = sum(walls)
    tail, pct = tail_latency(walls)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "latency_p50_s": median(walls),
        "latency_tail_s": tail,
        "peak_rss_mb": max(o.result.maxrss_kib for o in ran) / 1024,
        "ok_ratio": sum(o.ok for o in outcomes + probes) / len(outcomes + probes),
        "export_mb_per_s": sum(o.out_bytes for o in ran) / 1e6 / wall,
    }
    ops_ok, probes_ok = sum(o.ok for o in outcomes), sum(o.ok for o in probes)
    notes = {
        "latency_tail_s": f"p{pct:.1f} of N={len(walls)} ops, {TAIL_BEYOND} beyond it"
                          if len(walls) > TAIL_BEYOND else
                          f"maximum: only N={len(walls)} ops, fewer than {TAIL_BEYOND + 1}",
        "setup_s": f"median of {SETUP_REPS} cold-bytecode warm-ups of "
                   f"{len(workload.warmup)} ops, spread over the run",
        "ok_ratio": f"{ops_ok} of {len(outcomes)} ops and {probes_ok} of {len(probes)} "
                    f"probes correct; failed_ratio = {1 - metrics['ok_ratio']:.6g}",
    }
    lines.append(f"workload {name}: seed {seed}, {len(ops)} ops, {len(probes)} probes")
    for metric, unit, _, _ in END_TO_END:
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"  {metric} = {metrics[metric]:.6g} {unit}{note}")
    # printed, not bounded: each process also burns CPU on a second core when
    # one is free, so CPU time per wall second moves with the neighbours' load
    cpu = sum(o.result.cpu_s for o in ran)
    lines.append(f"  cpu_s = {cpu:.6g} s (user+sys of all op processes, "
                 f"{cpu / wall:.3g} x wall_s)")
    digits = sum(o.op.digits * CERTIFIED_CLASSES.get(o.op.command, 0)
                 for o in ran if o.ok)
    if digits:
        lines.append(f"  certified_digits_per_s = {digits / wall:.6g} digits/s "
                     f"(digits x classes certified / wall_s)")
    scans = [o for o in ran if o.op.command == "scan3"]
    if scans:
        cells = sum(o.op.cells for o in scans)
        scan_wall = sum(o.result.wall_s for o in scans)
        lines.append(f"  mcells_per_s = {cells / 1e6 / scan_wall:.6g} Mcells/s "
                     f"(grid cells / wall time of scan ops)")
    for probe in probes:
        status = "pass" if probe.ok else f"FAIL ({probe.reason})"
        lines.append(f"  probe {' '.join(probe.op.argv)}: {status}")
    env = envinfo.environment(_scan_backend(warmups + outcomes),
                              max((o.op.grid for o in outcomes), default=0))
    return metrics, outcomes, warmups, env


def per_layer(runner: Runner, name: str, seed: int, seconds: float, lines: list):
    workload = WORKLOADS[name]
    _, warmups = runner.setup(workload.warmup)
    ops = schedule(name, seed, seconds / 2)
    plain, traced, traces = [], [], []
    for i, op in enumerate(ops):
        path = runner.workdir / f"spans-{i}.json"
        # alternate which pass runs first, so neither gets a warmer cache
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            outcome = runner.execute(op, trace_path=path if tracing else None, op_id=i)
            (traced if tracing else plain).append(outcome)
            if tracing and path.exists():
                traces.append(json.loads(path.read_text()))
                path.unlink()
    self_s, calls, counters = spans.aggregate(traces)
    cli_ms, numpy_ms = runner.import_times()
    mismatched = None
    if any(op.command == "scan3" for op in ops):
        mismatched = runner.numba_check()

    def wall(outcomes):
        return sum(o.result.wall_s for o in outcomes if o.result)

    terms = counters.get("kernels.scan_eval.terms_max", 0)
    flops, nbytes = _kernel_model(terms)
    kernel_s = self_s.get("kernels.scan_eval", 0.0)
    cells = counters.get("kernels.scan_eval.cells", 0)
    metrics = {"import.cli_ms": cli_ms, "import.numpy_ms": numpy_ms}
    for module, function in spans.TARGETS:
        span = spans.span_name(module, function)
        metrics[f"{span}.self_s"] = self_s.get(span, 0.0)
        metrics[f"{span}.calls"] = calls.get(span, 0)
    for key in ("exactpoly.isolate_real_roots.degree_max",
                "exactpoly.isolate_real_roots.endpoint_bits_sum",
                "exactpoly.isolate_real_roots.endpoint_bits_max",
                "exactpoly.sturm_chain.length_max",
                "critical.scan_three_point.interior_zero_candidates",
                "kernels.scan_eval.cells"):
        metrics[key] = counters.get(key, 0)
    metrics.update({
        "kernels.scan_eval.mcells_per_s": cells / 1e6 / kernel_s if kernel_s else 0.0,
        "kernels.scan_eval.terms": terms,
        "kernels.scan_eval.flops_per_cell_computed": flops,
        "kernels.scan_eval.bytes_per_cell_computed": nbytes,
        "kernels.numba_check.ran": int(mismatched is not None),
        "kernels.numba_check.mismatched_cells": mismatched or 0,
        "cli.output_bytes": sum(o.out_bytes for o in plain),
        "trace.untraced_wall_s": wall(plain),
        "trace.traced_wall_s": wall(traced),
        "trace.overhead_s": wall(traced) - wall(plain),
        "trace.spans": sum(len(t["spans"]) for t in traces),
    })
    lines.append(f"workload {name} traced: seed {seed}, {len(ops)} ops, each run "
                 f"untraced and traced")
    for metric, unit, _ in PER_LAYER:
        lines.append(f"  {metric} = {metrics[metric]:.6g} {unit}")
    checked = plain + traced
    if mismatched:
        kernel_check = Op("kernel_check", ("kernel_check.py", str(NUMBA_CHECK_GRID)))
        checked.append(Outcome(kernel_check, None,
                               f"numba and numpy differ in {mismatched} cells"))
    env = envinfo.environment(_scan_backend(warmups + plain),
                              max((op.grid for op in ops), default=0))
    return metrics, checked, warmups, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "extremal_lab" / "__init__.py").is_file():
        print("error: run from the root of an extremal-lab checkout "
              "(src/extremal_lab not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = per_layer if args.trace else end_to_end
    lines: list[str] = []
    results = {}
    try:
        for name in names:
            workdir = root / ".perfbench_work" / f"{name}-{os.getpid()}"
            try:
                results[name] = measure(Runner(root, workdir), name, args.seed,
                                        args.seconds, lines)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = {m[0]: m[1] for m in (PER_LAYER if args.trace else END_TO_END)}
    correct, attempted, failed_ops, metrics = True, 0, 0, {}
    for name, (values, outcomes, warmups, env) in results.items():
        failed = [o for o in outcomes if not o.ok]
        for o in failed + [w for w in warmups if not w.ok]:
            lines.append(f"  FAILED {name}: {' '.join(o.op.argv)}: {o.reason}")
        lines.append(f"env {name}: " + json.dumps(env, sort_keys=True))
        correct = correct and not failed and all(w.ok for w in warmups)
        attempted += len(outcomes)
        failed_ops += len(failed)
        # one workload: the metric names of BENCHMARK.json; all: prefixed by workload
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": values[k], "unit": u}
                        for k, u in units.items()})
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
