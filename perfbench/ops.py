"""Run one program process and measure it from start to exit.

Wall time runs from just before the process is created to just after it is
reaped.  CPU time and peak resident set size come from the `os.wait4`
resource usage of that one child, so each op's memory is its own and not
the running maximum over all children that `RUSAGE_CHILDREN` would give.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

#: samples that must lie beyond the reported tail order statistic
TAIL_BEYOND = 10


@dataclass(frozen=True)
class OpResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    stdout: str
    stderr: str
    stdout_bytes: int
    timed_out: bool


def run_process(argv, env, cwd, capture_dir: Path, timeout_s: float) -> OpResult:
    """Run argv to completion, killing it after `timeout_s` seconds.

    stdout and stderr go to files in `capture_dir`, so a large output can
    never block the child on a full pipe.  The wait uses a pidfd, which wakes
    as soon as the child exits and cannot signal a recycled pid.
    """
    out_path, err_path = capture_dir / "stdout", capture_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd)
        pidfd = os.pidfd_open(proc.pid)
        timed_out = True  # until the child is seen to exit
        try:
            timed_out = not select.select([pidfd], [], [], timeout_s)[0]
        finally:
            # past the timeout, or interrupted while waiting: never leave it running
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    return OpResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kib=usage.ru_maxrss,
        stdout=stdout.decode("utf-8", "replace"),
        stderr=err_path.read_text("utf-8", "replace"),
        stdout_bytes=len(stdout),
        timed_out=timed_out,
    )


def tail_latency(samples) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it.

    For n sorted samples that is x[n - 11], at percentile 100 (n - 11)/(n - 1)
    under the linear-interpolation convention.  With n <= TAIL_BEYOND no
    sample qualifies; the maximum is returned at percentile 100 so the
    caller can say the rule could not be met.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = n - 1 - TAIL_BEYOND
    if rank < 0:
        return xs[-1], 100.0
    return xs[rank], (100.0 * rank / (n - 1) if n > 1 else 100.0)
