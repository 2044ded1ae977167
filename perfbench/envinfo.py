"""The environment a result was measured in."""

from __future__ import annotations

import importlib.util
import os
import platform
from importlib import metadata
from pathlib import Path

#: a grid array must exceed this multiple of the last-level cache before a
#: scan's time says anything about memory bandwidth
BANDWIDTH_LLC_MULTIPLE = 4


def cache_sizes() -> dict[str, int]:
    """Per-core data/unified cache sizes in bytes by level, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or not size.endswith("K"):
            continue
        sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def numba_importable() -> bool:
    return importlib.util.find_spec("numba") is not None


def environment(scan_backend: str, largest_grid: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    caches = cache_sizes()
    llc = caches[max(caches)] if caches else 0
    array_bytes = 8 * largest_grid * largest_grid
    info = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "numba_importable": numba_importable(),
        "scan_backend": scan_backend,
        "caches_bytes": caches,
        "largest_grid": largest_grid,
        "grid_array_bytes": array_bytes,
    }
    if largest_grid:
        if caches.get("L2"):
            info["grid_array_over_l2"] = array_bytes / caches["L2"]
        if llc:
            info["grid_array_over_llc"] = array_bytes / llc
        claimed = llc > 0 and array_bytes >= BANDWIDTH_LLC_MULTIPLE * llc
        info["bandwidth_claimed"] = claimed
        if not claimed:
            info["bandwidth_note"] = (
                f"memory bandwidth is not claimed: one grid array is "
                f"{array_bytes / 2**20:.1f} MiB, below {BANDWIDTH_LLC_MULTIPLE}x "
                f"the {llc / 2**20:.0f} MiB last-level cache")
    return info
