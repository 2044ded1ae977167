"""Compare the numba and numpy scan kernels bit for bit.

    python perfbench/kernel_check.py GRID

Both backends evaluate the same term tables on the default scan window;
prints one JSON object with the number of cells whose value or gradient
norm differs in any bit.  Only meaningful where numba is importable.
"""

import json
import sys

import numpy as np
from extremal_lab import _kernels
from extremal_lab.critical import _geometric_grid, _term_tables


def main() -> int:
    grid = int(sys.argv[1])
    alphas, _ = _geometric_grid(0.05, 20.0, grid)
    deltas = np.linspace(0.0, 10.0, grid)
    tables = _term_tables()
    (va, ga), (vb, gb) = (_kernels.scan_eval(alphas, deltas, tables, backend=b)
                          for b in ("numba", "numpy"))
    differ = ((va.view(np.uint64) != vb.view(np.uint64))
              | (ga.view(np.uint64) != gb.view(np.uint64)))
    print(json.dumps({"grid": grid, "mismatched_cells": int(np.count_nonzero(differ))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
