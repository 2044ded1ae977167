"""Block helpers shared by the scan tests.

`_whole_grids` stacks the grids from the blocks of the kernel `scan._blocks`.
The bit-for-bit oracles read cells through it, so no test needs a
whole-grid member on `ScanReport`.  `_one_buffer_blocks` yields given grids
the way the kernel yields its blocks, so a test can feed hand-built cells to
the code that reads the blocks.
"""

import numpy as np

from extremal_lab import scan


def _whole_grids(alphas, deltas):
    """(values, grad_norms) on the whole grid, stacked from copies of the
    blocks that `scan._blocks` yields.  The kernel is looked up at each call,
    so a patched `scan._blocks` serves too."""
    blocks = [(v.copy(), g.copy()) for _, v, g in scan._blocks(alphas, deltas)]
    return tuple(np.concatenate(grids) for grids in zip(*blocks))


def _one_buffer_blocks(values, grad_norms, rows):
    """`values` and `grad_norms` as `scan._blocks` yields a grid: `rows` alpha
    rows at a time, in one buffer that the next block overwrites, after it
    is filled with NaN."""
    buffer = np.empty((2, rows, values.shape[1]))
    for start in range(0, len(values), rows):
        block = slice(start, start + rows)
        value_block, grad_block = buffer[:, :len(values[block])]
        value_block[...], grad_block[...] = values[block], grad_norms[block]
        yield start, value_block, grad_block
        buffer[...] = np.nan
