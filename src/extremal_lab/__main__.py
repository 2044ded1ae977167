"""The process entry: `python -m extremal_lab` and the `extremal-lab` command."""

import gc
import sys

from .cli import main


def run() -> int:
    """`cli.main` on sys.argv, then `gc.freeze()`, so the collections Python
    runs at exit skip every object that numpy and the package made, a few
    milliseconds an op.  atexit handlers, the flush of stdout and stderr and
    the exit status are as without it.  `cli.main` itself does not freeze,
    so a caller that runs it in process keeps its collector."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
