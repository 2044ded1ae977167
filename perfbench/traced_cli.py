"""Run one extremal-lab command with spans around each module's public functions.

    python perfbench/traced_cli.py OP_ID SPANS_JSON ARG...

ARG... is passed to the extremal-lab command line unchanged.  The spans
and counters are written to SPANS_JSON when the command ends.
"""

import sys

from spans import Recorder


def main() -> int:
    op_id, out_path, *argv = sys.argv[1:]
    from extremal_lab import cli

    recorder = Recorder(int(op_id))
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
