"""Run one equiref CLI command with tracing installed, then write its spans.

Usage: python3 perfbench/trace_launch.py SPANS_JSON OP_ID -- <equiref arguments>

The program is imported before the wrappers go in, so import time is not
traced; the exit code is the command's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import equiref.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, op = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: trace_launch.py SPANS_JSON OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return equiref.cli.main(sys.argv[4:])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
