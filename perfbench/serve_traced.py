#!/usr/bin/env python3
"""Run ``monet serve`` with the benchmark's span wrappers installed.

Usage: ``serve_traced.py SPANS_PATH serve --store DIR --listen HOST:PORT``.
On SIGTERM the server stops and the spans are written to SPANS_PATH.
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from monet import cli  # noqa: E402  (imports every module the tracer wraps)
from tracing import Tracer  # noqa: E402


def _stop(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _stop)
    try:
        cli.main(argv)
    finally:
        tracer.write(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
