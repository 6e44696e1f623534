"""``python -m repro serve`` with the benchmark's layer wrappers
installed, for the traced gateway run.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_server.py SPANS.jsonl serve --port 0 ...

Everything after the first argument goes to ``repro``'s own CLI.  The
recorded spans and counts are written to ``SPANS.jsonl`` when the server
exits (SIGTERM drains it and returns normally).
"""

from __future__ import annotations

import sys

import layers
import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    layers.install(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
