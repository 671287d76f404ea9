"""Traced ``tv`` process: install the tracer, then run ``tvals.cli.main``.

Usage: ``python cli_shim.py <summary.json> <spawn monotonic time> <tv args...>``.
Writes the tracer's summary, with the time from spawn to ``main`` as
``cli.process_start_s``, and exits with ``main``'s exit code.
"""

import json
import sys
import time

from tracer import Tracer


def main(argv) -> int:
    out, spawned, args = argv[1], float(argv[2]), argv[3:]
    tracer = Tracer().install()
    import tvals.cli

    tracer.request = 0
    started = time.monotonic()
    try:
        return tvals.cli.main(args)
    finally:
        summary = tracer.summary()
        summary["cli.process_start_s"] = started - spawned
        summary["cli.processes"] = 1
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
