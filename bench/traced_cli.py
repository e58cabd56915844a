"""Run ``satlab.cli.main`` with the tracer installed and save its spans.

Usage: python3 bench/traced_cli.py TRACE_JSON ARGS...

ARGS are passed to ``satlab.cli.main``; the exit code is its return value.
The time to import ``satlab.cli`` is recorded as the ``cli.import_s`` count.
"""

import time

_t0 = time.perf_counter()
import satlab.cli  # noqa: E402

_import_s = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = satlab.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.counts["cli.import_s"] += _import_s
        tracer.counts["cli.processes"] += 1
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.data(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
