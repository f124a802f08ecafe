"""Traced stand-in for ``python -m hkgenus``: same arguments, streams and exit code.

Usage: ``python bench/trace_child.py SPANS_PATH [hkgenus arguments...]``

Times ``import hkgenus``, installs the benchmark's wrappers, calls
``hkgenus.cli.main`` and writes the spans and counters to SPANS_PATH as JSON,
also when ``main`` raises, so a traceback still leaves its trace behind.
"""

import sys
from time import perf_counter_ns

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter_ns()
    import hkgenus
    import hkgenus.cli
    import_ns = perf_counter_ns() - start
    tracer = Tracer()
    tracer.install(hkgenus)
    tracer.op_begin(0)
    try:
        return hkgenus.cli.main(argv)
    finally:
        tracer.op_end()
        tracer.uninstall()
        import json

        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({**tracer.payload(), "import_ns": import_ns}, handle)


if __name__ == "__main__":
    sys.exit(main())
