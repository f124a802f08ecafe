"""One set-up of a workload in a fresh interpreter; prints its seconds, raw
and scaled to the reference host speed (see ``common.HostSpeed``).

Usage: ``python bench/setup_probe.py WORKLOAD SEED``

``run.py`` starts several of these so that ``setup_s`` is a median over fresh
processes rather than one sample.
"""

import os
import shutil
import sys

from common import WORK, timed_setup
from workloads import WORKLOADS


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    try:
        raw, scaled = timed_setup(WORKLOADS[name](seed))
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
    print(repr(raw), repr(scaled))
    return 0


if __name__ == "__main__":
    sys.exit(main())
