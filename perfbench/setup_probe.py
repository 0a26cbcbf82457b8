"""Set-up probe: a fresh process that imports domicert and loads one workload's inputs.

Usage: setup_probe.py WORKLOAD SEED WORKDIR START

START is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is the system-wide monotonic clock, so the
set-up time the probe prints is the time from then until the inputs are
loaded. It imports nothing of the benchmark but ``queries``, and that
only on cli-queries, to write the first round of query files.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import domicert.census  # noqa: E402,F401
import domicert.cli  # noqa: E402,F401

if sys.argv[1] == "cli-queries":
    import itertools

    from queries import STRATA, query_stream, write_queries

    write_queries(Path(sys.argv[3]), itertools.islice(query_stream(int(sys.argv[2])), len(STRATA)))

print(repr(time.perf_counter() - float(sys.argv[4])))
