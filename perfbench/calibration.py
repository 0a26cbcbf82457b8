"""Host-speed calibration: a fixed pure-Python job timed between units of work.

The reference host shares its two cores with other tenants. Its speed for
one and the same job swings by 30% either way from one twentieth of a
second to the next, and its average speed drifts by 20% or more over tens
of seconds and by up to 2x over minutes. Process CPU time moves with it
(the slowdown is not stolen time, it is a slower core), so timing CPU
instead of wall time does not help. Instead, after every unit of work (a
census, a round of queries, a set-up probe) the benchmark runs blocks of
a fixed job for a set share of that unit's time. It divides each unit's
time by the mean time of the blocks that followed it, and reports the
median of these ratios over the run, times ``REFERENCE_S``: seconds on a
host where a block takes exactly that long, which is about its typical
time on the reference host. The mean of many short blocks follows the
host's average speed, as a long unit does; pairing each unit with its
own blocks follows the drift within a run.

The job is a brute-force search for the dominating sets of a small fixed
graph, so it exercises what the package spends its time on (small sets,
frozensets, tuples, loops). It does not use the package, so no change to
the package moves it.
"""

from __future__ import annotations

import itertools
import statistics
import time

REFERENCE_S = 0.017
REPEATS = 20

# a 3x3 grid (vertices 0..8) with a path 8-9-10-11-12 hanging off a corner;
# it has 3 dominating sets of at most four vertices
_N = 13
_EDGES = ([(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
          + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)]
          + [(8, 9), (9, 10), (10, 11), (11, 12)])
_DOMINATING_SETS = 3


def calibrate(seconds: float) -> float:
    """Run blocks of the job until they have taken ``seconds``; return the mean block time."""
    blocks = []
    while not blocks or sum(blocks) < seconds:
        blocks.append(_block_seconds())
    return statistics.fmean(blocks)


def _block_seconds() -> float:
    start = time.perf_counter()
    for _ in range(REPEATS):
        found = _dominating_sets()
        if found != _DOMINATING_SETS:
            raise RuntimeError(f"calibration job found {found} sets, not {_DOMINATING_SETS}")
    return time.perf_counter() - start


def _dominating_sets() -> int:
    adjacent = [set() for _ in range(_N)]
    for u, v in _EDGES:
        adjacent[u].add(v)
        adjacent[v].add(u)
    closed = [frozenset(adjacent[v] | {v}) for v in range(_N)]
    everything = frozenset(range(_N))
    found = []
    for k in range(1, 5):
        for combo in itertools.combinations(range(_N), k):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if covered == everything:
                found.append(tuple(sorted(combo)))
    return len(found)


def scaled(units: list[float], blocks: list[float]) -> float:
    """Median of unit time over the mean block time after it, in seconds at REFERENCE_S per block."""
    return statistics.median(u / b for u, b in zip(units, blocks, strict=True)) * REFERENCE_S
