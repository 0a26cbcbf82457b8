from __future__ import annotations

import pytest

from domicert import Graph
from domicert.census import CONNECTED, CensusConfig, run_census


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider_222() -> Graph:
    # center 0, three legs of length two: 0-1-2, 0-3-4, 0-5-6
    return Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def pendant_cycle() -> Graph:
    # 4-cycle 0..3, pendant i+4 hanging off cycle vertex i
    return Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)])


PENDANT_CYCLE_TEXT = """\
8 8
0 1
1 2
2 3
0 3
0 4
1 5
2 6
3 7
"""

SPIDER_TEXT = """\
7 6
0 1
1 2
0 3
3 4
0 5
5 6
"""


@pytest.fixture
def tmp_graph_file(tmp_path):
    def write(text: str, name: str = "graph.edges"):
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        return str(target)

    return write


@pytest.fixture(scope="session")
def probe_at_8():
    """The thm2_probe census over all connected graphs at n=8, built once per session."""
    config = CensusConfig(family=CONNECTED, n_min=8, n_max=8,
                          checks=("thm2_probe",), worker_count=4)
    return run_census(config)
