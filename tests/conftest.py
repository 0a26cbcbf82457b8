from __future__ import annotations

import multiprocessing

import pytest

from domicert import Graph, MinSetFamily
from domicert.census import CONNECTED, CensusConfig, run_census

from .oracles import sharing_pairs_naive


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


def edge_mask(edges, members) -> int:
    """The members, edges of the sorted edge list ``edges``, as a bitmask over its indices."""
    return sum({1 << edges.index(tuple(sorted(e))) for e in members})


def vertex_mask(vertices) -> int:
    """The vertices as a bitmask."""
    return sum({1 << v for v in vertices})


def span_mask(edges) -> int:
    """The vertices the edges span, as a bitmask."""
    return vertex_mask(v for e in edges for v in e)


def family_of(graph: Graph, kind: str, gamma: int, sets) -> MinSetFamily:
    """A family holding ``sets``, sorted tuples as ``MinSetFamily.sets`` lists them,
    as the solvers build one: masks ascending, each with its span."""
    if kind == "ev":
        pairs = sorted({(edge_mask(graph.edges, m), span_mask(m)) for m in sets})
        return MinSetFamily(kind, gamma, tuple(m for m, _ in pairs), tuple(s for _, s in pairs), graph, graph.edges)
    masks = tuple(sorted({vertex_mask(d) for d in sets}))
    return MinSetFamily(kind, gamma, masks, masks, graph, graph.edges)


def minimum_of(edges, sets) -> dict[int, tuple[int, int]]:
    """Each set as a mask over ``edges``, mapped to its span and its sharing pairs,
    as ``census._detangles_cleanly`` reads a family."""
    return {edge_mask(edges, m): (span_mask(m), sharing_pairs_naive(m)) for m in sets}


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


def pytest_addoption(parser):
    parser.addoption("--run-long", action="store_true",
                     help="also run the tests marked long: report pins of half-minute censuses")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="long; run with --run-long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_process_left():
    """Fails a test that leaves a multiprocessing child running, and stops it."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.kill()
        process.join(timeout=10)
    assert left == [], "the test left a worker process running"


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
