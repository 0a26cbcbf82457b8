"""Seeded graph stream for the cli-queries workload.

The stream is made without the package, so the program under test only
ever sees the graph6 files written from it. It comes in rounds: each
round holds one graph per (kind, n) stratum in a seeded order, so every
round has the same mix of sizes and only the shapes vary with the seed,
which keeps the seed-to-seed spread of the latency figures small.

Trees are uniform labelled trees (Pruefer decoding). Sparse graphs are
G(n, 3/n) draws, redrawn until connected.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from pathlib import Path

SIZES = range(14, 19)
STRATA = tuple((kind, n) for kind in ("tree", "sparse") for n in SIZES)


@dataclass(frozen=True)
class Query:
    index: int
    kind: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def graph6(self) -> str:
        return graph6(self.n, self.edges)


def query_stream(seed: int):
    """Yield queries forever, round after round, as fixed by the seed."""
    rng = random.Random(seed)
    index = 0
    while True:
        order = list(STRATA)
        rng.shuffle(order)
        for kind, n in order:
            edges = random_tree(rng, n) if kind == "tree" else random_sparse_connected(rng, n)
            yield Query(index, kind, n, edges)
            index += 1


def write_queries(workdir: Path, queries) -> list[tuple[Query, str]]:
    """Write each query to its own graph6 file; return (query, path) pairs."""
    workdir.mkdir(parents=True, exist_ok=True)
    batch = []
    for query in queries:
        path = workdir / f"q{query.index}.g6"
        path.write_text(query.graph6() + "\n", encoding="ascii")
        batch.append((query, str(path)))
    return batch


def random_tree(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return tuple(sorted(edges))


def random_sparse_connected(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    p = 3 / n
    while True:
        edges = tuple((i, j) for j in range(n) for i in range(j) if rng.random() < p)
        if _connected(n, edges):
            return edges


def _connected(n: int, edges) -> bool:
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def graph6(n: int, edges) -> str:
    """Short-form graph6 (n <= 62): upper triangle column by column, 6 bits a byte."""
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)
