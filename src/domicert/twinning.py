"""Edge rewriting on minimum ev-dominating sets.

When two edges of a minimum ev-dominating set share a vertex, each of
the two outer endpoints owns a private vertex that no other member
dominates. Swapping one shared edge for the pendant edge at its private
vertex yields another minimum set with strictly fewer sharing pairs;
doing this to either edge of the pair produces two distinct sets, and
iterating on the first branch until no two members touch detangles the
whole set. ``detangle`` performs that iteration deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .domination import Edge
from .errors import InvariantViolation, NotMinimumWitness
from .graphs import Graph, normalize_edge


@dataclass(frozen=True)
class TwinningStep:
    """One edge swap: replaced_edge left the set, inserted_edge joined it."""

    replaced_edge: Edge
    inserted_edge: Edge
    private_vertex: int
    shared_vertex: int


@dataclass(frozen=True)
class DetangleResult:
    """Two sharing-free rewrites of the same input set.

    ``left`` is the fixed point of always rewriting the first branch,
    ``right`` the second branch produced on the final iteration, and
    ``trace`` lists the left-branch steps in order. ``branches`` holds
    the (left, right) pair of sets that each step produced, in step
    order: every left set is the input of the next step, and the last
    pair is (``left``, ``right``).
    """

    left: tuple[Edge, ...]
    right: tuple[Edge, ...]
    trace: tuple[TwinningStep, ...]
    iterations: int
    branches: tuple[tuple[tuple[Edge, ...], tuple[Edge, ...]], ...]


def sharing_pairs(edges) -> int:
    """Number of unordered member pairs with a common endpoint."""
    # two distinct edges share at most one vertex, so a vertex met by d
    # members adds C(d, 2) pairs: the k-th member there pairs with k - 1
    met: dict[int, int] = {}
    pairs = 0
    for e in {normalize_edge(u, v) for u, v in edges}:
        for v in e:
            d = met.get(v, 0)
            pairs += d
            met[v] = d + 1
    return pairs


def check_claim(graph: Graph, edges) -> bool:
    """No three members form a path on four vertices or a triangle."""
    members = _normalized(edges)
    for triple in combinations(members, 3):
        verts = {v for e in triple for v in e}
        if len(verts) == 3:
            return False
        if len(verts) == 4:
            degree: dict[int, int] = {}
            for u, v in triple:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            if sorted(degree.values()) == [1, 1, 2, 2]:
                return False
    return True


def find_private_vertex(graph: Graph, edges, edge: Edge, anchor: int) -> int:
    """Smallest neighbor of ``anchor`` that only ``edge`` ev-dominates.

    Raises NotMinimumWitness when no neighbor qualifies, which certifies
    that the inputs are not a minimum set in the assumed configuration.
    """
    members = _normalized(edges)
    edge = normalize_edge(*edge)
    if edge not in members:
        raise ValueError(f"{edge} is not a member of the set")
    if anchor not in edge:
        raise ValueError(f"vertex {anchor} is not an endpoint of {edge}")
    # every neighbor of the anchor is ev-dominated by the edge itself,
    # so only the coverage N[u] | N[v] of the other members is ruled out
    covered = 0
    for u, v in members:
        if not graph.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        if (u, v) != edge:
            covered |= graph.closed_nbr_bits(u) | graph.closed_nbr_bits(v)
    for x in graph.neighbors(anchor):
        if not covered >> x & 1:
            return x
    raise NotMinimumWitness(f"no private vertex for {edge} at {anchor}")


def twinning(graph: Graph, edges, e1: Edge, e2: Edge):
    """Rewrite a sharing pair both ways.

    ``e1`` and ``e2`` must be members sharing exactly one vertex. Returns
    (left_set, right_set, left_step, right_step) where the left set
    replaces e1 with the pendant edge at e1's private vertex and the
    right set does the same to e2.
    """
    members = _normalized(edges)
    e1 = normalize_edge(*e1)
    e2 = normalize_edge(*e2)
    if e1 == e2:
        raise ValueError("need two distinct edges")
    if e1 not in members or e2 not in members:
        raise ValueError("both edges must be members of the set")
    shared = set(e1) & set(e2)
    if len(shared) != 1:
        raise ValueError(f"{e1} and {e2} must share exactly one vertex")
    pivot = shared.pop()
    out1 = e1[0] if e1[1] == pivot else e1[1]
    out2 = e2[0] if e2[1] == pivot else e2[1]
    x0 = find_private_vertex(graph, members, e1, out1)
    x4 = find_private_vertex(graph, members, e2, out2)
    left_step = TwinningStep(
        replaced_edge=e1,
        inserted_edge=normalize_edge(x0, out1),
        private_vertex=x0,
        shared_vertex=pivot,
    )
    right_step = TwinningStep(
        replaced_edge=e2,
        inserted_edge=normalize_edge(x4, out2),
        private_vertex=x4,
        shared_vertex=pivot,
    )
    base = set(members)
    left = tuple(sorted(base - {e1} | {left_step.inserted_edge}))
    right = tuple(sorted(base - {e2} | {right_step.inserted_edge}))
    return left, right, left_step, right_step


def detangle(graph: Graph, edges) -> DetangleResult:
    """Iterate twinning on the first branch until no members share a vertex.

    The input must contain at least one sharing pair. Pair selection is
    deterministic: always the lexicographically smallest sharing pair of
    the current set. The iteration count is capped at |set| squared; for
    a genuine minimum set each step removes at least one sharing pair, so
    hitting the cap means the caller's inputs were inconsistent.
    """
    members = _normalized(edges)
    if sharing_pairs(members) == 0:
        raise ValueError("the set has no sharing pair to rewrite")
    cap = len(members) ** 2
    current = members
    trace: list[TwinningStep] = []
    branches: list[tuple[tuple[Edge, ...], tuple[Edge, ...]]] = []
    while (pair := _first_sharing_pair(current)) is not None:
        if len(trace) == cap:
            raise InvariantViolation(f"detangle exceeded {cap} iterations")
        current, right, left_step, _ = twinning(graph, current, *pair)
        trace.append(left_step)
        branches.append((current, right))
    return DetangleResult(left=current, right=right, trace=tuple(trace),
                          iterations=len(trace), branches=tuple(branches))


def _first_sharing_pair(members) -> tuple[Edge, Edge] | None:
    for a, b in combinations(members, 2):
        if a[0] in b or a[1] in b:
            return a, b
    return None


def _normalized(edges) -> tuple[Edge, ...]:
    return tuple(sorted(normalize_edge(u, v) for u, v in edges))
