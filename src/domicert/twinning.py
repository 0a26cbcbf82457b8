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

from itertools import combinations

from .domination import Edge, _Record, _edge_tuple, _incidence, _normalized, _require_edge
from .errors import InvariantViolation, NotMinimumWitness
from .graphs import Graph, normalize_edge


class TwinningStep(_Record):
    """One edge swap: replaced_edge left the set, inserted_edge joined it."""

    _fields = ("replaced_edge", "inserted_edge", "private_vertex", "shared_vertex")

    def __init__(self, replaced_edge: Edge, inserted_edge: Edge, private_vertex: int, shared_vertex: int):
        self.__dict__.update(replaced_edge=replaced_edge, inserted_edge=inserted_edge,
                             private_vertex=private_vertex, shared_vertex=shared_vertex)


class DetangleResult(_Record):
    """Two sharing-free rewrites of the same input set.

    ``left`` is the fixed point of always rewriting the first branch,
    ``right`` the second branch produced on the final iteration, and
    ``trace`` lists the left-branch steps in order: replaying them on
    the input set, each swapping its replaced edge for its inserted
    edge, passes through every left set and ends at ``left``.
    """

    _fields = ("left", "right", "trace", "iterations")

    def __init__(self, left: tuple[Edge, ...], right: tuple[Edge, ...], trace: tuple[TwinningStep, ...],
                 iterations: int):
        self.__dict__.update(left=left, right=right, trace=trace, iterations=iterations)


def sharing_pairs(edges) -> int:
    """Number of unordered member pairs with a common endpoint."""
    return _sharing_pairs(*_loose(edges))


def check_claim(graph: Graph, edges) -> bool:
    """No three members form a path on four vertices or a triangle.

    The graph is not consulted: the members are read as loose edges and
    need not be edges of it.
    """
    return _claim_holds(*_loose(edges))


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
    if len(set(e1) & set(e2)) != 1:
        raise ValueError(f"{e1} and {e2} must share exactly one vertex")
    edge_list, incident, mask = _on_graph(graph, members)
    a, b = (incident[u] & incident[v] for u, v in (e1, e2))
    left, right, x1, x2 = _twin(graph, edge_list, incident, mask, a, b)
    return (_edge_tuple(edge_list, left), _edge_tuple(edge_list, right),
            _step(e1, e2, x1), _step(e2, e1, x2))


def detangle(graph: Graph, edges) -> DetangleResult:
    """Iterate twinning on the first branch until no members share a vertex.

    The input must contain at least one sharing pair. Pair selection is
    deterministic: always the lexicographically smallest sharing pair of
    the current set. The iteration count is capped at |set| squared; for
    a genuine minimum set each step removes at least one sharing pair, so
    hitting the cap means the caller's inputs were inconsistent.
    """
    members = _normalized(edges)
    # the first pair of the input as given, repeats included, so a repeat
    # is reported before any member is looked up in the graph; a repeat can
    # only be the first pair, since each step drops repeats
    pair = next(((a, b) for a, b in combinations(members, 2) if a[0] in b or a[1] in b), None)
    if pair is None:
        raise ValueError("the set has no sharing pair to rewrite")
    if pair[0] == pair[1]:
        raise ValueError("need two distinct edges")
    return _detangle(graph, *_on_graph(graph, members))


# The cores take a set as a bitmask ``members`` over the indices of a
# sorted, duplicate-free edge list ``edges``, and ``incident[v]``, the
# mask of the edges that meet vertex v (``_incidence``). The census runs
# them, and the command line runs ``_detangle``, on an ev family's
# ``index``, the graph's edge list and its incidence; the public functions
# above check their tuple arguments once and convert at this boundary.
# Bit order is lexicographic edge order.
def _on_graph(graph: Graph, members) -> tuple[tuple[Edge, ...], list[int], int]:
    # normalized members, each checked to be a graph edge, as the cores
    # take them: the graph's edge list, its incidence, and their mask
    for member in members:
        _require_edge(graph, member)
    edges = graph.edges
    incident = _incidence(edges)
    mask = 0
    for u, v in members:
        mask |= incident[u] & incident[v]
    return edges, incident, mask


def _loose(edges) -> tuple[list[Edge], list[int], int]:
    # arbitrary edges, not necessarily of any graph, repeats dropped, as
    # the cores take them: their own sorted list, its incidence, and all.
    # The cores only ask which members meet, so the vertices are ranked
    # 0..k-1 in order: the incidence grows with the set, not its largest
    # id. Ids are non-negative; the first sorted edge holds the smallest
    distinct = sorted({normalize_edge(u, v) for u, v in edges})
    if distinct and distinct[0][0] < 0:
        raise ValueError(f"vertex {distinct[0][0]} out of range")
    rank = {v: i for i, v in enumerate(sorted({v for edge in distinct for v in edge}))}
    dense = [(rank[u], rank[v]) for u, v in distinct]
    return dense, _incidence(dense), (1 << len(dense)) - 1


def _sharing_pairs(edges, incident, members: int) -> int:
    # two distinct edges share at most one vertex, so each member meets a
    # partner once and itself at both ends: summed over the members, that
    # counts every pair twice and every member twice
    met = 0
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        u, v = edges[low.bit_length() - 1]
        met += (members & incident[u]).bit_count() + (members & incident[v]).bit_count()
    return met // 2 - members.bit_count()


def _claim_holds(edges, incident, members: int) -> bool:
    # three members form a P4 or a triangle exactly when some member meets
    # another member at each of its endpoints: those two others differ,
    # since a member meeting both endpoints would be the same edge, and
    # their far ends coincide (triangle) or not (P4)
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        u, v = edges[low.bit_length() - 1]
        if members & incident[u] != low and members & incident[v] != low:
            return False
    return True


def _first_sharing_pair(edges, incident, members: int) -> tuple[int, int] | None:
    # the first pair of members, as single bits, that shares a vertex: the
    # lowest member with a later partner, and its lowest later partner
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        u, v = edges[low.bit_length() - 1]
        later = rest & (incident[u] | incident[v])
        if later:
            return low, later & -later
    return None


def _private_vertex(graph: Graph, edges, members: int, bit: int, anchor: int) -> int:
    # the smallest neighbor of the anchor that only the member ``bit``
    # ev-dominates: it dominates every neighbor of its own end, so only the
    # coverage N[u] | N[v] of the other members is ruled out, which for a
    # graph edge uv is the open neighbourhoods' union
    nbr = graph.nbr_bits
    covered = 0
    others = members & ~bit
    while others:
        low = others & -others
        others ^= low
        u, v = edges[low.bit_length() - 1]
        covered |= nbr[u] | nbr[v]
    free = nbr[anchor] & ~covered
    if free:
        return (free & -free).bit_length() - 1
    raise NotMinimumWitness(f"no private vertex for {edges[bit.bit_length() - 1]} at {anchor}")


def _twin(graph: Graph, edges, incident, members: int, a: int, b: int) -> tuple[int, int, int, int]:
    # twinning on members a != b, single bits, whose edges share exactly
    # one vertex: (left, right, x_a, x_b), where left swaps a for the
    # pendant edge from a's outer end to its private vertex x_a, and right
    # does the same to b
    e1, e2 = edges[a.bit_length() - 1], edges[b.bit_length() - 1]
    pivot = e1[0] if e1[0] in e2 else e1[1]
    outer_a, outer_b = e1[0] + e1[1] - pivot, e2[0] + e2[1] - pivot
    x_a = _private_vertex(graph, edges, members, a, outer_a)
    x_b = _private_vertex(graph, edges, members, b, outer_b)
    return (members ^ a | incident[x_a] & incident[outer_a], members ^ b | incident[x_b] & incident[outer_b],
            x_a, x_b)


def _detangle(graph: Graph, edges, incident, members: int) -> DetangleResult:
    # ``detangle`` on members with a sharing pair, in at most cap steps
    cap = members.bit_count() ** 2
    trace: list[TwinningStep] = []
    bits = _first_sharing_pair(edges, incident, members)
    while bits is not None:
        if len(trace) == cap:
            raise InvariantViolation(f"detangle exceeded {cap} iterations")
        a, b = bits
        members, right, x, _ = _twin(graph, edges, incident, members, a, b)
        trace.append(_step(edges[a.bit_length() - 1], edges[b.bit_length() - 1], x))
        bits = _first_sharing_pair(edges, incident, members)
    return DetangleResult(left=_edge_tuple(edges, members), right=_edge_tuple(edges, right),
                          trace=tuple(trace), iterations=len(trace))


def _step(edge: Edge, other: Edge, x: int) -> TwinningStep:
    # the swap of ``edge`` for its pendant edge at private vertex x, where
    # ``other`` is the member it shares a vertex with
    pivot = edge[0] if edge[0] in other else edge[1]
    outer = edge[0] + edge[1] - pivot
    return TwinningStep(replaced_edge=edge, inserted_edge=normalize_edge(x, outer),
                        private_vertex=x, shared_vertex=pivot)
