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

from .domination import Edge, _normalized, _require_edge
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
    ``trace`` lists the left-branch steps in order: replaying them on
    the input set, each swapping its replaced edge for its inserted
    edge, passes through every left set and ends at ``left``.
    """

    left: tuple[Edge, ...]
    right: tuple[Edge, ...]
    trace: tuple[TwinningStep, ...]
    iterations: int


def sharing_pairs(edges) -> int:
    """Number of unordered member pairs with a common endpoint."""
    return _sharing_pairs({normalize_edge(u, v) for u, v in edges})


def check_claim(graph: Graph, edges) -> bool:
    """No three members form a path on four vertices or a triangle."""
    return _claim_holds({normalize_edge(u, v) for u, v in edges})


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
    for member in members:
        _require_edge(graph, member)
    return _private_vertex(graph, members, edge, anchor)


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
    for member in members:
        _require_edge(graph, member)
    return _twin(graph, members, e1, e2)


def detangle(graph: Graph, edges) -> DetangleResult:
    """Iterate twinning on the first branch until no members share a vertex.

    The input must contain at least one sharing pair. Pair selection is
    deterministic: always the lexicographically smallest sharing pair of
    the current set. The iteration count is capped at |set| squared; for
    a genuine minimum set each step removes at least one sharing pair, so
    hitting the cap means the caller's inputs were inconsistent.
    """
    members = _normalized(edges)
    pair = _first_sharing_pair(members)
    if pair is None:
        raise ValueError("the set has no sharing pair to rewrite")
    # a repeated member can only be the first pair: each step drops repeats
    if pair[0] == pair[1]:
        raise ValueError("need two distinct edges")
    for member in members:
        _require_edge(graph, member)
    cap = len(members) ** 2
    current = members
    trace: list[TwinningStep] = []
    while pair is not None:
        if len(trace) == cap:
            raise InvariantViolation(f"detangle exceeded {cap} iterations")
        current, right, left_step, _ = _twin(graph, current, *pair)
        trace.append(left_step)
        pair = _first_sharing_pair(current)
    return DetangleResult(left=current, right=right, trace=tuple(trace), iterations=len(trace))


# The private cores take members as distinct normalized edges; the last
# two need them as a sorted tuple of graph edges, and edges that are
# members of it. The public functions above check that once.
def _sharing_pairs(members) -> int:
    # two distinct edges share at most one vertex, so a vertex met by d
    # members adds C(d, 2) pairs: the k-th member there pairs with k - 1
    met: dict[int, int] = {}
    pairs = 0
    for u, v in members:
        d = met.get(u, 0)
        f = met.get(v, 0)
        met[u] = d + 1
        met[v] = f + 1
        pairs += d + f
    return pairs


def _claim_holds(members) -> bool:
    # three members form a P4 or a triangle exactly when some member meets
    # another member at each of its endpoints: those two others differ,
    # since a member meeting both endpoints would be the same edge, and
    # their far ends coincide (triangle) or not (P4)
    seen = twice = 0
    for u, v in members:
        ends = 1 << u | 1 << v
        twice |= seen & ends
        seen |= ends
    return not twice or not any(twice >> u & 1 and twice >> v & 1 for u, v in members)


def _private_vertex(graph: Graph, members, edge: Edge, anchor: int) -> int:
    # every neighbor of the anchor is ev-dominated by the edge itself,
    # so only the coverage N[u] | N[v] of the other members is ruled out
    covered = 0
    for u, v in members:
        if (u, v) != edge:
            covered |= graph.closed_nbr_bits(u) | graph.closed_nbr_bits(v)
    free = graph.nbr_bits[anchor] & ~covered
    if free:
        return (free & -free).bit_length() - 1
    raise NotMinimumWitness(f"no private vertex for {edge} at {anchor}")


def _twin(graph: Graph, members, e1: Edge, e2: Edge):
    # twinning on members e1 != e2 that share exactly one vertex
    pivot = e1[0] if e1[0] in e2 else e1[1]
    steps = []
    for edge in (e1, e2):
        outer = edge[0] + edge[1] - pivot
        x = _private_vertex(graph, members, edge, outer)
        steps.append(TwinningStep(replaced_edge=edge, inserted_edge=normalize_edge(x, outer),
                                  private_vertex=x, shared_vertex=pivot))
    base = set(members)
    left, right = (tuple(sorted(base - {step.replaced_edge} | {step.inserted_edge})) for step in steps)
    return left, right, *steps


def _first_sharing_pair(members) -> tuple[Edge, Edge] | None:
    for a, b in combinations(members, 2):
        if a[0] in b or a[1] in b:
            return a, b
    return None
