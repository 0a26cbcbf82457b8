"""Exact solvers for edge-vertex domination and paired domination.

An edge uv ev-dominates every vertex within distance one of u or v, so
its coverage is N[u] | N[v] as a bitmask. A vertex set D is dominating
when every vertex outside D has a neighbor inside D (membership alone
does not make a vertex dominated), and paired-dominating when it is
dominating and the subgraph it induces has a perfect matching.

Both solvers run one search over edge coverage masks. A paired set D is
the span V(M) of a matching M, and D dominates exactly when M's
coverages union to every vertex, so the paired solver searches for
ev-dominating matchings (edges with pairwise disjoint endpoints) and
returns their distinct spans. Each solver sweeps the number of edges
upward and collects every feasible choice at the first size that admits
one. ``solve_families`` reads both families off one ev search: the
minimum ev-sets that are matchings span the minimum paired sets whenever
any of them is a matching, and only when none is (gamma_pr would then
differ from 2 * gamma_ev) does it run the paired search too, so its
answer is exact without assuming that identity. Each hit carries the
bitmask of the vertices its edges span: a hit of k edges is a matching
exactly when 2k bits are set, and the distinct masks are the paired
sets. Search nodes are counted against a budget so a runaway search
surfaces as CapabilityError instead of a silent hang; the last edge of a
choice is tried in a loop, not a call, and each edge tried there still
counts as one node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapabilityError, DomainError, InvariantViolation
from .graphs import Graph, _iter_bits, _tree_walk, _vertex_mask, is_tree, normalize_edge, perfect_matchings_within

DEFAULT_BUDGET = 10**8

Edge = tuple[int, int]


@dataclass(frozen=True)
class MinSetFamily:
    """Every minimum set of one kind for one graph.

    ``sets`` is a lexicographically sorted, duplicate-free tuple; each
    member is itself a sorted tuple (of edges for kind "ev", of vertices
    for kind "paired").
    """

    kind: str
    gamma: int
    sets: tuple[tuple, ...]
    graph: Graph

    def contains(self, members) -> bool:
        """Membership test that normalizes the candidate's ordering first."""
        if self.kind == "ev":
            probe = tuple(sorted(normalize_edge(u, v) for u, v in members))
        else:
            probe = tuple(sorted(members))
        return probe in self.sets


@dataclass(frozen=True)
class UniquenessVerdict:
    """Outcome of a uniqueness query.

    ``common_span`` is only present when every witness covers the same
    vertex set: for kind "ev" that is the shared set of edge endpoints,
    for kind "paired" the set itself (hence present exactly when unique).
    ``family`` is the minimum family the verdict was read from.
    """

    unique: bool
    witness_count: int
    common_span: frozenset[int] | None
    family: MinSetFamily = field(repr=False, compare=False)


def ev_dominates(graph: Graph, edge: Edge, vertex: int) -> bool:
    """True when the edge is incident to the vertex or to one of its neighbors."""
    u, v = edge
    _require_edge(graph, edge)
    if not 0 <= vertex < graph.n:
        raise ValueError(f"vertex {vertex} out of range")
    reach = graph.closed_nbr_bits(vertex)
    return bool(reach >> u & 1 or reach >> v & 1)


def is_ev_dominating_set(graph: Graph, edges) -> bool:
    """Whether every vertex of the graph is ev-dominated by some member."""
    cover = 0
    for edge in edges:
        _require_edge(graph, edge)
        u, v = edge
        cover |= graph.closed_nbr_bits(u) | graph.closed_nbr_bits(v)
    return cover == (1 << graph.n) - 1


def is_dominating_set(graph: Graph, vertices) -> bool:
    """Whether every vertex outside the set has a neighbor inside it."""
    mask = _vertex_mask(graph, vertices)
    for v in range(graph.n):
        if mask >> v & 1:
            continue
        if not graph.nbr_bits[v] & mask:
            return False
    return True


def is_paired_dominating_set(graph: Graph, vertices) -> bool:
    """Dominating, and the induced subgraph has a perfect matching."""
    vertices = tuple(vertices)
    return is_dominating_set(graph, vertices) and next(perfect_matchings_within(graph, vertices), None) is not None


def solve_ev(graph: Graph, budget: int = DEFAULT_BUDGET) -> MinSetFamily:
    """All minimum ev-dominating sets."""
    return _ev_family(graph, *_min_edge_covers(graph, budget, matching=False))


def solve_pr(graph: Graph, budget: int = DEFAULT_BUDGET) -> MinSetFamily:
    """All minimum paired-dominating sets, as spans of minimum ev-dominating matchings."""
    return _pr_family(graph, *_min_edge_covers(graph, budget, matching=True))


def solve_families(graph: Graph, budget: int = DEFAULT_BUDGET) -> tuple[MinSetFamily, MinSetFamily]:
    """``(solve_ev(graph), solve_pr(graph))``, both from the ev search.

    Raises CapabilityError exactly when either solver would on its own
    with the same budget.
    """
    k, hits = _min_edge_covers(graph, budget, matching=False)
    ev = _ev_family(graph, k, hits)
    matchings = [hit for hit in hits if hit[1].bit_count() == 2 * k]
    if not matchings:
        # then gamma_pr != 2 * gamma_ev, which the census checks, not assumes
        return ev, solve_pr(graph, budget)
    return ev, _pr_family(graph, k, matchings)


def spanned_vertices(edges) -> frozenset[int]:
    """Union of the endpoints of the given edges."""
    out: set[int] = set()
    for u, v in edges:
        out.add(u)
        out.add(v)
    return frozenset(out)


def uniqueness(graph: Graph, kind: str, budget: int = DEFAULT_BUDGET) -> UniquenessVerdict:
    """Uniqueness of the minimum family of the given kind ("ev" or "paired")."""
    if kind == "ev":
        family = solve_ev(graph, budget)
        spans = {spanned_vertices(m) for m in family.sets}
        common = next(iter(spans)) if len(spans) == 1 else None
    elif kind == "paired":
        family = solve_pr(graph, budget)
        common = frozenset(family.sets[0]) if len(family.sets) == 1 else None
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return UniquenessVerdict(
        unique=len(family.sets) == 1,
        witness_count=len(family.sets),
        common_span=common,
        family=family,
    )


def gamma_ev_tree_fast(graph: Graph) -> int:
    """Minimum ev-dominating set size of a tree, by dynamic programming.

    Linear in the vertex count. Each vertex v keeps one row of five
    slots, the cheapest edge count in the subtrees of the children folded
    into it so far: ``on`` when v is an endpoint of a chosen edge, else
    ``free``, ``waiting``, ``covered`` or ``both`` as v is dominated (no,
    no, yes, yes) and some folded child still needs v on an edge (no, yes,
    no, yes). A child joins its parent's row once its own row is done.
    """
    if not is_tree(graph):
        raise DomainError("tree solver needs a tree")
    n = graph.n
    if n < 2:
        raise DomainError("need at least two vertices")
    order, parent = _tree_walk(graph, 0)
    INF = n + 1
    rows = [[INF, 0, INF, INF, INF] for _ in range(n)]
    for c in reversed(order[1:]):
        c_on, c_free, _, c_covered, _ = child = rows[c]
        row = rows[parent[c]]
        on, free, waiting, covered, both = row
        # take the edge c-parent and the parent is on; leave it out only if
        # c is not waiting or both: c on dominates the parent, c free makes
        # it wait, c covered changes nothing
        leave = min(c_on, c_free, c_covered)
        row[:] = (min(on + leave, min(row) + min(child) + 1),
                  free + c_covered,
                  min(waiting + c_covered, waiting + c_free, free + c_free),
                  min(covered + c_covered, free + c_on, covered + c_on),
                  min(both + leave, waiting + c_on, covered + c_free))
    best = min(rows[0][0], rows[0][3])
    if best >= INF:
        raise InvariantViolation("tree DP found no feasible selection")
    return best


# --- shared search machinery -------------------------------------------


def _ev_family(graph: Graph, k: int, hits) -> MinSetFamily:
    sets = tuple(sorted(tuple(sorted(pick)) for pick, _ in hits))
    return MinSetFamily(kind="ev", gamma=k, sets=sets, graph=graph)


def _pr_family(graph: Graph, k: int, hits) -> MinSetFamily:
    sets = tuple(sorted(tuple(_iter_bits(span)) for span in {span for _, span in hits}))
    return MinSetFamily(kind="paired", gamma=2 * k, sets=sets, graph=graph)


def _min_edge_covers(graph: Graph, budget: int, matching: bool):
    # Sweeps k = 1..n // 2 edges upward and returns the first k with hits,
    # each an (edge list, span bitmask) pair: a maximal matching has at
    # most n // 2 edges and its span dominates a graph without isolated
    # vertices. Each k is a depth-first search that passes the still
    # uncovered vertices down; edges come sorted by shrinking coverage, so
    # one suffix test bounds the remaining range. The matching search skips
    # an edge meeting the used endpoints. Each search node spends one unit
    # of the budget; the last edge is tried in a loop, not a call, and each
    # edge tried there spends one unit (the bound and the skip spend none).
    # Up to the ev search's last size the matching search visits a subset
    # of its nodes (the same bounds, plus the skip), so a finished ev
    # search whose hits include a matching also certifies the matching
    # search's budget: solve_families runs out exactly when solve_ev or
    # solve_pr would.
    _require_solvable(graph)
    full = (1 << graph.n) - 1
    edges = graph.edges
    cover = {e: graph.closed_nbr_bits(e[0]) | graph.closed_nbr_bits(e[1]) for e in edges}
    order = sorted(edges, key=lambda e: (-cover[e].bit_count(), e))
    outside = [full ^ cover[e] for e in order]
    sizes = [cover[e].bit_count() for e in order]
    ends = [1 << u | 1 << v for u, v in order]
    m = len(order)
    left = budget
    hits: list[tuple[list[Edge], int]] = []

    def descend(start: int, slots: int, chosen: list[Edge], uncovered: int, used: int) -> None:
        nonlocal left
        left -= 1
        if left < 0:
            raise CapabilityError("search budget exhausted")
        missing = uncovered.bit_count()
        if slots == 1:
            for i in range(start, m):
                if missing > sizes[i]:
                    break
                if matching and ends[i] & used:
                    continue
                left -= 1
                if not uncovered & outside[i]:
                    hits.append(([*chosen, order[i]], used | ends[i]))
            if left < 0:
                raise CapabilityError("search budget exhausted")
            return
        for i in range(start, m - slots + 1):
            if missing > slots * sizes[i]:
                break
            if matching and ends[i] & used:
                continue
            chosen.append(order[i])
            descend(i + 1, slots - 1, chosen, uncovered & outside[i], used | ends[i])
            chosen.pop()

    try:
        for k in range(1, graph.n // 2 + 1):
            descend(0, k, [], full, 0)
            if hits:
                return k, hits
    except RecursionError:
        raise CapabilityError(f"search for {k} edges goes deeper than the recursion limit") from None
    raise InvariantViolation("no ev-dominating matching up to n // 2 edges")


def _require_solvable(graph: Graph) -> None:
    if graph.n < 2:
        raise DomainError("solver needs at least two vertices")
    for v in range(graph.n):
        if not graph.nbr_bits[v]:
            raise DomainError(f"vertex {v} is isolated")


def _require_edge(graph: Graph, edge: Edge) -> None:
    u, v = edge
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
