"""Exact solvers for edge-vertex domination and paired domination.

An edge uv ev-dominates every vertex within distance one of u or v, so
its coverage is N[u] | N[v] as a bitmask. A vertex set D is dominating
when every vertex outside D has a neighbor inside D (membership alone
does not make a vertex dominated), and paired-dominating when it is
dominating and the subgraph it induces has a perfect matching.

Both families come from one search over edge coverage masks. It sweeps
the number of edges upward and collects every ev-dominating choice at
the first size that admits one; each hit is two bitmasks, its edges over
``graph.edges`` and the vertices they span, so a hit of k edges is a
matching exactly when 2k span bits are set. A paired set D is the span
V(M) of a matching M, and D dominates exactly when M's coverages union
to every vertex. Some minimum ev-set is a matching: if members pa and pb
share p, minimality leaves pa a vertex y that no other member covers;
pb covers N[p], so y is a neighbor of a outside N[p] and no member's
endpoint. Swapping pa for ay keeps the set ev-dominating and its size
and leaves fewer pairs of members that share a vertex. So gamma_pr =
2 * gamma_ev, and the minimum paired sets are the distinct spans of the
minimum ev-sets that are matchings: ``solve_families`` reads them off
the ev search, and ``solve_pr`` is its second half.

The search answers one edge from the edges that cover every vertex. For
more edges it sweeps the size upward from a packing floor: vertices
taken deepest first in a breadth-first walk from vertex 0, each kept
when no edge covers both it and a vertex kept before, so every kept
vertex needs an edge of its own (the packing side of set cover; Meir
and Moon, Pacific J. Math. 61, 1975). At the floor itself only the
edges that cover a kept vertex are allowed, since a set of that many
edges takes one from each kept vertex's edges. At each size it branches
on the uncovered vertex that the fewest allowed edges cover. Search
nodes are counted against a budget so a runaway search surfaces as
CapabilityError instead of a silent hang: the one-edge answer is one
node, and so is the empty choice at each larger size from the floor on
and each edge added to a choice; the packing itself costs none. All
three solvers spend the same nodes on a graph.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress

from .errors import CapabilityError, DomainError, InvariantViolation
from .graphs import Graph, _iter_bits, _tree_walk, _vertex_mask, is_tree, normalize_edge, perfect_matchings_within

DEFAULT_BUDGET = 10**8

Edge = tuple[int, int]


class _Record:
    # a result record: ==, hash and repr over the fields named in _fields,
    # in constructor order, as on a dataclass. Constructors write the fields
    # to the instance dict, as cached_property does; setting or deleting an
    # attribute otherwise raises AttributeError, as on a frozen dataclass
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class MinSetFamily(_Record):
    """Every minimum set of one kind for one graph.

    Each member is a bitmask: bit j of an ev-set stands for
    ``graph.edges[j]``, and bit v of a paired set for vertex v.
    ``masks`` is ascending and duplicate-free; ``spans`` lines up with it
    and holds the vertices each member spans, so a paired set spans
    itself. ``edges`` is ``graph.edges``, as the search read it. ``sets``
    is the view for records and referees, built on first use: a
    lexicographically sorted tuple of members, each itself a sorted tuple
    (of edges for kind "ev", of vertices for kind "paired"). ``index`` is
    ``(edges, _incidence(edges))``, built once, and so is ``tangled``, the
    ev members with a sharing pair.

    ``rows`` holds each member as a row of 0/1 bytes, byte j its bit j,
    in the order of ``sets``, which is the descending order of the rows.
    Labels ascend with their index, so two members' sorted tuples first
    differ where the lowest index in one member and not the other falls:
    the member holding it has the smaller tuple and the larger row. That
    needs members of one size, as every family's are. Otherwise a tuple
    could end first and be the smaller one whatever it holds: (0,) sorts
    before (0, 1), but its row is the smaller. ``sets`` and the command
    line's listings pick each member's labels with its row.
    """

    _fields = ("kind", "gamma", "masks", "spans", "graph")  # edges stays out

    def __init__(self, kind: str, gamma: int, masks: tuple[int, ...], spans: tuple[int, ...], graph: Graph,
                 edges: tuple[Edge, ...]):
        self.__dict__.update(kind=kind, gamma=gamma, masks=masks, spans=spans, graph=graph, edges=edges)

    @cached_property
    def index(self) -> tuple[tuple[Edge, ...], list[int]]:
        return self.edges, _incidence(self.edges)

    @cached_property
    def tangled(self) -> list[int]:
        # gamma edges that span fewer than 2 * gamma vertices. A member
        # spanning 2 * gamma is a matching, with nothing to detangle and no
        # three edges forming a path or a triangle
        limit = 2 * self.gamma
        return [members for members, span in zip(self.masks, self.spans) if span.bit_count() < limit]

    @cached_property
    def rows(self) -> list[bytes]:
        return sorted(_bit_rows(self.masks), reverse=True)

    @cached_property
    def sets(self) -> tuple[tuple, ...]:
        labels = self.edges if self.kind == "ev" else range(self.graph.n)
        return tuple([tuple(compress(labels, row)) for row in self.rows])


class UniquenessVerdict(_Record):
    """Outcome of a uniqueness query.

    ``common_span`` is only present when every witness covers the same
    vertex set: for kind "ev" that is the shared set of edge endpoints,
    for kind "paired" the set itself (hence present exactly when unique).
    ``family`` is the minimum family the verdict was read from.
    """

    _fields = ("unique", "witness_count", "common_span")  # family stays out

    def __init__(self, unique: bool, witness_count: int, common_span: frozenset[int] | None, family: MinSetFamily):
        self.__dict__.update(unique=unique, witness_count=witness_count, common_span=common_span, family=family)


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
    return _ev_family(graph, *_min_edge_covers(graph, budget))


def solve_pr(graph: Graph, budget: int = DEFAULT_BUDGET) -> MinSetFamily:
    """All minimum paired-dominating sets: ``solve_families(graph, budget)[1]``."""
    return solve_families(graph, budget)[1]


def solve_families(graph: Graph, budget: int = DEFAULT_BUDGET) -> tuple[MinSetFamily, MinSetFamily]:
    """``(solve_ev(graph), solve_pr(graph))`` from one ev search.

    The paired sets are the spans of the minimum ev-sets that are
    matchings, and some minimum ev-set is one (see the module docstring).
    A graph where none is raises InvariantViolation: no ``Graph`` has such
    coverage masks, so it means a bug. Raises CapabilityError exactly when
    ``solve_ev`` would with the same budget.
    """
    ev = _ev_family(graph, *_min_edge_covers(graph, budget))
    gamma = 2 * ev.gamma
    spans = tuple(sorted({span for span in ev.spans if span.bit_count() == gamma}))
    if not spans:
        raise InvariantViolation(f"no minimum ev-set is a matching on the graph with edges {graph.edges}")
    return ev, MinSetFamily(kind="paired", gamma=gamma, masks=spans, spans=spans, graph=graph, edges=ev.edges)


def uniqueness(graph: Graph, kind: str, budget: int = DEFAULT_BUDGET) -> UniquenessVerdict:
    """Uniqueness of the minimum family of the given kind ("ev" or "paired")."""
    if kind == "ev":
        family = solve_ev(graph, budget)
    elif kind == "paired":
        family = solve_pr(graph, budget)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    spans = set(family.spans)
    return UniquenessVerdict(
        unique=len(family.masks) == 1,
        witness_count=len(family.masks),
        common_span=frozenset(_iter_bits(*spans)) if len(spans) == 1 else None,
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


def _ev_family(graph: Graph, k: int, hits, edges) -> MinSetFamily:
    hits.sort()
    masks, spans = zip(*hits)
    return MinSetFamily(kind="ev", gamma=k, masks=masks, spans=spans, graph=graph, edges=edges)


def _min_edge_covers(graph: Graph, budget: int):
    # Sweeps k = 1..n // 2 edges upward and returns (k, hits, edges): the
    # first k with hits, each an (edge mask, span mask) pair, where bit j of
    # the edge mask is edges[j], and the tuple graph.edges read once here,
    # which the ev family keeps. A maximal matching has at most n // 2 edges
    # and its span dominates a graph without isolated vertices. k = 1 is
    # the edges that cover every vertex, read off the coverage counts
    # before anything else is built. Past it the sweep starts at the
    # packing floor (module docstring), with the allowed edges at the floor
    # cut to the packed vertices' options. For each k, a depth-first
    # search passes the allowed edges (a bitmask over positions in the
    # search order) and the still uncovered vertices down, and branches on
    # the uncovered vertex with the fewest allowed options, the edges whose
    # coverage holds it, as exact set-cover solvers pick the element with
    # the fewest options (Knuth, "Dancing links", 2000). Each tried edge
    # leaves the allowed mask of its later siblings, so each set is found
    # once. In the last slot the hits are the allowed edges that hold every
    # uncovered vertex.
    # Edges come sorted by shrinking coverage, so the lowest allowed
    # position carries the largest coverage and bounds what the slots can
    # cover. No smaller k has a hit, so no node has nothing left to cover.
    # The k = 1 answer spends one unit of the budget and each call of
    # descend one more.
    #
    # Set-up reads only nbr_bits and the edge list: a coverage is both ends
    # and their neighbours; positions sort on coverage counts by a C-level
    # key; one loop over them fills the per-position tables and each
    # vertex's touching mask. An edge covers w when it touches w or a
    # neighbour x of w, so one pass over the edges wx builds the options.
    _require_solvable(graph)
    if budget < 1:
        raise CapabilityError(f"search budget of {budget} nodes exhausted")
    n = graph.n
    edges = graph.edges
    m = len(edges)
    bits = graph.nbr_bits
    cover = [bits[u] | bits[v] | 1 << u | 1 << v for u, v in edges]
    counts = [c.bit_count() for c in cover]
    if n in counts:
        return 1, [(1 << j, 1 << u | 1 << v) for j, (u, v) in enumerate(edges) if counts[j] == n], edges
    # stable under reverse too: equal coverage keeps the lexicographic edge order
    order = sorted(range(m), key=counts.__getitem__, reverse=True)
    full = (1 << n) - 1
    sizes = []
    ends = []
    pbit = []  # the edge-mask bit of each position
    outside = []
    touching = [0] * n
    for i, j in enumerate(order):
        u, v = edges[j]
        sizes.append(counts[j])
        ends.append(1 << u | 1 << v)
        pbit.append(1 << j)
        outside.append(full ^ cover[j])
        touching[u] |= 1 << i
        touching[v] |= 1 << i
    sizes.append(0)  # the bound for an empty allowed mask, whose lowest position reads -1
    options = touching.copy()
    for u, v in edges:
        options[u] |= touching[v]
        options[v] |= touching[u]
    # the packing floor: vertices taken deepest first whose options are
    # pairwise disjoint each need an edge of their own
    floor = 0
    packed = 0
    for w in reversed(_tree_walk(graph, 0)[0]):
        if not options[w] & packed:
            packed |= options[w]
            floor += 1
    left = budget - 1
    hits: list[tuple[int, int]] = []

    def descend(slots: int, allowed: int, uncovered: int, used: int, picked: int) -> None:
        nonlocal left
        left -= 1
        if left < 0:
            raise CapabilityError(f"search budget of {budget} nodes exhausted")
        if uncovered.bit_count() > slots * sizes[(allowed & -allowed).bit_length() - 1]:
            return
        rest = uncovered
        if slots == 1:
            while rest and allowed:
                low = rest & -rest
                allowed &= options[low.bit_length() - 1]
                rest ^= low
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                i = low.bit_length() - 1
                hits.append((picked | pbit[i], used | ends[i]))
            return
        fewest = allowed
        count = m + 1
        while rest:
            low = rest & -rest
            here = options[low.bit_length() - 1] & allowed
            if here.bit_count() < count:
                fewest, count = here, here.bit_count()
                if count < 2:
                    break
            rest ^= low
        while fewest:
            low = fewest & -fewest
            fewest ^= low
            allowed ^= low
            i = low.bit_length() - 1
            descend(slots - 1, allowed, uncovered & outside[i], used | ends[i], picked | pbit[i])

    everything = (1 << m) - 1
    try:
        for k in range(max(2, floor), n // 2 + 1):
            # floor edges that cover every packed vertex take one edge from
            # each packed vertex's options, so they all lie in the union
            descend(k, packed if k == floor else everything, full, 0, 0)
            if hits:
                return k, hits, edges
    except RecursionError:
        raise CapabilityError(f"search for {k} edges goes deeper than the recursion limit") from None
    finally:
        del descend  # descend reaches itself through its closure; unbinding it leaves no cycle to collect
    raise InvariantViolation("no ev-dominating set up to n // 2 edges")


def _require_solvable(graph: Graph) -> None:
    if graph.n < 2:
        raise DomainError("solver needs at least two vertices")
    if 0 in graph.nbr_bits:
        raise DomainError(f"vertex {graph.nbr_bits.index(0)} is isolated")


def _incidence(edges) -> list[int]:
    # per vertex, the mask of the edges that meet it
    incident = [0] * (1 + max((v for _, v in edges), default=-1))
    for j, (u, v) in enumerate(edges):
        incident[u] |= 1 << j
        incident[v] |= 1 << j
    return incident


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _bit_rows(masks) -> list[bytes]:
    # each mask as 0/1 bytes up to its highest set bit, byte j its bit j, so
    # that itertools.compress picks the labels of its set bits in index
    # order. The missing high zeros change no comparison: where one row
    # ends, the other row still holds a set bit, as its padded row would
    return [bin(mask)[:1:-1].encode().translate(_ZERO_ONE) for mask in masks]


def _edge_tuple(edges, mask: int) -> tuple:
    # the entries of edges (or of range(n), for a vertex mask) at the bits of mask, in index order
    return tuple(compress(edges, _bit_rows((mask,))[0]))


def _normalized(edges) -> tuple[Edge, ...]:
    return tuple(sorted(normalize_edge(u, v) for u, v in edges))


def _require_edge(graph: Graph, edge: Edge) -> None:
    u, v = edge
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
