"""Independent brute-force oracles.

Everything here works straight from the definitions with none of the
package's bitmask machinery, so agreement is meaningful: subset sweeps
by explicit combinations, domination checked vertex by vertex through
neighbor lists, matchings found by trying disjoint edge subsets, trees
enumerated from labeled sequences and deduplicated, components found by
union-find over the edge list, colors refined by sorting neighbor-color
lists, canonical codes minimized over every color-respecting ordering.
The lemma1 referee replays detangle from the definitions, then runs
the package's ``detangle`` and requires the same outcome. Former package routines are
the exceptions: ``min_edge_covers_sorted``, the search kernel that
branches over one global edge order, kept as the referee for the hits
and spans of the package's vertex-branching kernel;
``gamma_ev_tree_triples``, the tree DP over (has edge, needs any, needs
parent edge) triples, kept as the referee for ``gamma_ev_tree_fast``;
``cor_general_blocks`` and ``cor_general2_blocks``, the two
corollary checks as overlapping blocks, kept as referees for the
census's one-rule statements; and the ``*_tuples`` checks, the census's
claim, lemma1 and corollary checks as they read the families' sorted
edge and vertex tuples, kept as referees for the census's bitmask
checks, with the naive primitives above in place of the package's
tuple cores.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from domicert import (
    DomainError,
    Graph,
    InvariantViolation,
    MinSetFamily,
    NotMinimumWitness,
    canonical_code,
    detangle,
    is_tree,
    perfect_matchings_within,
    spanned_vertices,
)
from domicert.graphs import _tree_walk


def ev_dominates_naive(graph: Graph, edge, vertex: int) -> bool:
    u, v = edge
    close = {vertex, *graph.neighbors(vertex)}
    return u in close or v in close


def is_ev_dominating_naive(graph: Graph, edges) -> bool:
    return all(any(ev_dominates_naive(graph, e, v) for e in edges) for v in range(graph.n))


def min_ev_family_naive(graph: Graph):
    """(gamma, sorted list of all minimum ev-dominating edge sets)."""
    for k in range(1, graph.edge_count + 1):
        found = [tuple(sorted(pick)) for pick in combinations(graph.edges, k)
                 if is_ev_dominating_naive(graph, pick)]
        if found:
            return k, sorted(found)
    raise AssertionError("no ev-dominating set at any size")


def sharing_pairs_naive(edges) -> int:
    members = sorted({tuple(sorted(e)) for e in edges})
    return sum(1 for a, b in combinations(members, 2) if set(a) & set(b))


def claim_holds_naive(edges) -> bool:
    """No three distinct members form a path on four vertices or a triangle, triple by triple."""
    members = sorted({tuple(sorted(e)) for e in edges})
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


def private_vertex_naive(graph: Graph, members, edge, anchor: int):
    """Smallest neighbor of the anchor no other member ev-dominates, or None."""
    others = [e for e in members if e != edge]
    candidates = [x for x in graph.neighbors(anchor)
                  if not any(ev_dominates_naive(graph, e, x) for e in others)]
    return min(candidates, default=None)


def twinning_naive(graph: Graph, members, e1, e2):
    """(left, right): e1, then e2, swapped for its pendant edge; None without a private vertex."""
    (pivot,) = set(e1) & set(e2)
    branches = []
    for edge in (e1, e2):
        outer = edge[0] if edge[1] == pivot else edge[1]
        x = private_vertex_naive(graph, members, edge, outer)
        if x is None:
            return None
        branches.append(tuple(sorted(set(members) - {edge} | {tuple(sorted((x, outer)))})))
    return tuple(branches)


def detangles_cleanly_referee(graph: Graph, ev, members) -> bool:
    """Two-pass lemma1 check of one minimum ev-set with a sharing pair.

    First replay the left-branch iteration step by step, holding each
    step to the script: both rewrites are distinct members of the family
    ``ev`` with equally many sharing pairs, strictly fewer than before.
    Then run ``detangle`` and require the replay's outcome.
    """
    cap = len(members) ** 2
    current = tuple(sorted(members))
    right = None
    steps = 0
    while sharing_pairs_naive(current) > 0:
        steps += 1
        if steps > cap:
            return False
        pair = next((a, b) for a, b in combinations(current, 2) if set(a) & set(b))
        branches = twinning_naive(graph, current, *pair)
        if branches is None:
            return False
        left, right = branches
        before = sharing_pairs_naive(current)
        after = sharing_pairs_naive(left)
        if after != sharing_pairs_naive(right) or after >= before:
            return False
        if left == right or not (ev.contains(left) and ev.contains(right)):
            return False
        current = left
    try:
        result = detangle(graph, members)
    except (NotMinimumWitness, InvariantViolation):
        return False
    return (
        result.left == current
        and result.right == right
        and result.iterations == steps
        and len(result.left) == len(members) == len(result.right)
        and result.left != result.right
        and sharing_pairs_naive(result.left) == 0 == sharing_pairs_naive(result.right)
        and {v for e in result.left for v in e} != {v for e in result.right for v in e}
        and ev.contains(result.left)
        and ev.contains(result.right)
    )


def is_dominating_naive(graph: Graph, vertices) -> bool:
    inside = set(vertices)
    return all(v in inside or any(u in inside for u in graph.neighbors(v))
               for v in range(graph.n))


def has_perfect_matching_naive(graph: Graph, vertices) -> bool:
    keep = sorted(set(vertices))
    if len(keep) % 2:
        return False
    pool = [e for e in graph.edges if e[0] in set(keep) and e[1] in set(keep)]
    want = len(keep) // 2
    for pick in combinations(pool, want):
        touched = [v for e in pick for v in e]
        if len(set(touched)) == len(keep):
            return True
    return want == 0


def is_paired_dominating_naive(graph: Graph, vertices) -> bool:
    return is_dominating_naive(graph, vertices) and has_perfect_matching_naive(graph, vertices)


def min_pr_family_naive(graph: Graph):
    """(gamma, sorted list of all minimum paired-dominating vertex sets)."""
    for k in range(2, graph.n + 1, 2):
        found = [tuple(sorted(pick)) for pick in combinations(range(graph.n), k)
                 if is_paired_dominating_naive(graph, pick)]
        if found:
            return k, sorted(found)
    raise AssertionError("no paired dominating set at any size")


def min_edge_covers_sorted(graph: Graph, matching: bool):
    """(k, hits as (edge list, span mask) pairs), branching over one global edge order."""
    full = (1 << graph.n) - 1
    edges = graph.edges
    cover = {e: graph.closed_nbr_bits(e[0]) | graph.closed_nbr_bits(e[1]) for e in edges}
    order = sorted(edges, key=lambda e: (-cover[e].bit_count(), e))
    outside = [full ^ cover[e] for e in order]
    sizes = [cover[e].bit_count() for e in order]
    ends = [1 << u | 1 << v for u, v in order]
    m = len(order)
    hits = []

    def descend(start, slots, chosen, uncovered, used):
        missing = uncovered.bit_count()
        if slots == 1:
            for i in range(start, m):
                if missing > sizes[i]:
                    break
                if matching and ends[i] & used:
                    continue
                if not uncovered & outside[i]:
                    hits.append(([*chosen, order[i]], used | ends[i]))
            return
        for i in range(start, m - slots + 1):
            if missing > slots * sizes[i]:
                break
            if matching and ends[i] & used:
                continue
            chosen.append(order[i])
            descend(i + 1, slots - 1, chosen, uncovered & outside[i], used | ends[i])
            chosen.pop()

    for k in range(1, graph.n // 2 + 1):
        descend(0, k, [], full, 0)
        if hits:
            return k, hits
    raise AssertionError("no ev-dominating matching up to n // 2 edges")


def gamma_ev_tree_triples(graph: Graph) -> int:
    """Minimum ev-dominating set size of a tree, by dynamic programming.

    Linear in the vertex count. Each vertex reports, per (subtree edge
    incident to it, still uncovered, has an uncovered child that only the
    parent edge can fix) state, the cheapest subtree completion.
    """
    if not is_tree(graph):
        raise DomainError("tree solver needs a tree")
    n = graph.n
    if n < 2:
        raise DomainError("need at least two vertices")
    order, parent = _tree_walk(graph, 0)
    INF = n + 1
    # state table per vertex: (has_edge, needs_any, needs_parent_edge) -> cost
    table: list[dict[tuple[int, int, int], int] | None] = [None] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for u in order[1:]:
        children[parent[u]].append(u)
    for v in reversed(order):
        # partial: (edge at v exists, v covered, some child still waiting) -> cost
        partial = {(0, 0, 0): 0}
        for c in children[v]:
            child = table[c]
            assert child is not None
            grown: dict[tuple[int, int, int], int] = {}
            for (any_edge, covered, waiting), cost in partial.items():
                for (has, need_any, need_parent), ccost in child.items():
                    # leave the edge v-c out: child must not depend on it
                    if not need_parent:
                        key = (any_edge, covered | has, waiting | need_any)
                        value = cost + ccost
                        if grown.get(key, INF) > value:
                            grown[key] = value
                    # take the edge v-c: covers v and settles the child
                    key = (1, 1, waiting)
                    value = cost + ccost + 1
                    if grown.get(key, INF) > value:
                        grown[key] = value
            partial = grown
        final: dict[tuple[int, int, int], int] = {}
        for (any_edge, covered, waiting), cost in partial.items():
            need_any = 0 if covered else 1
            need_parent = 1 if waiting and not any_edge else 0
            key = (any_edge, need_any, need_parent)
            if final.get(key, INF) > cost:
                final[key] = cost
        table[v] = final
    root = table[0]
    assert root is not None
    best = min((cost for (has, need_any, need_parent), cost in root.items()
                if not need_any and not need_parent), default=INF)
    if best >= INF:
        raise InvariantViolation("tree DP found no feasible selection")
    return best


def refine_colors_naive(graph: Graph) -> list[int]:
    """Color refinement by sorted neighbor colors, started from degree ranks."""
    n = graph.n
    palette = sorted(set(graph.degree(v) for v in range(n)))
    color = [palette.index(graph.degree(v)) for v in range(n)]
    while True:
        sigs = [(color[v], tuple(sorted(color[u] for u in graph.adj[v]))) for v in range(n)]
        table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        fresh = [table[sigs[v]] for v in range(n)]
        if fresh == color:
            return color
        color = fresh


def min_adjacency_bytes_naive(graph: Graph) -> bytes:
    """Smallest packed upper triangle (column by column, as in graph6) over
    every ordering that lists the vertices by non-decreasing
    ``refine_colors_naive`` color, right-aligned in whole bytes."""
    n = graph.n
    color = refine_colors_naive(graph)
    classes = [[v for v in range(n) if color[v] == c] for c in sorted(set(color))]
    best = None
    for parts in product(*(permutations(cls) for cls in classes)):
        order = [v for part in parts for v in part]
        bits = [int(graph.has_edge(order[i], order[j])) for j in range(1, n) for i in range(j)]
        if best is None or bits < best:
            best = bits
    value = int("".join(map(str, best)) or "0", 2)
    return value.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def cor_general_blocks(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The ``cor_general`` check as two overlapping blocks, one per unique family."""
    if len(pr.sets) == 1:
        if len(ev.sets) != 1:
            return False
        m = ev.sets[0]
        d = pr.sets[0]
        if spanned_vertices(m) != frozenset(d):
            return False
        if list(perfect_matchings_within(graph, d)) != [m]:
            return False
    if len(ev.sets) == 1:
        m = ev.sets[0]
        if len(pr.sets) != 1 or frozenset(pr.sets[0]) != spanned_vertices(m):
            return False
    return True


def cor_general2_blocks(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The ``cor_general2`` check as an equivalence test plus a span test."""
    spans = {spanned_vertices(m) for m in ev.sets}
    paired_unique = len(pr.sets) == 1
    if paired_unique != (len(spans) == 1):
        return False
    if paired_unique and spans != {frozenset(pr.sets[0])}:
        return False
    return True


def tree_from_prufer(seq, n: int) -> Graph:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for x in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            # keep the pool ordered so the construction is deterministic
            lo = 0
            while lo < len(leaves) and leaves[lo] < x:
                lo += 1
            leaves.insert(lo, x)
    u, v = leaves
    edges.append((u, v))
    return Graph(n, edges)


def tree_classes_prufer(n: int) -> set[bytes]:
    """Canonical codes of every tree class on n vertices, via labeled sequences."""
    if n == 1:
        return {canonical_code(Graph(1, ()))}
    if n == 2:
        return {canonical_code(Graph(2, [(0, 1)]))}
    out = set()
    seq = [0] * (n - 2)
    while True:
        out.add(canonical_code(tree_from_prufer(seq, n)))
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return out
        seq[i] += 1


def tree_classes_prufer_ordered(n: int) -> set[bytes]:
    """Canonical codes of every tree class on n vertices, via the Prüfer
    sequences whose label counts do not increase with the label.

    Label v occurs deg(v) - 1 times in a tree's Prüfer sequence, and every
    tree has a labelling whose degrees never rise as the label grows, so
    these sequences still reach every class. The count vectors come first and
    then every distinct ordering of each: a sequence's counts are a
    property of the whole sequence, not of its prefixes.
    """
    if n <= 2:
        return tree_classes_prufer(n)
    out = set()
    for counts in _falling_counts(n - 2, n, n - 2):
        labels = [v for v, c in enumerate(counts) for _ in range(c)]
        for seq in set(permutations(labels)):
            out.add(canonical_code(tree_from_prufer(seq, n)))
    return out


def _falling_counts(total: int, slots: int, cap: int):
    # non-increasing vectors of ``slots`` counts, each at most ``cap``,
    # that sum to ``total``
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap), -1, -1):
        for rest in _falling_counts(total - first, slots - 1, first):
            yield (first,) + rest


def components_union_find(edges, alive) -> set[frozenset[int]]:
    """Vertex sets of the components of the subgraph induced on the
    vertices ``alive``, by union-find over ``edges``."""
    leader = {v: v for v in alive}

    def find(v: int) -> int:
        while leader[v] != v:
            v = leader[v]
        return v

    for u, v in edges:
        if u in leader and v in leader:
            leader[find(u)] = find(v)
    parts: dict[int, set[int]] = {}
    for v in leader:
        parts.setdefault(find(v), set()).add(v)
    return {frozenset(part) for part in parts.values()}


def connected_classes_labeled(n: int) -> set[bytes]:
    """Canonical codes of every connected class on n vertices, via edge subsets."""
    from domicert import is_connected

    slots = list(combinations(range(n), 2))
    out = set()
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        g = Graph(n, edges)
        if is_connected(g):
            out.add(canonical_code(g))
    return out


def claim_tuples(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The census ``claim`` check over the family's edge tuples."""
    return all(claim_holds_naive(m) for m in ev.sets)


def lemma1_tuples(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The census ``lemma1`` check over the family's edge tuples."""
    minimum = set(ev.sets)
    return all(detangles_cleanly_tuples(graph, minimum, m) for m in ev.sets)


def detangles_cleanly_tuples(graph: Graph, minimum: set, members) -> bool:
    """The one twinning step that detangle takes on ``members``, over tuples.

    Both rewrites are distinct members of ``minimum`` with equally many
    sharing pairs, strictly fewer than before, and two sharing-free
    rewrites keep |members| edges and span different vertex sets. A set
    without a sharing pair has nothing to detangle.
    """
    pair = next(((a, b) for a, b in combinations(members, 2) if set(a) & set(b)), None)
    if pair is None:
        return True
    branches = twinning_naive(graph, members, *pair)
    if branches is None:
        return False
    left, right = branches
    after = sharing_pairs_naive(left)
    if after != sharing_pairs_naive(right) or after >= sharing_pairs_naive(members):
        return False
    if left == right or left not in minimum or right not in minimum:
        return False
    return after > 0 or (len(left) == len(members) == len(right)
                         and spanned_vertices(left) != spanned_vertices(right))


def thm1_tuples(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The clause ``thm1`` stands for: the paired gamma is twice the ev gamma."""
    return 2 * ev.gamma == pr.gamma


def cor1_tuples(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The clause ``cor1`` stands for: a unique ev-set forces a unique paired set."""
    return len(ev.sets) != 1 or len(pr.sets) == 1


def cor_general_tuples(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The census ``cor_general`` check over tuples, listing the perfect matchings each time."""
    if len(ev.sets) != 1 and len(pr.sets) != 1:
        return True
    return (len(ev.sets) == len(pr.sets) == 1
            and spanned_vertices(ev.sets[0]) == frozenset(pr.sets[0])
            and list(perfect_matchings_within(graph, pr.sets[0])) == [ev.sets[0]])


def cor_general2_tuples(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    """The census ``cor_general2`` check over tuples."""
    spans = {spanned_vertices(m) for m in ev.sets}
    if len(pr.sets) == 1:
        return spans == {frozenset(pr.sets[0])}
    return len(spans) > 1
