"""Independent brute-force oracles.

Everything here works straight from the definitions with none of the
package's bitmask machinery, so agreement is meaningful: subset sweeps
by explicit combinations, domination checked vertex by vertex through
neighbor lists, matchings found by trying disjoint edge subsets, trees
enumerated from labeled sequences and deduplicated, components found by
union-find over the edge list, colors refined by sorting neighbor-color
lists, canonical codes minimized over every color-respecting ordering,
the level pass's children filtered mask by mask, each rival of the
newcomer tested for a cut vertex by the union-find components of the
child without it.
The lemma1 referee replays detangle from the definitions, then runs
the package's ``detangle`` and requires the same outcome; the general
form's referee twins every sharing pair at every private vertex.
``unique_tree_closure`` builds the trees with a unique minimum set from
smaller ones by pendant leaves and P4s, with the uniqueness test passed
in, for comparison with the exhaustive sets.
Former package routines are the exceptions: ``min_edge_covers_sorted``,
the search kernel that branches over one global edge order, kept as the
referee for the hits and spans of the package's vertex-branching kernel;
``gamma_ev_tree_triples``, the tree DP over (has edge, needs any, needs
parent edge) triples, kept as the referee for ``gamma_ev_tree_fast``;
``parse_graph6_naive``, the graph6 decoder that expands the payload bit
by bit into an edge list for ``Graph``, kept as the referee for
``parse_graph6``; ``emit_graph6_naive``, the graph6 encoder that
lists the payload bits column by column and repacks them six at a time,
kept as the referee for ``emit_graph6``;
``family_sets_naive`` and ``format_family_naive``, a family's sorted
tuples and its ``enumerate`` listing as they were built before the
listings were read off the bit rows, kept as referees for
``MinSetFamily.sets`` and the command line's listings;
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
    CapabilityError,
    DomainError,
    Graph,
    GraphParseError,
    InvariantViolation,
    MinSetFamily,
    NotMinimumWitness,
    canonical_code,
    detangle,
    is_tree,
    perfect_matchings_within,
)
from domicert.graphs import _tree_walk


def spanned_vertices(edges) -> frozenset[int]:
    """Union of the endpoints of the given edges."""
    return frozenset(v for edge in edges for v in edge)


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
        if left == right or left not in ev.sets or right not in ev.sets:
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
        and result.left in ev.sets
        and result.right in ev.sets
    )


def twinning_general_referee(graph: Graph, ev: MinSetFamily) -> tuple[int, int, int] | None:
    """The twinning lemma in its general form, over every member of ``ev``.

    For every sharing pair of every member, each outer end has a private
    vertex, and swapping that edge of the pair for the pendant edge at
    any private vertex gives a member of the family with strictly fewer
    sharing pairs; the two twins at the smallest private vertices are
    distinct and have equally many sharing pairs. Returns (tangled
    members, sharing pairs, swaps) when every clause holds, else None.
    """
    minimum = set(ev.sets)
    tangled = pairs = swaps = 0
    for members in ev.sets:
        before = sharing_pairs_naive(members)
        if before == 0:
            continue
        tangled += 1
        for e1, e2 in combinations(members, 2):
            shared = set(e1) & set(e2)
            if not shared:
                continue
            pairs += 1
            (pivot,) = shared
            for edge in (e1, e2):
                outer = edge[0] if edge[1] == pivot else edge[1]
                others = [e for e in members if e != edge]
                private = [x for x in graph.neighbors(outer)
                           if not any(ev_dominates_naive(graph, e, x) for e in others)]
                if not private:
                    return None
                for x in private:
                    swaps += 1
                    swap = tuple(sorted([*others, tuple(sorted((x, outer)))]))
                    if swap not in minimum or sharing_pairs_naive(swap) >= before:
                        return None
            left, right = twinning_naive(graph, members, e1, e2)
            if left == right or sharing_pairs_naive(left) != sharing_pairs_naive(right):
                return None
    return tangled, pairs, swaps


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


def parse_graph6_naive(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    first = ord(s[0])
    if first == 126:
        raise CapabilityError("long-form graph6 (n > 62) is not supported")
    if not 63 <= first <= 126:
        raise GraphParseError(f"invalid graph6 byte {s[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = s[1:]
    if len(payload) != need:
        raise GraphParseError(f"graph6 payload for n={n} needs {need} characters, got {len(payload)}")
    bits: list[int] = []
    for ch in payload:
        value = ord(ch)
        if not 63 <= value <= 126:
            raise GraphParseError(f"invalid graph6 byte {ch!r}")
        value -= 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphParseError("graph6 padding bits must be zero")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def emit_graph6_naive(graph: Graph) -> str:
    n = graph.n
    if n > 62:
        raise CapabilityError("graph6 output is limited to n <= 62")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(graph.nbr_bits[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)


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


def family_sets_naive(family: MinSetFamily) -> tuple[tuple, ...]:
    """``family.sets`` as it was first built: each mask decoded bit by bit
    into a tuple of edges (kind "ev") or vertices, and the tuples sorted."""
    labels = family.graph.edges if family.kind == "ev" else range(family.graph.n)
    return tuple(sorted(tuple(labels[j] for j in range(len(labels)) if mask >> j & 1) for mask in family.masks))


def format_family_naive(family: MinSetFamily) -> str:
    """The stdout of ``domicert enumerate`` for the family, as it was first
    printed: the family line, then each sorted set, every edge formatted
    by itself."""
    label = "gamma_ev" if family.kind == "ev" else "gamma_pr"
    count = len(family.masks)
    lines = [f"{label} = {family.gamma}; {count} minimum set{'' if count == 1 else 's'}"]
    for members in family_sets_naive(family):
        if family.kind == "ev":
            lines.append("{" + ", ".join(f"({e[0]},{e[1]})" for e in members) + "}")
        else:
            lines.append("{" + ", ".join(str(v) for v in sorted(members)) + "}")
    return "".join(line + "\n" for line in lines)


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


def unique_tree_closure(base: dict[int, list[Graph]], n_max: int, unique) -> dict[int, set[bytes]]:
    """Canonical codes of the trees on n vertices, n = max(base) + 1 to
    n_max, built from the trees of ``base`` (by vertex count) as ROADMAP
    item 14 describes: a leaf attached at any vertex of a built tree on
    n - 1 vertices, or a P4 joined by an end or by an inner vertex to any
    vertex of one on n - 4, keeping the distinct candidates that
    ``unique`` accepts."""
    built = {n: list(trees) for n, trees in base.items()}
    codes = {}
    for n in range(max(base) + 1, n_max + 1):
        candidates = [Graph(n, tree.edges + ((v, n - 1),)) for tree in built.get(n - 1, ()) for v in range(n - 1)]
        p4 = ((n - 4, n - 3), (n - 3, n - 2), (n - 2, n - 1))
        candidates += [Graph(n, tree.edges + p4 + ((v, joint),)) for tree in built.get(n - 4, ())
                       for v in range(n - 4) for joint in (n - 4, n - 3)]
        built[n], codes[n] = [], set()
        for tree in candidates:
            code = canonical_code(tree)
            if code not in codes[n] and unique(tree):
                codes[n].add(code)
                built[n].append(tree)
    return codes


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


def child_codes_naive(g: Graph) -> list[tuple[bytes, int]]:
    """(code, first mask) of each child class of g that the level pass
    keeps, mask by mask in mask order: a child joining a newcomer to the
    vertices in mask is dropped when the mask holds a twin y but not its
    smaller twin x, or when some vertex x has a larger degree than the
    newcomer and the child stays connected without x."""
    n = g.n
    twins = [(x, y) for y in range(n) for x in range(y) if set(g.adj[x]) - {y} == set(g.adj[y]) - {x}]
    found: dict[bytes, int] = {}
    for mask in range(1, 1 << n):
        if any(mask >> y & 1 and not mask >> x & 1 for x, y in twins):
            continue
        child = Graph(n + 1, [*g.edges, *((v, n) for v in range(n) if mask >> v & 1)])
        if any(child.degree(x) > child.degree(n)
               and len(components_union_find(child.edges, [v for v in range(n + 1) if v != x])) == 1
               for x in range(n)):
            continue
        found.setdefault(canonical_code(child), mask)
    return list(found.items())


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
