"""Immutable simple-graph representation plus structural utilities.

Vertices are dense integer ids 0..n-1 so that vertex sets can live in
bitmasks. A ``Graph`` stores only its vertex count and its per-vertex
neighbor masks ``nbr_bits``, which every solver in the package reads;
the edge tuple and the adjacency lists are rebuilt from the masks on
each access, so hot code reads ``nbr_bits``. Graphs are immutable after
construction and pickle as their masks, so they are cheap to hand to
worker processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import CapabilityError, GraphParseError

# Only has_perfect_matching is capped: its search memoizes the vertex
# remainders that have no perfect matching, which can grow exponentially.
MATCHING_VERTEX_BOUND = 24

# Edge-list headers above this vertex count are refused before anything is
# allocated for them; no solver in the package finishes anywhere near it.
EDGE_LIST_VERTEX_BOUND = 4096

# Canonical codes for arbitrary graphs enumerate orderings inside color
# classes; this stays exact but is only promised up to this many vertices.
GENERAL_CANONICAL_BOUND = 12


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the endpoint pair ordered (low, high)."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    No self-loops, no parallel edges. Only ``n`` and ``nbr_bits`` are
    stored: ``nbr_bits[v]`` is the neighbor set of v as a bitmask.
    ``edges`` (the sorted tuple of normalized endpoint pairs) and ``adj``
    (``adj[v]`` is the sorted neighbor tuple) are views rebuilt from the
    masks on each access.
    """

    __slots__ = ("n", "nbr_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self.nbr_bits = tuple(bits)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, b in enumerate(self.nbr_bits) for v in _iter_bits(b >> u + 1 << u + 1))

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_iter_bits(b)) for b in self.nbr_bits)

    @property
    def edge_count(self) -> int:
        return sum(b.bit_count() for b in self.nbr_bits) // 2

    def degree(self, v: int) -> int:
        return self.nbr_bits[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_iter_bits(self.nbr_bits[v]))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self.nbr_bits[u] >> v & 1)

    def closed_nbr_bits(self, v: int) -> int:
        """Neighbor mask of v including v itself."""
        return self.nbr_bits[v] | 1 << v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.nbr_bits == other.nbr_bits

    def __hash__(self) -> int:
        return hash((self.n, self.nbr_bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _from_nbr_bits(bits: tuple[int, ...]) -> Graph:
    # a Graph on masks that are already symmetric and loop-free, unchecked
    graph = Graph.__new__(Graph)
    graph.n, graph.nbr_bits = len(bits), bits
    return graph


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first meaningful line is ``n m``; the next m meaningful lines are
    ``u v`` pairs. Blank lines and lines starting with ``#`` are skipped.
    Duplicate edges (either orientation) collapse silently; anything else
    malformed raises GraphParseError naming the 1-based input line.
    """
    header: tuple[int, int] | None = None
    n = m = 0
    edges: list[tuple[int, int]] = []
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError(f"line {lineno}: expected 'n m' header, got {line!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected 'n m' header, got {line!r}") from None
            if n < 0 or m < 0:
                raise GraphParseError(f"line {lineno}: counts must be non-negative")
            if n > EDGE_LIST_VERTEX_BOUND:
                raise CapabilityError(f"line {lineno}: edge lists support n <= {EDGE_LIST_VERTEX_BOUND}, got {n}")
            header = (n, m)
            continue
        if count == m:
            raise GraphParseError(f"line {lineno}: unexpected content after {m} edge lines")
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v' edge, got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected 'u v' edge, got {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
        count += 1
    if header is None:
        raise GraphParseError("empty input: missing 'n m' header")
    if count != m:
        raise GraphParseError(f"expected {m} edge lines, found {count}")
    return Graph(n, edges)


def emit_edge_list(graph: Graph) -> str:
    """Inverse of parse_edge_list, edges in sorted order."""
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


# graph6: short form only. Byte 0 encodes n as chr(n + 63) for n <= 62;
# the payload packs the upper triangle column by column (j = 1..n-1,
# i < j), six bits per printable character, again offset by 63.

_G6_MIN, _G6_MAX = 63, 126


def parse_graph6(text: str) -> Graph:
    """Decode a short-form graph6 string (n <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    first = ord(s[0])
    if first == 126:
        raise CapabilityError("long-form graph6 (n > 62) is not supported")
    if not _G6_MIN <= first <= _G6_MAX:
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
        if not _G6_MIN <= value <= _G6_MAX:
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


def emit_graph6(graph: Graph) -> str:
    """Encode as a short-form graph6 string."""
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


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given vertices.

    Returns the new graph together with the index mapping: entry i of the
    mapping is the original id of new vertex i.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    back = {old: new for new, old in enumerate(keep)}
    edges = [(back[u], back[v]) for u, v in graph.edges if u in back and v in back]
    return Graph(len(keep), edges), tuple(keep)


def reachable_bits(bits: tuple[int, ...], start: int, within: int) -> int:
    """Mask of the vertices reachable from the ``start`` mask inside ``within``.

    A breadth-first search on neighbor masks that never leaves ``within``,
    so leaving a vertex out of ``within`` searches the graph without it.
    """
    seen = frontier = start & within
    while frontier:
        grown = 0
        for v in _iter_bits(frontier):
            grown |= bits[v]
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


def is_connected(graph: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (n == 0 counts as connected)."""
    if graph.n == 0:
        return True
    return reachable_bits(graph.nbr_bits, 1, (1 << graph.n) - 1).bit_count() == graph.n


def is_tree(graph: Graph) -> bool:
    """Connected and acyclic; the empty graph counts as a tree by convention."""
    if graph.n == 0:
        return True
    return graph.edge_count == graph.n - 1 and is_connected(graph)


def _tree_walk(graph: Graph, root: int) -> tuple[list[int], list[int]]:
    # Breadth-first order from root and each vertex's parent, -1 at the root;
    # on a tree every neighbor except the parent is a child.
    bits = graph.nbr_bits
    parent = [-1] * graph.n
    order = [root]
    seen = 1 << root
    for v in order:
        kids = bits[v] & ~seen
        seen |= kids
        while kids:
            low = kids & -kids
            kids ^= low
            u = low.bit_length() - 1
            parent[u] = v
            order.append(u)
    return order, parent


def has_perfect_matching(graph: Graph) -> bool:
    """Whether some edge subset covers every vertex exactly once."""
    if graph.n > MATCHING_VERTEX_BOUND:
        raise CapabilityError(f"perfect-matching query supports n <= {MATCHING_VERTEX_BOUND}, got {graph.n}")
    if graph.n % 2:
        return False
    return next(perfect_matchings_within(graph, range(graph.n)), None) is not None


def perfect_matchings_within(graph: Graph, vertices: Iterable[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every perfect matching of the subgraph induced on ``vertices``.

    Matchings come out as sorted tuples of edges in the original labels,
    in lexicographic order: the lowest remaining vertex is paired with
    each neighbor in turn, skipping remainders known to have no matching.
    One call per matched pair, so a search past the interpreter's recursion
    limit raises CapabilityError.
    """
    mask = _vertex_mask(graph, vertices)
    if mask.bit_count() % 2:
        return
    bits = graph.nbr_bits
    dead: set[int] = set()

    def rec(remaining: int, acc: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        low = remaining & -remaining
        v = low.bit_length() - 1
        rest = remaining ^ low
        cand = bits[v] & rest
        found = False
        while cand:
            ulow = cand & -cand
            cand ^= ulow
            if rest ^ ulow in dead:
                continue
            acc.append((v, ulow.bit_length() - 1))
            for matching in rec(rest ^ ulow, acc):
                found = True
                yield matching
            acc.pop()
        if not found:
            dead.add(remaining)

    try:
        yield from rec(mask, [])
    except RecursionError:
        raise CapabilityError(
            f"matching search over {mask.bit_count()} vertices goes deeper than the recursion limit") from None


def _vertex_mask(graph: Graph, vertices: Iterable[int]) -> int:
    # the vertices as a bitmask; ValueError names one out of range
    mask = 0
    for v in vertices:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


# --- canonical codes ---------------------------------------------------
#
# Trees get a rooted shape code computed at the centroid, which works for
# any size this package generates. Everything else goes through color
# refinement plus an exact search for the smallest adjacency bit string
# over orderings that respect the color classes.


def canonical_code(graph: Graph) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic.

    Tree codes start with b"T", general codes with b"G", so the two
    families can never collide.
    """
    if is_tree(graph):
        return b"T" + _tree_code(graph)
    if graph.n > GENERAL_CANONICAL_BOUND:
        raise CapabilityError(f"canonical code for non-trees supports n <= {GENERAL_CANONICAL_BOUND}, got {graph.n}")
    return _general_code(graph.n, graph.nbr_bits)


def _general_code(n: int, bits: tuple[int, ...]) -> bytes:
    # canonical_code of a non-tree, straight from its neighbor masks
    return b"G" + bytes([n]) + _min_adjacency_bytes(n, bits)


def _tree_code(graph: Graph) -> bytes:
    if graph.n == 0:
        return b""
    return min(_rooted_code(graph, root) for root in _tree_centroids(graph))


def _tree_centroids(graph: Graph) -> list[int]:
    # One or two vertices minimizing the largest component left by removal.
    n = graph.n
    order, parent = _tree_walk(graph, 0)
    size = [1] * n
    weight = [0] * n  # max component size after removing the vertex
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            weight[p] = max(weight[p], size[v])
    best = n
    centroids: list[int] = []
    for v in range(n):
        w = max(weight[v], n - size[v])
        if w < best:
            best = w
            centroids = [v]
        elif w == best:
            centroids.append(v)
    return centroids


def _rooted_code(graph: Graph, root: int) -> bytes:
    # Children codes sorted, wrapped in parentheses; iterative post-order.
    n = graph.n
    order, parent = _tree_walk(graph, root)
    code: list[bytes] = [b""] * n
    kids: list[list[bytes]] = [[] for _ in range(n)]
    for v in reversed(order):
        code[v] = b"(" + b"".join(sorted(kids[v])) + b")"
        p = parent[v]
        if p >= 0:
            kids[p].append(code[v])
    return code[root]


def _twin_pairs(bits: tuple[int, ...]) -> list[tuple[int, int]]:
    # pairs x < y with equal open or equal closed neighbourhoods; swapping
    # them is an automorphism
    return [(x, y) for y in range(len(bits)) for x in range(y)
            if bits[x] == bits[y] or bits[x] | 1 << x == bits[y] | 1 << y]


def _refine_colors(bits: tuple[int, ...]) -> list[int]:
    # Iterated neighborhood color refinement; ids depend only on structure.
    # Vertices of one color have one degree, so ranking them by (color,
    # minus the neighbor count in each class) orders them exactly as
    # ranking by (color, sorted neighbor colors) would. A discrete coloring
    # is stable, so it is returned without a confirming round.
    degree = [b.bit_count() for b in bits]
    palette = sorted(set(degree))
    color = [palette.index(d) for d in degree]
    classes = len(palette)
    while classes < len(bits):
        masks = [0] * classes
        for v, c in enumerate(color):
            masks[c] |= 1 << v
        sigs = [(c, *[-(b & m).bit_count() for m in masks]) for c, b in zip(color, bits)]
        table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        fresh = [table[sig] for sig in sigs]
        if fresh == color:
            return color
        color, classes = fresh, len(table)
    return color


def _min_adjacency_bytes(n: int, bits: tuple[int, ...]) -> bytes:
    """Smallest packed upper-triangle bit string over class-respecting orderings.

    Positions are filled class by class. ``best`` holds, per position,
    the smallest row achieved along a prefix that ties the earlier
    positions exactly; a strictly smaller row claims its slot at once and
    invalidates everything deeper, so every surviving branch ties the
    best prefix and the array ends up holding the global minimum. Twins
    (``_twin_pairs``) are interchangeable by an automorphism, share a
    color and, while both are unplaced, a row; so a vertex is skipped,
    like a placed one, while a smaller twin is unplaced.
    """
    if n <= 1:
        return b""
    color = _refine_colors(bits)
    classes: list[list[int]] = [[] for _ in range(max(color) + 1)]
    for v in range(n):
        classes[color[v]].append(v)
    slot_class: list[list[int]] = []
    for cls in classes:
        slot_class.extend([cls] * len(cls))
    smaller = [0] * n
    for x, y in _twin_pairs(bits):
        smaller[y] |= 1 << x
    infinity = 1 << n
    best = [infinity] * n
    placed = [0] * n
    used = 0

    def descend(pos: int) -> None:
        nonlocal used
        if pos == n:
            return
        ranked = []
        for v in slot_class[pos]:
            if used & (smaller[v] | 1 << v) != smaller[v]:
                continue
            row = 0
            vb = bits[v]
            for i in range(pos):
                row = row << 1 | (vb >> placed[i] & 1)
            ranked.append((row, v))
        ranked.sort()
        for row, v in ranked:
            if row > best[pos]:
                break
            if row < best[pos]:
                best[pos] = row
                for k in range(pos + 1, n):
                    best[k] = infinity
            placed[pos] = v
            used |= 1 << v
            descend(pos + 1)
            used &= ~(1 << v)

    descend(0)
    value = 0
    for pos in range(1, n):
        value = value << pos | best[pos]
    total = n * (n - 1) // 2
    return value.to_bytes((total + 7) // 8, "big")
