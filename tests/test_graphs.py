from __future__ import annotations

import pickle
import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from domicert import (
    CapabilityError,
    Graph,
    GraphParseError,
    canonical_code,
    emit_graph6,
    generate_connected_graphs,
    generate_trees,
    is_connected,
    is_tree,
    parse_edge_list,
    parse_graph6,
    perfect_matchings_within,
)
from domicert.graphs import EDGE_LIST_VERTEX_BOUND, GENERAL_CANONICAL_BOUND, _refine_colors

from .conftest import cycle_graph, path_graph, pendant_cycle, spider_222, star_graph
from .oracles import (
    components_union_find,
    has_perfect_matching_naive,
    emit_graph6_naive,
    min_adjacency_bytes_naive,
    parse_graph6_naive,
    refine_colors_naive,
)


def _relabel(graph: Graph, perm) -> Graph:
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def _edge_list(graph: Graph) -> str:
    # the edge-list format parse_edge_list reads: an "n m" header, then
    # one "u v" line per edge
    lines = [f"{graph.n} {graph.edge_count}", *(f"{u} {v}" for u, v in graph.edges)]
    return "\n".join(lines) + "\n"


def _matchable(graph: Graph, vertices) -> bool:
    return next(perfect_matchings_within(graph, vertices), None) is not None


class TestGraphConstruction:
    def test_dedupes_and_normalizes(self):
        g = Graph(3, [(1, 0), (0, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.adj == ((1,), (0, 2), (1,))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_adjacency_symmetric(self):
        g = pendant_cycle()
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_bits_match_lists(self):
        g = spider_222()
        for v in range(g.n):
            assert tuple(sorted(u for u in range(g.n) if g.nbr_bits[v] >> u & 1)) == g.adj[v]

    def test_pickle_round_trip(self):
        # the census hands graphs to pool workers by pickling them
        g = pendant_cycle()
        back = pickle.loads(pickle.dumps(g))
        assert back == g
        assert (back.edges, back.adj, back.nbr_bits) == (g.edges, g.adj, g.nbr_bits)

    def test_edge_order_and_repeats_do_not_matter(self):
        # equal graphs hash equally, and the views are rebuilt from the
        # masks in one canonical form whatever order the edges came in
        rng = random.Random(11)
        for n in range(1, 7):
            graphs = generate_connected_graphs(n) if n > 1 else [Graph(1, ())]
            for g in graphs:
                pairs = list(g.edges)
                mixed = pairs + [(v, u) for u, v in pairs] + rng.sample(pairs, len(pairs) // 2)
                rng.shuffle(mixed)
                h = Graph(n, mixed)
                assert h == g and hash(h) == hash(g)
                assert h.edges == g.edges == tuple(sorted({(min(e), max(e)) for e in mixed}))
                adj = tuple(tuple(sorted({u for e in pairs if v in e for u in e} - {v})) for v in range(n))
                assert h.adj == g.adj == adj
                assert h.edge_count == g.edge_count == len(pairs)
                assert [h.degree(v) for v in range(n)] == [len(a) for a in adj]
                assert [h.neighbors(v) for v in range(n)] == list(adj)

    def test_graph_stores_only_its_masks(self):
        # an n=7 graph is its vertex count and seven small masks; the
        # edge tuple and adjacency lists are not kept alongside them
        pairs = [(g.n, g.edges) for g in generate_connected_graphs(7)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = [Graph(n, edges) for n, edges in pairs]
            per_graph = (tracemalloc.get_traced_memory()[0] - before) / len(built)
        finally:
            tracemalloc.stop()
        assert len(built) == 853
        assert per_graph < 400


class TestEdgeListFormat:
    def test_parse_simple(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))

    def test_self_loop_names_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_edge_list("3 2\n0 1\n1 1")

    def test_out_of_range_names_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("3 3\n0 3\n0 1\n1 2")

    def test_duplicates_collapse(self):
        g = parse_edge_list("3 3\n0 1\n1 0\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# header\n\n2 1\n# inline note\n0 1\n")
        assert g.edges == ((0, 1),)

    def test_missing_edges(self):
        with pytest.raises(GraphParseError, match="expected 2"):
            parse_edge_list("3 2\n0 1\n")

    def test_extra_edges(self):
        with pytest.raises(GraphParseError, match="line 4"):
            parse_edge_list("3 1\n0 1\n\n1 2\n")

    def test_malformed_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_edge_list("three two\n")

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("")

    def test_round_trip(self):
        g = pendant_cycle()
        assert parse_edge_list(_edge_list(g)) == g

    def test_vertex_bound_checked_before_allocating(self):
        # refused at the header, before any per-vertex storage exists
        for n in (EDGE_LIST_VERTEX_BOUND + 1, 1_000_000_000):
            with pytest.raises(CapabilityError, match="line 1"):
                parse_edge_list(f"{n} 1\n0 1\n")

    def test_vertex_bound_inclusive(self):
        assert parse_edge_list(f"{EDGE_LIST_VERTEX_BOUND} 0\n").n == EDGE_LIST_VERTEX_BOUND


class TestGraph6:
    def test_known_two_path(self):
        g = parse_graph6("A_")
        assert (g.n, g.edges) == (2, ((0, 1),))
        assert emit_graph6(g) == "A_"

    def test_empty_graph(self):
        g = parse_graph6("?")
        assert (g.n, g.edges) == (0, ())

    def test_round_trip_on_census(self):
        seen = []
        for n in range(2, 8):
            seen.extend(generate_trees(n))
        for n in range(2, 6):
            seen.extend(generate_connected_graphs(n))
        for g in seen:
            assert parse_graph6(emit_graph6(g)) == g

    def test_truncated_rejected(self):
        whole = emit_graph6(pendant_cycle())
        with pytest.raises(GraphParseError, match="payload"):
            parse_graph6(whole[:-1])

    def test_overlong_rejected(self):
        whole = emit_graph6(pendant_cycle())
        with pytest.raises(GraphParseError, match="payload"):
            parse_graph6(whole + "?")

    def test_long_form_unsupported(self):
        with pytest.raises(CapabilityError):
            parse_graph6("~??")

    def test_invalid_byte(self):
        with pytest.raises(GraphParseError):
            parse_graph6("A" + chr(20))

    def test_header_only_rejected(self):
        with pytest.raises(GraphParseError, match="empty"):
            parse_graph6(">>graph6<<\n")

    def test_emit_bound(self):
        with pytest.raises(CapabilityError):
            emit_graph6(Graph(63, ()))

    def test_matches_bit_by_bit_decoder(self):
        # seeded random graphs on 0..62 vertices, whole and corrupted: a
        # character too few or too many, one payload bit flipped, the last
        # payload bit set (padding wherever the bits do not fill the last
        # character), one character out of range; both decoders return equal
        # graphs or raise the same error with the same message
        def outcome(parse, text):
            try:
                graph = parse(text)
            except (GraphParseError, CapabilityError) as exc:
                return type(exc), str(exc)
            return graph, type(graph.nbr_bits)

        rng = random.Random(6)
        texts = ["", ">>graph6<<", "~??", ">", chr(127), "@\n", "@?"]
        for n in range(63):
            for density in (0.0, 0.05, 0.3, 0.7, 1.0):
                g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
                text = emit_graph6(g)
                texts += [text, text[:-1], text + "?", f">>graph6<<{text}\n"]
                if n < 2:
                    continue
                k = rng.randrange(1, len(text))
                flipped = chr((ord(text[k]) - 63 ^ 1 << rng.randrange(6)) + 63)
                texts.append(text[:k] + flipped + text[k + 1:])
                texts.append(text[:-1] + chr((ord(text[-1]) - 63 | 1) + 63))
                texts.append(text[:k] + rng.choice("!> \x7f\xe9") + text[k + 1:])
        padded = 0
        for text in texts:
            expected = outcome(parse_graph6_naive, text)
            assert outcome(parse_graph6, text) == expected, text
            padded += expected == (GraphParseError, "graph6 padding bits must be zero")
        assert padded > 50

    def test_matches_column_loop_encoder(self):
        # seeded random graphs at every n the short form takes, sparse and
        # dense, and every connected graph on two to seven vertices
        rng = random.Random(25)
        graphs = [g for n in range(2, 8) for g in generate_connected_graphs(n)]
        for n in range(63):
            for density in (0.1, 0.9):
                graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density]))
        for g in graphs:
            assert emit_graph6(g) == emit_graph6_naive(g), g.edges


class TestRoundTrips:
    def test_random_graphs_through_both_formats(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def graph_and_edge_text(draw):
            # any n graph6's short form takes, at any density; the edge
            # list comes back shuffled, partly reversed, with blank and
            # comment lines anywhere, and its header count still true
            n = draw(st.integers(min_value=0, max_value=62))
            density = draw(st.floats(min_value=0, max_value=1))
            rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
            header, *pairs = _edge_list(g).splitlines()
            pairs = [" ".join(line.split()[::-1]) if rng.random() < 0.5 else line for line in pairs]
            rng.shuffle(pairs)
            lines = [header, *pairs]
            for _ in range(rng.randint(0, 4)):
                lines.insert(rng.randint(0, len(lines)), rng.choice(["", "   ", "# note", "#7 3"]))
            return g, "\n".join(lines)

        @settings(max_examples=100, deadline=None)
        @given(graph_and_edge_text())
        def check(case):
            g, text = case
            assert parse_graph6(emit_graph6(g)) == g
            assert parse_edge_list(text) == g

        check()


class TestConnectivity:
    def test_path_connected_tree(self):
        g = path_graph(4)
        assert is_connected(g) and is_tree(g)

    def test_cycle_not_tree(self):
        g = cycle_graph(4)
        assert is_connected(g) and not is_tree(g)

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g) and not is_tree(g)

    def test_empty_conventions(self):
        g = Graph(0, ())
        assert is_connected(g) and is_tree(g)

    def test_single_vertex(self):
        g = Graph(1, ())
        assert is_connected(g) and is_tree(g)

    def test_every_labelled_graph_on_six_against_union_find(self):
        slots = list(combinations(range(6), 2))
        for mask in range(1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            g = Graph(6, edges)
            connected = len(components_union_find(edges, range(6))) == 1
            assert is_connected(g) == connected
            assert is_tree(g) == (connected and len(edges) == 5)


class TestPerfectMatching:
    # perfect_matchings_within yields a matching exactly when one exists
    def test_known_cases(self):
        assert _matchable(cycle_graph(4), range(4))
        assert not _matchable(path_graph(3), range(3))
        assert not _matchable(star_graph(3), range(4))
        assert _matchable(pendant_cycle(), [0, 1, 4, 5])
        assert not _matchable(pendant_cycle(), [0, 2, 4, 5])

    def test_odd_always_false(self):
        assert not _matchable(path_graph(5), range(5))
        assert not _matchable(cycle_graph(4), [0, 1, 2])

    def test_agrees_with_naive_on_census(self):
        # on every vertex subset, as is_paired_dominating_set asks it
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                for mask in range(1 << n):
                    vertices = [v for v in range(n) if mask >> v & 1]
                    assert _matchable(g, vertices) == has_perfect_matching_naive(g, vertices)

    def test_agrees_with_naive_on_random(self):
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randint(2, 10)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            g = Graph(n, edges)
            assert _matchable(g, range(n)) == has_perfect_matching_naive(g, range(n))

    def test_enumeration_matches_predicate(self):
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                listed = list(perfect_matchings_within(g, range(n)))
                assert bool(listed) == has_perfect_matching_naive(g, range(n))
                assert listed == sorted(listed)
                for matching in listed:
                    touched = [v for e in matching for v in e]
                    assert sorted(touched) == list(range(n))
                    assert all(g.has_edge(u, v) for u, v in matching)


class TestCanonicalCode:
    def test_refinement_against_sorted_neighbor_colors(self):
        graphs = [g for n in range(2, 8) for g in generate_connected_graphs(n)]
        rng = random.Random(8)
        for _ in range(400):
            n = rng.randint(1, GENERAL_CANONICAL_BOUND)
            density = rng.random()
            graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density]))
        for g in graphs:
            assert _refine_colors(g.nbr_bits) == refine_colors_naive(g)

    def test_general_code_is_minimal_over_color_respecting_orderings(self):
        graphs = [g for n in range(2, 7) for g in generate_connected_graphs(n) if not is_tree(g)]
        assert len(graphs) == 129
        rng = random.Random(13)
        while len(graphs) < 229:
            n = rng.randint(2, 7)
            density = rng.random()
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
            if not is_tree(g):
                graphs.append(g)
        for g in graphs:
            assert canonical_code(g)[2:] == min_adjacency_bytes_naive(g)

    def test_path_vs_star(self):
        assert canonical_code(path_graph(4)) != canonical_code(star_graph(3))

    def test_tree_and_general_prefixes_disjoint(self):
        assert canonical_code(path_graph(4))[:1] == b"T"
        assert canonical_code(cycle_graph(4))[:1] == b"G"

    def test_exhaustive_small_permutations(self):
        for g in (cycle_graph(4), cycle_graph(5), star_graph(4), path_graph(5),
                  Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])):
            want = canonical_code(g)
            for perm in permutations(range(g.n)):
                assert canonical_code(_relabel(g, perm)) == want

    def test_random_relabelings_one_class_each(self):
        rng = random.Random(7)
        sources = list(generate_trees(8)) + list(generate_connected_graphs(6))
        for g in sources[:: 3]:
            want = canonical_code(g)
            for _ in range(6):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_code(_relabel(g, perm)) == want

    def test_pendant_cycle_relabelings(self):
        g = pendant_cycle()
        want = canonical_code(g)
        rng = random.Random(99)
        for _ in range(200):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_code(_relabel(g, perm)) == want

    def test_distinct_classes_distinct_codes(self):
        codes = [canonical_code(g) for g in generate_trees(7)]
        assert len(set(codes)) == len(codes) == 11

    def test_symmetric_graphs_fast_and_stable(self):
        k6 = Graph(6, list(combinations(range(6), 2)))
        k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert canonical_code(k6) != canonical_code(k33)
        for g in (k6, k33):
            want = canonical_code(g)
            for perm in permutations(range(6)):
                assert canonical_code(_relabel(g, perm)) == want

    @pytest.mark.parametrize("name", ["complete", "cocktail_party", "cycle", "hub"])
    def test_refinement_and_codes_at_the_bound(self, name):
        # the packed refinement keys take their digit width from n, so the
        # largest n a general code is promised for is tested directly
        n = GENERAL_CANONICAL_BOUND
        g = {
            "complete": Graph(n, combinations(range(n), 2)),
            # K12 minus a perfect matching
            "cocktail_party": Graph(n, [(u, v) for u, v in combinations(range(n), 2) if v != u + n // 2]),
            "cycle": cycle_graph(n),
            # a degree-11 hub over a path, a triangle, a 4-cycle and a pendant
            "hub": Graph(n, [(0, v) for v in range(1, n)]
                         + [(1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (9, 10), (7, 10)]),
        }[name]
        assert _refine_colors(g.nbr_bits) == refine_colors_naive(g)
        want = canonical_code(g)
        rng = random.Random(n)
        for _ in range(50):
            perm = list(range(n))
            rng.shuffle(perm)
            image = _relabel(g, perm)
            assert _refine_colors(image.nbr_bits) == refine_colors_naive(image)
            assert canonical_code(image) == want

    def test_general_bound(self):
        with pytest.raises(CapabilityError):
            canonical_code(cycle_graph(13))

    def test_trees_beyond_general_bound_fine(self):
        a = path_graph(14)
        b = _relabel(a, list(reversed(range(14))))
        assert canonical_code(a) == canonical_code(b)
