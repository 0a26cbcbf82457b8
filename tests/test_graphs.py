from __future__ import annotations

import pickle
import random
from itertools import combinations, permutations

import pytest

from domicert import (
    CapabilityError,
    Graph,
    GraphParseError,
    canonical_code,
    emit_edge_list,
    emit_graph6,
    generate_connected_graphs,
    generate_trees,
    has_perfect_matching,
    induced_subgraph,
    is_connected,
    is_tree,
    parse_edge_list,
    parse_graph6,
    perfect_matchings_within,
)
from domicert.graphs import EDGE_LIST_VERTEX_BOUND

from .conftest import cycle_graph, path_graph, pendant_cycle, spider_222, star_graph
from .oracles import has_perfect_matching_naive


def _relabel(graph: Graph, perm) -> Graph:
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


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
        assert parse_edge_list(emit_edge_list(g)) == g

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


class TestInducedSubgraph:
    def test_cycle_out_of_pendant_cycle(self):
        sub, mapping = induced_subgraph(pendant_cycle(), [0, 1, 2, 3])
        assert mapping == (0, 1, 2, 3)
        assert sub.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_mapping_translates_back(self):
        g = spider_222()
        sub, mapping = induced_subgraph(g, [6, 0, 5])
        assert mapping == (0, 5, 6)
        assert {(mapping[u], mapping[v]) for u, v in sub.edges} == {(0, 5), (5, 6)}

    def test_no_edges_kept(self):
        sub, _ = induced_subgraph(path_graph(4), [0, 3])
        assert sub.edges == ()

    def test_empty_selection(self):
        sub, mapping = induced_subgraph(path_graph(4), [])
        assert (sub.n, mapping) == (0, ())


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


class TestPerfectMatching:
    def test_known_cases(self):
        assert has_perfect_matching(cycle_graph(4))
        assert not has_perfect_matching(path_graph(3))
        assert not has_perfect_matching(star_graph(3))

    def test_odd_always_false(self):
        assert not has_perfect_matching(path_graph(5))

    def test_bound(self):
        with pytest.raises(CapabilityError):
            has_perfect_matching(Graph(25, ()))

    def test_agrees_with_naive_on_census(self):
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                assert has_perfect_matching(g) == has_perfect_matching_naive(g, range(n))

    def test_agrees_with_naive_on_random(self):
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randint(2, 10)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            g = Graph(n, edges)
            assert has_perfect_matching(g) == has_perfect_matching_naive(g, range(n))

    def test_enumeration_matches_predicate(self):
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                listed = list(perfect_matchings_within(g, range(n)))
                assert bool(listed) == has_perfect_matching(g)
                assert listed == sorted(listed)
                for matching in listed:
                    touched = [v for e in matching for v in e]
                    assert sorted(touched) == list(range(n))
                    assert all(g.has_edge(u, v) for u, v in matching)


class TestCanonicalCode:
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

    def test_general_bound(self):
        with pytest.raises(CapabilityError):
            canonical_code(cycle_graph(13))

    def test_trees_beyond_general_bound_fine(self):
        a = path_graph(14)
        b = _relabel(a, list(reversed(range(14))))
        assert canonical_code(a) == canonical_code(b)
