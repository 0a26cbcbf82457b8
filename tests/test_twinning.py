from __future__ import annotations

import pytest

from domicert import (
    NotMinimumWitness,
    check_claim,
    detangle,
    generate_connected_graphs,
    generate_trees,
    is_ev_dominating_set,
    sharing_pairs,
    solve_ev,
    solve_pr,
    twinning,
)

from .conftest import path_graph, pendant_cycle, private_vertex, spider_222, star_graph
from .oracles import spanned_vertices

SPIDER_M = ((0, 1), (0, 3), (5, 6))


class TestSharingPairs:
    def test_counts(self):
        assert sharing_pairs(SPIDER_M) == 1
        assert sharing_pairs([(0, 1), (2, 3)]) == 0
        assert sharing_pairs([(0, 1), (1, 2), (0, 2)]) == 3

    def test_order_independent(self):
        assert sharing_pairs(reversed(SPIDER_M)) == 1

    def test_counts_a_set(self):
        # a repeated edge, in either orientation, is one member
        assert sharing_pairs([(0, 1), (1, 0), (1, 2)]) == 1

    def test_rejects_negative_vertex(self):
        # ids are refused below 0, before the vertices are ranked
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            sharing_pairs([(-1, 0), (2, 3)])

    def test_huge_vertex_ids(self):
        # the work and memory follow the set, not its largest vertex id
        assert sharing_pairs([(0, 2**62), (1, 2**62)]) == 1
        assert sharing_pairs([(0, 3 * 10**7), (1, 2)]) == 0


class TestCheckClaim:
    def test_four_vertex_path_violates(self):
        g = path_graph(4)
        assert not check_claim(g, [(0, 1), (1, 2), (2, 3)])

    def test_triangle_violates(self):
        from domicert import Graph
        k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert not check_claim(k3, [(0, 1), (1, 2), (0, 2)])

    def test_path_inside_larger_set_violates(self):
        g = pendant_cycle()
        assert not check_claim(g, [(0, 1), (1, 2), (2, 3)])
        assert not check_claim(g, [(0, 1), (1, 2), (2, 3), (0, 4)])

    def test_star_triple_fine(self):
        from domicert import Graph
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert check_claim(star, [(0, 1), (0, 2), (0, 3)])

    def test_repeated_member_is_one_member(self):
        # a repeated member next to a disjoint edge is two members, not a P4
        from domicert import Graph
        assert check_claim(Graph(4, [(0, 1), (2, 3)]), [(0, 1), (1, 0), (2, 3)]) is True
        assert check_claim(path_graph(4), [(0, 1), (1, 2), (2, 1), (3, 2)]) is False

    def test_rejects_negative_vertex(self):
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            check_claim(path_graph(4), [(-1, 0), (0, 1), (2, 3)])

    def test_huge_vertex_ids_give_the_same_verdicts(self):
        # a P4 and a star, on small ids and relabelled onto huge ones; the
        # graph is not consulted, so the small graph serves for both
        huge = {0: 2**62, 1: 5, 2: 2**61 + 3, 3: 3 * 10**7}
        for graph, members in ((path_graph(4), [(0, 1), (1, 2), (2, 3)]),
                               (star_graph(3), [(0, 1), (0, 2), (0, 3)])):
            relabelled = [(huge[u], huge[v]) for u, v in members]
            assert check_claim(graph, relabelled) is check_claim(graph, members)
        assert check_claim(path_graph(4), [(0, 2**62), (2**62, 1), (1, 2**61)]) is False
        assert check_claim(path_graph(4), [(2**62, 0), (2**62, 1), (2**62, 2)]) is True

    def test_holds_on_all_minimum_sets_of_small_trees(self):
        for n in range(2, 9):
            for g in generate_trees(n):
                for members in solve_ev(g).sets:
                    assert check_claim(g, members)


class TestFindPrivateVertex:
    def test_spider_examples(self):
        g = spider_222()
        assert private_vertex(g, SPIDER_M, (0, 1), 1) == 2
        assert private_vertex(g, SPIDER_M, (0, 3), 3) == 4

    def test_requires_graph_edges(self):
        g = spider_222()
        # (0, 6) is no edge of the spider, as another member or as the edge itself
        with pytest.raises(ValueError, match="not an edge"):
            private_vertex(g, [(0, 1), (0, 6)], (0, 1), 1)
        with pytest.raises(ValueError, match="not an edge"):
            private_vertex(g, [(0, 6), (1, 2)], (0, 6), 6)

    def test_non_minimum_raises(self):
        g = path_graph(4)
        # {(0,1),(1,2)} is ev-dominating but not minimum: the only
        # neighbor of anchor 0 is vertex 1, which (1,2) also dominates
        with pytest.raises(NotMinimumWitness):
            private_vertex(g, [(0, 1), (1, 2)], (0, 1), 0)


class TestTwinning:
    def test_spider_worked_example(self):
        g = spider_222()
        left, right, step_l, step_r = twinning(g, SPIDER_M, (0, 1), (0, 3))
        assert left == ((0, 3), (1, 2), (5, 6))
        assert right == ((0, 1), (3, 4), (5, 6))
        assert step_l.replaced_edge == (0, 1)
        assert step_l.inserted_edge == (1, 2)
        assert step_l.private_vertex == 2
        assert step_l.shared_vertex == 0
        assert step_r.replaced_edge == (0, 3)
        assert step_r.inserted_edge == (3, 4)
        assert step_r.private_vertex == 4
        assert step_r.shared_vertex == 0

    def test_intersection_is_rest_of_set(self):
        g = spider_222()
        left, right, _, _ = twinning(g, SPIDER_M, (0, 1), (0, 3))
        assert set(left) & set(right) == set(SPIDER_M) - {(0, 1), (0, 3)} | set()

    def test_sharing_drops_on_both_sides(self):
        g = spider_222()
        left, right, _, _ = twinning(g, SPIDER_M, (0, 1), (0, 3))
        assert sharing_pairs(left) == sharing_pairs(right) == 0

    def test_spans_differ(self):
        g = spider_222()
        left, right, _, _ = twinning(g, SPIDER_M, (0, 1), (0, 3))
        assert spanned_vertices(left) != spanned_vertices(right)

    def test_rejects_identical_edges(self):
        with pytest.raises(ValueError):
            twinning(spider_222(), SPIDER_M, (0, 1), (0, 1))

    def test_rejects_disjoint_edges(self):
        with pytest.raises(ValueError):
            twinning(spider_222(), SPIDER_M, (0, 1), (5, 6))

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            twinning(spider_222(), SPIDER_M, (0, 1), (0, 5))


class TestDetangle:
    def test_spider_single_iteration(self):
        g = spider_222()
        result = detangle(g, SPIDER_M)
        assert result.left == ((0, 3), (1, 2), (5, 6))
        assert result.right == ((0, 1), (3, 4), (5, 6))
        assert result.iterations == 1
        assert len(result.trace) == 1
        assert result.trace[0].replaced_edge == (0, 1)

    def test_rejects_sharing_free_input(self):
        with pytest.raises(ValueError):
            detangle(pendant_cycle(), [(0, 1), (2, 3)])

    def test_repeated_member_is_not_a_sharing_pair(self):
        with pytest.raises(ValueError, match="need two distinct edges"):
            detangle(spider_222(), [(0, 1), (1, 0)])

    def test_checks_in_twinning_order(self):
        g = spider_222()
        # a repeated member as the first sharing pair, then a non-edge (2, 5)
        with pytest.raises(ValueError, match="need two distinct edges"):
            detangle(g, [(0, 1), (1, 0), (0, 3), (2, 5)])
        with pytest.raises(ValueError, match=r"\(2, 5\) is not an edge"):
            detangle(g, [(0, 1), (0, 3), (2, 5)])
        # a repeat further on is dropped by the first step
        assert detangle(g, [(0, 1), (0, 3), (5, 6), (6, 5)]) == detangle(g, SPIDER_M)

    def test_census_sweep_invariants(self):
        for n in range(2, 10):
            for g in generate_trees(n):
                family = solve_ev(g)
                for members in family.sets:
                    if sharing_pairs(members) == 0:
                        continue
                    result = detangle(g, members)
                    assert len(result.left) == len(result.right) == family.gamma
                    assert result.left != result.right
                    assert sharing_pairs(result.left) == 0
                    assert sharing_pairs(result.right) == 0
                    assert result.iterations <= len(members) ** 2
                    assert len(result.trace) == result.iterations
                    # replaying the trace passes through minimum sets only
                    current = set(members)
                    for step in result.trace:
                        assert step.replaced_edge in current and step.inserted_edge not in current
                        current = current - {step.replaced_edge} | {step.inserted_edge}
                        assert tuple(sorted(current)) in family.sets
                    assert tuple(sorted(current)) == result.left
                    assert is_ev_dominating_set(g, result.left)
                    assert is_ev_dominating_set(g, result.right)
                    assert result.left in family.sets
                    assert result.right in family.sets

    def test_deterministic(self):
        g = spider_222()
        big = solve_ev(g)
        tangled = [m for m in big.sets if sharing_pairs(m) > 0]
        for members in tangled:
            assert detangle(g, members) == detangle(g, members)


class TestConsequenceOnUniqueness:
    def test_paired_unique_forces_sharing_free_ev_sets(self):
        # when the paired family is a single set, no minimum ev-set can
        # keep two edges touching, or detangling would split its span
        graphs = [g for n in range(2, 8) for g in generate_trees(n)]
        graphs += [g for n in range(2, 6) for g in generate_connected_graphs(n)]
        for g in graphs:
            pr = solve_pr(g)
            if len(pr.sets) != 1:
                continue
            for members in solve_ev(g).sets:
                assert sharing_pairs(members) == 0
