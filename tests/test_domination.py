from __future__ import annotations

import random

import pytest

from domicert import (
    CapabilityError,
    DomainError,
    Graph,
    ev_dominates,
    gamma_ev_tree_fast,
    generate_connected_graphs,
    generate_trees,
    is_dominating_set,
    is_ev_dominating_set,
    is_paired_dominating_set,
    perfect_matchings_within,
    solve_ev,
    solve_families,
    solve_pr,
    spanned_vertices,
    uniqueness,
)
from domicert.domination import DEFAULT_BUDGET, _min_edge_covers

from .conftest import cycle_graph, path_graph, pendant_cycle, spider_222
from .oracles import (
    gamma_ev_tree_triples,
    min_edge_covers_per_leaf,
    min_ev_family_naive,
    min_pr_family_naive,
    tree_from_prufer,
)

# budget tests pin the search nodes a solve spends: the smallest budget
# that finishes on each of these graphs
BUDGET_IDS = ["pendant_cycle", "spider_222", "path_graph(8)", "cycle_graph(7)"]


class TestPredicates:
    def test_ev_dominates_path(self):
        g = path_graph(4)
        assert ev_dominates(g, (1, 2), 0)
        assert ev_dominates(g, (1, 2), 3)
        assert not ev_dominates(g, (0, 1), 3)

    def test_ev_dominates_rejects_non_edge(self):
        with pytest.raises(ValueError):
            ev_dominates(path_graph(4), (0, 2), 1)

    def test_ev_dominating_set(self):
        g = pendant_cycle()
        assert is_ev_dominating_set(g, [(0, 1), (2, 3)])
        assert not is_ev_dominating_set(g, [(0, 1)])
        assert is_ev_dominating_set(path_graph(4), [(1, 2)])

    def test_dominating_set_literal_definition(self):
        g = path_graph(4)
        # members of the set do not need neighbors inside it
        assert is_dominating_set(g, [1, 2])
        assert is_dominating_set(g, [0, 2])
        assert not is_dominating_set(g, [0])
        assert is_dominating_set(g, range(4))

    def test_paired_dominating_set(self):
        g = pendant_cycle()
        assert is_paired_dominating_set(g, [0, 1, 2, 3])
        assert not is_paired_dominating_set(g, [0, 2, 4, 6])
        assert not is_paired_dominating_set(path_graph(4), [0, 2])
        assert is_paired_dominating_set(path_graph(4), [1, 2])


class TestSolveEv:
    def test_single_edge(self):
        family = solve_ev(Graph(2, [(0, 1)]))
        assert family.gamma == 1
        assert family.sets == (((0, 1),),)

    def test_pendant_cycle_exact_family(self):
        family = solve_ev(pendant_cycle())
        assert family.gamma == 2
        assert family.sets == (((0, 1), (2, 3)), ((0, 3), (1, 2)))

    def test_spider(self):
        family = solve_ev(spider_222())
        assert family.gamma == 3
        assert family.contains([(0, 1), (0, 3), (5, 6)])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(DomainError):
            solve_ev(Graph(3, [(0, 1)]))

    def test_rejects_tiny(self):
        with pytest.raises(DomainError):
            solve_ev(Graph(1, ()))

    @pytest.mark.parametrize("graph, nodes", [
        (pendant_cycle(), 37), (spider_222(), 52), (path_graph(8), 17), (cycle_graph(7), 29),
    ], ids=BUDGET_IDS)
    def test_budget_exhaustion(self, graph, nodes):
        solve_ev(graph, budget=nodes)
        with pytest.raises(CapabilityError):
            solve_ev(graph, budget=nodes - 1)

    def test_families_sorted_and_duplicate_free(self):
        family = solve_ev(spider_222())
        assert list(family.sets) == sorted(set(family.sets))
        for members in family.sets:
            assert list(members) == sorted(members)

    def test_matches_naive_on_trees(self):
        for n in range(2, 8):
            for g in generate_trees(n):
                gamma, sets = min_ev_family_naive(g)
                family = solve_ev(g)
                assert family.gamma == gamma
                assert list(family.sets) == sets

    def test_matches_naive_on_connected(self):
        for n in range(2, 6):
            for g in generate_connected_graphs(n):
                gamma, sets = min_ev_family_naive(g)
                family = solve_ev(g)
                assert family.gamma == gamma
                assert list(family.sets) == sets


class TestSolvePr:
    def test_single_edge(self):
        family = solve_pr(Graph(2, [(0, 1)]))
        assert family.gamma == 2
        assert family.sets == ((0, 1),)

    def test_pendant_cycle_unique(self):
        family = solve_pr(pendant_cycle())
        assert family.gamma == 4
        assert family.sets == ((0, 1, 2, 3),)

    def test_spider(self):
        family = solve_pr(spider_222())
        assert family.gamma == 6

    def test_sets_induce_matchable_subgraphs(self):
        for members in solve_pr(spider_222()).sets:
            assert is_paired_dominating_set(spider_222(), members)

    def test_rejects_isolated_vertex(self):
        with pytest.raises(DomainError):
            solve_pr(Graph(3, [(0, 1)]))

    @pytest.mark.parametrize("graph, nodes", [
        (pendant_cycle(), 25), (spider_222(), 25), (path_graph(8), 13), (cycle_graph(7), 22),
    ], ids=BUDGET_IDS)
    def test_budget_exhaustion(self, graph, nodes):
        solve_pr(graph, budget=nodes)
        with pytest.raises(CapabilityError):
            solve_pr(graph, budget=nodes - 1)

    @staticmethod
    def _check_against_naive(g):
        gamma, sets = min_pr_family_naive(g)
        family = solve_pr(g)
        assert family.gamma == gamma
        assert list(family.sets) == sets
        for members in family.sets:
            assert is_paired_dominating_set(g, members)

    def test_matches_naive_on_trees(self):
        for n in range(2, 10):
            for g in generate_trees(n):
                self._check_against_naive(g)

    def test_matches_naive_on_connected(self):
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                self._check_against_naive(g)


class _Distorted(Graph):
    """A tree with coverage masks no graph has: its one minimum ev-set is no matching.

    Its edges (0,1) and (0,2) cover everything together, no two disjoint
    edges do, and the matching (0,1), (3,4), (5,6) is the smallest one
    that does, so gamma_pr = 6 != 2 * gamma_ev.
    """

    CLOSED = (0b1, 0b11010, 0b1100100, 0b1100, 0b10000, 0b100000, 0b1000000)

    def __init__(self):
        super().__init__(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])

    def closed_nbr_bits(self, v: int) -> int:
        return self.CLOSED[v]


def _finishes(solve, graph, budget) -> bool:
    try:
        solve(graph, budget)
    except CapabilityError:
        return False
    return True


class TestSolveFamilies:
    def test_matches_both_solvers_on_trees(self):
        for n in range(2, 13):
            for g in generate_trees(n):
                assert solve_families(g) == (solve_ev(g), solve_pr(g))

    def test_matches_both_solvers_on_connected(self):
        for n in range(2, 8):
            for g in generate_connected_graphs(n):
                assert solve_families(g) == (solve_ev(g), solve_pr(g))

    def test_raises_exactly_when_either_solver_does(self):
        graphs = [pendant_cycle(), spider_222(), path_graph(8), cycle_graph(7), _Distorted()]
        graphs += [g for n in range(2, 9) for g in generate_trees(n)]
        for g in graphs:
            for budget in range(1, 61):
                alone = _finishes(solve_ev, g, budget) and _finishes(solve_pr, g, budget)
                assert _finishes(solve_families, g, budget) is alone

    @pytest.mark.parametrize("graph, nodes", [
        (pendant_cycle(), 37), (spider_222(), 52), (path_graph(8), 17), (cycle_graph(7), 29),
    ], ids=BUDGET_IDS)
    def test_budget_exhaustion(self, graph, nodes):
        solve_families(graph, budget=nodes)
        with pytest.raises(CapabilityError):
            solve_families(graph, budget=nodes - 1)

    def test_exact_when_no_minimum_ev_set_is_a_matching(self):
        g = _Distorted()
        ev, pr = solve_families(g)
        assert (ev.gamma, ev.sets) == (2, (((0, 1), (0, 2)),))
        assert (pr.gamma, pr.sets) == (6, ((0, 1, 3, 4, 5, 6),))
        assert (ev, pr) == (solve_ev(g), solve_pr(g))


    def test_matches_naive_on_random_connected(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def connected(draw):
            # a random spanning tree plus random extra edges
            n = draw(st.integers(min_value=2, max_value=8))
            seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
            tree = tree_from_prufer(seq, n)
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            extra = draw(st.lists(st.sampled_from(slots), unique=True))
            return Graph(n, tree.edges + tuple(extra))

        @settings(max_examples=100, deadline=None)
        @given(connected())
        def check(g):
            ev, pr = solve_families(g)
            assert (ev.gamma, list(ev.sets)) == min_ev_family_naive(g)
            assert (pr.gamma, list(pr.sets)) == min_pr_family_naive(g)

        check()


class TestSearchKernel:
    """The kernel against the former per-leaf kernel, ``min_edge_covers_per_leaf``."""

    @staticmethod
    def _graphs(tree_max: int, connected_max: int):
        graphs = [g for n in range(2, tree_max + 1) for g in generate_trees(n)]
        return graphs + [g for n in range(2, connected_max + 1) for g in generate_connected_graphs(n)]

    @pytest.mark.parametrize("matching", [False, True], ids=["ev", "matching"])
    def test_same_hits_in_order(self, matching):
        for g in self._graphs(12, 7):
            want_k, want, _ = min_edge_covers_per_leaf(g, DEFAULT_BUDGET, matching)
            k, hits = _min_edge_covers(g, DEFAULT_BUDGET, matching)
            assert (k, [pick for pick, _ in hits]) == (want_k, want)
            for pick, span in hits:
                assert span == sum(1 << v for v in spanned_vertices(pick))

    @pytest.mark.parametrize("matching", [False, True], ids=["ev", "matching"])
    def test_same_smallest_finishing_budget(self, matching):
        for g in self._graphs(9, 6):
            _, _, nodes = min_edge_covers_per_leaf(g, DEFAULT_BUDGET, matching)
            _min_edge_covers(g, nodes, matching)
            with pytest.raises(CapabilityError):
                _min_edge_covers(g, nodes - 1, matching)


class TestSearchDepth:
    # one call per matched pair: past the recursion limit the enumeration
    # reports that it could not finish
    def test_long_path_is_capability_error(self):
        with pytest.raises(CapabilityError):
            is_paired_dominating_set(path_graph(2400), range(2400))

    def test_shorter_path_still_answers(self):
        assert is_paired_dominating_set(path_graph(600), range(600))


class TestStructuralInvariants:
    def test_double_ev_equals_pr_small(self):
        graphs = [g for n in range(2, 8) for g in generate_trees(n)]
        graphs += [g for n in range(2, 6) for g in generate_connected_graphs(n)]
        for g in graphs:
            assert 2 * solve_ev(g).gamma == solve_pr(g).gamma

    def test_minimality_no_feasible_subset(self):
        for g in (spider_222(), pendant_cycle(), path_graph(7)):
            family = solve_ev(g)
            for members in family.sets:
                for drop in range(len(members)):
                    smaller = members[:drop] + members[drop + 1:]
                    assert not is_ev_dominating_set(g, smaller)

    def test_paired_matchings_are_ev_sets(self):
        # pairing up a paired-dominating set yields an ev-dominating set
        for g in (spider_222(), pendant_cycle(), cycle_graph(6)):
            for members in solve_pr(g).sets:
                for matching in perfect_matchings_within(g, members):
                    assert len(matching) == len(members) // 2
                    assert is_ev_dominating_set(g, matching)


class TestSpanAndUniqueness:
    def test_spanned_vertices(self):
        assert spanned_vertices([(0, 1), (2, 3)]) == frozenset({0, 1, 2, 3})
        assert spanned_vertices([]) == frozenset()

    def test_path4_ev_unique(self):
        verdict = uniqueness(path_graph(4), "ev")
        assert verdict.unique and verdict.witness_count == 1
        assert verdict.common_span == frozenset({1, 2})

    def test_path3_ev_two_witnesses(self):
        verdict = uniqueness(path_graph(3), "ev")
        assert not verdict.unique
        assert verdict.witness_count == 2
        assert verdict.common_span is None

    def test_pendant_cycle_ev_common_span(self):
        verdict = uniqueness(pendant_cycle(), "ev")
        assert not verdict.unique
        assert verdict.witness_count == 2
        assert verdict.common_span == frozenset({0, 1, 2, 3})

    def test_pendant_cycle_paired_unique(self):
        verdict = uniqueness(pendant_cycle(), "paired")
        assert verdict.unique and verdict.witness_count == 1
        assert verdict.common_span == frozenset({0, 1, 2, 3})
        assert verdict.family.sets == ((0, 1, 2, 3),)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            uniqueness(path_graph(4), "vertex")


class TestTreeFastPath:
    def test_known_values(self):
        assert gamma_ev_tree_fast(path_graph(4)) == 1
        assert gamma_ev_tree_fast(path_graph(7)) == 2
        assert gamma_ev_tree_fast(spider_222()) == 3

    def test_rejects_non_tree(self):
        with pytest.raises(DomainError):
            gamma_ev_tree_fast(cycle_graph(4))

    def test_rejects_tiny(self):
        with pytest.raises(DomainError):
            gamma_ev_tree_fast(Graph(1, ()))

    def test_agrees_with_solver_through_ten(self):
        for n in range(2, 11):
            for g in generate_trees(n):
                assert gamma_ev_tree_fast(g) == solve_ev(g).gamma

    def test_agrees_with_triple_dp_beyond_the_solver(self):
        # past the reach of the exhaustive solver, the five-slot rows are
        # refereed by the former DP over (edge, uncovered, waiting) triples
        for g in generate_trees(15):
            assert gamma_ev_tree_fast(g) == gamma_ev_tree_triples(g)
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(16, 300)
            g = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)], n)
            assert gamma_ev_tree_fast(g) == gamma_ev_tree_triples(g)
