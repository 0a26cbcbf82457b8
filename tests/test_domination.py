from __future__ import annotations

import gc
import random
import re
from itertools import combinations

import pytest

from domicert import (
    CapabilityError,
    DomainError,
    Graph,
    InvariantViolation,
    canonical_code,
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
    uniqueness,
)
from domicert import domination
from domicert.domination import DEFAULT_BUDGET, _min_edge_covers

from .conftest import cycle_graph, path_graph, pendant_cycle, spider_222
from .oracles import (
    family_sets_naive,
    gamma_ev_tree_triples,
    min_edge_covers_sorted,
    min_ev_family_naive,
    min_pr_family_naive,
    tree_from_prufer,
    unique_tree_closure,
)

# README's count of the trees with one minimum ev-set, n = 2..14
UNIQUE_EV_TREES = [1, 0, 1, 1, 2, 2, 5, 8, 18, 30, 59, 113, 250]

# budget tests pin the search nodes a solve spends: the smallest budget
# that finishes on each of these graphs
BUDGET_IDS = ["pendant_cycle", "spider_222", "path_graph(8)", "cycle_graph(7)"]


class TestPredicates:
    def test_ev_dominating_set(self):
        g = pendant_cycle()
        assert is_ev_dominating_set(g, [(0, 1), (2, 3)])
        assert not is_ev_dominating_set(g, [(0, 1)])
        assert is_ev_dominating_set(path_graph(4), [(1, 2)])

    def test_ev_dominating_set_rejects_non_edge(self):
        with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge"):
            is_ev_dominating_set(path_graph(4), [(1, 2), (0, 2)])

    @pytest.mark.parametrize("vertex", [9, -1])
    def test_vertex_sets_reject_vertex_out_of_range(self, vertex):
        # the first vertex out of range, in input order, is named
        for check in (is_dominating_set, is_paired_dominating_set):
            with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
                check(path_graph(4), [1, vertex, 5])

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
        assert ((0, 1), (0, 3), (5, 6)) in family.sets

    def test_rejects_isolated_vertex(self):
        with pytest.raises(DomainError):
            solve_ev(Graph(3, [(0, 1)]))

    def test_rejects_tiny(self):
        with pytest.raises(DomainError):
            solve_ev(Graph(1, ()))

    @pytest.mark.parametrize("graph, nodes", [
        (pendant_cycle(), 4), (spider_222(), 8), (path_graph(8), 3), (cycle_graph(7), 6),
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
        (pendant_cycle(), 4), (spider_222(), 8), (path_graph(8), 3), (cycle_graph(7), 6),
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
        # all three run the one ev search, so they finish at the same budgets
        graphs = [pendant_cycle(), spider_222(), path_graph(8), cycle_graph(7)]
        graphs += [g for n in range(2, 9) for g in generate_trees(n)]
        for g in graphs:
            for budget in range(1, 61):
                alone = _finishes(solve_ev, g, budget)
                assert _finishes(solve_pr, g, budget) is alone
                assert _finishes(solve_families, g, budget) is alone

    @pytest.mark.parametrize("graph, nodes", [
        (pendant_cycle(), 4), (spider_222(), 8), (path_graph(8), 3), (cycle_graph(7), 6),
    ], ids=BUDGET_IDS)
    def test_budget_exhaustion(self, graph, nodes):
        solve_families(graph, budget=nodes)
        with pytest.raises(CapabilityError):
            solve_families(graph, budget=nodes - 1)

    def test_raises_when_no_minimum_ev_set_is_a_matching(self, monkeypatch):
        # twinning turns a minimum ev-set into a matching on every graph, so
        # only a faulty search gets here: one minimum ev-set, (0,1) and (0,2),
        # that is no matching. The error names the graph's edges
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
        monkeypatch.setattr(domination, "_min_edge_covers", lambda graph, budget: (2, [(0b11, 0b111)], graph.edges))
        assert solve_ev(g).sets == (((0, 1), (0, 2)),)
        for solve in (solve_families, solve_pr):
            with pytest.raises(InvariantViolation, match=re.escape(f"with edges {g.edges}")):
                solve(g)

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


class TestSetsView:
    # sets picks each member's labels with its bit row, in descending row
    # order; the referee decodes each mask bit by bit and sorts the tuples
    def test_matches_former_build(self):
        graphs = [g for n in range(2, 13) for g in generate_trees(n)]
        graphs += [g for n in range(2, 8) for g in generate_connected_graphs(n)]
        assert len(graphs) == 1981
        for g in graphs:
            for family in solve_families(g):
                assert family.sets == family_sets_naive(family)


class TestSearchKernel:
    """The vertex-branching kernel against the former kernel over one global edge order."""

    @staticmethod
    def _graphs(tree_max: int, connected_max: int):
        graphs = [g for n in range(2, tree_max + 1) for g in generate_trees(n)]
        return graphs + [g for n in range(2, connected_max + 1) for g in generate_connected_graphs(n)]

    @staticmethod
    def _check_against_referee(g, paired):
        def normalized(k, hits):
            return k, sorted((sorted(pick), span) for pick, span in hits)

        if paired:
            # the paired sets read off the ev search are the spans the
            # referee's search over matchings alone finds
            k, hits = min_edge_covers_sorted(g, True)
            pr = solve_pr(g)
            assert (pr.gamma, pr.masks) == (2 * k, tuple(sorted({span for _, span in hits})))
            return
        # a kernel hit's edges are the bits of its edge mask over g.edges
        k, hits, edges = _min_edge_covers(g, DEFAULT_BUDGET)
        assert edges == g.edges
        got = normalized(k, [([e for j, e in enumerate(edges) if pick >> j & 1], span) for pick, span in hits])
        assert got == normalized(*min_edge_covers_sorted(g, False))

    @staticmethod
    def _nodes(solve, g) -> int:
        """The smallest budget with which the solve finishes."""
        budget = 1
        while not _finishes(solve, g, budget):
            budget += 1
        return budget

    @pytest.mark.parametrize("paired", [False, True], ids=["ev", "pr"])
    def test_same_sorted_hits_and_spans(self, paired):
        for g in self._graphs(12, 7):
            self._check_against_referee(g, paired)

    def test_same_sorted_hits_on_random_graphs(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def graphs(draw):
            # every vertex gets one edge to a drawn partner, then random extra
            # edges; the graph may be disconnected but has no isolated vertex
            n = draw(st.integers(min_value=2, max_value=12))
            partners = draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            extra = draw(st.lists(st.sampled_from(slots), unique=True))
            return Graph(n, [(v, p + (p >= v)) for v, p in enumerate(partners)] + extra)

        @settings(max_examples=100, deadline=None)
        @given(graphs(), st.booleans())
        def check(g, paired):
            self._check_against_referee(g, paired)

        check()

    # solve_pr spends the kernel's nodes, as it runs the one ev search
    @pytest.mark.parametrize("solve", [_min_edge_covers, solve_pr], ids=["ev", "pr"])
    def test_smallest_finishing_budget_total(self, solve):
        assert sum(self._nodes(solve, g) for g in self._graphs(9, 6)) == 607

    def test_reach_on_prufer_trees(self):
        # the former kernel, over one global edge order, exhausts this budget
        # on each tree at n=36; without the packing floor the kernel exhausts
        # it on one at n=48
        for n in (36, 48):
            rng = random.Random(5)
            for _ in range(5):
                g = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)], n)
                gamma = gamma_ev_tree_fast(g)
                assert solve_ev(g, budget=10**5).gamma == gamma
                assert solve_pr(g, budget=10**5).gamma == 2 * gamma


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


class TestUniqueTrees:
    @pytest.fixture(scope="class")
    def unique_trees(self):
        # every tree on n = 2..14 vertices whose minimum ev-set is unique,
        # checked by thm2 to be those whose minimum paired set is
        found = {}
        for n in range(2, 15):
            found[n] = []
            for g in generate_trees(n):
                unique = len(solve_ev(g).masks) == 1
                assert (len(solve_pr(g).masks) == 1) == unique
                if unique:
                    found[n].append(g)
        return found

    def test_counts(self, unique_trees):
        assert [len(unique_trees[n]) for n in range(2, 15)] == UNIQUE_EV_TREES

    def test_closure_from_leaves_and_p4s(self, unique_trees):
        # ROADMAP item 14: from the trees on 2..4 vertices, pendant leaves
        # and P4s build every unique tree on 5..14 and nothing else
        built = unique_tree_closure({n: unique_trees[n] for n in (2, 3, 4)}, 14,
                                    lambda g: len(solve_ev(g).masks) == 1)
        assert built == {n: {canonical_code(g) for g in unique_trees[n]} for n in range(5, 15)}


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


class TestNoCyclicGarbage:
    # the recursive searches are closures that reach themselves; each
    # unbinds itself when done, so a solve leaves nothing for the cyclic
    # collector, which would otherwise run full collections over a census
    @pytest.mark.parametrize("graph", [spider_222(), pendant_cycle(), Graph(4, list(combinations(range(4), 2)))],
                             ids=["spider_222", "pendant_cycle", "K4"])
    def test_solves_leave_no_cycles(self, graph):
        gc.collect()
        gc.disable()
        try:
            solve_families(graph)
            assert gc.collect() == 0
            list(perfect_matchings_within(graph, range(graph.n)))
            assert gc.collect() == 0
            canonical_code(graph)
            assert gc.collect() == 0
        finally:
            gc.enable()
