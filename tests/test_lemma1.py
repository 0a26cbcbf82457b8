"""The one-step lemma1 check, the claim check and the twinning primitives against slow referees.

Every minimum ev-set of every tree with n <= 10 and every connected graph
with n <= 6 is swept; sets with a sharing pair go through the census's
bitmask lemma1 check, the former check over sorted tuples and the
replaying referee. The census twins each set once and the referee
replays each whole chain, so on families with one set removed, where
chains break, the three are compared per graph, and must agree on
failing verdicts too. The twinning lemma's general form, every sharing
pair with every private vertex, is swept over its own ranges.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from domicert import (
    Graph,
    MinSetFamily,
    NotMinimumWitness,
    check_claim,
    emit_graph6,
    generate_connected_graphs,
    generate_trees,
    sharing_pairs,
    solve_ev,
)
from domicert.census import _check_lemma1, _detangles_cleanly
from domicert.domination import _incidence

from .conftest import edge_mask, family_of, minimum_of, private_vertex
from .oracles import (
    claim_holds_naive,
    detangles_cleanly_referee,
    detangles_cleanly_tuples,
    lemma1_tuples,
    private_vertex_naive,
    sharing_pairs_naive,
    twinning_general_referee,
)


@pytest.fixture(scope="module")
def families():
    graphs = [g for n in range(2, 11) for g in generate_trees(n)]
    graphs += [g for n in range(2, 7) for g in generate_connected_graphs(n)]
    return [(g, solve_ev(g)) for g in graphs]


@pytest.fixture(scope="module")
def sharing_sets(families):
    return [(g, ev, m) for g, ev in families for m in ev.sets if sharing_pairs_naive(m)]


def _without(ev: MinSetFamily, dropped) -> MinSetFamily:
    return family_of(ev.graph, ev.kind, ev.gamma, [s for s in ev.sets if s != dropped])


def _assert_private_vertices_agree(graph: Graph, members) -> None:
    for edge in members:
        for anchor in edge:
            expected = private_vertex_naive(graph, members, edge, anchor)
            if expected is None:
                with pytest.raises(NotMinimumWitness):
                    private_vertex(graph, members, edge, anchor)
            else:
                assert private_vertex(graph, members, edge, anchor) == expected


class TestLemma1Check:
    def test_same_verdict_as_referee(self, sharing_sets):
        # minimum ev-sets with a sharing pair, over the swept graphs
        assert len(sharing_sets) == 338
        for g, ev, m in sharing_sets:
            edges = g.edges
            mask = edge_mask(edges, m)
            assert _detangles_cleanly(g, edges, _incidence(edges), minimum_of(edges, ev.sets), mask) is True
            assert detangles_cleanly_tuples(g, set(ev.sets), m) is detangles_cleanly_referee(g, ev, m) is True

    def test_same_verdict_as_referee_with_a_set_removed(self, families):
        # a chain that breaks at a later step fails the census check at
        # that later set, so only the verdict per graph is the referee's
        verdicts = []
        for g, ev in families:
            for family in [ev] + [_without(ev, dropped) for dropped in ev.sets]:
                tangled = [m for m in family.sets if sharing_pairs_naive(m)]
                if not tangled:
                    continue
                verdict = _check_lemma1(g, family, None)
                assert verdict is lemma1_tuples(g, family, None)
                assert verdict is all(detangles_cleanly_referee(g, family, m) for m in tangled)
                verdicts.append(verdict)
        assert (len(verdicts), verdicts.count(False)) == (1286, 536)


# (tangled members, sharing pairs, swaps) that the general form checks
GENERAL_FORM = [(generate_trees, 12, (2654, 3491, 9465)), (generate_connected_graphs, 7, (770, 772, 1881))]
GENERAL_FORM_LONG = [(generate_trees, 16, (263881, 356570, 978077)),
                     (generate_connected_graphs, 9, (609398, 609895, 1768930))]


class TestTwinningGeneralForm:
    # every sharing pair of every minimum ev-set is twinned at every
    # private vertex of each outer end, not only at the first pair and the
    # smallest private vertices that lemma1 and detangle take
    @staticmethod
    def _sweep(generate, n_max) -> tuple[int, int, int]:
        totals = (0, 0, 0)
        for n in range(2, n_max + 1):
            for g in generate(n):
                counts = twinning_general_referee(g, solve_ev(g))
                assert counts is not None, emit_graph6(g)
                totals = tuple(a + b for a, b in zip(totals, counts))
        return totals

    @pytest.mark.parametrize("generate, n_max, counts", GENERAL_FORM, ids=["trees", "connected"])
    def test_every_pair_at_every_private_vertex(self, generate, n_max, counts):
        assert self._sweep(generate, n_max) == counts

    @pytest.mark.long
    @pytest.mark.parametrize("generate, n_max, counts", GENERAL_FORM_LONG, ids=["trees", "connected"])
    def test_every_pair_at_every_private_vertex_long(self, generate, n_max, counts):
        assert self._sweep(generate, n_max) == counts


class TestTwinningPrimitives:
    def test_sharing_pairs_matches_pairwise_count(self, families):
        for g, ev in families:
            for m in ev.sets:
                assert sharing_pairs(m) == sharing_pairs_naive(m)
                assert sharing_pairs(reversed([(v, u) for u, v in m])) == sharing_pairs_naive(m)

    def test_check_claim_matches_triple_loop(self, families):
        for g, ev in families:
            for m in ev.sets:
                assert check_claim(g, m) is claim_holds_naive(m) is True
                repeated = [(v, u) for u, v in m] + list(m[:1])
                assert check_claim(g, repeated) is True

    def test_check_claim_matches_triple_loop_on_random_edge_lists(self):
        # members need not be graph edges for the claim, and may repeat
        rng = random.Random(7)
        seen = set()
        for _ in range(3000):
            n = rng.randint(2, 7)
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [rng.choice(slots) for _ in range(rng.randint(1, 6))]
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            holds = claim_holds_naive(edges)
            assert check_claim(Graph(n, slots), edges) is holds
            distinct = {tuple(sorted(e)) for e in edges}
            triangle = any(len({v for e in t for v in e}) == 3 for t in combinations(distinct, 3))
            seen.add(("holds" if holds else "triangle" if triangle else "path", len(distinct) < len(edges)))
        # every outcome shows up, both with and without repeated members
        assert seen == {(shape, repeats) for shape in ("holds", "triangle", "path") for repeats in (False, True)}

    def test_find_private_vertex_matches_scan(self, sharing_sets):
        for g, ev, m in sharing_sets:
            _assert_private_vertices_agree(g, m)

    def test_random_edge_sets(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def graph_and_subset(draw):
            n = draw(st.integers(min_value=2, max_value=8))
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = draw(st.lists(st.sampled_from(slots), min_size=1, unique=True))
            members = draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
            return Graph(n, edges), tuple(sorted(members))

        @settings(max_examples=200, deadline=None)
        @given(graph_and_subset())
        def check(case):
            graph, members = case
            assert sharing_pairs(members) == sharing_pairs_naive(members)
            _assert_private_vertices_agree(graph, members)

        check()
