from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from collections import Counter
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

from domicert import (
    CapabilityError,
    CensusConfig,
    Graph,
    InvariantViolation,
    NotMinimumWitness,
    canonical_code,
    detangle,
    emit_graph6,
    figure1_claims,
    figure1_graph,
    generate_connected_graphs,
    generate_trees,
    is_connected,
    is_tree,
    parse_graph6,
    run_census,
    solve_ev,
    solve_families,
    solve_pr,
    tree_class_count,
    verify_graph,
)
from domicert import census
from domicert.census import CHECK_NAMES, STANDARD_CHECKS, WORKER_BOUND, connected_class_count
from domicert.domination import DEFAULT_BUDGET, _edge_tuple, _incidence

from .conftest import edge_mask, family_of, minimum_of, path_graph, pendant_cycle, spider_222
from .oracles import (
    child_codes_naive,
    claim_tuples,
    components_union_find,
    connected_classes_labeled,
    cor1_tuples,
    cor_general2_blocks,
    cor_general2_tuples,
    cor_general_blocks,
    cor_general_tuples,
    lemma1_tuples,
    sharing_pairs_naive,
    spanned_vertices,
    thm1_tuples,
    tree_classes_prufer,
    tree_classes_prufer_ordered,
    tree_from_prufer,
)

TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


class TestTreeGeneration:
    def test_counts_match_frozen_table(self):
        for n, want in TREE_COUNTS.items():
            assert sum(1 for _ in generate_trees(n)) == want

    def test_counts_match_recurrence(self):
        for n in range(1, 15):
            assert sum(1 for _ in generate_trees(n)) == tree_class_count(n)

    def test_single_vertex(self):
        got = list(generate_trees(1))
        assert len(got) == 1 and got[0].n == 1

    def test_every_output_is_a_tree(self):
        # generation builds each tree on its neighbour masks, unchecked
        for n in range(1, 13):
            for g in generate_trees(n):
                assert g.n == n and is_tree(g)
                assert Graph(g.n, g.edges) == g

    def test_no_two_outputs_isomorphic(self):
        for n in range(1, 11):
            codes = [canonical_code(g) for g in generate_trees(n)]
            assert len(set(codes)) == len(codes)

    def test_class_for_class_against_prufer(self):
        for n in range(1, 8):
            assert {canonical_code(g) for g in generate_trees(n)} == tree_classes_prufer(n)

    def test_ordered_prufer_matches_full(self):
        for n in range(3, 8):
            assert tree_classes_prufer_ordered(n) == tree_classes_prufer(n)

    @pytest.mark.slow
    def test_class_for_class_against_prufer_eight(self):
        assert {canonical_code(g) for g in generate_trees(8)} == tree_classes_prufer_ordered(8)

    @pytest.mark.slow
    def test_class_for_class_against_prufer_nine(self):
        assert {canonical_code(g) for g in generate_trees(9)} == tree_classes_prufer_ordered(9)

    def test_bound(self):
        with pytest.raises(CapabilityError):
            next(generate_trees(21))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next(generate_trees(0))


def _child(g: Graph, mask: int) -> Graph:
    return Graph(g.n + 1, list(g.edges) + [(i, g.n) for i in range(g.n) if mask >> i & 1])


class TestConnectedGeneration:
    def test_counts_match_frozen_table(self):
        for n, want in CONNECTED_COUNTS.items():
            assert sum(1 for _ in generate_connected_graphs(n)) == want

    def test_every_output_connected(self):
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                assert g.n == n and is_connected(g)

    def test_no_two_outputs_isomorphic(self):
        for n in range(2, 7):
            codes = [canonical_code(g) for g in generate_connected_graphs(n)]
            assert len(set(codes)) == len(codes)

    def test_class_for_class_against_labeled(self):
        for n in range(2, 6):
            got = {canonical_code(g) for g in generate_connected_graphs(n)}
            assert got == connected_classes_labeled(n)

    @pytest.mark.slow
    def test_class_for_class_against_labeled_six(self):
        got = {canonical_code(g) for g in generate_connected_graphs(6)}
        assert got == connected_classes_labeled(6)

    def test_class_for_class_against_networkx_atlas(self):
        # an independent referee: every graph on at most 7 vertices, as
        # listed by networkx, against the generator's classes
        nx = pytest.importorskip("networkx")
        atlas: dict[int, list[bytes]] = {n: [] for n in range(2, 8)}
        for g in nx.graph_atlas_g():
            if g.number_of_nodes() in atlas and nx.is_connected(g):
                atlas[g.number_of_nodes()].append(canonical_code(Graph(g.number_of_nodes(), g.edges())))
        for n, codes in atlas.items():
            assert len(codes) == CONNECTED_COUNTS[n]
            assert len(set(codes)) == len(codes)
            assert set(codes) == {canonical_code(g) for g in generate_connected_graphs(n)}

    def test_twin_rule_drops_only_isomorphic_children(self):
        # a mask holding twin y but not its smaller twin x is dropped; the
        # child must be isomorphic to the one with y swapped for x
        dropped = 0
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                pairs = census._twin_pairs(g.nbr_bits)
                assert pairs == [(x, y) for y in range(n) for x in range(y)
                                 if set(g.adj[x]) - {y} == set(g.adj[y]) - {x}]
                for mask in range(1, 1 << n):
                    for x, y in pairs:
                        if mask >> y & 1 and not mask >> x & 1:
                            dropped += 1
                            swapped = mask ^ (1 << x | 1 << y)
                            assert canonical_code(_child(g, mask)) == canonical_code(_child(g, swapped))
        assert dropped > 0

    def test_child_codes_against_per_mask_referee(self):
        # every connected parent with n <= 6, so children up to n = 7
        parents = [Graph(1, ())] + [g for _, g in census._connected_classes(6)]
        assert len(parents) == 143
        for g in parents:
            assert census._child_codes(g) == child_codes_naive(g)

    def test_deterministic_order(self):
        first = [g.edges for g in generate_connected_graphs(5)]
        second = [g.edges for g in generate_connected_graphs(5)]
        assert first == second

    def test_bounds(self):
        with pytest.raises(CapabilityError):
            next(generate_connected_graphs(10))
        with pytest.raises(CapabilityError):
            next(generate_connected_graphs(1))

    def test_components_against_union_find(self):
        # every induced subgraph G[alive] of every connected graph, n <= 6
        cases = 0
        for n in range(2, 7):
            for g in generate_connected_graphs(n):
                for alive in range(1 << n):
                    parts = census._components(g, alive)
                    want = components_union_find(g.edges, [v for v in range(n) if alive >> v & 1])
                    assert len(parts) == len(want)
                    assert {frozenset(v for v in range(n) if part >> v & 1) for part in parts} == want
                    cases += 1
        assert cases == 7956


class TestPinnedCodes:
    # report bytes depend on the canonical codes and on the generation
    # order, so both are pinned to digests of earlier output

    def test_tree_codes_and_order(self):
        digest = hashlib.sha256()
        for n in range(1, 13):
            for g in generate_trees(n):
                digest.update(canonical_code(g) + b"\n")
        assert digest.hexdigest() == "2d05ff24a0b9305d2beb86103e54897909faa373f6299187da9f8ff1215dad3e"

    def test_connected_codes_and_order(self):
        digest = hashlib.sha256()
        for n in range(2, 8):
            for g in generate_connected_graphs(n):
                digest.update(canonical_code(g) + b" " + emit_graph6(g).encode() + b"\n")
        assert digest.hexdigest() == "f1a9515cc7026d53af96578fc6506a1e3fdf390d57df4d6574b0c7784cf22cb1"

    def test_connected_generation_at_eight(self, monkeypatch):
        # the children coded per level are pinned too: the two rules of the
        # level pass decide how many reach canonical_code
        coded = Counter()
        code = census.canonical_code

        def counting(graph):
            coded[graph.n] += 1
            return code(graph)

        monkeypatch.setattr(census, "canonical_code", counting)
        digest = hashlib.sha256()
        for g in generate_connected_graphs(8):
            digest.update((emit_graph6(g) + "\n").encode())
        assert digest.hexdigest() == "35b9545372565c4c3b61aabdc7d9bd2af870bc8f03c7e4b113526dc81509e897"
        assert [coded[n] for n in range(2, 9)] == [1, 2, 6, 31, 165, 1480, 19429]

    def test_pooled_level_pass_matches_serial(self):
        # each level's children coded in a real pool: the merge keeps the
        # first class found in parent order, so the stream is the serial
        # one, code and labelled graph alike, in discovery order, and level
        # 8 keeps its pinned order
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            pooled = list(census._connected_classes(8, pool.map, 2))
        assert pooled == list(census._connected_classes(8))
        digest = hashlib.sha256()
        for _, g in sorted(found for found in pooled if found[1].n == 8):
            digest.update((emit_graph6(g) + "\n").encode())
        assert digest.hexdigest() == "35b9545372565c4c3b61aabdc7d9bd2af870bc8f03c7e4b113526dc81509e897"

    def test_codes_survive_relabelling(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def prufer_tree(draw, max_n):
            n = draw(st.integers(min_value=2, max_value=max_n))
            seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
            return tree_from_prufer(seq, n)

        @st.composite
        def connected(draw):
            # a random spanning tree plus random extra edges
            tree = draw(prufer_tree(8))
            slots = [(u, v) for u in range(tree.n) for v in range(u + 1, tree.n)]
            extra = draw(st.lists(st.sampled_from(slots), unique=True))
            return Graph(tree.n, tree.edges + tuple(extra))

        @settings(max_examples=400, deadline=None)
        @given(st.one_of(prufer_tree(16), connected()), st.data())
        def check(graph, data):
            perm = data.draw(st.permutations(range(graph.n)))
            image = Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])
            assert canonical_code(image) == canonical_code(graph)

        check()


class TestPinnedReports:
    # report sha256 of the censuses the benchmark runs, of trees n=13..14
    # and of the shared n=8 probe, taken from earlier output: the report
    # bytes must not move. The long pins, trees n=17..18 and connected n=9,
    # run only with --run-long

    @staticmethod
    def _digest(report) -> str:
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    def test_trees_standard_checks(self):
        report = run_census(CensusConfig(family="trees", n_min=2, n_max=12, checks=STANDARD_CHECKS))
        assert self._digest(report) == "5c4fa5b414df83107b6708374046c61832b4847337a319e779e143aa3fae1c6b"

    def test_trees_thirteen_to_fourteen(self):
        report = run_census(CensusConfig(family="trees", n_min=13, n_max=14, checks=STANDARD_CHECKS))
        assert self._digest(report) == "2237ccca06b8e70c1a41d9e0cec83e87c4e66254e8ffa01b2a41adf080cce596"

    def test_connected_all_checks(self):
        report = run_census(CensusConfig(family="connected_graphs", n_min=2, n_max=7,
                                         checks=CHECK_NAMES, worker_count=2))
        assert self._digest(report) == "045122cbdf2a3d179c489f097161d9352388688e82fb2e538d6c18e605581ada"

    def test_probe_at_eight(self, probe_at_8):
        assert self._digest(probe_at_8) == "235c33a2f1978d0987371a8c99d779b8d1b4b52ec799c0dcabbaaeee64dba20b"

    @pytest.mark.long
    def test_trees_seventeen_to_eighteen(self):
        report = run_census(CensusConfig(family="trees", n_min=17, n_max=18, checks=STANDARD_CHECKS,
                                         worker_count=2))
        assert self._digest(report) == "1d3156ae24374005d0245a6360f7d9b3a23053279cb57aaedbdb8f97c7bb22ed"

    @pytest.mark.long
    def test_connected_nine_all_checks(self):
        # every standard check passes; the 53 counterexamples are thm2_probe findings
        report = run_census(CensusConfig(family="connected_graphs", n_min=9, n_max=9, checks=CHECK_NAMES,
                                         worker_count=2))
        verdicts = report.totals["verdicts"]
        assert [verdicts[name]["fail"] for name in CHECK_NAMES] == [0] * 7 + [53]
        assert self._digest(report) == "db37b63d3f028661816363e2a2d1a29ee14e7e9ac8f324c6f4f19da5f486cf18"


class TestVerifyGraph:
    def test_path_all_pass(self):
        verdicts = verify_graph(path_graph(4), CHECK_NAMES)
        assert set(verdicts) == set(CHECK_NAMES)
        assert all(v == "pass" for v in verdicts.values())

    def test_pendant_cycle_probe_fails_others_pass(self):
        verdicts = verify_graph(pendant_cycle(), CHECK_NAMES)
        assert verdicts["thm2_probe"] == "fail"
        assert verdicts["thm2"] == "na"
        assert verdicts["cor_general"] == "na"
        for name in ("thm1", "cor1", "cor_general2", "claim", "lemma1"):
            assert verdicts[name] == "pass"

    def test_tree_specific_checks_apply_on_trees(self):
        verdicts = verify_graph(path_graph(3), ("thm2", "cor_general"))
        assert verdicts == {"cor_general": "pass", "thm2": "pass"}

    def test_tree_specific_checks_na_off_connected_graphs(self):
        # a triangle and a disjoint edge: n - 1 edges and no isolated vertex, no tree
        graph = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        verdicts = verify_graph(graph, ("thm2", "cor_general"))
        assert verdicts == {"cor_general": "na", "thm2": "na"}

    def test_census_task_builds_the_edge_list_once(self, monkeypatch):
        # the claim and lemma1 checks index the edge tuple the search built
        graph = spider_222()
        assert solve_ev(graph).tangled
        edges = Graph.edges
        reads = []
        monkeypatch.setattr(Graph, "edges", property(lambda g: reads.append(g) or edges.fget(g)))
        _, verdicts, _ = census._census_task(graph, STANDARD_CHECKS, DEFAULT_BUDGET)
        assert verdicts == dict.fromkeys(STANDARD_CHECKS, "pass")
        assert reads == [graph]

    def test_budget_skips_rather_than_passes(self):
        verdicts = verify_graph(pendant_cycle(), CHECK_NAMES, budget=3)
        assert all(v == "skip" for v in verdicts.values())

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify_graph(path_graph(3), ("thm3",))

    def test_empty_checks_rejected(self):
        with pytest.raises(ValueError):
            verify_graph(path_graph(3), ())

    def test_bare_string_rejected(self):
        with pytest.raises(ValueError, match="tuple of check names"):
            verify_graph(path_graph(3), "thm1")

    def test_check_names(self):
        assert CHECK_NAMES == ("claim", "cor1", "cor_general", "cor_general2", "lemma1", "thm1", "thm2",
                               "thm2_probe")
        assert STANDARD_CHECKS == CHECK_NAMES[:-1]


def _doctored(sets: tuple) -> list[tuple]:
    # nonempty subfamilies of a family: each one or two of its sets, and all
    return sorted({*combinations(sets, 1), *combinations(sets, 2), sets})


def _k4_families():
    # the ev-set spans the paired set, but K4 has three perfect matchings.
    # K4's gamma_ev is 1, so solve_families never builds these families
    k4 = Graph(4, list(combinations(range(4), 2)))
    return k4, family_of(k4, "ev", 2, [((0, 1), (2, 3))]), family_of(k4, "paired", 4, [(0, 1, 2, 3)])


def _census_families(tree_max: int, connected_max: int):
    graphs = [g for n in range(2, tree_max + 1) for g in generate_trees(n)]
    graphs += [g for n in range(2, connected_max + 1) for g in generate_connected_graphs(n)]
    return [(g, *solve_families(g)) for g in graphs]


class TestCorollaryChecks:
    # every census graph passes both checks, so they are driven to fail on
    # families doctored from the real ones and held to the former
    # overlapping-block statements and to the former tuple-based checks.
    # Each doctored family is one solve_families could build: some of the
    # minimum ev-sets, and as paired sets their spans that are matchings
    def test_agree_with_block_referees_on_doctored_families(self):
        cases = []
        for g, ev, pr in _census_families(6, 5):
            for ev_sets in _doctored(ev.sets):
                doctored = family_of(g, "ev", ev.gamma, ev_sets)
                spans = [span for span in map(spanned_vertices, ev_sets) if len(span) == pr.gamma]
                if spans:
                    cases.append((g, doctored, family_of(g, "paired", pr.gamma, spans)))
        fails = Counter()
        for g, ev, pr in cases:
            for name, blocks, tuples in (("cor_general", cor_general_blocks, cor_general_tuples),
                                         ("cor_general2", cor_general2_blocks, cor_general2_tuples)):
                verdict = census._CHECK_TABLE[name](g, ev, pr)
                assert verdict == blocks(g, ev, pr) == tuples(g, ev, pr), (emit_graph6(g), name, ev.sets, pr.sets)
                fails[name] += not verdict
        assert (len(cases), fails["cor_general"], fails["cor_general2"]) == (544, 38, 38)

    def test_matchings_are_read_off_the_family_when_thm1_holds(self):
        # with 2 * gamma_ev == gamma_pr the perfect matchings of G[D] are the
        # minimum ev-sets spanning D, so a family missing K4's other two
        # matchings passes: the check trusts the family to be complete there
        k4, ev, pr = _k4_families()
        assert census._CHECK_TABLE["cor_general"](k4, ev, pr)
        assert not cor_general_tuples(k4, ev, pr)


class TestMaskChecksAgainstTupleReferees:
    # the census checks read the families' masks; the former checks read
    # their sorted tuples. Both on every tree with n <= 12 and every
    # connected graph with n <= 7, where every check passes. thm1 and cor1
    # pass by construction, and their referees test the clauses they stand for
    CHECKS = {"claim": claim_tuples, "lemma1": lemma1_tuples, "thm1": thm1_tuples, "cor1": cor1_tuples,
              "cor_general": cor_general_tuples, "cor_general2": cor_general2_tuples}

    @pytest.fixture(scope="class")
    def families(self):
        return _census_families(12, 7)

    def test_same_verdicts_on_census_families(self, families):
        tallies = Counter()
        for g, ev, pr in families:
            for name, referee in self.CHECKS.items():
                verdict = census._CHECK_TABLE[name](g, ev, pr)
                assert verdict is referee(g, ev, pr), (emit_graph6(g), name)
                tallies[name, verdict] += 1
        assert set(tallies) == {(name, True) for name in self.CHECKS}
        assert tallies["claim", True] == 986 + 995

    def test_members_with_a_sharing_pair_are_exactly_the_non_matchings(self, families):
        # claim and lemma1 pass a member that spans 2 * gamma vertices
        # without further work: such a member is a matching
        total = tangled = 0
        # the trees come first, then the connected graphs
        for g, ev, pr in families[:sum(tree_class_count(n) for n in range(2, 13))]:
            masks = ev.tangled
            total += len(ev.masks)
            tangled += len(masks)
            assert [sharing_pairs_naive(m) > 0 for m in ev.sets] == [
                mask in masks for mask in (edge_mask(g.edges, m) for m in ev.sets)]
        assert (total, total - tangled) == (10905, 8251)


# The spider's star set twins into two sets with one sharing pair each. A
# tree has one perfect matching per span, and the spider one star of three
# members, so the forged steps that need a second three-pair member, or a
# second sharing-free member spanning {0, 1, 2, 3, 5, 6}, add these
# stand-ins to the family. Neither is a set of spider edges, so the
# forged family is indexed over the spider's edges and theirs.
STAR = ((0, 1), (0, 3), (0, 5))
THREE_PAIRS = ((0, 1), (0, 3), (1, 3))
SAME_SPAN = ((0, 1), (2, 3), (5, 6))


def _no_private_vertex(left, right):
    raise NotMinimumWitness("forged: no private vertex")


class TestLemma1Failures:
    def test_family_missing_a_branch_fails(self, monkeypatch):
        # the spider's set {(0,1), (0,3), (5,6)} twins into {(0,3), (1,2), (5,6)}
        # and {(0,1), (3,4), (5,6)}; without the second one lemma1 cannot hold
        graph = spider_222()
        full = solve_ev(graph)
        right = ((0, 1), (3, 4), (5, 6))
        assert verify_graph(graph, ("lemma1",)) == {"lemma1": "pass"}
        assert right in full.sets and ((0, 1), (0, 3), (5, 6)) in full.sets
        doctored = family_of(graph, "ev", full.gamma, [m for m in full.sets if m != right])
        monkeypatch.setattr(census, "solve_families", lambda g, budget: (doctored, solve_pr(g)))
        assert verify_graph(graph, ("lemma1",)) == {"lemma1": "fail"}

    @pytest.mark.parametrize("mangle", [
        lambda left, right: (STAR, THREE_PAIRS),                    # no fewer sharing pairs than before
        lambda left, right: (left, left),                           # both rewrites are one set
        lambda left, right: (left, ((0, 1), (3, 4), (5, 6))),       # the rewrites differ in sharing pairs
        lambda left, right: (left, ((0, 1), (1, 2), (3, 4))),       # a rewrite misses vertex 6: no member
        lambda left, right: (((0, 3), (1, 2), (5, 6)), SAME_SPAN),  # sharing-free rewrites with one span
        _no_private_vertex,
    ])
    def test_each_step_invariant_is_checked(self, monkeypatch, mangle):
        graph = spider_222()
        edges = sorted({*graph.edges, *THREE_PAIRS, *SAME_SPAN})
        incident = _incidence(edges)
        minimum = minimum_of(edges, [*solve_ev(graph).sets, THREE_PAIRS, SAME_SPAN])
        star = edge_mask(edges, STAR)
        assert census._detangles_cleanly(graph, edges, incident, minimum, star) is True
        twin = census._twin

        def mangled(g, edges, incident, members, a, b):
            left, right = mangle(*(_edge_tuple(edges, m) for m in twin(g, edges, incident, members, a, b)[:2]))
            return edge_mask(edges, left), edge_mask(edges, right), None, None

        monkeypatch.setattr(census, "_twin", mangled)
        assert census._detangles_cleanly(graph, edges, incident, minimum, star) is False

    def test_sharing_free_set_has_nothing_to_detangle(self):
        graph = spider_222()
        members = ((0, 3), (1, 2), (5, 6))
        assert members in solve_ev(graph).sets
        family = family_of(graph, "ev", 3, [members])
        assert family.tangled == []
        assert census._check_lemma1(graph, family, None) is True

    def test_non_minimum_set_is_rejected_through_witness(self):
        # {(0,1), (1,2)} dominates P4 but has no private vertex at 0
        graph = path_graph(4)
        members = ((0, 1), (1, 2))
        with pytest.raises(NotMinimumWitness):
            detangle(graph, members)
        edges = graph.edges
        minimum = minimum_of(edges, [*solve_ev(graph).sets, members])
        assert census._detangles_cleanly(graph, edges, _incidence(edges), minimum, edge_mask(edges, members)) is False


class TestCensusConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CensusConfig(family="digraphs", n_min=2, n_max=4)
        with pytest.raises(ValueError):
            CensusConfig(family="trees", n_min=1, n_max=4)
        with pytest.raises(ValueError):
            CensusConfig(family="trees", n_min=5, n_max=4)
        with pytest.raises(ValueError):
            CensusConfig(family="connected_graphs", n_min=2, n_max=10)
        with pytest.raises(ValueError):
            CensusConfig(family="trees", n_min=2, n_max=4, checks=("bogus",))
        with pytest.raises(ValueError):
            CensusConfig(family="trees", n_min=2, n_max=4, worker_count=0)
        with pytest.raises(ValueError, match="workers"):
            CensusConfig(family="trees", n_min=2, n_max=4, worker_count=WORKER_BOUND + 1)
        with pytest.raises(ValueError):
            CensusConfig(family="trees", n_min=2, n_max=4, budget=0)
        # every count must be an int, and a bool is not one
        for field, value in [("n_min", 2.0), ("n_max", 5.0), ("n_max", "5"), ("worker_count", True),
                             ("worker_count", 2.0), ("budget", 1.5), ("budget", True)]:
            with pytest.raises(ValueError, match=f"{field} must be an int"):
                CensusConfig(**{"family": "connected_graphs", "n_min": 2, "n_max": 5, field: value})

    def test_worker_bound_inclusive(self):
        cfg = CensusConfig(family="trees", n_min=2, n_max=4, worker_count=WORKER_BOUND)
        assert cfg.worker_count == WORKER_BOUND

    def test_bare_string_checks_rejected(self):
        with pytest.raises(ValueError, match="tuple of check names"):
            CensusConfig(family="trees", n_min=2, n_max=4, checks="thm1")

    def test_checks_normalized(self):
        cfg = CensusConfig(family="trees", n_min=2, n_max=4,
                           checks=("thm1", "claim", "thm1"))
        assert cfg.checks == ("claim", "thm1")


class RecordingPool:
    """A serial stand-in for the census pool that records what it is given.

    ``map`` is the builtin map: it logs each item as it is read and each
    task as it runs, and leaving the block logs the exception it was left
    on, if any. A coding task logs the level it codes.
    """

    failing = False

    def __init__(self, workers):
        self.events = [("pool", workers)]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        self.events.append(("exit", exc_type))

    def map(self, func, iterable):
        self.events.append(("map", func))
        return map(partial(self._run, func), self._read(func, iterable))

    def _read(self, func, iterable):
        for item in iterable:
            self.events.append(("read", func, item))
            yield item

    def _run(self, func, item):
        if func is census._chunk_codes:
            self.events.append(("coded", item[0].n + 1))
        else:
            self.events.append(("checked",))
            if self.failing:
                raise RuntimeError("worker failed")
        return func(item)


@pytest.fixture
def recording_pool(monkeypatch):
    """Every census pool started during the test, each a RecordingPool."""
    pools = []

    def start(workers):
        pools.append(RecordingPool(workers))
        return pools[-1]

    monkeypatch.setattr(census, "Pool", start)
    return pools


class TestRunCensus:
    def test_trees_vacuous_counts(self):
        report = run_census(CensusConfig(family="trees", n_min=2, n_max=8))
        assert report.counterexample_count == 0
        assert report.skip_count == 0
        for n in range(2, 9):
            assert report.per_n[n]["graphs_examined"] == TREE_COUNTS[n]

    def test_connected_clean_through_six(self):
        report = run_census(CensusConfig(
            family="connected_graphs", n_min=2, n_max=6,
            checks=("thm1", "cor1", "cor_general2", "claim", "lemma1")))
        assert report.counterexample_count == 0
        for n in range(2, 7):
            assert report.per_n[n]["graphs_examined"] == CONNECTED_COUNTS[n]

    def test_connected_sub_range_matches_full_range(self):
        # one level pass serves any n_min: no level skipped or checked twice
        full = run_census(CensusConfig(family="connected_graphs", n_min=2, n_max=7, checks=CHECK_NAMES))
        part = run_census(CensusConfig(family="connected_graphs", n_min=5, n_max=7, checks=CHECK_NAMES))
        assert sorted(part.per_n) == [5, 6, 7]
        for n in (5, 6, 7):
            assert part.per_n[n] == full.per_n[n]
        single = run_census(CensusConfig(family="connected_graphs", n_min=4, n_max=4))
        assert single.per_n[4]["graphs_examined"] == 6

    def test_probe_on_trees_never_finds(self):
        report = run_census(CensusConfig(family="trees", n_min=2, n_max=8,
                                         checks=("thm2_probe",)))
        assert report.counterexample_count == 0

    def test_report_shape(self):
        report = run_census(CensusConfig(family="trees", n_min=2, n_max=5))
        payload = json.loads(report.to_json())
        assert payload["version"] == "report-v1"
        assert payload["family"] == "trees"
        assert sorted(payload["per_n"]) == ["2", "3", "4", "5"]
        record = payload["per_n"]["4"]
        assert record["graphs_examined"] == 2
        assert record["expected_count"] == 2
        assert set(record["verdicts"]) == set(STANDARD_CHECKS)
        assert record["counterexamples"] == []
        assert "wall" not in report.to_json()

    def test_na_accounting(self):
        report = run_census(CensusConfig(family="connected_graphs", n_min=4, n_max=4,
                                         checks=("thm1", "thm2")))
        record = report.per_n[4]
        # 6 connected classes on 4 vertices, 2 of them trees
        assert record["verdicts"]["thm2"]["na"] == 4
        assert record["verdicts"]["thm2"]["pass"] == 2
        assert record["verdicts"]["thm1"]["pass"] == 6

    def test_budget_produces_skips_not_passes(self):
        report = run_census(CensusConfig(family="trees", n_min=6, n_max=6, budget=3))
        assert report.skip_count > 0
        assert report.counterexample_count == 0
        verdicts = report.per_n[6]["verdicts"]
        for name in STANDARD_CHECKS:
            assert verdicts[name]["pass"] + verdicts[name]["fail"] + verdicts[name]["skip"] \
                + verdicts[name]["na"] == 6

    def test_worker_counts_agree(self):
        cfg = dict(family="trees", n_min=2, n_max=8)
        one = run_census(CensusConfig(**cfg, worker_count=1))
        four = run_census(CensusConfig(**cfg, worker_count=4))
        assert one.to_json() == four.to_json()

    def test_connected_worker_counts_agree(self):
        # through n=8, whose five thm2_probe counterexamples are found by
        # whichever worker checks them and must be reported in one order
        cfg = dict(family="connected_graphs", n_min=2, n_max=8, checks=CHECK_NAMES)
        reports = [run_census(CensusConfig(**cfg, worker_count=workers)).to_json() for workers in (1, 2, 3)]
        assert reports[1:] == reports[:1] * 2
        digest = hashlib.sha256(reports[0].encode()).hexdigest()
        assert digest == "a8a3315056f364b80d6f2d14c75c104f5b8e3904ea681102744d2e0d2fed5ee1"

    def test_rerun_byte_identical(self):
        cfg = CensusConfig(family="connected_graphs", n_min=2, n_max=5)
        assert run_census(cfg).to_json() == run_census(cfg).to_json()

    def test_each_graph_verified_before_the_next_is_generated(self, monkeypatch):
        events = []
        generate, verify = census.generate_trees, census._census_task

        def recording_generate(n):
            for graph in generate(n):
                events.append(("yield", emit_graph6(graph)))
                yield graph

        def recording_verify(graph, checks, budget):
            events.append(("verify", emit_graph6(graph)))
            return verify(graph, checks, budget)

        monkeypatch.setattr(census, "generate_trees", recording_generate)
        monkeypatch.setattr(census, "_census_task", recording_verify)
        run_census(CensusConfig(family="trees", n_min=4, n_max=6, worker_count=1))
        labels = [emit_graph6(g) for n in range(4, 7) for g in generate(n)]
        assert events == [(event, label) for label in labels for event in ("yield", "verify")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_class_count_mismatch_raises(self, monkeypatch, workers):
        generate = census.generate_trees
        monkeypatch.setattr(census, "generate_trees",
                            lambda n: list(generate(n))[:-1] if n == 7 else generate(n))
        with pytest.raises(InvariantViolation, match=r"^generated 10 classes for n=7, expected 11$"):
            run_census(CensusConfig(family="trees", n_min=5, n_max=8, worker_count=workers))

    def test_pool_gets_one_batch_stream_over_all_sizes(self, recording_pool):
        # the trees of every size go to the pool as one stream of listed
        # batches of CHUNK_SIZE graphs, the last one shorter
        pooled = run_census(CensusConfig(family="trees", n_min=2, n_max=10, worker_count=3))
        pool, = recording_pool
        submitted = [event[2] for event in pool.events if event[0] == "read"]
        size = census.CHUNK_SIZE
        assert [len(batch) for batch in submitted] == [size, size, size, 200 - 3 * size]
        assert [g.n for batch in submitted for g in batch] == [n for n in range(2, 11) for _ in generate_trees(n)]
        assert len({g.n for g in submitted[0]}) > 1
        assert {event[0] for event in pool.events} == {"pool", "map", "read", "checked", "exit"}
        assert sum(event[0] == "map" for event in pool.events) == 1
        assert pool.events[:1] + pool.events[-1:] == [("pool", 3), ("exit", None)]
        assert pooled.to_json() == run_census(CensusConfig(family="trees", n_min=2, n_max=10)).to_json()

    def test_pool_starts_with_sigint_ignored(self, monkeypatch):
        # forked workers inherit the ignored SIGINT, and the parent gets its
        # handler back; in another thread, where signal.signal raises, the
        # pool starts as it is
        seen = []

        def start(workers):
            seen.append(signal.getsignal(signal.SIGINT))
            return RecordingPool(workers)

        monkeypatch.setattr(census, "Pool", start)
        handler = signal.getsignal(signal.SIGINT)
        config = CensusConfig(family="trees", n_min=2, n_max=6, worker_count=2)
        examined = [run_census(config).totals["graphs_examined"]]
        thread = threading.Thread(target=lambda: examined.append(run_census(config).totals["graphs_examined"]))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen == [signal.SIG_IGN, handler]
        assert signal.getsignal(signal.SIGINT) is handler
        assert examined == [13, 13]

    def test_failing_pool_is_terminated_not_drained(self, monkeypatch, recording_pool):
        # a pool whose first check result fails: the census re-raises and
        # leaves the pool's block on the exception, which stops the workers
        # at once, instead of reading another batch or draining the ones
        # in flight
        monkeypatch.setattr(RecordingPool, "failing", True)
        with pytest.raises(RuntimeError, match="^worker failed$"):
            run_census(CensusConfig(family="trees", n_min=2, n_max=11, worker_count=3))
        events = recording_pool[0].events
        assert [event[0] for event in events] == ["pool", "map", "read", "checked", "exit"]
        assert events[-1] == ("exit", RuntimeError)

    def test_connected_pool_codes_each_level_and_streams_checks(self, recording_pool):
        # every level is coded in the pool, levels below n_min too, through
        # one map over chunks of its parents, four chunks per worker; the
        # classes of levels n_min..n_max go to the checks in listed batches
        cfg = dict(family="connected_graphs", n_min=4, n_max=7, checks=CHECK_NAMES)
        pooled = run_census(CensusConfig(**cfg, worker_count=3))
        pool, = recording_pool
        chunks = {}
        for event in pool.events:
            if event[0] == "read" and event[1] is census._chunk_codes:
                chunks.setdefault(event[2][0].n, []).append(len(event[2]))
        coding = [(census._chunk_codes, sizes[0], sum(sizes)) for sizes in chunks.values()]
        parents = [connected_class_count(m) if m > 1 else 1 for m in range(1, 7)]
        assert coding == [(census._chunk_codes, max(1, count // 12), count) for count in parents]
        assert all(size <= sizes[0] for sizes in chunks.values() for size in sizes)
        assert pool.events.count(("map", census._chunk_codes)) == len(parents)
        submitted = [event[2] for event in pool.events if event[0] == "read" and event[1] is not census._chunk_codes]
        assert [g.n for batch in submitted for g in batch] == [n for n in range(4, 8)
                                                               for _ in range(connected_class_count(n))]
        assert pool.events[-1] == ("exit", None)
        assert pooled.to_json() == run_census(CensusConfig(**cfg)).to_json()

    def test_checks_start_before_the_last_level_is_coded(self, recording_pool):
        # the pipeline: check batches go out while the last level's parents
        # are still being coded. How many are in flight at once is the
        # pool's to bound (tests/test_workers.py)
        cfg = dict(family="connected_graphs", n_min=7, n_max=7, checks=CHECK_NAMES)
        pooled = run_census(CensusConfig(**cfg, worker_count=3))
        events = recording_pool[0].events
        first_submit = next(i for i, event in enumerate(events)
                            if event[0] == "read" and event[1] is not census._chunk_codes)
        last_coded = max(i for i, event in enumerate(events) if event == ("coded", 7))
        assert first_submit < last_coded
        assert pooled.to_json() == run_census(CensusConfig(**cfg)).to_json()

    @pytest.mark.long
    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
    def test_connected_nine_parent_memory(self):
        # the parent of a pooled n=9 census keeps the last level's codes,
        # not its graphs; measured in a fresh process, whose own peak it is
        script = ("import resource\n"
                  "from domicert.census import CHECK_NAMES, CONNECTED, CensusConfig, run_census\n"
                  "run_census(CensusConfig(family=CONNECTED, n_min=9, n_max=9, checks=CHECK_NAMES, worker_count=2))\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = str(Path(census.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600)
        assert (done.returncode, done.stderr) == (0, "")
        assert int(done.stdout) <= 120 * 1024

    def test_probe_finds_pendant_cycle_class_at_eight(self, probe_at_8):
        # the census is shared with the acceptance suite through conftest
        assert probe_at_8.per_n[8]["graphs_examined"] == connected_class_count(8)
        found = probe_at_8.per_n[8]["counterexamples"]
        assert found
        want = canonical_code(figure1_graph())
        assert any(canonical_code(parse_graph6(rec["graph6"])) == want for rec in found)
        for rec in found:
            assert rec["check"] == "thm2_probe"
            assert rec["gamma_pr"] == 2 * rec["gamma_ev"]

    def test_probe_records_carry_the_solved_families(self, probe_at_8):
        found = probe_at_8.per_n[8]["counterexamples"]
        assert len(found) == 5
        for rec in found:
            graph = parse_graph6(rec["graph6"])
            ev, pr = solve_ev(graph), solve_pr(graph)
            assert (rec["gamma_ev"], rec["gamma_pr"]) == (ev.gamma, pr.gamma)
            assert rec["ev_sets"] == [[list(e) for e in m] for m in ev.sets]
            assert rec["pr_sets"] == [list(d) for d in pr.sets]


class TestBundledFixture:
    def test_loads_expected_graph(self):
        g = figure1_graph()
        assert g == pendant_cycle()

    def test_claims_hold(self):
        claims = figure1_claims(figure1_graph())
        assert len(claims) == 5
        assert all(ok for _, ok in claims)

    def test_claims_fail_on_other_graph(self):
        claims = figure1_claims(path_graph(4))
        assert not all(ok for _, ok in claims)
