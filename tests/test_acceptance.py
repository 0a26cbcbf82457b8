"""Acceptance suite: one test per shipped guarantee, one printed verdict line each.

Every test prints a single ``acceptance N: PASS/FAIL (...)`` line directly to
the terminal (bypassing capture) so a plain ``pytest -v`` run shows all nine
verdicts, then asserts. The censuses are shared through module-scoped
fixtures (the n=8 probe through the session-scoped one in conftest) so
the whole suite stays well under the ten-minute budget.
"""

from __future__ import annotations

import time

import pytest

from domicert import (
    canonical_code,
    gamma_ev_tree_fast,
    parse_graph6,
    solve_ev,
    solve_pr,
)
from domicert.census import (
    CONNECTED,
    TREES,
    CensusConfig,
    figure1_claims,
    figure1_graph,
    generate_trees,
    run_census,
)

from .oracles import tree_classes_prufer

# tree class counts for n = 2..10, frozen from the Pruefer-enumeration oracle
TREE_CLASS_COUNTS = (1, 1, 2, 3, 6, 11, 23, 47, 106)


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {number} failed: {detail}"


def _clean(report, check: str) -> bool:
    """Every examined graph passed the check; nothing failed, skipped, or was exempt."""
    tally = report.totals["verdicts"][check]
    examined = report.totals["graphs_examined"]
    return tally == {"pass": examined, "fail": 0, "skip": 0, "na": 0}


@pytest.fixture(scope="module")
def trees_to_12():
    config = CensusConfig(family=TREES, n_min=2, n_max=12, checks=("thm1", "thm2"))
    return run_census(config)


@pytest.fixture(scope="module")
def trees_to_10():
    config = CensusConfig(family=TREES, n_min=2, n_max=10, checks=("claim", "lemma1"))
    return run_census(config)


@pytest.fixture(scope="module")
def connected_to_7():
    config = CensusConfig(family=CONNECTED, n_min=2, n_max=7,
                          checks=("cor1", "cor_general2", "thm1"))
    return run_census(config)


@pytest.fixture(scope="module")
def connected_to_6():
    config = CensusConfig(family=CONNECTED, n_min=2, n_max=6, checks=("claim", "lemma1"))
    return run_census(config)


def test_1_figure_fixture_reproduction(capsys):
    graph = figure1_graph()
    start = time.perf_counter()
    claims = figure1_claims(graph)
    elapsed = time.perf_counter() - start
    failed = [label for label, holds in claims if not holds]
    ok = not failed and elapsed < 1.0
    _verdict(capsys, 1, ok,
             f"bundled 8-vertex fixture: gamma_pr = 4 once, gamma_ev = 2 twice, "
             f"equal spans; {len(claims) - len(failed)}/{len(claims)} claims "
             f"in {elapsed * 1000:.2f}ms")


def test_2_doubling_identity_sweep(capsys, trees_to_12, connected_to_7):
    ok = _clean(trees_to_12, "thm1") and _clean(connected_to_7, "thm1")
    _verdict(capsys, 2, ok,
             f"2*gamma_ev == gamma_pr on {trees_to_12.totals['graphs_examined']} trees "
             f"n=2..12 and {connected_to_7.totals['graphs_examined']} connected graphs n=2..7")


def test_3_tree_uniqueness_equivalence(capsys, trees_to_12):
    ok = _clean(trees_to_12, "thm2")
    _verdict(capsys, 3, ok,
             f"ev-unique iff paired-unique on {trees_to_12.totals['graphs_examined']} "
             f"trees n=2..12")


def test_4_ev_unique_implies_paired_unique(capsys, connected_to_7):
    ok = _clean(connected_to_7, "cor1")
    _verdict(capsys, 4, ok,
             f"ev-unique implies paired-unique on "
             f"{connected_to_7.totals['graphs_examined']} connected graphs n=2..7")


def test_5_common_span_equivalence_and_probe(capsys, connected_to_7, probe_at_8):
    sweep_ok = _clean(connected_to_7, "cor_general2")

    # the tree equivalence must break at n = 8, on the bundled fixture's class
    fixture_code = canonical_code(figure1_graph())
    witnessed = False
    for record in probe_at_8.per_n[8]["counterexamples"]:
        found = parse_graph6(record["graph6"])
        if (len(record["pr_sets"]) == 1 and len(record["ev_sets"]) > 1
                and canonical_code(found) == fixture_code):
            witnessed = True
            break
    ok = sweep_ok and witnessed
    _verdict(capsys, 5, ok,
             f"paired-unique iff one shared span on "
             f"{connected_to_7.totals['graphs_examined']} connected graphs n=2..7; "
             f"n=8 probe found {probe_at_8.counterexample_count} paired-unique "
             f"ev-non-unique graphs including the fixture's class")


def test_6_detangle_invariants(capsys, trees_to_10, connected_to_6):
    ok = _clean(trees_to_10, "lemma1") and _clean(connected_to_6, "lemma1")
    _verdict(capsys, 6, ok,
             f"detangle rewrites every sharing minimum ev-set into two distinct "
             f"disjoint-edge minimum sets with different spans, across "
             f"{trees_to_10.totals['graphs_examined']} trees n=2..10 and "
             f"{connected_to_6.totals['graphs_examined']} connected graphs n=2..6")


def test_7_no_path_or_triangle_triples(capsys, trees_to_10, connected_to_6):
    ok = _clean(trees_to_10, "claim") and _clean(connected_to_6, "claim")
    _verdict(capsys, 7, ok,
             f"no minimum ev-set holds three edges forming a 4-vertex path or a "
             f"triangle, across {trees_to_10.totals['graphs_examined']} trees and "
             f"{connected_to_6.totals['graphs_examined']} connected graphs")


def test_8_tree_solver_and_generator_oracles(capsys):
    mismatches = 0
    trees_checked = 0
    counts = []
    for n in range(2, 15):
        seen = 0
        for tree in generate_trees(n):
            seen += 1
            if gamma_ev_tree_fast(tree) != solve_ev(tree).gamma:
                mismatches += 1
        trees_checked += seen
        if n <= 10:
            counts.append(seen)
    counts_ok = tuple(counts) == TREE_CLASS_COUNTS
    live_oracle_ok = all(
        len(tree_classes_prufer(n)) == TREE_CLASS_COUNTS[n - 2] for n in range(2, 8)
    )
    ok = mismatches == 0 and counts_ok and live_oracle_ok
    _verdict(capsys, 8, ok,
             f"linear tree solver agrees with the exhaustive one on {trees_checked} "
             f"trees n=2..14 ({mismatches} mismatches); generator counts n=2..10 "
             f"match the frozen oracle values and a live re-enumeration for n<=7")


def test_9_report_determinism(capsys):
    def report_bytes(workers: int) -> bytes:
        config = CensusConfig(family=TREES, n_min=2, n_max=8, worker_count=workers)
        return run_census(config).to_json().encode()

    single, spread = report_bytes(1), report_bytes(8)
    ok = single == spread
    _verdict(capsys, 9, ok,
             f"census reports for 1 and 8 workers are byte-identical "
             f"({len(single)} bytes)")
