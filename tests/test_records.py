"""The package's record classes: construction, immutability, value
semantics (==, hash, repr) and pickling."""

from __future__ import annotations

import pickle

import pytest

from domicert import (
    CensusConfig,
    CensusReport,
    DetangleResult,
    MinSetFamily,
    TwinningStep,
    UniquenessVerdict,
    detangle,
    parse_graph6,
    solve_ev,
    solve_families,
    solve_pr,
    uniqueness,
)
from domicert.census import STANDARD_CHECKS, TREES
from domicert.domination import DEFAULT_BUDGET

from .conftest import path_graph, pendant_cycle, spider_222

STEP = TwinningStep((0, 1), (1, 2), 2, 0)


def _family() -> MinSetFamily:
    g = path_graph(3)
    return MinSetFamily("ev", 1, (1, 2), (3, 6), g, g.edges)


FROZEN = {
    "MinSetFamily": (_family, "gamma"),
    "UniquenessVerdict": (lambda: uniqueness(path_graph(4), "ev"), "unique"),
    "TwinningStep": (lambda: STEP, "private_vertex"),
    "DetangleResult": (lambda: detangle(spider_222(), [(0, 1), (0, 3), (5, 6)]), "left"),
    "CensusConfig": (lambda: CensusConfig(TREES, 2, 4), "n_max"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_fields_cannot_be_assigned_or_deleted(name):
    make, field = FROZEN[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


class TestMinSetFamily:
    def test_positional_and_keyword_construction(self):
        g = path_graph(3)
        family = MinSetFamily(kind="ev", gamma=1, masks=(1, 2), spans=(3, 6), graph=g, edges=g.edges)
        assert family == _family()
        assert (family.kind, family.gamma, family.masks, family.spans, family.graph, family.edges) == \
            ("ev", 1, (1, 2), (3, 6), g, ((0, 1), (1, 2)))
        assert family.sets == (((0, 1),), ((1, 2),))

    def test_equality_and_hash_leave_out_edges(self):
        g = path_graph(3)
        other = MinSetFamily("ev", 1, (1, 2), (3, 6), g, ())
        assert other == _family() and hash(other) == hash(_family())
        assert MinSetFamily("ev", 1, (1,), (3,), g, g.edges) != _family()
        assert _family() != ("ev", 1, (1, 2), (3, 6), g)

    def test_repr_leaves_out_edges(self):
        assert repr(_family()) == "MinSetFamily(kind='ev', gamma=1, masks=(1, 2), spans=(3, 6), graph=Graph(n=3, m=2))"

    def test_cached_views_are_computed_once(self):
        family = solve_ev(pendant_cycle())
        assert family.sets is family.sets
        assert family.index is family.index
        assert family.tangled is family.tangled

    def test_pickle_round_trip(self):
        family = solve_ev(pendant_cycle())
        copy = pickle.loads(pickle.dumps(family))
        assert copy == family and copy.edges == family.edges and copy.sets == family.sets

    def test_solve_families_equals_both_solvers(self):
        # the README's example
        g = parse_graph6("Gl`@?_")
        assert solve_families(g) == (solve_ev(g), solve_pr(g))


class TestUniquenessVerdict:
    def test_construction_and_repr(self):
        family = _family()
        verdict = UniquenessVerdict(True, 1, frozenset({1, 2}), family)
        assert verdict == UniquenessVerdict(unique=True, witness_count=1, common_span=frozenset({1, 2}),
                                            family=family)
        assert verdict.family is family
        assert repr(uniqueness(path_graph(4), "ev")) == \
            "UniquenessVerdict(unique=True, witness_count=1, common_span=frozenset({1, 2}))"

    def test_equality_and_hash_leave_out_the_family(self):
        a = uniqueness(path_graph(4), "ev")
        b = UniquenessVerdict(True, 1, frozenset({1, 2}), None)
        assert a == b and hash(a) == hash(b)
        assert a != UniquenessVerdict(True, 1, None, a.family)


class TestTwinningRecords:
    def test_step_construction_and_repr(self):
        assert STEP == TwinningStep(replaced_edge=(0, 1), inserted_edge=(1, 2), private_vertex=2, shared_vertex=0)
        assert repr(STEP) == \
            "TwinningStep(replaced_edge=(0, 1), inserted_edge=(1, 2), private_vertex=2, shared_vertex=0)"
        assert hash(STEP) == hash(TwinningStep((0, 1), (1, 2), 2, 0))
        assert STEP != TwinningStep((0, 1), (1, 2), 2, 1)

    def test_detangle_result(self):
        left, right = ((0, 3), (1, 2), (5, 6)), ((0, 1), (3, 4), (5, 6))
        result = DetangleResult(left, right, (STEP,), 1)
        assert result == DetangleResult(left=left, right=right, trace=(STEP,), iterations=1)
        assert result == detangle(spider_222(), [(0, 1), (0, 3), (5, 6)])
        assert hash(result) == hash(DetangleResult(left, right, (STEP,), 1))
        assert result != DetangleResult(left, right, (STEP,), 2)


class TestCensusRecords:
    def test_config_defaults_and_normalized_checks(self):
        config = CensusConfig(TREES, 2, 4)
        assert (config.checks, config.worker_count, config.budget) == (STANDARD_CHECKS, 1, DEFAULT_BUDGET)
        keyword = CensusConfig(family=TREES, n_min=2, n_max=4, checks=["thm2", "claim", "thm2"],
                               worker_count=2, budget=5)
        assert keyword.checks == ("claim", "thm2")
        assert keyword == CensusConfig(TREES, 2, 4, ("claim", "thm2"), 2, 5)
        assert hash(keyword) == hash(CensusConfig(TREES, 2, 4, ("thm2", "claim"), 2, 5))
        assert keyword != CensusConfig(TREES, 2, 4, ("claim", "thm2"), 3, 5)
        assert repr(config) == ("CensusConfig(family='trees', n_min=2, n_max=4, checks=('claim', 'cor1', "
                                "'cor_general', 'cor_general2', 'lemma1', 'thm1', 'thm2'), worker_count=1, "
                                "budget=100000000)")

    def test_config_pickle_round_trip(self):
        config = CensusConfig(TREES, 2, 4, ("claim",), 2, 7)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_report_is_a_read_only_unhashable_value(self):
        config = CensusConfig(TREES, 2, 2)
        report = CensusReport(config, {2: {}}, 0.5)
        assert report == CensusReport(config=config, per_n={2: {}}, wall_time_seconds=0.5)
        assert report != CensusReport(config, {2: {}}, 0.25)
        assert repr(report) == f"CensusReport(config={config!r}, per_n={{2: {{}}}}, wall_time_seconds=0.5)"
        with pytest.raises(TypeError):
            hash(report)
        with pytest.raises(AttributeError):
            report.wall_time_seconds = 0.25
        with pytest.raises(AttributeError):
            del report.per_n
        with pytest.raises(AttributeError):
            report.extra = 1
        assert (report.per_n, report.wall_time_seconds) == ({2: {}}, 0.5)
