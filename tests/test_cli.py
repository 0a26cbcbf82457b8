from __future__ import annotations

import errno
import hashlib
import importlib.util
import io
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from domicert import (
    Graph,
    GraphParseError,
    census,
    cli,
    detangle,
    domination,
    emit_graph6,
    generate_connected_graphs,
    generate_trees,
    parse_edge_list,
    sharing_pairs,
    solve_ev,
    solve_pr,
)
from domicert.census import run_census
from domicert.cli import main

from .conftest import PENDANT_CYCLE_TEXT, SPIDER_TEXT, pendant_cycle
from .oracles import format_family_naive, tree_from_prufer

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_graphs(tree_max: int, connected_max: int) -> list[Graph]:
    """Every tree with 2..tree_max vertices, then every connected graph with 2..connected_max."""
    return ([g for n in range(2, tree_max + 1) for g in generate_trees(n)]
            + [g for n in range(2, connected_max + 1) for g in generate_connected_graphs(n)])


def prufer_trees(n: int) -> list[Graph]:
    """The five trees on n vertices drawn as TestSearchKernel.test_reach_on_prufer_trees draws them."""
    rng = random.Random(5)
    return [tree_from_prufer([rng.randrange(n) for _ in range(n - 2)], n) for _ in range(5)]


def python(*args, **popen_kwargs) -> subprocess.Popen:
    # a fresh interpreter that imports the package from this source tree,
    # with help text wrapped at 80 columns
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **popen_kwargs)


class TestSolve:
    def test_ev_on_pendant_cycle(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "solve", "--kind", "ev", path)
        assert code == 0
        assert out == "gamma_ev = 2; 2 minimum sets\n"

    def test_pr_on_pendant_cycle(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "solve", "--kind", "pr", path)
        assert code == 0
        assert out == "gamma_pr = 4; 1 minimum set\n"

    def test_graph6_format(self, capsys, tmp_graph_file):
        path = tmp_graph_file(emit_graph6(pendant_cycle()) + "\n", "graph.g6")
        code, out, _ = run_cli(capsys, "solve", "--kind", "ev", "--format", "g6", path)
        assert code == 0
        assert out == "gamma_ev = 2; 2 minimum sets\n"

    def test_graph6_header_only(self, capsys, tmp_graph_file):
        path = tmp_graph_file(">>graph6<<\n", "graph.g6")
        code, _, err = run_cli(capsys, "solve", "--kind", "ev", "--format", "g6", path)
        assert code == 2
        assert err == "error: empty graph6 string\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--kind", "ev", "/no/such/file")
        assert code == 2
        assert "error" in err

    def test_parse_error(self, capsys, tmp_graph_file):
        path = tmp_graph_file("3 2\n0 1\n1 1\n")
        code, _, err = run_cli(capsys, "solve", "--kind", "ev", path)
        assert code == 2
        assert "line 3" in err

    def test_isolated_vertex_is_usage_error(self, capsys, tmp_graph_file):
        path = tmp_graph_file("3 1\n0 1\n")
        code, _, err = run_cli(capsys, "solve", "--kind", "ev", path)
        assert code == 2

    def test_budget_env(self, capsys, tmp_graph_file, monkeypatch):
        monkeypatch.setenv("DOMICERT_BUDGET", "3")
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, _, err = run_cli(capsys, "solve", "--kind", "ev", path)
        assert code == 3
        assert "capability" in err

    def test_budget_env_invalid(self, capsys, tmp_graph_file, monkeypatch):
        monkeypatch.setenv("DOMICERT_BUDGET", "lots")
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, _, err = run_cli(capsys, "solve", "--kind", "ev", path)
        assert code == 2

    def test_bad_flags(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, _, _ = run_cli(capsys, "solve", "--kind", "vertex", path)
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_oversized_header_exit_three(self, capsys, tmp_graph_file):
        path = tmp_graph_file("1000000000 0\n")
        code, out, err = run_cli(capsys, "solve", "--kind", "ev", path)
        assert code == 3
        assert out == ""
        assert err.startswith("capability error: line 1: edge lists support n <= ")


class TestEnumerate:
    def test_ev_sets_listed(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "ev", path)
        assert code == 0
        assert out.splitlines() == [
            "gamma_ev = 2; 2 minimum sets",
            "{(0,1), (2,3)}",
            "{(0,3), (1,2)}",
        ]

    def test_pr_sets_listed(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "pr", path)
        assert code == 0
        assert out.splitlines() == [
            "gamma_pr = 4; 1 minimum set",
            "{0, 1, 2, 3}",
        ]

    def test_budget_error_names_the_budget(self, capsys, tmp_graph_file, monkeypatch):
        # the path on 8 vertices takes 3 search nodes
        monkeypatch.setenv("DOMICERT_BUDGET", "2")
        path = tmp_graph_file("8 7\n" + "".join(f"{i} {i + 1}\n" for i in range(7)))
        code, out, err = run_cli(capsys, "enumerate", "--kind", "ev", path)
        assert (code, out) == (3, "")
        assert err == "capability error: search budget of 2 nodes exhausted\n"

    def test_deterministic(self, capsys, tmp_graph_file):
        path = tmp_graph_file(SPIDER_TEXT)
        first = run_cli(capsys, "enumerate", "--kind", "ev", path)
        second = run_cli(capsys, "enumerate", "--kind", "ev", path)
        assert first == second


class TestListingReferee:
    # the listings are read off the members' bit rows; the referee sorts
    # decoded tuples and formats every edge of every member by itself
    @pytest.mark.parametrize("kind", ["ev", "pr"])
    def test_enumerate_matches_former_listing(self, capsys, tmp_graph_file, kind):
        solve = solve_ev if kind == "ev" else solve_pr
        for g in small_graphs(10, 6) + prufer_trees(36):
            path = tmp_graph_file(emit_graph6(g) + "\n", "graph.g6")
            code, out, _ = run_cli(capsys, "enumerate", "--kind", kind, "--format", "g6", path)
            assert (code, out) == (0, format_family_naive(solve(g)))


class TestLargeFamilies:
    # enumerate --kind ev on the five trees with 48 vertices, through a
    # pipe: the family sizes and the stdout digests of the listing as it
    # was printed one member at a time
    PINS = [
        (1536, "c2e06806437c9547b1ce3714954115f70f35e53bf92d191e317c682e288610b5"),
        (256, "d8a6d84042a08ac63762b8105114168176e0245065d1165951e7eeababa36ad6"),
        (4080, "9b663444b32b611ff596ee2913de8640fac9134a7bdfc3cdee64c3747ce23120"),
        (61440, "9c60fb712c070fc3a63282ff0963e7187ae5e32bf2d377c741bc838deb538b23"),
        (235008, "316b4c1f50b259b5f0d7de2c537a9e8583088485c537d2ebe11b9e320f583522"),
    ]

    @pytest.mark.long
    def test_enumerate_digests_at_48(self, tmp_graph_file):
        found = []
        for g in prufer_trees(48):
            proc = python("-m", "domicert.cli", "enumerate", "--kind", "ev", "--format", "g6",
                          tmp_graph_file(emit_graph6(g) + "\n", "graph.g6"))
            out, err = proc.communicate(timeout=300)
            assert (proc.returncode, err) == (0, "")
            lines = out.splitlines()
            assert lines[0].endswith(f"; {len(lines) - 1} minimum sets")
            found.append((len(lines) - 1, hashlib.sha256(out.encode()).hexdigest()))
        assert found == self.PINS


class TestUniqueAndSpan:
    def test_unique_pr(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "unique", "--kind", "pr", path)
        assert code == 0
        assert out == "unique: true; set = {0, 1, 2, 3}\n"

    def test_unique_solves_once(self, capsys, tmp_graph_file, monkeypatch):
        calls = []
        original = domination.solve_pr

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(domination, "solve_pr", counted)
        monkeypatch.setattr(cli, "solve_pr", counted)
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "unique", "--kind", "pr", path)
        assert (code, out) == (0, "unique: true; set = {0, 1, 2, 3}\n")
        assert len(calls) == 1

    def test_unique_ev_set(self, capsys, tmp_graph_file):
        path = tmp_graph_file("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "unique", "--kind", "ev", path)
        assert code == 0
        assert out == "unique: true; set = {(1,2)}\n"

    def test_unique_ev_common_span(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "unique", "--kind", "ev", path)
        assert code == 0
        assert out == "unique: false; 2 minimum sets; common span = {0, 1, 2, 3}\n"

    def test_unique_ev_spans_differ(self, capsys, tmp_graph_file):
        path = tmp_graph_file("3 2\n0 1\n1 2\n")
        code, out, _ = run_cli(capsys, "unique", "--kind", "ev", path)
        assert code == 0
        assert out == "unique: false; 2 minimum sets; spans differ\n"

    def test_span_output(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "span", path)
        assert code == 0
        assert out.splitlines() == [
            "gamma_ev = 2; 2 minimum sets",
            "{(0,1), (2,3)} spans {0, 1, 2, 3}",
            "{(0,3), (1,2)} spans {0, 1, 2, 3}",
            "common span: {0, 1, 2, 3}",
        ]


class TestSearchDepth:
    @pytest.mark.parametrize("command", [
        ("solve", "--kind", "ev"), ("solve", "--kind", "pr"), ("enumerate", "--kind", "ev"),
        ("unique", "--kind", "ev"), ("span",), ("detangle",),
    ])
    def test_past_recursion_limit_exit_three(self, capsys, tmp_graph_file, command):
        # 2000 disjoint edges, all in the one minimum ev-set: the search
        # takes one call per chosen edge
        path = tmp_graph_file("4000 2000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(2000)))
        code, out, err = run_cli(capsys, *command, path)
        assert code == 3
        assert out == ""
        assert err.startswith("capability error:")
        assert "Traceback" not in err


class TestTwinAndDetangle:
    def test_twin_spider(self, capsys, tmp_graph_file):
        path = tmp_graph_file(SPIDER_TEXT)
        code, out, _ = run_cli(capsys, "twin", path, "--e1", "0,1", "--e2", "0,3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("set: ")
        assert "(1,2)" in lines[1] and "private vertex 2" in lines[1]
        assert "(3,4)" in lines[2] and "private vertex 4" in lines[2]

    def test_twin_needs_shared_set(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, _, err = run_cli(capsys, "twin", path, "--e1", "0,1", "--e2", "1,2")
        assert code == 2
        assert "no minimum" in err

    def test_twin_non_edge(self, capsys, tmp_graph_file):
        path = tmp_graph_file(SPIDER_TEXT)
        code, out, err = run_cli(capsys, "twin", path, "--e1", "0,1", "--e2", "0,6")
        assert code == 2
        assert out == ""
        assert "no minimum" in err and "Traceback" not in err

    def test_twin_malformed_edge(self, capsys, tmp_graph_file):
        path = tmp_graph_file(SPIDER_TEXT)
        code, _, _ = run_cli(capsys, "twin", path, "--e1", "0-1", "--e2", "0,3")
        assert code == 2

    @pytest.mark.parametrize("text, e1, message", [
        ("6\n", "0,1", "line 1: expected 'n m' header, got '6'"),
        ("# spider\n7 6 1\n", "0,1", "line 2: expected 'n m' header, got '7 6 1'"),
        ("seven 6\n", "0,1", "line 1: expected 'n m' header, got 'seven 6'"),
        ("7 6.0\n", "0,1", "line 1: expected 'n m' header, got '7 6.0'"),
        ("7 6\n0\n", "0,1", "line 2: expected 'u v' edge, got '0'"),
        ("7 6\n0 1\n\n1 2 3\n", "0,1", "line 4: expected 'u v' edge, got '1 2 3'"),
        ("7 6\n0 one\n", "0,1", "line 2: expected 'u v' edge, got '0 one'"),
        ("7 6\n0 1.5\n", "0,1", "line 2: expected 'u v' edge, got '0 1.5'"),
        (SPIDER_TEXT, "0-1", "expected an edge as U,V, got '0-1'"),
        (SPIDER_TEXT, "0,1,2", "expected an edge as U,V, got '0,1,2'"),
        (SPIDER_TEXT, "a,1", "expected an edge as U,V, got 'a,1'"),
    ])
    def test_malformed_two_integer_field(self, capsys, tmp_graph_file, text, e1, message):
        # a wrong field count, a word and a float in the edge-list header, an
        # edge line and the --e1 edge each give the field's one message
        path = tmp_graph_file(text)
        code, out, err = run_cli(capsys, "twin", path, "--e1", e1, "--e2", "0,3")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        if text != SPIDER_TEXT:
            with pytest.raises(GraphParseError) as caught:
                parse_edge_list(text)
            assert str(caught.value) == message

    def test_detangle_spider(self, capsys, tmp_graph_file):
        path = tmp_graph_file(SPIDER_TEXT)
        code, out, _ = run_cli(capsys, "detangle", path)
        assert code == 0
        assert out.splitlines() == [
            "set: {(0,1), (0,3), (0,5)}",
            "iterations: 2",
            "step 1: replaced (0,1) with (1,2); private vertex 2, shared vertex 0",
            "step 2: replaced (0,3) with (3,4); private vertex 4, shared vertex 0",
            "left: {(0,5), (1,2), (3,4)}",
            "right: {(0,3), (1,2), (5,6)}",
        ]

    def test_detangle_nothing_to_do(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "detangle", path)
        assert code == 0
        assert "nothing to detangle" in out

    def test_detangle_picks_the_first_set_with_a_sharing_pair(self, capsys, tmp_graph_file):
        # the set detangle rewrites is the first of the listed minimum
        # ev-sets with a sharing pair; with none it has nothing to do
        graphs = [g for n in range(2, 11) for g in generate_trees(n)]
        graphs += [g for n in range(2, 7) for g in generate_connected_graphs(n)]
        picked = 0
        for g in graphs:
            path = tmp_graph_file(emit_graph6(g) + "\n", "graph.g6")
            code, out, _ = run_cli(capsys, "detangle", "--format", "g6", path)
            chosen = next((m for m in solve_ev(g).sets if sharing_pairs(m) > 0), None)
            if chosen is None:
                assert (code, out) == (0, "every minimum ev-dominating set is sharing-free; nothing to detangle\n")
            else:
                assert (code, out.splitlines()[0]) == (0, "set: {" + ", ".join(f"({u},{v})" for u, v in chosen) + "}")
                picked += 1
        assert 0 < picked < len(graphs)

    def test_detangle_matches_the_public_detangle(self, capsys, tmp_graph_file):
        # the command rewrites the family's mask through the detangle core;
        # the referee hands the first listed set with a sharing pair to the
        # public detangle, which checks and indexes it afresh
        def edge_set(edges):
            return "{" + ", ".join(f"({u},{v})" for u, v in edges) + "}"

        for g in small_graphs(10, 6):
            chosen = next((m for m in solve_ev(g).sets if sharing_pairs(m) > 0), None)
            if chosen is None:
                continue
            result = detangle(g, chosen)
            expected = [f"set: {edge_set(chosen)}", f"iterations: {result.iterations}"]
            expected += [f"step {i}: replaced ({s.replaced_edge[0]},{s.replaced_edge[1]}) with "
                         f"({s.inserted_edge[0]},{s.inserted_edge[1]}); private vertex {s.private_vertex}, "
                         f"shared vertex {s.shared_vertex}" for i, s in enumerate(result.trace, start=1)]
            expected += [f"left: {edge_set(result.left)}", f"right: {edge_set(result.right)}"]
            path = tmp_graph_file(emit_graph6(g) + "\n", "graph.g6")
            code, out, _ = run_cli(capsys, "detangle", "--format", "g6", path)
            assert (code, out) == (0, "".join(line + "\n" for line in expected))


class TestBenchmarkReference:
    def test_cli_queries_stdout_digest(self, tmp_path, monkeypatch):
        # the cli-queries workload's own check of its reference prefix: 20
        # seeded queries through enumerate, unique and detangle, their exit
        # codes and stdout hashed against perfbench/reference.json
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name while they are built
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        assert workloads._reference_problems(tmp_path) == []


class TestCensusCommand:
    def test_trees_run(self, capsys, tmp_graph_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "census", "--family", "trees",
                               "--n-min", "2", "--n-max", "7", "--out", str(out_path))
        assert code == 0
        assert "total: 24 graphs, 0 counterexamples, 0 skipped" in out
        payload = json.loads(out_path.read_text())
        assert payload["version"] == "report-v1"
        assert payload["totals"]["graphs_examined"] == 24

    def test_worker_flag_identical_stdout_and_report(self, capsys, tmp_path):
        args = ["census", "--family", "trees", "--n-min", "2", "--n-max", "8"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        code1, out1, _ = run_cli(capsys, *args, "--workers", "1", "--out", str(a))
        code2, out2, _ = run_cli(capsys, *args, "--workers", "4", "--out", str(b))
        assert code1 == code2 == 0
        assert out1.replace(str(a), "") == out2.replace(str(b), "")
        assert a.read_bytes() == b.read_bytes()

    def test_probe_counterexamples_exit_one(self, capsys):
        # the equivalence that holds on trees first breaks on 8-vertex graphs
        code, out, _ = run_cli(capsys, "census", "--family", "graphs",
                               "--n-min", "8", "--n-max", "8",
                               "--checks", "thm2_probe", "--workers", "4")
        assert code == 1
        assert out.splitlines()[0] == "family=graphs n=8..8 checks=thm2_probe"
        assert "total: 11117 graphs, 5 counterexamples, 0 skipped" in out

    def test_budget_exit_three(self, capsys, monkeypatch):
        monkeypatch.setenv("DOMICERT_BUDGET", "3")
        code, out, _ = run_cli(capsys, "census", "--family", "trees",
                               "--n-min", "6", "--n-max", "6")
        assert code == 3
        assert "skipped" in out

    def test_bad_check_name(self, capsys):
        code, _, err = run_cli(capsys, "census", "--family", "trees",
                               "--n-min", "2", "--n-max", "4", "--checks", "thm9")
        assert code == 2

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "census", "--family", "graphs",
                             "--n-min", "2", "--n-max", "10")
        assert code == 2

    @pytest.mark.parametrize("target", ["missing/report.json", ".", None])
    def test_unwritable_report_fails_before_census(self, capsys, monkeypatch, tmp_path, target):
        def no_census(config):
            raise AssertionError("the census ran")

        monkeypatch.setattr(cli, "run_census", no_census)
        # None stands for the empty path, which names no file
        out_path = "" if target is None else str(tmp_path / target)
        code, out, err = run_cli(capsys, "census", "--family", "trees",
                                 "--n-min", "2", "--n-max", "3", "--out", out_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f"{out_path!r}\n")

    def test_existing_report_kept_until_written(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "report.json"
        out_path.write_text("old\n", encoding="utf-8")
        seen = []

        def recording(config):
            seen.append(out_path.read_text(encoding="utf-8"))
            return run_census(config)

        monkeypatch.setattr(cli, "run_census", recording)
        code, _, _ = run_cli(capsys, "census", "--family", "trees",
                             "--n-min", "2", "--n-max", "5", "--out", str(out_path))
        assert code == 0
        assert seen == ["old\n"]
        assert json.loads(out_path.read_text())["totals"]["graphs_examined"] == 7

    def test_failed_serialisation_keeps_existing_report(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "report.json"
        out_path.write_bytes(b"old\n")

        def failing(report):
            raise ValueError("cannot serialise")

        monkeypatch.setattr(census.CensusReport, "to_json", failing)
        code, _, err = run_cli(capsys, "census", "--family", "trees",
                               "--n-min", "2", "--n-max", "4", "--out", str(out_path))
        assert (code, err) == (2, "error: cannot serialise\n")
        assert out_path.read_bytes() == b"old\n"

    @staticmethod
    def _interrupt(seconds: float, *argv):
        # SIGINT goes to the whole process group, as a terminal's Ctrl-C does.
        # The child starts with SIGINT at its default handler, as from a
        # terminal; a background job of a shell would hand it down ignored
        proc = python("-m", "domicert.cli", "census", *argv, start_new_session=True,
                      preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(seconds)
            assert proc.poll() is None, "the census ended before it was interrupted"
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out, err) == (130, "", "interrupted\n")
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a census worker outlived the run"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate(timeout=10)

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
    def test_ctrl_c_stops_census_and_workers(self):
        self._interrupt(1, "--family", "trees", "--n-min", "2", "--n-max", "16", "--workers", "2")

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
    def test_ctrl_c_stops_connected_census_mid_level(self):
        # by then the pool codes the n=9 level, with check batches of the
        # classes found so far sent between its coding tasks
        self._interrupt(4, "--family", "graphs", "--n-min", "2", "--n-max", "9", "--workers", "2")

    def test_workers_above_bound_exit_two(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(census, "Pool", no_pool)
        code, out, err = run_cli(capsys, "census", "--family", "trees", "--n-min", "2",
                                 "--n-max", "4", "--workers", str(census.WORKER_BOUND + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: need 1 to {census.WORKER_BOUND} workers, got {census.WORKER_BOUND + 1}\n"

    def test_pool_that_cannot_start_exits_three(self, capsys, monkeypatch):
        # as on a platform without a working sem_open
        def no_sem_open(workers):
            raise ImportError("This platform lacks a functioning sem_open implementation")

        monkeypatch.setattr(census, "Pool", no_sem_open)
        code, out, err = run_cli(capsys, "census", "--family", "trees", "--n-min", "2",
                                 "--n-max", "4", "--workers", "2")
        assert (code, out) == (3, "")
        assert err == ("capability error: cannot start a pool of 2 census workers: "
                       "This platform lacks a functioning sem_open implementation\n")

    def test_worker_that_cannot_start_exits_three(self, capsys, monkeypatch):
        # as when a fork fails for want of memory or process ids: the census
        # stops the worker it started and exits 3, not 2 as for bad input
        start = multiprocessing.Process.start
        started = []

        def second_fails(process):
            if started:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            start(process)
            started.append(process)

        monkeypatch.setattr(multiprocessing.Process, "start", second_fails)
        code, out, err = run_cli(capsys, "census", "--family", "trees", "--n-min", "2",
                                 "--n-max", "4", "--workers", "3")
        assert (code, out) == (3, "")
        assert err == ("capability error: cannot start a pool of 3 census workers: "
                       "[Errno 11] Resource temporarily unavailable\n")
        assert len(started) == 1
        assert started[0].exitcode is not None
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
    def test_dead_worker_exits_three(self):
        # a worker that exits mid-batch, as one the kernel kills for memory
        # does: the census stops the other worker and exits 3 at once,
        # instead of waiting forever for the lost batch
        script = ("import multiprocessing, os, sys\n"
                  "from domicert import census, cli\n"
                  "batch = census._census_batch\n"
                  "def dying_batch(graphs, checks, budget):\n"
                  "    if any(g.n == 11 for g in graphs):\n"
                  "        os._exit(1)\n"
                  "    return batch(graphs, checks, budget)\n"
                  "census._census_batch = dying_batch\n"
                  "code = cli.main(['census', '--family', 'trees', '--n-min', '2', '--n-max', '12', '--workers', '2'])\n"
                  "print(multiprocessing.active_children())\n"
                  "sys.exit(code)\n")
        proc = python("-c", script, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=30)
            assert (proc.returncode, out) == (3, "[]\n")
            assert re.fullmatch(r"capability error: census worker [12] of 2 \(pid \d+\) exited with code 1\n", err)
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a census worker outlived the run"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate(timeout=10)


class TestParserReuse:
    CALLS = [
        ("--help",), ("solve", "--kind", "ev", "{cycle}"), ("bogus",), ("enumerate", "--help"),
        ("unique", "--kind", "pr", "{cycle}"), ("solve",), ("census", "--help"),
        ("detangle", "{spider}"), ("twin", "{spider}", "--e1", "0,1"), ("--help",),
        ("enumerate", "--kind", "ev", "{cycle}", "extra"), ("enumerate", "--ki", "ev", "{cycle}"),
    ]
    # the top-level parser's cases next to a command's own: help, unknown
    # commands, missing and bad arguments, abbreviations, "--" and leftovers
    DISPATCH = [
        (), ("--help",), ("-h",), ("-h", "enumerate"), ("bogus",), ("Enumerate",), ("enum",),
        ("--", "enumerate"), ("enumerate", "--help"), ("enumerate", "-h", "{cycle}"), ("span", "--he"),
        ("enumerate", "--kind", "ev"), ("enumerate", "{cycle}"), ("enumerate", "--kind", "zz", "{cycle}"),
        ("enumerate", "--ki", "ev", "{cycle}"), ("enumerate", "--kind=ev", "{cycle}"),
        ("enumerate", "--kind", "ev", "--kind", "pr", "{cycle}"), ("enumerate", "--", "--kind"),
        ("enumerate", "--kind", "ev", "--", "{cycle}"), ("enumerate", "--kind", "ev", "{cycle}", "extra"),
        ("enumerate", "--kind", "ev", "{cycle}", "--bogus"), ("enumerate", "--kind", "ev", "{cycle}", "-x", "y"),
        ("solve", "--kind", "pr", "{cycle}", "--format", "g6"), ("unique", "--kind", "pr", "{cycle}"),
        ("span", "{cycle}"), ("twin", "{spider}", "--e1", "0,1", "--e2", "0,3"), ("twin", "{spider}"),
        ("detangle", "{spider}"), ("detangle", "{spider}", "{cycle}"), ("verify-figure1",),
        ("verify-figure1", "{cycle}", "extra"), ("census", "--help"), ("census", "--family", "trees"),
        ("census", "--family", "trees", "--n-min", "2", "--n-max", "3", "--workers", "x"),
        ("census", "--family", "trees", "--n-min", "2", "--n-max", "3", "extra"),
    ]

    @pytest.fixture
    def paths(self, tmp_graph_file):
        return {"cycle": tmp_graph_file(PENDANT_CYCLE_TEXT),
                "spider": tmp_graph_file(SPIDER_TEXT, "spider.edges")}

    @pytest.fixture
    def calls(self, paths):
        return [[arg.format(**paths) for arg in call] for call in self.CALLS]

    def test_interleaved_calls_match_fresh_processes(self, capsys, monkeypatch, calls):
        # usage errors, help and commands in one process print what each
        # prints alone in a process of its own
        monkeypatch.setenv("COLUMNS", "80")
        procs = [python("-m", "domicert.cli", *call) for call in calls]
        alone = []
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            alone.append((proc.returncode, out, err))
        together = [run_cli(capsys, *call) for call in calls]
        assert together == alone
        assert {code for code, _, _ in alone} == {0, 2}

    def test_command_parser_answers_as_the_top_level_parse(self, capsys, monkeypatch, paths):
        # a command's own parser, given the arguments after its name, gives
        # the exit code, output and messages of the top-level parse
        monkeypatch.setenv("COLUMNS", "80")
        calls = [[arg.format(**paths) for arg in call] for call in self.DISPATCH]
        direct = [run_cli(capsys, *call) for call in calls]
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser()[0].parse_args(argv))
        assert [run_cli(capsys, *call) for call in calls] == direct
        leftover = direct[self.DISPATCH.index(("enumerate", "--kind", "ev", "{cycle}", "extra"))]
        assert leftover[0] == 2
        assert leftover[2].endswith("\ndomicert: error: unrecognized arguments: extra\n")
        assert {code for code, _, _ in direct} == {0, 2}

    def test_parser_built_on_first_call_only(self, calls):
        script = "\n".join([
            "import argparse, contextlib, io, json, sys",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *args, **kwargs):",
            "    built.append(1)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting",
            "import domicert.cli",
            "on_import = len(built)",
            "calls = json.loads(sys.argv[1])",
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
            "    for i in range(20):",
            "        domicert.cli.main(calls[i % len(calls)])",
            "print(on_import, len(built))",
        ])
        proc = python("-c", script, json.dumps(calls))
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
        # nothing on import, then one parser and one subparser per command
        assert out.split() == ["0", "9"]


class TestBrokenPipe:
    @pytest.mark.parametrize("leaves", [4000, 1])
    def test_closed_stdout_exits_141_silently(self, tmp_graph_file, leaves):
        # K2,4000 has 8000 minimum ev-sets, more output than a pipe holds;
        # K2,1 prints less than the stdout buffer, so only a flush meets the pipe
        edges = "".join(f"{u} {v}\n" for u in (0, 1) for v in range(2, leaves + 2))
        path = tmp_graph_file(f"{leaves + 2} {2 * leaves}\n{edges}")
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader, as once `| head -1` has exited
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        try:
            proc = subprocess.run([sys.executable, "-m", "domicert.cli", "enumerate", "--kind", "ev", path],
                                  env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_replaced_stdout_leaves_fd_one_alone(self, monkeypatch, tmp_graph_file):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        fd_one = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", "--kind", "ev", tmp_graph_file(SPIDER_TEXT)]) == 141
        assert os.path.samestat(os.fstat(1), fd_one)


class TestVerifyFigure1:
    def test_bundled_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-figure1")
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines if l.startswith("ok: ")]) == 5
        assert lines[-1] == "all claims hold"

    def test_explicit_file(self, capsys, tmp_graph_file):
        path = tmp_graph_file(PENDANT_CYCLE_TEXT)
        code, out, _ = run_cli(capsys, "verify-figure1", path)
        assert code == 0
        assert out.splitlines()[-1] == "all claims hold"

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify-figure1", "/no/such/fixture.edges")
        assert code == 2

    def test_wrong_graph_fails(self, capsys, tmp_graph_file):
        # drop one pendant vertex entirely: gamma_ev stays 2 but a third
        # minimum ev-set appears, so the exactly-two claim breaks
        text = "7 7\n0 1\n1 2\n2 3\n0 3\n0 4\n1 5\n2 6\n"
        path = tmp_graph_file(text)
        code, out, _ = run_cli(capsys, "verify-figure1", path)
        assert code == 1
        assert "FAIL" in out


class TestInputBytes:
    # a graph file is read as UTF-8 text with no newline translation: CRLF
    # and a bare CR end lines as LF does, a CR inside a graph6 payload is
    # named as itself, and bytes that do not decode are an input error
    COMMANDS = [("solve", "--kind", "ev"), ("enumerate", "--kind", "pr"), ("unique", "--kind", "pr"), ("detangle",)]
    K2_OUT = ["gamma_ev = 1; 1 minimum set\n", "gamma_pr = 2; 1 minimum set\n{0, 1}\n",
              "unique: true; set = {0, 1}\n", "every minimum ev-dominating set is sharing-free; nothing to detangle\n"]

    def _runs(self, capsys, path, fmt="edges"):
        return [run_cli(capsys, *command, str(path), "--format", fmt) for command in self.COMMANDS]

    @pytest.mark.parametrize("data, fmt", [(b"2 1\r\n0 1\r\n", "edges"), (b"2 1\r0 1\r", "edges"),
                                           (b"A_\r\n", "g6")], ids=["crlf", "bare_cr", "g6_crlf"])
    def test_line_ends(self, capsys, tmp_path, data, fmt):
        path = tmp_path / "graph"
        path.write_bytes(data)
        assert self._runs(capsys, path, fmt) == [(0, out, "") for out in self.K2_OUT]

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "bare_cr"])
    def test_line_ends_parse_as_lf(self, capsys, tmp_path, ending):
        lf, other = tmp_path / "lf.edges", tmp_path / "other.edges"
        lf.write_bytes(PENDANT_CYCLE_TEXT.encode())
        other.write_bytes(PENDANT_CYCLE_TEXT.encode().replace(b"\n", ending))
        assert self._runs(capsys, other) == self._runs(capsys, lf)

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "graph.edges"
        path.write_bytes(b"\xff\xfe2 1\n0 1\n")
        err = "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        assert self._runs(capsys, path) == [(2, "", err)] * len(self.COMMANDS)

    def test_directory(self, capsys, tmp_path):
        err = f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n"
        assert self._runs(capsys, tmp_path) == [(2, "", err)] * len(self.COMMANDS)

    def test_bare_cr_inside_graph6_is_named_as_cr(self, capsys, tmp_path):
        path = tmp_path / "graph.g6"
        path.write_bytes(b"D\r_\n")
        err = "error: invalid graph6 byte '\\r'\n"
        assert self._runs(capsys, path, "g6") == [(2, "", err)] * len(self.COMMANDS)


class TestFuzzedInput:
    def test_exit_codes_on_fuzzed_files(self, capsys, tmp_path):
        # whatever the file holds, each graph command ends in an exit code
        # of 0 to 3 and raises nothing
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def graph_file(draw):
            # a small graph, a random spanning tree plus extra pairs (loops
            # and repeats allowed in edge lists), sometimes cut short
            n = draw(st.integers(0, 9))
            vertex = st.integers(0, max(n - 1, 0))
            edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
            edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
            if draw(st.booleans()):
                fmt, text = "edges", f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
            else:
                fmt, text = "g6", emit_graph6(Graph(n, [e for e in edges if e[0] != e[1]]))
            if draw(st.booleans()):
                text = text[:draw(st.integers(0, len(text)))]
            return fmt, text

        formats = st.sampled_from(["edges", "g6"])
        noise = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
        files = graph_file() | st.tuples(formats, noise)
        small = st.integers(-1, 9)
        edge = st.tuples(small, small).map("{0[0]},{0[1]}".format) | st.sampled_from(["", "a,b", "1", "1,2,3"])
        command = st.sampled_from([
            ("solve", "--kind", "ev"), ("solve", "--kind", "pr"),
            ("enumerate", "--kind", "ev"), ("enumerate", "--kind", "pr"),
            ("unique", "--kind", "ev"), ("unique", "--kind", "pr"),
            ("span",), ("twin",), ("detangle",), ("verify-figure1",),
        ])
        path = tmp_path / "fuzzed"

        @settings(max_examples=200, deadline=None)
        @given(files, command, edge, edge)
        def check(file, command, e1, e2):
            fmt, text = file
            path.write_text(text, encoding="utf-8")
            name, *flags = command
            if name == "verify-figure1":
                argv = [name, str(path)]
            else:
                argv = [name, str(path), "--format", fmt, *flags]
            if name == "twin":
                argv += ["--e1", e1, "--e2", e2]
            assert main(argv) in (0, 1, 2, 3)
            capsys.readouterr()

        check()
