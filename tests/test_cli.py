from __future__ import annotations

import json

import pytest

from domicert import Graph, census, cli, domination, emit_graph6
from domicert.cli import main

from .conftest import PENDANT_CYCLE_TEXT, SPIDER_TEXT, pendant_cycle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_deterministic(self, capsys, tmp_graph_file):
        path = tmp_graph_file(SPIDER_TEXT)
        first = run_cli(capsys, "enumerate", "--kind", "ev", path)
        second = run_cli(capsys, "enumerate", "--kind", "ev", path)
        assert first == second


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
        monkeypatch.setenv("DOMICERT_BUDGET", "10")
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
                             "--n-min", "2", "--n-max", "9")
        assert code == 2

    def test_workers_above_bound_exit_two(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(census, "Pool", no_pool)
        code, out, err = run_cli(capsys, "census", "--family", "trees", "--n-min", "2",
                                 "--n-max", "4", "--workers", str(census.WORKER_BOUND + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: need 1 to {census.WORKER_BOUND} workers, got {census.WORKER_BOUND + 1}\n"


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
