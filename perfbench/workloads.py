"""The three workloads: what each runs, how it is timed, how its output is checked.

Every workload drives the package through public calls only:
``run_census`` for the two census workloads, ``cli.main`` for
cli-queries. A workload returns an ``Outcome``; a non-empty
``problems`` list means the output failed the correctness gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from domicert import Graph, cli, gamma_ev_tree_fast, is_ev_dominating_set
from domicert import census
from domicert.census import CHECK_NAMES, CONNECTED, STANDARD_CHECKS, TREES, CensusConfig

import calibration
import tracing
from queries import STRATA, Query, query_stream, write_queries

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))

# Sized so that one census takes one to two and a half seconds and a run
# holds 10 to 25: the host's CPU speed drifts by 20% or more over tens of
# seconds, and the median of many short censuses, each scaled by the
# calibration after it, is steadier than one long census.
CENSUS_CONFIGS = {
    "trees-census": CensusConfig(family=TREES, n_min=2, n_max=12, checks=STANDARD_CHECKS, worker_count=1),
    "graphs-census": CensusConfig(family=CONNECTED, n_min=2, n_max=7, checks=CHECK_NAMES, worker_count=2),
}

# each query is one graph put through these three commands in turn
COMMANDS = (
    ("enumerate", ("enumerate", "--kind", "ev")),
    ("unique", ("unique", "--kind", "pr")),
    ("detangle", ("detangle",)),
)
# after each census or round, calibration blocks run for this share of its time
CALIBRATION_SHARE = 0.15
# traced runs do a fixed amount of work so that counts repeat exactly:
# this many censuses, or the first this many queries of the stream
TRACE_CENSUSES = 5
TRACE_QUERIES = 300

LAYERS = ("census", "graphs", "domination", "twinning", "cli")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "census.generate_s": "s",
    "census.verify_s": "s",
    "census.verify_calls": "count",
    "census.pool_wait_s": "s",
    "census.aggregate_s": "s",
    "domination.solve_ev_s": "s",
    "domination.solve_ev_calls": "count",
    "domination.solve_pr_s": "s",
    "domination.solve_pr_calls": "count",
    "domination.solves_per_graph": "solves/graph",
    "domination.ev_sets": "count",
    "domination.pr_sets": "count",
    "graphs.canonical_code_s": "s",
    "graphs.canonical_code_calls": "count",
    "graphs.perfect_matchings_s": "s",
    "graphs.parse_graph6_s": "s",
    "twinning.detangle_s": "s",
    "twinning.detangle_calls": "count",
    "twinning.twinning_calls": "count",
    "twinning.sharing_pairs_calls": "count",
    "twinning.check_claim_s": "s",
    "cli.enumerate_s": "s",
    "cli.unique_s": "s",
    "cli.detangle_s": "s",
    "cli.solves_per_query": "solves/query",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    # wall time of each census or round, and the mean calibration block
    # time after it; kept in the run's result file
    units_s: list[float] = field(default_factory=list)
    blocks_s: list[float] = field(default_factory=list)


# --- census workloads ---------------------------------------------------------


def run_census_workload(workload: str, seconds: float) -> Outcome:
    """Repeat the census, and calibration after it, while another fits in ``seconds``; at least once."""
    config = CENSUS_CONFIGS[workload]
    outcome = Outcome(0, 0, {})
    walls, blocks = outcome.units_s, outcome.blocks_s
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) * (1 + CALIBRATION_SHARE) <= seconds):
        wall, report = _timed_census(config)
        walls.append(wall)
        blocks.append(calibration.calibrate(CALIBRATION_SHARE * wall))
        _tally_census(workload, report, outcome)
    outcome.metrics = {"work_s": (calibration.scaled(walls, blocks), "s")}
    return outcome


def trace_census_workload(workload: str) -> Outcome:
    """TRACE_CENSUSES censuses traced, each right after the same census untraced.

    Pairing keeps the host's speed drift out of the tracing overhead.
    """
    config = CENSUS_CONFIGS[workload]
    tracer = tracing.Tracer()
    outcome = Outcome(0, 0, {})
    untraced = traced = 0.0
    for _ in range(TRACE_CENSUSES):
        wall, report = _timed_census(config)
        untraced += wall
        outcome.problems += census_problems(workload, report)
        with tracer.installed():
            wall, report = _timed_census(config)
        traced += wall
        _tally_census(workload, report, outcome)
    outcome.metrics = layer_metrics(tracer, outcome.attempted, 0, traced, untraced)
    outcome.tracer = tracer
    return outcome


def _timed_census(config: CensusConfig):
    start = time.perf_counter()
    # looked up on the module at each call, so the traced run sees the wrapper
    report = census.run_census(config)
    return time.perf_counter() - start, report


def _tally_census(workload: str, report, outcome: Outcome) -> None:
    outcome.attempted += report.totals["graphs_examined"]
    # a budget overrun skips every check of the graph, so any check's skips count graphs
    outcome.failed += max(v["skip"] for v in report.totals["verdicts"].values())
    outcome.problems += census_problems(workload, report)


def census_problems(workload: str, report) -> list[str]:
    reference = REFERENCE[workload]
    problems = []
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    if digest != reference["report_sha256"]:
        problems.append(f"{workload}: report sha256 {digest}, reference {reference['report_sha256']}")
    if report.counterexample_count != reference["counterexamples"]:
        problems.append(f"{workload}: {report.counterexample_count} counterexamples, "
                        f"reference {reference['counterexamples']}")
    return problems


# --- cli-queries ----------------------------------------------------------------


def run_cli_workload(seed: int, seconds: float, workdir: Path) -> Outcome:
    """Closed loop, one client: the next query goes out when the last is answered.

    Queries come in rounds of one graph per stratum, each round followed
    by calibration; the loop stops at the first round boundary after
    ``seconds``. Only the three ``cli.main`` calls of a query are timed,
    not writing its file or checking its answer.
    """
    outcome = Outcome(0, 0, {}, _reference_problems(workdir))
    rounds, blocks = outcome.units_s, outcome.blocks_s
    stream = query_stream(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        batch = write_queries(workdir, itertools.islice(stream, len(STRATA)))
        answers = []
        latency = 0.0
        for query, path in batch:
            seconds_taken, codes, outputs = _ask(path)
            latency += seconds_taken
            answers.append((query, codes, outputs))
        rounds.append(latency)
        blocks.append(calibration.calibrate(CALIBRATION_SHARE * latency))
        # checked round by round, so memory does not grow with the query count
        _tally_answers(answers, outcome)
    outcome.metrics = {"work_s": (calibration.scaled(rounds, blocks), "s")}
    return outcome


def trace_cli_workload(seed: int, workdir: Path) -> Outcome:
    """The first TRACE_QUERIES queries, each asked untraced and then traced."""
    outcome = Outcome(0, 0, {}, _reference_problems(workdir))
    batch = write_queries(workdir, itertools.islice(query_stream(seed), TRACE_QUERIES))
    tracer = tracing.Tracer()
    answers = []
    untraced = traced = 0.0
    for query, path in batch:
        untraced += _ask(path)[0]
        with tracer.installed():
            latency, codes, outputs = _ask(path, tracer, f"q{query.index}")
        traced += latency
        answers.append((query, codes, outputs))
    _tally_answers(answers, outcome)
    outcome.metrics = layer_metrics(tracer, len(batch), len(batch), traced, untraced)
    outcome.tracer = tracer
    return outcome


def _ask(path: str, tracer: tracing.Tracer | None = None, item=None):
    codes = []
    outputs = []
    start = time.perf_counter()
    for label, argv in COMMANDS:
        out = io.StringIO()
        span = tracer.span(f"cli.{label}", item) if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main([*argv, path, "--format", "g6"]))
        outputs.append(out.getvalue())
    return time.perf_counter() - start, codes, outputs


def _reference_problems(workdir: Path) -> list[str]:
    """Answer the reference prefix of the default seed and compare its stdout digest.

    This runs before timing on every cli-queries run, whatever its seed,
    and doubles as the warm-up.
    """
    reference = REFERENCE["cli-queries"]
    queries = itertools.islice(query_stream(reference["seed"]), reference["queries"])
    batch = write_queries(workdir, queries)
    digest = hashlib.sha256()
    answers = []
    for query, path in batch:
        _, codes, outputs = _ask(path)
        answers.append((query, codes, outputs))
        for (label, _), code, text in zip(COMMANDS, codes, outputs):
            digest.update(f"{query.index} {label} exit {code}\n{text}".encode("utf-8"))
    outcome = Outcome(0, 0, {})
    _tally_answers(answers, outcome)
    if digest.hexdigest() != reference["stdout_sha256"]:
        outcome.problems.append(f"cli-queries: reference stdout sha256 {digest.hexdigest()}, "
                                f"reference {reference['stdout_sha256']}")
    if outcome.failed:
        outcome.problems.append(f"cli-queries: {outcome.failed} reference queries hit a capability limit")
    return outcome.problems


_HEADER = re.compile(r"gamma_ev = (\d+); (\d+) minimum sets?")
_EDGE = re.compile(r"\((\d+),(\d+)\)")


def _tally_answers(answers, outcome: Outcome) -> None:
    """Exit 3 (capability limit) counts as failed; any other non-zero exit is wrong."""
    for query, codes, outputs in answers:
        outcome.attempted += 1
        if 3 in codes:
            outcome.failed += 1
            continue
        if any(codes):
            outcome.problems.append(f"cli-queries: query {query.index} exited {codes}")
            continue
        outcome.problems += _enumerate_problems(query, outputs[0])


def _enumerate_problems(query: Query, text: str) -> list[str]:
    lines = text.splitlines()
    header = _HEADER.fullmatch(lines[0]) if lines else None
    if header is None:
        return [f"cli-queries: query {query.index}: unreadable enumerate output"]
    gamma, count = int(header[1]), int(header[2])
    graph = Graph(query.n, query.edges)
    sets = [tuple((int(u), int(v)) for u, v in _EDGE.findall(line)) for line in lines[1:]]
    problems = []
    if len(sets) != count or len(set(sets)) != count:
        problems.append(f"{count} distinct sets announced, {len(set(sets))} of {len(sets)} listed")
    for members in sets:
        if len(members) != gamma or not is_ev_dominating_set(graph, members):
            problems.append(f"listed set {members} is not an ev-dominating set of size {gamma}")
    if query.kind == "tree" and gamma_ev_tree_fast(graph) != gamma:
        problems.append(f"gamma_ev {gamma} but the tree DP gives {gamma_ev_tree_fast(graph)}")
    return [f"cli-queries: query {query.index}: {p}" for p in problems]


# --- per-layer metrics ------------------------------------------------------------


def layer_metrics(tracer: tracing.Tracer, graphs: int, queries: int,
                  traced: float, untraced: float) -> dict[str, tuple[float, str]]:
    total, own = tracing.summarize(tracer.spans)
    layers = tracing.layer_self_times(own)
    calls = tracer.counts
    solves = calls["domination.solve_ev"] + calls["domination.solve_pr"]
    values = {
        "census.generate_s": total["census.generate"],
        "census.verify_s": total["census.verify_graph"],
        "census.verify_calls": calls["census.verify_graph"],
        "census.pool_wait_s": total["census.pool_wait"],
        "census.aggregate_s": own["census.run_census"],
        "domination.solve_ev_s": total["domination.solve_ev"],
        "domination.solve_ev_calls": calls["domination.solve_ev"],
        "domination.solve_pr_s": total["domination.solve_pr"],
        "domination.solve_pr_calls": calls["domination.solve_pr"],
        "domination.solves_per_graph": solves / graphs,
        "domination.ev_sets": calls["domination.ev_sets"],
        "domination.pr_sets": calls["domination.pr_sets"],
        "graphs.canonical_code_s": total["graphs.canonical_code"],
        "graphs.canonical_code_calls": calls["graphs.canonical_code"],
        "graphs.perfect_matchings_s": total["graphs.perfect_matchings"],
        "graphs.parse_graph6_s": total["graphs.parse_graph6"],
        "twinning.detangle_s": total["twinning.detangle"],
        "twinning.detangle_calls": calls["twinning.detangle"],
        "twinning.twinning_calls": calls["twinning.twinning"],
        "twinning.sharing_pairs_calls": calls["twinning.sharing_pairs"],
        "twinning.check_claim_s": total["twinning.check_claim"],
        "cli.enumerate_s": total["cli.enumerate"],
        "cli.unique_s": total["cli.unique"],
        "cli.detangle_s": total["cli.detangle"],
        "cli.solves_per_query": solves / queries if queries else 0.0,
        **{f"{layer}.self_s": layers[layer] for layer in LAYERS},
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
