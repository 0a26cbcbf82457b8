"""Command-line interface.

Exit codes: 0 success (and passing checks), 1 a check failed or a
counterexample was found, 2 usage or input error, 3 capability or
budget exceeded. Standard output is deterministic for identical
invocations; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .census import (
    CONNECTED,
    STANDARD_CHECKS,
    TREES,
    CensusConfig,
    figure1_claims,
    figure1_graph,
    run_census,
)
from .domination import DEFAULT_BUDGET, solve_ev, solve_pr, spanned_vertices, uniqueness
from .errors import (
    CapabilityError,
    DomainError,
    DomicertError,
    GraphParseError,
)
from .graphs import Graph, normalize_edge, parse_edge_list, parse_graph6
from .twinning import detangle, sharing_pairs, twinning

BUDGET_ENV = "DOMICERT_BUDGET"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        budget = _budget_from_env()
        return args.run(args, budget)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except (GraphParseError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomicertError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domicert",
        description="Minimum ev-domination and paired-domination families, "
                    "edge rewriting, and exhaustive small-graph verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", metavar="FILE", help="graph file")
        p.add_argument("--format", choices=("edges", "g6"), default="edges",
                       help="input format (default: edge list)")
        return p

    p = graph_command("solve", "minimum set size and family size")
    p.add_argument("--kind", choices=("ev", "pr"), required=True)
    p.set_defaults(run=_cmd_family)

    p = graph_command("enumerate", "list every minimum set")
    p.add_argument("--kind", choices=("ev", "pr"), required=True)
    p.set_defaults(run=_cmd_family)

    p = graph_command("unique", "uniqueness verdict for the minimum family")
    p.add_argument("--kind", choices=("ev", "pr"), required=True)
    p.set_defaults(run=_cmd_unique)

    p = graph_command("span", "vertex spans of the minimum ev-sets")
    p.set_defaults(run=_cmd_span)

    p = graph_command("twin", "rewrite one sharing pair of a minimum ev-set both ways")
    p.add_argument("--e1", required=True, metavar="U,V", help="first edge of the pair")
    p.add_argument("--e2", required=True, metavar="U,V", help="second edge of the pair")
    p.set_defaults(run=_cmd_twin)

    p = graph_command("detangle", "rewrite a minimum ev-set until no two edges touch")
    p.set_defaults(run=_cmd_detangle)

    p = sub.add_parser("census", help="verify the checks over all small trees or connected graphs")
    p.add_argument("--family", choices=("trees", "graphs"), required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--checks", default=",".join(STANDARD_CHECKS),
                   help="comma-separated check names (default: all standard checks)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", metavar="REPORT.json", help="write the JSON report here")
    p.set_defaults(run=_cmd_census)

    p = sub.add_parser("verify-figure1", help="assert the bundled counterexample's properties")
    p.add_argument("file", metavar="FILE", nargs="?",
                   help="override the bundled fixture with this edge-list file")
    p.set_defaults(run=_cmd_verify_figure1, format="edges")

    return parser


def _budget_from_env() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{BUDGET_ENV} must be positive")
    return value


def _load_graph(args) -> Graph:
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    if args.format == "g6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _fmt_edge(edge) -> str:
    return f"({edge[0]},{edge[1]})"


def _fmt_edge_set(edges) -> str:
    return "{" + ", ".join(_fmt_edge(e) for e in edges) + "}"


def _fmt_vertex_set(vertices) -> str:
    return "{" + ", ".join(str(v) for v in sorted(vertices)) + "}"


def _fmt_set(kind: str, members) -> str:
    return _fmt_edge_set(members) if kind == "ev" else _fmt_vertex_set(members)


def _fmt_step(step) -> str:
    return (f"replaced {_fmt_edge(step.replaced_edge)} with {_fmt_edge(step.inserted_edge)}; "
            f"private vertex {step.private_vertex}, shared vertex {step.shared_vertex}")


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


def _family_line(family) -> str:
    label = "gamma_ev" if family.kind == "ev" else "gamma_pr"
    return f"{label} = {family.gamma}; {_plural(len(family.sets), 'minimum set')}"


def _cmd_family(args, budget: int) -> int:
    # solve prints the family line; enumerate also lists the sets
    graph = _load_graph(args)
    family = solve_ev(graph, budget) if args.kind == "ev" else solve_pr(graph, budget)
    print(_family_line(family))
    if args.command == "enumerate":
        for members in family.sets:
            print(_fmt_set(family.kind, members))
    return 0


def _cmd_unique(args, budget: int) -> int:
    kind = "ev" if args.kind == "ev" else "paired"
    verdict = uniqueness(_load_graph(args), kind, budget)
    if verdict.unique:
        print(f"unique: true; set = {_fmt_set(kind, verdict.family.sets[0])}")
    elif verdict.common_span is not None:
        print(f"unique: false; {_plural(verdict.witness_count, 'minimum set')}; "
              f"common span = {_fmt_vertex_set(verdict.common_span)}")
    else:
        print(f"unique: false; {_plural(verdict.witness_count, 'minimum set')}; spans differ")
    return 0


def _cmd_span(args, budget: int) -> int:
    family = solve_ev(_load_graph(args), budget)
    print(_family_line(family))
    spans = set()
    for members in family.sets:
        span = spanned_vertices(members)
        spans.add(span)
        print(f"{_fmt_edge_set(members)} spans {_fmt_vertex_set(span)}")
    if len(spans) == 1:
        print(f"common span: {_fmt_vertex_set(next(iter(spans)))}")
    else:
        print("spans differ")
    return 0


def _parse_cli_edge(raw: str):
    fields = raw.split(",")
    if len(fields) != 2:
        raise ValueError(f"expected an edge as U,V, got {raw!r}")
    try:
        u, v = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"expected an edge as U,V, got {raw!r}") from None
    return normalize_edge(u, v)


def _cmd_twin(args, budget: int) -> int:
    graph = _load_graph(args)
    e1 = _parse_cli_edge(args.e1)
    e2 = _parse_cli_edge(args.e2)
    family = solve_ev(graph, budget)
    chosen = next((m for m in family.sets if e1 in m and e2 in m), None)
    if chosen is None:
        raise ValueError(f"no minimum ev-dominating set contains both {_fmt_edge(e1)} and {_fmt_edge(e2)}")
    left, right, step_l, step_r = twinning(graph, chosen, e1, e2)
    print(f"set: {_fmt_edge_set(chosen)}")
    print(f"left: {_fmt_edge_set(left)}; {_fmt_step(step_l)}")
    print(f"right: {_fmt_edge_set(right)}; {_fmt_step(step_r)}")
    return 0


def _cmd_detangle(args, budget: int) -> int:
    graph = _load_graph(args)
    family = solve_ev(graph, budget)
    chosen = next((m for m in family.sets if sharing_pairs(m) > 0), None)
    if chosen is None:
        print("every minimum ev-dominating set is sharing-free; nothing to detangle")
        return 0
    result = detangle(graph, chosen)
    print(f"set: {_fmt_edge_set(chosen)}")
    print(f"iterations: {result.iterations}")
    for i, step in enumerate(result.trace, start=1):
        print(f"step {i}: {_fmt_step(step)}")
    print(f"left: {_fmt_edge_set(result.left)}")
    print(f"right: {_fmt_edge_set(result.right)}")
    return 0


def _cmd_census(args, budget: int) -> int:
    family = TREES if args.family == "trees" else CONNECTED
    checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    config = CensusConfig(
        family=family,
        n_min=args.n_min,
        n_max=args.n_max,
        checks=checks,
        worker_count=args.workers,
        budget=budget,
    )
    report = run_census(config)
    print(f"family={args.family} n={config.n_min}..{config.n_max} checks={','.join(config.checks)}")
    for n in sorted(report.per_n):
        record = report.per_n[n]
        failures = len(record["counterexamples"])
        print(f"n={n}: {_plural(record['graphs_examined'], 'graph')}, {_plural(failures, 'failure')}")
    print(f"total: {_plural(report.totals['graphs_examined'], 'graph')}, "
          f"{_plural(report.counterexample_count, 'counterexample')}, "
          f"{report.skip_count} skipped")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"report written to {args.out}")
    print(f"wall time: {report.wall_time_seconds:.2f}s", file=sys.stderr)
    if report.counterexample_count:
        return 1
    if report.skip_count:
        return 3
    return 0


def _cmd_verify_figure1(args, budget: int) -> int:
    if args.file is None:
        graph = figure1_graph()
    else:
        graph = _load_graph(args)
    claims = figure1_claims(graph, budget)
    failed = 0
    for label, holds in claims:
        if holds:
            print(f"ok: {label}")
        else:
            failed += 1
            print(f"FAIL: {label}")
    if failed:
        print(f"{failed} of {len(claims)} claims failed")
        return 1
    print("all claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
