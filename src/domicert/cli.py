"""Command-line interface.

Exit codes: 0 success (and passing checks), 1 a check failed or a
counterexample was found, 2 usage or input error, 3 capability or
budget exceeded, 130 interrupted, 141 standard output closed by its
reader (as in ``domicert enumerate ... | head``). Standard output is
deterministic for identical invocations; timing goes to stderr.
``main`` may be called repeatedly in one process; its parsers are built
on the first call. A command's arguments go straight to that command's
parser; help, an unknown command and leftover arguments go through the
top-level parser, which prints the same messages either way.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from functools import cache
from itertools import compress, islice

from .census import (
    CONNECTED,
    STANDARD_CHECKS,
    TREES,
    CensusConfig,
    figure1_claims,
    figure1_graph,
    run_census,
)
from .domination import DEFAULT_BUDGET, _bit_rows, solve_ev, solve_pr, uniqueness
from .errors import CapabilityError, DomicertError
from .graphs import Graph, normalize_edge, parse_edge_list, parse_graph6
from .twinning import _detangle, twinning

BUDGET_ENV = "DOMICERT_BUDGET"
# lines per write of a listing
BLOCK_LINES = 1024


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        budget = _budget_from_env()
        code = args.run(args, budget)
        # a closed stdout fails here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # 128 + SIGPIPE; the real stdout is pointed at devnull so that the
        # interpreter's last flush of it cannot fail again
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomicertError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # what the top-level parser's subparsers action does with a command and
    # its arguments, without the top-level parse; leftovers are re-parsed
    # there so that it reports them
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
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

    for name, help_text, run in (("solve", "minimum set size and family size", _cmd_family),
                                 ("enumerate", "list every minimum set", _cmd_family),
                                 ("unique", "uniqueness verdict for the minimum family", _cmd_unique)):
        p = graph_command(name, help_text)
        p.add_argument("--kind", choices=("ev", "pr"), required=True)
        p.set_defaults(run=run)

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

    return parser, sub.choices


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
    with open(args.file, encoding="utf-8", newline="") as handle:
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


def _fmt_labels(family) -> list[str]:
    # what each bit of a member stands for, an edge or a vertex, formatted once
    if family.kind == "ev":
        return [_fmt_edge(e) for e in family.edges]
    return [str(v) for v in range(family.graph.n)]


def _fmt_row(labels: list[str], row: bytes) -> str:
    # the set whose bit row this is, listed as _fmt_edge_set or _fmt_vertex_set would
    return "{" + ", ".join(compress(labels, row)) + "}"


def _write_lines(lines) -> None:
    # a listing, a block of lines per write: one print per line costs more
    # than formatting the line on a large family
    lines = iter(lines)
    while block := list(islice(lines, BLOCK_LINES)):
        sys.stdout.write("\n".join(block) + "\n")


def _fmt_step(step) -> str:
    return (f"replaced {_fmt_edge(step.replaced_edge)} with {_fmt_edge(step.inserted_edge)}; "
            f"private vertex {step.private_vertex}, shared vertex {step.shared_vertex}")


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


def _family_line(family) -> str:
    label = "gamma_ev" if family.kind == "ev" else "gamma_pr"
    return f"{label} = {family.gamma}; {_plural(len(family.masks), 'minimum set')}"


def _cmd_family(args, budget: int) -> int:
    # solve prints the family line; enumerate also lists the sets
    graph = _load_graph(args)
    family = solve_ev(graph, budget) if args.kind == "ev" else solve_pr(graph, budget)
    print(_family_line(family))
    if args.command == "enumerate":
        labels = _fmt_labels(family)
        _write_lines(_fmt_row(labels, row) for row in family.rows)
    return 0


def _cmd_unique(args, budget: int) -> int:
    kind = "ev" if args.kind == "ev" else "paired"
    verdict = uniqueness(_load_graph(args), kind, budget)
    if verdict.unique:
        family = verdict.family
        print(f"unique: true; set = {_fmt_row(_fmt_labels(family), family.rows[0])}")
    elif verdict.common_span is not None:
        print(f"unique: false; {_plural(verdict.witness_count, 'minimum set')}; "
              f"common span = {_fmt_vertex_set(verdict.common_span)}")
    else:
        print(f"unique: false; {_plural(verdict.witness_count, 'minimum set')}; spans differ")
    return 0


def _cmd_span(args, budget: int) -> int:
    verdict = uniqueness(_load_graph(args), "ev", budget)
    family = verdict.family
    print(_family_line(family))
    edges = _fmt_labels(family)
    vertices = list(map(str, range(family.graph.n)))
    # the rows are distinct, so the span rows ride along in the order of family.sets
    rows = sorted(zip(_bit_rows(family.masks), _bit_rows(family.spans)), reverse=True)
    _write_lines(f"{_fmt_row(edges, row)} spans {_fmt_row(vertices, span)}" for row, span in rows)
    if verdict.common_span is not None:
        print(f"common span: {_fmt_vertex_set(verdict.common_span)}")
    else:
        print("spans differ")
    return 0


def _parse_cli_edge(raw: str):
    try:
        u, v = map(int, raw.split(","))
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
    # the tangled members are exactly those with a sharing pair; rewrite
    # the first of them in the order of ``family.sets``, the largest row
    if not family.tangled:
        print("every minimum ev-dominating set is sharing-free; nothing to detangle")
        return 0
    edges, incident = family.index
    row, chosen = max(zip(_bit_rows(family.tangled), family.tangled))
    result = _detangle(graph, edges, incident, chosen)
    print(f"set: {_fmt_edge_set(compress(edges, row))}")
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
    if args.out is not None:
        _check_report_path(args.out)
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
        # the text is complete before the old report is truncated
        text = report.to_json()
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    print(f"wall time: {report.wall_time_seconds:.2f}s", file=sys.stderr)
    if report.counterexample_count:
        return 1
    if report.skip_count:
        return 3
    return 0


def _check_report_path(path: str) -> None:
    # fail before the census rather than after it, and leave an existing
    # report as it is until the new one is written; an empty path names no file
    directory = os.path.dirname(path) or "."
    if not path or not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


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
