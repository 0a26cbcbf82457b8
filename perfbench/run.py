"""Benchmark for domicert: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it imports the package from the
checkout's src/ and installs nothing. With no arguments it runs every
workload untraced, with seed 0, for BENCHMARK.json's run_seconds each;
--seconds exists because the benchmark's caller passes that value, and
the bounds hold only for it.

A run checks the program's output against perfbench/reference.json,
prints every metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run,
whose spans go to .perfbench-out/. On a correctness mismatch the JSON
line carries no metrics and the exit code is 1; without the package
source the run exits 2 and prints no result. See perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("trees-census", "graphs-census", "cli-queries")
SETUP_REPEATS = 15
# probes are short, so calibration gets a larger share of their time
SETUP_CALIBRATION_SHARE = 0.5


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not _import_package():
        return 2
    if args.workload == "all":
        return _run_all(args)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return _run_one(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="domicert benchmark")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _run_seconds() -> float:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def _import_package() -> bool:
    src = ROOT / "src"
    if not (src / "domicert" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'domicert'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import domicert

    if Path(domicert.__file__).resolve().parent != src / "domicert":
        print(f"error: imported domicert from {domicert.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def _run_one(args, workdir: Path) -> int:
    import workloads

    if args.workload == "cli-queries":
        outcome = (workloads.trace_cli_workload(args.seed, workdir) if args.trace
                   else workloads.run_cli_workload(args.seed, args.seconds, workdir))
    else:
        outcome = (workloads.trace_census_workload(args.workload) if args.trace
                   else workloads.run_census_workload(args.workload, args.seconds))
    setup = {}
    if not args.trace:
        # before the set-up probes, which are children too
        peak = _peak_rss_mb()
        setup = _setup_seconds(args.workload, args.seed, workdir / "setup")
        outcome.metrics["setup_s"] = (calibration.scaled(setup["probes_s"], setup["blocks_s"]), "s")
        outcome.metrics["peak_rss_mb"] = (peak, "MB")

    environment = _environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.tracer is not None:
        _write_spans(OUT / f"{stem}.spans.json.gz", outcome.tracer)
    correct = not outcome.problems
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()}
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics if correct else {},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "problems": outcome.problems,
        "units_s": outcome.units_s,
        "blocks_s": outcome.blocks_s,
        "setup": setup,
        "result": result,
    }, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<30} {value:12.6g} {unit}")
    if outcome.units_s:
        print(f"  unscaled: median unit {statistics.median(outcome.units_s):.6g} s, "
              f"mean calibration block {statistics.fmean(outcome.blocks_s):.6g} s, {len(outcome.units_s)} units")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}")
    print("environment " + json.dumps(environment))
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def _run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        results[name] = json.loads(lines[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items() for metric, value in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _setup_seconds(workload: str, seed: int, workdir: Path) -> dict[str, list[float]]:
    """Set-up times of fresh processes that import domicert and load the inputs.

    Calibration runs after each probe, for SETUP_CALIBRATION_SHARE of its
    time. This process and so its probes are held to one CPU meanwhile, so
    that probe and calibration run on the same core: the two cores' speeds
    differ from moment to moment.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)]
    times: dict[str, list[float]] = {"probes_s": [], "blocks_s": []}
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run([*probe, repr(time.perf_counter())], check=True, stdout=subprocess.PIPE, text=True)
            setup = float(proc.stdout)
            times["probes_s"].append(setup)
            times["blocks_s"].append(calibration.calibrate(SETUP_CALIBRATION_SHARE * setup))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux. RUSAGE_CHILDREN gives the largest
    # reaped child, not a sum: on graphs-census that is one of the two pool
    # workers, whose pages shared with the parent since the fork count
    # again, so the figure is "parent + largest worker", not the pool's total
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _write_spans(path: Path, tracer) -> None:
    import tracing

    spans = tracer.spans
    origin = min((s[1] for s in spans), default=0.0)
    total, own = tracing.summarize(spans)
    document = {
        "fields": ["name", "start_s", "end_s", "parent", "item", "pid"],
        "spans": [[name, round(start - origin, 7), round(end - origin, 7), parent, item, pid]
                  for name, start, end, parent, item, pid in spans],
        "total_s": total,
        "self_s": own,
        "layer_self_s": tracing.layer_self_times(own),
        "counts": tracer.counts,
    }
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write(json.dumps(document))


if __name__ == "__main__":
    sys.exit(main())
