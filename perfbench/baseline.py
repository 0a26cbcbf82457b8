"""Run every workload over several seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each run lasts BENCHMARK.json's run_seconds, run.py's default. For each
workload and metric it records the values over seeds 1-10, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. The checked-in
baseline.json was made this way and holds the first rows later changes
compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES, _environment  # noqa: E402

SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    rows: dict[str, dict] = {}
    for workload in WORKLOAD_NAMES:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in SEEDS:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--trace", "0"]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"error: {workload} seed {seed} failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items()), flush=True)
        rows[workload] = {name: _summary(vals, units[name]) for name, vals in values.items()}
    args.out.write_text(json.dumps({
        "command": "python3 perfbench/baseline.py",
        "environment": _environment(),
        "seeds": list(SEEDS),
        "workloads": rows,
    }, indent=2) + "\n", encoding="utf-8")
    for workload, metrics in rows.items():
        for name, row in metrics.items():
            print(f"{workload:14} {name:14} median {row['median']:.6g} {row['unit']}, spread {row['spread']:.3f}")
    return 0


def _summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


if __name__ == "__main__":
    sys.exit(main())
