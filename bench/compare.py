"""Spread of one set of benchmark records, or the change between two sets.

    python3 bench/compare.py BASE_DIR [HEAD_DIR]

Each directory holds the records run.py writes (bench/results/*.json); only
untraced full-size runs are read.  For every workload and end-to-end metric
this prints the median over runs and the quartile spread (Q3 - Q1) / median.
Given two sets it also prints the head median's change against the base
median, marked WORSE when it exceeds the metric's bound in BENCHMARK.json,
and exits 1 if any does.  Records made in different environments (numpy,
BLAS, thread settings, CPU, Python) are refused with exit status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> tuple:
    """({workload: [metric values per run]}, {environment as JSON})."""
    runs, envs = defaultdict(list), set()
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != 0 or record.get("scale") != "full":
            continue
        runs[record["workload"]].append({k: v["value"] for k, v in record["result"]["metrics"].items()})
        envs.add(json.dumps(record["env"], sort_keys=True))
    return runs, envs


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load(Path(d)) for d in argv]
    envs = set().union(*(e for _, e in sets))
    if len(envs) > 1:
        print("error: records come from different environments:\n  " + "\n  ".join(sorted(envs)), file=sys.stderr)
        return 2
    worse = False
    for workload in sorted(set().union(*(runs for runs, _ in sets))):
        print(f"{workload}: " + " vs ".join(f"{len(runs[workload])} runs" for runs, _ in sets))
        for metric in metrics:
            name = metric["name"]
            columns = []
            medians = []
            for runs, _ in sets:
                values = [run[name] for run in runs[workload]]
                if not values:
                    columns.append("no runs")
                    continue
                medians.append(statistics.median(values))
                columns.append(f"median {medians[-1]:.6g} spread {spread(values):.3f}")
            line = f"  {name:<18} bound {metric['bound']:<5} " + " | ".join(columns)
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    change = -change
                line += f" | worse by {change:+.3f}"
                if change > metric["bound"]:
                    line += " WORSE"
                    worse = True
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
