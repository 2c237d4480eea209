"""Summarize saved outputs of ``run.py``, pooled per workload.

Usage::

    python3 perfbench/summary.py LOG [LOG ...]

Each LOG is the standard output of one ``run.py`` run. For every
workload and metric this prints the median over all passes of all
runs, the highest percentile with at least ten samples above it, and
the sample count; then the spread of the per-run values (the distance
between their first and third quartiles, as a share of their median)
beside the metric's bound, and the failed-cell share over all runs.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import metrics as M

HEADER = re.compile(r"^# (\S+) seed=(-?\d+) trace=(\d)")


def parse(path: Path) -> dict | None:
    """One run's workload, samples and result; ``None`` if it printed
    no result."""
    lines = path.read_text().splitlines()
    headers = [m for m in map(HEADER.match, lines) if m]
    samples = [json.loads(line[len("# samples "):]) for line in lines
               if line.startswith("# samples ")]
    if not headers or not samples:
        return None
    header = headers[0]
    return {"workload": header.group(1), "trace": int(header.group(3)),
            "samples": samples[0], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def main(paths: list[str]) -> int:
    runs = [run for run in map(parse, map(Path, paths)) if run]
    bounds = {m.name: m.bound for m in M.END_TO_END}
    for workload in M.WORKLOADS:
        for trace in (0, 1):
            group = [r for r in runs
                     if r["workload"] == workload and r["trace"] == trace]
            if not group:
                continue
            print(f"== {workload} trace={trace}: {len(group)} runs")
            for name in group[0]["result"]["metrics"]:
                pooled = [v for r in group for v in r["samples"][name]]
                per_run = [r["result"]["metrics"][name]["value"]
                           for r in group]
                unit = group[0]["result"]["metrics"][name]["unit"]
                high = M.tail(pooled)
                line = (f"{name:<28} {M.median(pooled):>12.4f} {unit:<6}"
                        f" median  " + (f"p{high[0]} {high[1]:.4f}"
                                        if high else "p- (n<11)")
                        + f"  n={len(pooled)}")
                if name in bounds:
                    line += (f"  run spread {spread(per_run):.3f}"
                             f" (bound {bounds[name]})")
                print(line)
            attempted = sum(r["result"]["attempted"] for r in group)
            failed = sum(r["result"]["failed"] for r in group)
            print(f"{'failed_cells_share':<28} {failed / attempted:>12.4f}"
                  f" ratio  ({failed} of {attempted} cell outcomes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
