#!/usr/bin/env python3
"""Summarize the result files of many benchmark runs into one JSON document.

    python3 polarbench/baseline.py [.polarbench/out] > summary.json

For each workload it gives the run count and seeds, the median and quartiles
over runs of every end-to-end metric, the failure count, the input sizes, and
from traced runs the median per-stage split. polarbench/BASELINE.json is this
output for the commit that added the benchmark, with per-set spreads and notes
added.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "n": len(values)}


def main() -> int:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else ".polarbench/out")
    runs = defaultdict(list)
    for path in sorted(out_dir.glob("*-trace[01].json")):
        details = json.loads(path.read_text(encoding="utf-8"))
        runs[details["workload"]].append(details)
    summary = {}
    for workload, results in sorted(runs.items()):
        plain = [r for r in results if r["trace"] == 0]
        traced = [r for r in results if r["trace"] == 1]
        metrics = defaultdict(list)
        for r in plain:
            for name, m in r["result"]["metrics"].items():
                metrics[name].append(m["value"])
        stages = defaultdict(list)
        for r in traced:
            for name, m in r["result"]["metrics"].items():
                if name.startswith(("cli.", "trace.")):
                    stages[name].append(m["value"])
        summary[workload] = {
            "runs": len(plain),
            "traced_runs": len(traced),
            "seeds": sorted({r["seed"] for r in plain}),
            "failed": sum(r["result"]["failed"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "samples_per_run": sorted({r["timings"]["wall_s"]["n"] for r in plain}),
            "inputs": {k: statistics.median(r["facts"]["inputs"][k] for r in results)
                       for k in results[0]["facts"]["inputs"]},
            "end_to_end": {name: spread(v) for name, v in metrics.items()},
            "trace_split": {name: statistics.median(v) for name, v in stages.items()},
        }
    first = next(iter(runs.values()))[0]["facts"]
    loads = [r["facts"][k][0] for rs in runs.values() for r in rs
             for k in ("loadavg_start", "loadavg_end")]
    facts = {k: v for k, v in first.items() if not k.startswith(("loadavg", "inputs"))}
    facts["loadavg_1min_range"] = [min(loads), max(loads)] if loads else []
    json.dump({"facts": facts, "workloads": summary}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
