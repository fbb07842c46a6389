#!/usr/bin/env python3
"""Summarize parent/change benchmark runs into BENCH_pr<N>.json.

Each side is a directory of polarbench result files, the
`.polarbench/out/<workload>-seed<seed>-trace0.json` files that

    python3 polarbench/run.py --workload W --seed S --seconds T --trace 0

writes in a checkout of that side. Runs of one workload and seed on both
sides form a pair. For every workload and end-to-end metric of
BENCHMARK.json, the summary gives each side's median, quartiles and run count
over the paired runs, and how many pairs the change won, lost or tied in the
metric's better direction. Three verdicts go with each metric:

  worse_by       how much worse the change's median is than the parent's, as
                 a fraction of the parent's (negative when better), beside
                 the metric's regression bound from BENCHMARK.json
  gain_rule_met  whether the change won at least 9 of every 10 pairs, ties
                 counting for neither side, and its median is better than
                 the parent's by more than the parent's q3 - q1
  unresolved     whether the runs spread too widely to tell: either side's
                 q3 - q1 exceeds the metric's bound as a fraction of that
                 side's median, and not every change run beats every
                 parent run

Each workload also counts the pairs whose two runs wrote the same artifact
digests, since a speed-up that changes an output byte does not count.
Unpaired runs are listed, not summarized.

    python3 scripts/bench_json.py --pr 6 --parent ../parent/.polarbench/out \\
        --change .polarbench/out
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json")


def read_side(directory: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> the run's details, for every trace-0 result file."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match:
            details = json.loads(path.read_text(encoding="utf-8"))
            runs[(match["workload"], int(match["seed"]))] = details
    return runs


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(parent: dict, change: dict, metrics: list[dict]) -> dict:
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})
    out = {}
    for workload in workloads:
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == workload)
        unpaired = {
            side: sorted(s for w, s in runs if w == workload and s not in seeds)
            for side, runs in (("parent", parent), ("change", change))
        }
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        entry = {
            "seeds": seeds,
            "pairs": len(pairs),
            "unpaired_seeds": unpaired,
            "attempted": {"parent": sum(p["result"]["attempted"] for p, _ in pairs),
                          "change": sum(c["result"]["attempted"] for _, c in pairs)},
            "failed": {"parent": sum(p["result"]["failed"] for p, _ in pairs),
                       "change": sum(c["result"]["failed"] for _, c in pairs)},
            "digests_identical": {
                "pairs": sum("digests" in p and p["digests"] == c.get("digests")
                             for p, c in pairs),
                "of": len(pairs),
            },
            "metrics": {},
        }
        for metric in metrics:
            name, sign = metric["name"], -1 if metric["better"] == "lower" else 1
            values = [(p["result"]["metrics"][name]["value"],
                       c["result"]["metrics"][name]["value"]) for p, c in pairs]
            if not values:
                continue
            gains = [sign * (c - p) for p, c in values]
            before, after = quartiles([p for p, _ in values]), quartiles([c for _, c in values])
            wins = sum(g > 0 for g in gains)
            spread = any(side["q3"] - side["q1"] > metric["bound"] * abs(side["median"])
                         for side in (before, after))
            beats_all = min(sign * c for _, c in values) > max(sign * p for p, _ in values)
            gain = sign * (after["median"] - before["median"])
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": before,
                "change": after,
                "change_wins": wins,
                "change_losses": sum(g < 0 for g in gains),
                "ties": sum(g == 0 for g in gains),
                "worse_by": -gain / abs(before["median"]) if before["median"] else None,
                "gain_rule_met": 10 * wins >= 9 * len(gains)
                and gain > before["q3"] - before["q1"],
                "unresolved": spread and not beats_all,
            }
        out[workload] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    ap.add_argument("--parent", type=Path, required=True, help="parent's result directory")
    ap.add_argument("--change", type=Path, default=Path(".polarbench/out"),
                    help="change's result directory (default: .polarbench/out)")
    ap.add_argument("--out", type=Path, default=None,
                    help="output file (default: BENCH_pr<N>.json at the repository root)")
    args = ap.parse_args()
    for side in (args.parent, args.change):
        if not side.is_dir():
            print(f"bench_json: no result directory {side}", file=sys.stderr)
            return 1
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {
        "pr": args.pr,
        "run_seconds": benchmark["run_seconds"],
        "workloads": summarize(read_side(args.parent), read_side(args.change),
                               benchmark["end_to_end"]),
    }
    out = args.out or ROOT / f"BENCH_pr{args.pr}.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
