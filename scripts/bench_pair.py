#!/usr/bin/env python3
"""Run the benchmark on a parent and a change checkout in alternating pairs.

Pair i runs, in each checkout's root,

    python3 polarbench/run.py --workload W --seed S+i --seconds T --trace 0

on one side and then on the other. The parent goes first in pair 0, and the
side that goes first flips every pair, so that neither side always runs on a
machine the other has just warmed or loaded. Each run's result file is
copied into OUT_DIR/parent/ or OUT_DIR/change/, and its output into a .log
file beside it; scripts/bench_json.py reads the two directories:

    python3 scripts/bench_pair.py --parent ../parent --change . \\
        --workload hashtag-staged --pairs 6 --seed 101 --seconds 10 --out-dir pairs
    python3 scripts/bench_json.py --pr N --parent pairs/parent --change pairs/change

A failed run is reported with its side and exit code, and the script goes on
with the other runs and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(checkout: Path, out_dir: Path, workload: str, seed: int, seconds: float) -> int:
    """Runs the benchmark once in checkout; returns its exit code."""
    name = f"{workload}-seed{seed}-trace0"
    result = checkout / ".polarbench" / "out" / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "polarbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    (out_dir / f"{name}.log").write_text(proc.stdout, encoding="utf-8")
    if proc.returncode == 0:
        shutil.copyfile(result, out_dir / result.name)
        wall = json.loads(result.read_text(encoding="utf-8"))["result"]["metrics"]["wall_s"]
        print(f"{out_dir.name} seed {seed}: wall_s {wall['value']:.3f}", flush=True)
    return proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i adds i")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "polarbench" / "run.py").is_file():
            print(f"bench_pair: {side}: no polarbench/run.py in {checkout}", file=sys.stderr)
            return 1
        (args.out_dir / side).mkdir(parents=True, exist_ok=True)
    failed = False
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            code = run_side(checkouts[side], args.out_dir / side, args.workload, seed,
                            args.seconds)
            if code != 0:
                print(f"bench_pair: pair {i}, {side}, seed {seed}: exit code {code}",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
