#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus with planted communities.

Runs the polarlex CLI as the README Quick start does: synth writes a corpus
into --out-dir, then pipeline and eval run on it into --out-dir/run. Every
other flag goes to all three commands, after the demo's own defaults
--rng-seed=7 --kcore-k=5, so a flag given here wins over them. Prints how
many propagated hashtags took the sign of their planted community, then the
run's tally, evaluation and homophily tables. Exits with the CLI's code if a
step fails.
"""

import argparse
import sys
from pathlib import Path

from polarlex import cli
from polarlex.evalkit import read_gold
from polarlex.polarity import POLE_A, POLE_B
from polarlex.proplabel import STATUS_PROPAGATED, read_lexicon
from polarlex.synthgen import DIMENSION


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("synthetic_run"))
    args, forwarded = ap.parse_known_args()
    out, run = args.out_dir, args.out_dir / "run"
    flags = ["--rng-seed=7", "--kcore-k=5", *forwarded]
    steps = [
        ["synth", *flags, f"--out-dir={out}"],
        ["pipeline", *flags, f"--corpus={out / 'corpus.jsonl'}",
         f"--seed-file={out / f'seeds_{DIMENSION}.tsv'}", f"--out-dir={run}"],
        ["eval", *flags, f"--gold={out / 'gold_users.tsv'}", f"--out-dir={run}"],
    ]
    for step in steps:
        code = cli.main(step)
        if code:
            return code

    lexicon = read_lexicon(run / f"lexicon_{DIMENSION}.tsv")
    planted = read_gold(out / "gold_hashtags.tsv").labels
    propagated = [item for item, status in lexicon.status.items() if status == STATUS_PROPAGATED]
    correct = sum(
        1 for item in propagated
        if (planted[item] == POLE_A and lexicon.scores[item] > 0)
        or (planted[item] == POLE_B and lexicon.scores[item] < 0)
    )
    print(f"hashtag sign recovery: {correct} of {len(propagated)} propagated hashtags")
    for name in ("tally.csv", "eval_poles.csv", "eval_overall.csv", "homophily.csv"):
        print(f"\n{name}:\n{(run / name).read_text()}", end="")
    print(f"\nartifacts in {run}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
