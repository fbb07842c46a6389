#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus with planted communities.

Runs the polarlex CLI as the README Quick start does: synth writes a corpus
into --out-dir, then pipeline and eval run on it into --out-dir/run. Prints
how many propagated hashtags took the sign of their planted community, then
the run's tally, evaluation and homophily tables. Exits with the CLI's code
if a step fails.
"""

import argparse
import sys
from pathlib import Path

from polarlex import cli
from polarlex.evalkit import read_gold
from polarlex.polarity import POLE_A, POLE_B
from polarlex.proplabel import STATUS_PROPAGATED, read_lexicon
from polarlex.synthgen import SynthSpec

SYNTH_FLAGS = ("n_users", "n_tweets", "hashtags_per_community", "seed_fraction",
               "within", "cross", "neutral_hashtags", "rng_seed")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-users", type=int, default=200)
    ap.add_argument("--n-tweets", type=int, default=5000)
    ap.add_argument("--hashtags-per-community", type=int, default=100)
    ap.add_argument("--seed-fraction", type=float, default=0.1)
    ap.add_argument("--within", type=float, default=0.95)
    ap.add_argument("--cross", type=float, default=0.05)
    ap.add_argument("--neutral-hashtags", type=int, default=0)
    ap.add_argument("--gamma", type=int, default=100)
    ap.add_argument("--kcore-k", type=int, default=5)
    ap.add_argument("--rng-seed", type=int, default=7)
    ap.add_argument("--out-dir", type=Path, default=Path("synthetic_run"))
    return ap.parse_args()


def flags(args, names):
    return [f"--{name.replace('_', '-')}={getattr(args, name)}" for name in names]


def main():
    args = parse_args()
    out, run, dim = args.out_dir, args.out_dir / "run", SynthSpec.dimension
    steps = [
        ["synth", f"--out-dir={out}", *flags(args, SYNTH_FLAGS)],
        ["pipeline", f"--corpus={out / 'corpus.jsonl'}", f"--seed-file={out / f'seeds_{dim}.tsv'}",
         f"--out-dir={run}", *flags(args, ("gamma", "kcore_k"))],
        ["eval", f"--gold={out / 'gold_users.tsv'}", f"--out-dir={run}"],
    ]
    for step in steps:
        code = cli.main(step)
        if code:
            return code

    lexicon = read_lexicon(run / f"lexicon_{dim}.tsv")
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
