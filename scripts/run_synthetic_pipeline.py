#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus with planted communities.

Generates tweets, propagates seed labels over the hashtag co-occurrence
graph, scores tweets and users, and reports how well the planted classes
are recovered. Artifacts land in --out-dir for inspection.
"""

import argparse
import time
from pathlib import Path

from polarlex.commnet import build_comm_graph, export_graph, homophily_index, k_core
from polarlex.corpus import tokenize, write_corpus
from polarlex.errors import DataError
from polarlex.evalkit import evaluate_predictions, GoldLabelSet, write_eval_reports
from polarlex.lexgraph import build_cooccurrence, write_graph
from polarlex.polarity import (
    format_tally,
    overall_tally,
    score_tweets,
    score_users,
    ternarize,
)
from polarlex.proplabel import propagate_greedy, write_lexicon, write_seed_lexicon
from polarlex.synthgen import SynthSpec, generate


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


def main():
    args = parse_args()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    spec = SynthSpec(
        n_users=args.n_users,
        n_tweets=args.n_tweets,
        hashtags_per_community=args.hashtags_per_community,
        seed_fraction=args.seed_fraction,
        p_within=args.within,
        p_cross=args.cross,
        n_neutral_hashtags=args.neutral_hashtags,
        rng_seed=args.rng_seed,
    )
    t0 = time.perf_counter()
    records, truth = generate(spec)
    write_corpus(records, out / "corpus.jsonl")
    write_seed_lexicon(truth.seeds, out / "seeds.tsv")

    tweets = tokenize(records)
    graph = build_cooccurrence(tweets, "hashtag")
    write_graph(graph, out / "graph.edges.tsv", out / "graph.nodes.tsv")
    print(f"graph: {graph.num_nodes} hashtags, {graph.num_edges} edges")

    lexicon = propagate_greedy(graph, truth.seeds, gamma=args.gamma)
    write_lexicon(lexicon, out / "lexicon.tsv")
    n_seed = sum(1 for s in lexicon.status.values() if s == "seed")
    print(
        f"propagation: {len(lexicon.scores)}/{graph.num_nodes} labeled "
        f"({n_seed} seeds, gamma={args.gamma})"
    )

    correct = total = 0
    for item, status in lexicon.status.items():
        if status != "propagated":
            continue
        total += 1
        value = lexicon.scores[item]
        planted = truth.hashtag_labels[item]
        if (planted == "pole_a" and value > 0) or (planted == "pole_b" and value < 0):
            correct += 1
    if total:
        print(f"hashtag sign recovery: {correct}/{total} ({100 * correct / total:.1f}%)")

    tweet_scores = score_tweets(tweets, lexicon)
    user_scores = score_users(records, tweet_scores)
    print()
    print(format_tally(overall_tally(user_scores, tweet_scores, lexicon.scale)))

    predictions = {u: ternarize(s, lexicon.scale) for u, s in user_scores.items()}
    gold = GoldLabelSet(unit="account", labels=dict(truth.user_labels))
    covered = {k: v for k, v in gold.labels.items() if k in predictions}
    report = evaluate_predictions(
        predictions, GoldLabelSet("account", covered), truth.seeds.dimension_name
    )
    write_eval_reports([report], out / "eval_poles.csv", out / "eval_overall.csv")
    print()
    for pole, metrics in (("pole_a", report.pole_a), ("pole_b", report.pole_b)):
        if metrics:
            prec = f"{metrics.precision:.3f}" if metrics.precision is not None else "-"
            print(
                f"{pole}: precision={prec} recall={metrics.recall:.3f} "
                f"unk={metrics.pct_unknown:.3f} incorrect={metrics.pct_incorrect:.3f}"
            )
    print(f"accuracy={report.accuracy:.3f} soft={report.soft_accuracy:.3f}")

    comm = build_comm_graph(
        records,
        {truth.seeds.dimension_name: user_scores},
        {truth.seeds.dimension_name: lexicon.scale},
    )
    core = k_core(comm, args.kcore_k)
    export_graph(core, out / "commnet.graphml", "graphml")
    try:
        h = homophily_index(core, truth.seeds.dimension_name)
        print(f"{args.kcore_k}-core: {len(core.nodes)} users, homophily={h:.3f}")
    except DataError:
        print(f"{args.kcore_k}-core: {len(core.nodes)} users, homophily undefined")

    print(f"\ndone in {time.perf_counter() - t0:.2f}s; artifacts in {out}/")


if __name__ == "__main__":
    main()
