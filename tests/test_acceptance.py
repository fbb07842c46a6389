"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from polarlex.cli import main as cli_main
from polarlex.commnet import CommGraph, k_core
from polarlex.corpus import tokenize, write_corpus
from polarlex.evalkit import GoldLabelSet, accuracy_soft, krippendorff_alpha, pole_metrics
from polarlex.lexgraph import build_cooccurrence
from polarlex.polarity import (
    BY_ITEM,
    NEUTRAL,
    POLE_A,
    POLE_B,
    UNCLASSIFIED,
    PolarityScore,
    score_aggregate,
    score_tweets,
    score_users,
    ternarize,
)
from polarlex.proplabel import (
    STATUS_PROPAGATED,
    STATUS_SEED,
    STATUS_UNLABELED,
    SeedLexicon,
    propagate_greedy,
    propagate_random_walk,
    write_seed_lexicon,
)
from polarlex.synthgen import NEUTRAL_LABEL, SynthSpec, generate

from graphs import edge_dict, graph_of
from oracles import dense_restart_walk, naive_k_core, reference_propagate, unitwise_alpha


@contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def random_case(rng, max_nodes=30, max_seeds=4):
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"n{i:02d}" for i in range(n)]
    pairs = list(combinations(nodes, 2))
    edges = {}
    if pairs:
        p_edge = float(rng.uniform(0.05, 0.6))
        for pair in pairs:
            if rng.random() < p_edge:
                edges[pair] = float(rng.integers(1, 6))
    order = [nodes[int(i)] for i in rng.permutation(n)]
    n_a = int(rng.integers(1, 3))
    n_b = int(rng.integers(1, max_seeds - n_a + 1))
    pole_a = set(order[:n_a])
    pole_b = set(order[n_a : n_a + n_b])
    # small graphs or a coin flip leave a pole pointing at off-graph items
    if not pole_b:
        pole_b = {"zz_missing"}
    elif len(pole_a) + len(pole_b) < max_seeds and rng.random() < 0.3:
        pole_b = pole_b | {"zz_missing"}
    seeds = SeedLexicon(
        dimension_name="dim",
        pole_a_items=pole_a,
        pole_b_items=pole_b,
        value_a=1.0,
        value_b=-1.0,
    )
    graph = graph_of(edges, extra_nodes=nodes)
    gamma = int(rng.choice([1, 2, 5, 100]))
    return graph, seeds, gamma


def seed_values_of(seeds):
    values = {}
    for item in sorted(seeds.pole_a_items):
        values[item] = seeds.value_a
    for item in sorted(seeds.pole_b_items):
        values[item] = seeds.value_b
    return values


ACCEPTANCE_SPEC = SynthSpec(
    n_users=200,
    n_tweets=5000,
    hashtags_per_community=100,
    seed_fraction=0.10,
    within=0.95,
    cross=0.05,
    rng_seed=7,
)


def test_c01_greedy_matches_pseudocode_reference():
    with verdict("criterion 1 (greedy propagation equals pseudocode reference)"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for _ in range(60):
            graph, seeds, gamma = random_case(rng)
            max_outer = 20_000
            lexicon = propagate_greedy(graph, seeds, gamma=gamma, max_outer=max_outer)
            expected = reference_propagate(
                graph.nodes,
                edge_dict(graph),
                seed_values_of(seeds),
                (seeds.value_a, seeds.value_b),
                gamma,
                max_outer,
            )
            assert lexicon.scores == expected
        assert time.perf_counter() - start < 10.0


def test_c02_seed_preservation_and_range():
    with verdict("criterion 2 (seeds exact, scores within endpoints)"):
        rng = np.random.default_rng(1002)
        for _ in range(60):
            graph, seeds, gamma = random_case(rng)
            lexicon = propagate_greedy(graph, seeds, gamma=gamma)
            lo, hi = lexicon.scale
            present = set(graph.nodes)
            for item in seeds.pole_a_items & present:
                assert lexicon.scores[item] == seeds.value_a
                assert lexicon.status[item] == STATUS_SEED
            for item in seeds.pole_b_items & present:
                assert lexicon.scores[item] == seeds.value_b
            for value in lexicon.scores.values():
                assert lo <= value <= hi


def test_c03_planted_recovery():
    with verdict("criterion 3 (planted-partition recovery)"):
        start = time.perf_counter()
        records, truth = generate(ACCEPTANCE_SPEC)
        tweets = tokenize(records)
        graph = build_cooccurrence(tweets, "hashtag")
        lexicon = propagate_greedy(graph, truth.seeds, gamma=100)

        propagated = [
            item for item, st in lexicon.status.items() if st == STATUS_PROPAGATED
        ]
        assert propagated
        correct = 0
        for item in propagated:
            value = lexicon.scores[item]
            planted = truth.hashtag_labels[item]
            if (planted == POLE_A and value > 0) or (planted == POLE_B and value < 0):
                correct += 1
        assert correct / len(propagated) >= 0.95

        tweet_scores = score_tweets(tweets, lexicon)
        user_scores = score_users(records, tweet_scores)
        classified = {
            user: s for user, s in user_scores.items() if s.value is not None
        }
        assert classified
        agree = sum(
            1
            for user, s in classified.items()
            if ternarize(s.value, lexicon.scale) == truth.user_labels[user]
        )
        assert agree / len(classified) >= 0.90
        assert time.perf_counter() - start < 30.0


def test_c04_unreachable_neutral_hashtags():
    with verdict("criterion 4 (isolated neutral items stay unlabeled)"):
        spec = SynthSpec(
            n_users=200,
            n_tweets=5000,
            hashtags_per_community=100,
            seed_fraction=0.10,
            within=0.95,
            cross=0.0,
            neutral_hashtags=40,
            rng_seed=7,
        )
        records, truth = generate(spec)
        tweets = tokenize(records)
        graph = build_cooccurrence(tweets, "hashtag")
        lexicon = propagate_greedy(graph, truth.seeds, gamma=100)

        neutral_tags = {
            t for t, lab in truth.hashtag_labels.items() if lab == NEUTRAL_LABEL
        }
        assert neutral_tags
        in_graph = set(graph.nodes)
        assert neutral_tags <= in_graph
        unlabeled_neutral = {
            t for t in neutral_tags if lexicon.status[t] == STATUS_UNLABELED
        }
        assert unlabeled_neutral == neutral_tags

        tweet_scores = score_tweets(tweets, lexicon)
        neutral_only = {
            tw.tweet_id for tw in tweets if tw.hashtags and set(tw.hashtags) <= neutral_tags
        }
        assert neutral_only == truth.neutral_tweet_ids
        for tweet_id in neutral_only:
            assert tweet_scores[tweet_id].value is None
            assert tweet_scores[tweet_id].n_items == 0


def test_c05_aggregation_identity_and_ternarize_commute():
    with verdict("criterion 5 (pooled aggregation identity; rescale commutes)"):
        rng = np.random.default_rng(1005)
        for _ in range(1000):
            n_tweets = int(rng.integers(1, 12))
            tweet_scores = {}
            pooled = []
            for t in range(n_tweets):
                n_items = int(rng.integers(0, 7))
                items = [float(v) for v in rng.uniform(-1, 1, size=n_items)]
                value = math.fsum(items) / n_items if n_items else None
                tweet_scores[f"t{t:03d}"] = PolarityScore(value, n_items)
                pooled.extend(items)
            agg = score_aggregate(set(tweet_scores), tweet_scores, BY_ITEM)
            if pooled:
                expected = math.fsum(pooled) / len(pooled)
                assert abs(agg.value - expected) <= 1e-12
            else:
                assert agg.value is None

        values = rng.uniform(-1.0, 1.0, size=10_000)
        mismatches = sum(
            1
            for v in values
            if ternarize(float(v), (-1.0, 1.0))
            != ternarize((float(v) + 1.0) / 2.0, (0.0, 1.0))
        )
        assert mismatches == 0


def test_c06_k_core_oracle_and_nesting():
    with verdict("criterion 6 (k-core equals fixed-point peeling; cores nest)"):
        rng = np.random.default_rng(1006)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            nodes = [f"v{i:03d}" for i in range(n)]
            target_edges = int(rng.integers(0, min(4 * n, n * (n - 1) // 2) + 1))
            edges = set()
            while len(edges) < target_edges:
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    a, b = sorted((nodes[int(i)], nodes[int(j)]))
                    edges.add((a, b))
            graph = CommGraph(nodes=set(nodes), edges={pair: [1, 0] for pair in edges})
            previous = set(nodes)
            for k in (1, 2, 3, 5):
                core = k_core(graph, k)
                assert core.nodes == naive_k_core(set(nodes), edges, k)
                assert core.nodes <= previous
                previous = core.nodes


def test_c07_metric_references():
    with verdict("criterion 7 (pole-metric partition; soft>=acc; alpha oracle)"):
        rng = np.random.default_rng(1007)
        gold_choices = [POLE_A, POLE_B, NEUTRAL]
        pred_choices = [POLE_A, POLE_B, NEUTRAL, UNCLASSIFIED]
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            gold = GoldLabelSet(
                labels={
                    f"k{i}": gold_choices[int(rng.integers(3))] for i in range(n)
                },
            )
            predictions = {
                f"k{i}": pred_choices[int(rng.integers(4))] for i in range(n)
            }
            for pole in (POLE_A, POLE_B):
                if not any(v == pole for v in gold.labels.values()):
                    continue
                m = pole_metrics(predictions, gold, pole)
                assert abs(m.recall + m.pct_unknown + m.pct_incorrect - 1.0) <= 1e-12
            acc, soft = accuracy_soft(predictions, gold)
            assert soft >= acc

        for _ in range(100):
            n = int(rng.integers(2, 60))
            a = [gold_choices[int(rng.integers(3))] for _ in range(n)]
            b = [gold_choices[int(rng.integers(3))] for _ in range(n)]
            assert abs(krippendorff_alpha(a, b) - unitwise_alpha(a, b)) <= 1e-9

        perfect = [gold_choices[int(rng.integers(3))] for _ in range(50)]
        assert krippendorff_alpha(perfect, list(perfect)) == 1.0


def mirror_graph(depth):
    """Path a - m1 - ... - mdepth - b plus mirrored side branches."""
    edges = {}
    chain = ["a"] + [f"m{i}" for i in range(depth)] + ["b"]
    for x, y in zip(chain, chain[1:]):
        edges[(min(x, y), max(x, y))] = 1.0
    edges[("a", "sa")] = 2.0
    edges[("b", "sb")] = 2.0
    return graph_of(edges)


def mirror_of(node, depth):
    if node == "a":
        return "b"
    if node == "b":
        return "a"
    if node == "sa":
        return "sb"
    if node == "sb":
        return "sa"
    i = int(node[1:])
    return f"m{depth - 1 - i}"


def test_c08_random_walk_symmetry_and_dense_oracle():
    with verdict("criterion 8 (walk symmetry; dense power-iteration oracle)"):
        for depth in (2, 3, 5):
            graph = mirror_graph(depth)
            seeds = SeedLexicon("dim", {"a"}, {"b"}, 1.0, 0.0)
            lexicon = propagate_random_walk(graph, seeds, tol=1e-13, max_iter=200_000)
            for node in graph.nodes:
                twin = mirror_of(node, depth)
                assert abs(lexicon.scores[node] + lexicon.scores[twin] - 1.0) <= 1e-6

        rng = np.random.default_rng(1008)
        checked = 0
        for _ in range(25):
            n = int(rng.integers(4, 21))
            nodes = [f"n{i:02d}" for i in range(n)]
            edges = {}
            for pair in combinations(nodes, 2):
                if rng.random() < 0.3:
                    edges[pair] = float(rng.integers(1, 5))
            graph = graph_of(edges, extra_nodes=nodes)
            seeds = SeedLexicon("dim", {nodes[0]}, {nodes[1]}, 1.0, 0.0)
            lexicon = propagate_random_walk(graph, seeds, tol=1e-13, max_iter=200_000)
            p_a = dense_restart_walk(nodes, edges, [nodes[0]], 0.15, 1e-13, 200_000)
            p_b = dense_restart_walk(nodes, edges, [nodes[1]], 0.15, 1e-13, 200_000)
            for node in nodes:
                total = p_a[node] + p_b[node]
                if lexicon.status[node] == STATUS_PROPAGATED:
                    assert abs(lexicon.scores[node] - p_a[node] / total) <= 1e-8
                    checked += 1
                elif lexicon.status[node] == STATUS_UNLABELED:
                    assert total == 0.0
        assert checked > 0


def test_c09_pipeline_byte_determinism(tmp_path):
    with verdict("criterion 9 (pipeline reruns byte-identical)"):
        records, truth = generate(ACCEPTANCE_SPEC)
        corpus_path = tmp_path / "corpus.jsonl"
        seeds_path = tmp_path / "seeds.tsv"
        write_corpus(records, corpus_path)
        write_seed_lexicon(truth.seeds, seeds_path)
        out = tmp_path / "run"
        argv = [
            "pipeline",
            "--corpus", str(corpus_path),
            "--seed-file", str(seeds_path),
            "--out-dir", str(out),
            "--kcore-k", "5",
        ]
        assert cli_main(argv) == 0
        snapshot = {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
        }
        manifest_one = json.loads((out / "manifest.json").read_text())
        assert cli_main(argv) == 0
        for name, blob in snapshot.items():
            assert (out / name).read_bytes() == blob, f"{name} changed between runs"
        manifest_two = json.loads((out / "manifest.json").read_text())
        manifest_one.pop("timestamp")
        manifest_two.pop("timestamp")
        assert manifest_one == manifest_two
        assert set(snapshot) <= set(manifest_two["outputs"])


def test_c10_scale_budget():
    with verdict("criterion 10 (100k tweets, 10k vocabulary under 5 minutes)"):
        spec = SynthSpec(
            n_users=2000,
            n_tweets=100_000,
            hashtags_per_community=5000,
            seed_fraction=0.10,
            within=0.95,
            cross=0.05,
            rng_seed=7,
        )
        records, truth = generate(spec)
        start = time.perf_counter()
        tweets = tokenize(records)
        graph = build_cooccurrence(tweets, "hashtag")
        assert graph.num_nodes == 10_000
        lexicon = propagate_greedy(graph, truth.seeds, gamma=100)
        tweet_scores = score_tweets(tweets, lexicon)
        user_scores = score_users(records, tweet_scores)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        assert len(tweet_scores) == 100_000
        assert user_scores
