"""Seeded input generators for the benchmark workloads.

Each generator writes corpus.jsonl, seeds_community.tsv and gold_users.tsv
(plus embeddings.txt for the embedding workload) into a directory and returns
the number of tweets. The bytes depend only on the seed and the constants
below. Nothing here imports polarlex, so a change to the program cannot
change its benchmark inputs or the cost of writing them.

All three corpora share one user model: users alternate between pole A
(even index) and pole B (odd index), and 30% of tweets interact with another
user (retweet, mention or reply, a third each), from the author's own pole
with probability 0.9. Timestamps are uniform over ten days.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

BASE_TIME = datetime(2020, 1, 1, tzinfo=timezone.utc)
N_DAYS = 10
DIMENSION = "community"
P_INTERACTION = 0.3
INTERACTION_HOMOPHILY = 0.9

# hashtag: the c10 acceptance spec (2000 users, 100k tweets, 5000 hashtags per
# community, seeds 10% of each pole's used hashtags), with synthgen's
# distribution: 1-4 tags per tweet, each from the author's pole with p 0.95.
HASHTAG_USERS = 2000
HASHTAG_TWEETS = 100_000
HASHTAG_PER_COMMUNITY = 5000
HASHTAG_P_OWN = 0.95
HASHTAG_SEED_FRACTION = 0.10

# token-zipf: two community vocabularies over one shared Zipf vocabulary.
# About 30k distinct words reach the corpus and the graph has about 670k
# edges: roughly half the ROADMAP's 50k-node / 1M-edge token workload, so
# that one pipeline pass fits in a benchmark run.
ZIPF_USERS = 2000
ZIPF_TWEETS = 20_000
ZIPF_SHARED = 40_000
ZIPF_COMMUNITY = 8_000
ZIPF_EXPONENT = 1.05
ZIPF_TOKENS = (8, 15)  # tokens per tweet, inclusive
ZIPF_P_COMMUNITY = 0.35  # share of a tweet's tokens from its author's community
ZIPF_SEEDS = 40  # per pole: the most frequent words of each community vocabulary

# embedding-knn: two planted clusters in 100 dimensions.
EMB_TOKENS = 20_000
EMB_DIM = 100
EMB_SEPARATION = 0.35  # cluster offset against unit-variance noise per coordinate
EMB_USERS = 1000
EMB_TWEETS = 10_000
EMB_TOKENS_PER_TWEET = (4, 9)
EMB_P_OWN = 0.8  # share of a tweet's tokens from its author's cluster
EMB_SEEDS = 25


def _write_corpus(out: Path, rng: np.random.Generator, n_users: int,
                  authors: np.ndarray, texts: list[str]) -> None:
    """Write corpus.jsonl and gold_users.tsv for the given authors and texts."""
    n = len(texts)
    author_pole = authors % 2
    interact = rng.random(n) < P_INTERACTION
    same = rng.random(n) < INTERACTION_HOMOPHILY
    # A target from the author's own pole is drawn among the other users of it.
    per_pole = n_users // 2
    slot = np.floor(rng.random(n) * np.where(same, per_pole - 1, per_pole)).astype(np.int64)
    slot += same & (slot >= authors // 2)
    target = 2 * slot + np.where(same, author_pole, 1 - author_pole)
    kind = rng.integers(0, 3, size=n)
    offsets = rng.integers(0, N_DAYS * 86_400, size=n)
    participants = set(authors.tolist()) | set(target[interact].tolist())
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n):
            other = f"u{target[i]:05d}" if interact[i] else None
            obj = {
                "is_retweet": bool(interact[i] and kind[i] == 0),
                "mentions": [other] if interact[i] and kind[i] == 1 else [],
                "reply_to_user": other if kind[i] == 2 else None,
                "retweet_of_user": other if kind[i] == 0 else None,
                "text": texts[i],
                "timestamp": (BASE_TIME + timedelta(seconds=int(offsets[i]))).isoformat(),
                "tweet_id": f"t{i:07d}",
                "user_id": f"u{authors[i]:05d}",
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    with open(out / "gold_users.tsv", "w", encoding="utf-8") as fh:
        for u in sorted(participants):
            fh.write(f"u{u:05d}\t{'pole_a' if u % 2 == 0 else 'pole_b'}\n")


def _write_seeds(out: Path, pole_a, pole_b, value_b: str) -> None:
    with open(out / f"seeds_{DIMENSION}.tsv", "w", encoding="utf-8") as fh:
        fh.write(f"#dimension={DIMENSION}\tvalue_a=1.000000000\tvalue_b={value_b}\n")
        for item in sorted(pole_a):
            fh.write(f"{item}\tA\n")
        for item in sorted(pole_b):
            fh.write(f"{item}\tB\n")


def _split(words: np.ndarray, lengths: np.ndarray, sep: str) -> list[str]:
    bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
    flat = words.tolist()
    return [sep.join(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def hashtag(out: Path, seed: int) -> int:
    rng = np.random.default_rng([seed, 0])
    authors = rng.integers(0, HASHTAG_USERS, size=HASHTAG_TWEETS)
    lengths = rng.integers(1, 5, size=HASHTAG_TWEETS)
    slot_pole = np.repeat(authors % 2, lengths)
    total = len(slot_pole)
    slot_pole = np.where(rng.random(total) < HASHTAG_P_OWN, slot_pole, 1 - slot_pole)
    index = rng.integers(0, HASHTAG_PER_COMMUNITY, size=total)
    names = np.array([[f"h{p}{i:04d}" for i in range(HASHTAG_PER_COMMUNITY)] for p in "ab"])
    tags = names[slot_pole, index]
    out.mkdir(parents=True, exist_ok=True)
    _write_corpus(out, rng, HASHTAG_USERS, authors, ["#" + t for t in _split(tags, lengths, " #")])
    seeds = []
    for pole in (0, 1):
        used = np.unique(index[slot_pole == pole])
        k = max(1, round(HASHTAG_SEED_FRACTION * len(used)))
        seeds.append(names[pole, rng.choice(used, size=k, replace=False)].tolist())
    _write_seeds(out, seeds[0], seeds[1], "-1.000000000")
    return HASHTAG_TWEETS


def _zipf_ranks(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT)
    return np.minimum(np.searchsorted(cdf / cdf[-1], rng.random(size)), n - 1)


def token_zipf(out: Path, seed: int) -> int:
    rng = np.random.default_rng([seed, 1])
    # Shuffled names, so lexicographic order says nothing about a word's pole.
    names = np.array([f"w{i:06d}" for i in rng.permutation(ZIPF_SHARED + 2 * ZIPF_COMMUNITY)])
    shared = names[:ZIPF_SHARED]
    community = names[ZIPF_SHARED:].reshape(2, ZIPF_COMMUNITY)
    authors = rng.integers(0, ZIPF_USERS, size=ZIPF_TWEETS)
    lengths = rng.integers(ZIPF_TOKENS[0], ZIPF_TOKENS[1] + 1, size=ZIPF_TWEETS)
    total = int(lengths.sum())
    shared_rank = _zipf_ranks(rng, ZIPF_SHARED, total)
    community_rank = _zipf_ranks(rng, ZIPF_COMMUNITY, total)
    from_community = rng.random(total) < ZIPF_P_COMMUNITY
    pole = np.repeat(authors % 2, lengths)
    words = np.where(from_community, community[pole, community_rank], shared[shared_rank])
    out.mkdir(parents=True, exist_ok=True)
    _write_corpus(out, rng, ZIPF_USERS, authors, _split(words, lengths, " "))
    _write_seeds(out, community[0, :ZIPF_SEEDS], community[1, :ZIPF_SEEDS], "-1.000000000")
    return ZIPF_TWEETS


def embedding_knn(out: Path, seed: int) -> int:
    rng = np.random.default_rng([seed, 2])
    names = np.array([f"e{i:05d}" for i in range(EMB_TOKENS)])
    token_pole = rng.permutation(np.arange(EMB_TOKENS) % 2)
    direction = rng.standard_normal(EMB_DIM)
    direction *= EMB_SEPARATION * np.sqrt(EMB_DIM) / np.linalg.norm(direction)
    vectors = rng.standard_normal((EMB_TOKENS, EMB_DIM))
    vectors += np.where(token_pole[:, None] == 0, direction, -direction)
    out.mkdir(parents=True, exist_ok=True)
    row_format = " ".join(["%.6f"] * EMB_DIM)
    with open(out / "embeddings.txt", "w", encoding="utf-8") as fh:
        for name, row in zip(names.tolist(), vectors.tolist()):
            fh.write(f"{name} {row_format % tuple(row)}\n")

    by_pole = np.stack([names[token_pole == p] for p in (0, 1)])
    authors = rng.integers(0, EMB_USERS, size=EMB_TWEETS)
    lengths = rng.integers(EMB_TOKENS_PER_TWEET[0], EMB_TOKENS_PER_TWEET[1] + 1,
                           size=EMB_TWEETS)
    total = int(lengths.sum())
    pole = np.repeat(authors % 2, lengths)
    pole = np.where(rng.random(total) < EMB_P_OWN, pole, 1 - pole)
    words = by_pole[pole, rng.integers(0, EMB_TOKENS // 2, size=total)]
    _write_corpus(out, rng, EMB_USERS, authors, _split(words, lengths, " "))
    _write_seeds(out, by_pole[0, :EMB_SEEDS], by_pole[1, :EMB_SEEDS], "0.000000000")
    return EMB_TWEETS
