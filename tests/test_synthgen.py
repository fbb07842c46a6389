from collections import Counter

import pytest

from polarlex.corpus import tokenize
from polarlex.errors import ConfigError
from polarlex.lexgraph import build_cooccurrence
from polarlex.polarity import POLE_A
from polarlex.proplabel import propagate_greedy
from polarlex.synthgen import NEUTRAL_LABEL, P_INTERACTION, SynthSpec, generate

from graphs import adjacency


def connected_components(graph):
    adj = adjacency(graph)
    seen = set()
    components = []
    for start in graph.nodes:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = set()
        while stack:
            node = stack.pop()
            comp.add(node)
            for nbr in adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        components.append(comp)
    return components


class TestGenerate:
    def test_fixed_seed_reproducible(self):
        spec = SynthSpec(n_users=20, n_tweets=200, hashtags_per_community=10, rng_seed=11)
        first_records, first_truth = generate(spec)
        second_records, second_truth = generate(spec)
        assert first_records == second_records
        assert first_truth == second_truth

    def test_different_seed_differs(self):
        base = SynthSpec(n_users=20, n_tweets=200, hashtags_per_community=10, rng_seed=1)
        other = SynthSpec(n_users=20, n_tweets=200, hashtags_per_community=10, rng_seed=2)
        assert generate(base)[0] != generate(other)[0]

    def test_no_cross_no_neutral_two_components(self):
        spec = SynthSpec(
            n_users=30,
            n_tweets=600,
            hashtags_per_community=8,
            within=1.0,
            cross=0.0,
            neutral_hashtags=0,
            rng_seed=3,
        )
        records, _ = generate(spec)
        graph = build_cooccurrence(tokenize(records), "hashtag")
        comps = [c for c in connected_components(graph) if len(c) > 1]
        assert len(comps) == 2
        prefixes = {tag[:2] for comp in comps for tag in comp}
        assert prefixes == {"ha", "hb"}

    def test_bookkeeping_matches_corpus_scan(self):
        spec = SynthSpec(
            n_users=200, n_tweets=5000, hashtags_per_community=100,
            within=0.95, cross=0.05, rng_seed=5,
        )
        records, _ = generate(spec)
        assert len(records) == 5000

    def test_truth_and_corpus_mutually_consistent(self):
        spec = SynthSpec(
            n_users=40, n_tweets=400, hashtags_per_community=20,
            neutral_hashtags=5, within=0.9, cross=0.05, rng_seed=9,
        )
        records, truth = generate(spec)
        corpus_users = {r.user_id for r in records}
        for r in records:
            corpus_users.update(r.mentions)
            if r.retweet_of_user:
                corpus_users.add(r.retweet_of_user)
            if r.reply_to_user:
                corpus_users.add(r.reply_to_user)
        assert set(truth.user_labels) <= corpus_users
        corpus_tags = set()
        for tw in tokenize(records):
            corpus_tags.update(tw.hashtags)
        assert set(truth.hashtag_labels) == corpus_tags
        assert truth.seeds.pole_a_items <= corpus_tags
        assert truth.seeds.pole_b_items <= corpus_tags

    def test_neutral_tweets_contain_only_neutral_tags(self):
        spec = SynthSpec(
            n_users=30, n_tweets=500, hashtags_per_community=10,
            within=0.8, cross=0.0, neutral_hashtags=6, rng_seed=13,
        )
        records, truth = generate(spec)
        assert truth.neutral_tweet_ids
        neutral_tags = {
            t for t, lab in truth.hashtag_labels.items() if lab == NEUTRAL_LABEL
        }
        tags_by_id = {tw.tweet_id: set(tw.hashtags) for tw in tokenize(records)}
        for tweet_id in truth.neutral_tweet_ids:
            assert tags_by_id[tweet_id] <= neutral_tags
        for r in records:
            if r.tweet_id not in truth.neutral_tweet_ids:
                assert not tags_by_id[r.tweet_id] & neutral_tags

    def test_interactions_present(self):
        spec = SynthSpec(n_users=30, n_tweets=300, hashtags_per_community=10, rng_seed=17)
        records, _ = generate(spec)
        kinds = Counter()
        for r in records:
            if r.retweet_of_user:
                kinds["retweet"] += 1
                assert r.is_retweet
            if r.mentions:
                kinds["mention"] += 1
            if r.reply_to_user:
                kinds["reply"] += 1
        assert set(kinds) == {"retweet", "mention", "reply"}
        # one kind per interacting tweet, drawn at the P_INTERACTION rate
        assert abs(sum(kinds.values()) / len(records) - P_INTERACTION) < 0.1

    def test_infeasible_specs_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(seed_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            SynthSpec(within=0.9, cross=0.2).validate()
        with pytest.raises(ConfigError):
            SynthSpec(n_users=1).validate()
        with pytest.raises(ConfigError):
            SynthSpec(within=0.0, cross=0.0, neutral_hashtags=0).validate()

    def test_cross_zero_propagation_copies_seed_values_exactly(self):
        spec = SynthSpec(
            n_users=30, n_tweets=800, hashtags_per_community=12,
            within=1.0, cross=0.0, rng_seed=21,
        )
        records, truth = generate(spec)
        graph = build_cooccurrence(tokenize(records), "hashtag")
        lexicon = propagate_greedy(graph, truth.seeds, gamma=2)
        for item, value in lexicon.scores.items():
            expected = 1.0 if truth.hashtag_labels[item] == POLE_A else -1.0
            assert value == expected
