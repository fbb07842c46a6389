"""Synthetic two-community corpora with planted polarity ground truth.

Randomness comes from numpy's PCG64 generator, so a corpus is fully
reproducible from the spec plus rng_seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .corpus import TweetRecord
from .errors import ConfigError
from .polarity import POLE_A, POLE_B
from .proplabel import SeedLexicon

BASE_TIME = datetime(2020, 1, 1, tzinfo=timezone.utc)

NEUTRAL_LABEL = "neutral"

# The share of tweets that retweet, mention or reply to another user, the share
# of those whose target is in the author's community, and the seed dimension.
P_INTERACTION = 0.3
INTERACTION_HOMOPHILY = 0.9
DIMENSION = "community"


@dataclass
class SynthSpec:
    """Generator knobs, each also a CLI flag; probabilities are per tag slot or per tweet."""

    n_users: int = 200
    n_tweets: int = 5000
    hashtags_per_community: int = 100
    seed_fraction: float = 0.1
    within: float = 0.95
    cross: float = 0.05
    neutral_hashtags: int = 0
    days: int = 10
    rng_seed: int = 0

    def validate(self) -> None:
        if self.n_users < 2:
            raise ConfigError("n_users must be >= 2 (one per community)")
        if self.n_tweets < 1:
            raise ConfigError("n_tweets must be >= 1")
        if self.hashtags_per_community < 1:
            raise ConfigError("hashtags_per_community must be >= 1")
        if not 0.0 < self.seed_fraction <= 1.0:
            raise ConfigError("seed_fraction must be in (0, 1]")
        for name in ("within", "cross"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.within + self.cross > 1.0 + 1e-12:
            raise ConfigError("within + cross must not exceed 1")
        if self.neutral_hashtags < 0:
            raise ConfigError("neutral_hashtags must be >= 0")
        if self.days < 1:
            raise ConfigError("days must be >= 1")
        if self.within + self.cross == 0.0 and self.neutral_hashtags == 0:
            raise ConfigError("no tag source: within + cross is 0 and no neutral pool")


@dataclass
class SynthTruth:
    """Generator bookkeeping: planted classes for users, hashtags, and tweets."""

    user_labels: dict[str, str]
    hashtag_labels: dict[str, str]
    seeds: SeedLexicon
    neutral_tweet_ids: set[str] = field(default_factory=set)


def generate(spec: SynthSpec) -> tuple[list[TweetRecord], SynthTruth]:
    """Build a corpus of hashtag-only tweets with planted communities.

    Each tweet is either neutral (all tags from the neutral pool, keeping
    neutral hashtags disconnected from the polar communities) or polar, in
    which case each of its 1-4 tag slots draws from the author's community
    or the other one in proportion within : cross. Interactions pick a
    same-community target with probability INTERACTION_HOMOPHILY.
    """
    # imported here so that the CLI, whose RunConfig is a SynthSpec, starts without it
    import numpy as np

    spec.validate()
    rng = np.random.default_rng(np.random.PCG64(spec.rng_seed))

    users = [f"u{i:05d}" for i in range(spec.n_users)]
    community = {u: (POLE_A if i % 2 == 0 else POLE_B) for i, u in enumerate(users)}
    pools = {
        POLE_A: [f"ha{i:04d}" for i in range(spec.hashtags_per_community)],
        POLE_B: [f"hb{i:04d}" for i in range(spec.hashtags_per_community)],
    }
    neutral_pool = [f"nt{i:04d}" for i in range(spec.neutral_hashtags)]
    users_by_community = {
        POLE_A: [u for u in users if community[u] == POLE_A],
        POLE_B: [u for u in users if community[u] == POLE_B],
    }

    p_polar = spec.within + spec.cross
    p_own = spec.within / p_polar if p_polar > 0 else 0.0
    window_seconds = spec.days * 86400

    records: list[TweetRecord] = []
    used_tags: dict[str, set[str]] = {POLE_A: set(), POLE_B: set(), NEUTRAL_LABEL: set()}
    neutral_tweet_ids: set[str] = set()
    participants: set[str] = set()

    for k in range(spec.n_tweets):
        author = users[int(rng.integers(spec.n_users))]
        own = community[author]
        other = POLE_B if own == POLE_A else POLE_A
        tweet_id = f"t{k:07d}"
        is_neutral = bool(neutral_pool) and float(rng.random()) >= p_polar
        n_tags = int(rng.integers(1, 5))
        tags: list[str] = []
        if is_neutral:
            for _ in range(n_tags):
                tags.append(neutral_pool[int(rng.integers(len(neutral_pool)))])
            neutral_tweet_ids.add(tweet_id)
            used_tags[NEUTRAL_LABEL].update(tags)
        else:
            for _ in range(n_tags):
                pool_label = own if float(rng.random()) < p_own else other
                pool = pools[pool_label]
                tag = pool[int(rng.integers(len(pool)))]
                tags.append(tag)
                used_tags[pool_label].add(tag)

        interaction: dict[str, object] = {}
        if float(rng.random()) < P_INTERACTION:
            same = float(rng.random()) < INTERACTION_HOMOPHILY
            # n_users >= 2, so when the drawn community holds no other user
            # the fallback pool does
            target_pool = [
                u for u in users_by_community[own if same else other] if u != author
            ] or [u for u in users if u != author]
            target = target_pool[int(rng.integers(len(target_pool)))]
            interaction = (
                {"is_retweet": True, "retweet_of_user": target},
                {"mentions": (target,)},
                {"reply_to_user": target},
            )[int(rng.integers(3))]
            participants.add(target)

        timestamp = BASE_TIME + timedelta(seconds=int(rng.integers(window_seconds)))
        participants.add(author)
        records.append(
            TweetRecord(
                tweet_id=tweet_id,
                user_id=author,
                timestamp=timestamp,
                text=" ".join(f"#{t}" for t in tags),
                **interaction,
            )
        )

    seed_sets: dict[str, set[str]] = {}
    for pole in (POLE_A, POLE_B):
        used = sorted(used_tags[pole])
        if not used:
            raise ConfigError(
                f"community {pole} has no hashtags in the generated corpus; "
                "increase n_tweets or within"
            )
        # 0 < seed_fraction <= 1, so 1 <= k <= len(used)
        k = max(1, round(spec.seed_fraction * len(used)))
        picked = rng.choice(len(used), size=k, replace=False)
        seed_sets[pole] = {used[int(i)] for i in picked}

    seeds = SeedLexicon(
        dimension_name=DIMENSION,
        pole_a_items=seed_sets[POLE_A],
        pole_b_items=seed_sets[POLE_B],
        value_a=1.0,
        value_b=-1.0,
    )
    truth = SynthTruth(
        user_labels={u: community[u] for u in sorted(participants)},
        hashtag_labels={
            tag: label for label, tags in used_tags.items() for tag in sorted(tags)
        },
        seeds=seeds,
        neutral_tweet_ids=neutral_tweet_ids,
    )
    return records, truth
