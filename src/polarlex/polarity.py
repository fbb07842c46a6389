"""Aggregate lexicon scores to tweets, users, groups, and days; ternarize; tally."""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .corpus import HASHTAG_MODE, TOKEN_MODE, TokenizedTweet, TweetRecord
from .errors import ConfigError, DataError
from .ioutil import (
    MAX_MAGNITUDE, check_dimension_name, csv_field, fmt9, open_text, read_rows, write_csv,
)

if TYPE_CHECKING:
    from .proplabel import PolarityLexicon

log = logging.getLogger(__name__)

POLE_A = "pole_a"
POLE_B = "pole_b"
NEUTRAL = "neutral"
UNCLASSIFIED = "unclassified"

TERNARY_LABELS = (POLE_A, POLE_B, NEUTRAL, UNCLASSIFIED)

BY_ITEM = "by_item"
BY_TWEET = "by_tweet"


@dataclass(slots=True)
class PolarityScore:
    """Mean lexicon score of some unit; value is None when nothing matched."""

    value: float | None
    n_items: int

    @property
    def classified(self) -> bool:
        return self.value is not None


@dataclass
class DayStat:
    day: date
    mean: float | None
    std: float | None
    n: int
    n_unclassified: int


@dataclass
class DailySeries:
    group_name: str
    days: list[DayStat]


@dataclass
class TallyRow:
    label: str
    n_users: int
    pct_users: float
    n_tweets: int
    pct_tweets: float


def score_tweets(
    tweets: Sequence[TokenizedTweet],
    lexicon: PolarityLexicon,
    mode: str = HASHTAG_MODE,
) -> dict[str, PolarityScore]:
    """Per-tweet mean of lexicon scores over the tweet's items.

    Hashtag mode uses the tweet's deduplicated hashtags; token mode uses
    every token occurrence. Unlabeled items are ignored; a tweet with no
    labeled items is unclassified.
    """
    if mode not in (HASHTAG_MODE, TOKEN_MODE):
        raise ConfigError(f"unknown scoring mode {mode!r}")
    scores = lexicon.scores
    out: dict[str, PolarityScore] = {}
    for tw in tweets:
        items = tw.hashtags if mode == HASHTAG_MODE else tw.tokens
        hits = [scores[i] for i in items if i in scores]
        value = math.fsum(hits) / len(hits) if hits else None
        out[tw.tweet_id] = PolarityScore(value, len(hits))
    return out


def score_aggregate(
    tweet_ids: Iterable[str],
    tweet_scores: Mapping[str, PolarityScore],
    weighting: str = BY_ITEM,
) -> PolarityScore:
    """Polarity of a set of tweets.

    by_item pools every labeled item occurrence across the tweets; by_tweet
    averages the classified per-tweet values without weighting.
    """
    if weighting not in (BY_ITEM, BY_TWEET):
        raise ConfigError(f"unknown weighting {weighting!r}")
    picked = (tweet_scores[t] for t in tweet_ids)
    classified = [s for s in picked if s.value is not None]
    if not classified:
        return PolarityScore(None, 0)
    n_items = sum(s.n_items for s in classified)
    if weighting == BY_ITEM:
        value = math.fsum(s.value * s.n_items for s in classified) / n_items
    else:
        value = math.fsum(s.value for s in classified) / len(classified)
    return PolarityScore(value, n_items)


def score_users(
    corpus: Sequence[TweetRecord],
    tweet_scores: Mapping[str, PolarityScore],
    weighting: str = BY_ITEM,
) -> dict[str, PolarityScore]:
    """Aggregate scored tweets per author."""
    by_user: dict[str, list[str]] = {}
    for record in corpus:
        by_user.setdefault(record.user_id, []).append(record.tweet_id)
    return {
        user: score_aggregate(ids, tweet_scores, weighting)
        for user, ids in sorted(by_user.items())
    }


def ternarize(value: float | None, scale: tuple[float, float]) -> str:
    """Collapse a score to pole_b / neutral / pole_a around the scale midpoint."""
    if value is None:
        return UNCLASSIFIED
    lo, hi = scale
    mid = (lo + hi) / 2.0
    if value < mid:
        return POLE_B
    if value > mid:
        return POLE_A
    return NEUTRAL


def overall_tally(
    user_scores: Mapping[str, PolarityScore],
    tweet_scores: Mapping[str, PolarityScore],
    scale: tuple[float, float],
) -> list[TallyRow]:
    """Count users and tweets per ternary class; exact percentages retained."""
    if not user_scores and not tweet_scores:
        return []
    user_counts = Counter(ternarize(s.value, scale) for s in user_scores.values())
    tweet_counts = Counter(ternarize(s.value, scale) for s in tweet_scores.values())
    n_users = len(user_scores)
    n_tweets = len(tweet_scores)
    return [
        TallyRow(
            label=label,
            n_users=user_counts[label],
            pct_users=100.0 * user_counts[label] / n_users if n_users else 0.0,
            n_tweets=tweet_counts[label],
            pct_tweets=100.0 * tweet_counts[label] / n_tweets if n_tweets else 0.0,
        )
        for label in TERNARY_LABELS
    ]


def daily_series(
    corpus: Sequence[TweetRecord],
    tweet_scores: Mapping[str, PolarityScore],
    membership: Mapping[str, str],
) -> list[DailySeries]:
    """Per-group daily mean / population sigma / counts over classified tweets.

    Every group in the membership map is emitted over the full corpus day
    range; days with no classified tweets get count 0 and no mean. Membership
    users absent from the corpus are counted and logged.
    """
    groups = sorted(set(membership.values()))
    if not corpus:
        return [DailySeries(g, []) for g in groups]
    days_seen = [r.day() for r in corpus]
    first, last = min(days_seen), max(days_seen)
    window = [first + timedelta(days=i) for i in range((last - first).days + 1)]

    values: dict[tuple[str, date], list[float]] = {}
    unclassified: dict[tuple[str, date], int] = {}
    active_users: set[str] = set()
    for record, day in zip(corpus, days_seen):
        active_users.add(record.user_id)
        group = membership.get(record.user_id)
        if group is None:
            continue
        key = (group, day)
        score = tweet_scores.get(record.tweet_id)
        if score is not None and score.value is not None:
            values.setdefault(key, []).append(score.value)
        else:
            unclassified[key] = unclassified.get(key, 0) + 1

    n_unknown = sum(1 for u in membership if u not in active_users)
    if n_unknown:
        log.warning("%d membership users have no tweets in the corpus", n_unknown)

    series: list[DailySeries] = []
    for group in groups:
        stats: list[DayStat] = []
        for day in window:
            vals = values.get((group, day), [])
            n = len(vals)
            if n:
                mean = math.fsum(vals) / n
                std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / n)
            else:
                mean = std = None
            stats.append(DayStat(day, mean, std, n, unclassified.get((group, day), 0)))
        series.append(DailySeries(group, stats))
    return series


# ---------------------------------------------------------------------------
# file formats

def write_score_csv(
    scores_by_dim: Mapping[str, Mapping[str, PolarityScore]],
    path: str | Path,
    key_column: str,
) -> dict[str, Mapping[str, PolarityScore]]:
    """One row per dimension and key: dimensions sorted, keys in each mapping's order.

    Values must be at most ioutil.MAX_MAGNITUDE in magnitude, as
    read_score_csv reads no larger one; means of lexicon scores always are.
    Returns the scores as read_score_csv gives them back: each value is
    rounded in place to its written text, and a dimension with no rows is left
    out.
    """
    def lines() -> Iterator[str]:
        for dim in sorted(scores_by_dim):
            scores = scores_by_dim[dim]
            dim_field = csv_field(dim)
            for key, s in scores.items():
                text = ""
                if s.value is not None:
                    text = fmt9(s.value)
                    s.value = float(text)
                yield f"{csv_field(key)},{dim_field},{text},{s.n_items}\n"

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{csv_field(key_column)},dimension,value,n_items\n")
        fh.writelines(lines())
    return {dim: scores for dim, scores in scores_by_dim.items() if scores}


def read_score_csv(path: str | Path) -> dict[str, dict[str, PolarityScore]]:
    out: dict[str, dict[str, PolarityScore]] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[1:] != ["dimension", "value", "n_items"]:
            raise DataError(f"{path}: line 1: expected a '<key>,dimension,value,n_items' header")
        for row in reader:
            if not row or len(row) == 1 and row[0].isspace():
                continue
            lineno = reader.line_num
            if len(row) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            key, dim, raw_value, raw_n = row
            try:
                value = float(raw_value) if raw_value else None
                n_items = int(raw_n)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad numeric field") from exc
            if value is not None and not abs(value) <= MAX_MAGNITUDE:
                raise DataError(f"{path}: line {lineno}: value is not finite "
                                f"or its magnitude is over {MAX_MAGNITUDE:g}")
            if n_items < 0:
                raise DataError(f"{path}: line {lineno}: n_items is negative")
            if (value is None) != (n_items == 0):
                raise DataError(f"{path}: line {lineno}: value and n_items disagree")
            by_key = out.get(dim)
            if by_key is None:
                by_key = out[check_dimension_name(path, lineno, dim)] = {}
            elif key in by_key:
                raise DataError(f"{path}: line {lineno}: duplicate {header[0]} {key!r} in {dim!r}")
            by_key[key] = PolarityScore(value, n_items)
    return out


def write_daily_series_csv(series: Sequence[DailySeries], path: str | Path) -> None:
    write_csv(
        path,
        ["group", "date", "mean", "std", "n", "n_unclassified"],
        (
            [s.group_name, d.day.isoformat(), d.mean, d.std, d.n, d.n_unclassified]
            for s in series
            for d in s.days
        ),
    )


def write_tally_csv(
    tallies_by_dim: Mapping[str, Sequence[TallyRow]], path: str | Path
) -> None:
    write_csv(
        path,
        ["dimension", "class", "n_users", "pct_users", "n_tweets", "pct_tweets"],
        (
            [dim, r.label, r.n_users, r.pct_users, r.n_tweets, r.pct_tweets]
            for dim in sorted(tallies_by_dim)
            for r in tallies_by_dim[dim]
        ),
    )


def read_membership(path: str | Path) -> dict[str, str]:
    """user_id <TAB> group_name rows."""
    return {
        user: group
        for _, (user, group) in read_rows(path, "\t", 2, key="user", comments=True)
    }
