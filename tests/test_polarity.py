import math
import tracemalloc
from datetime import date

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarlex.corpus import TokenizedTweet, TweetRecord, parse_timestamp
from polarlex.errors import ConfigError, DataError
from polarlex.ioutil import MAX_MAGNITUDE
from polarlex.polarity import (
    BY_ITEM,
    BY_TWEET,
    NEUTRAL,
    POLE_A,
    POLE_B,
    UNCLASSIFIED,
    PolarityScore,
    daily_series,
    overall_tally,
    read_membership,
    read_score_csv,
    score_aggregate,
    score_tweets,
    score_users,
    ternarize,
    write_score_csv,
)
from polarlex.proplabel import PolarityLexicon, STATUS_PROPAGATED, STATUS_SEED

from oracles import csv_write_score_csv


def lexicon_fixture():
    scores = {"h1": 1.0, "h2": -1.0, "h3": 0.5}
    status = {"h1": STATUS_SEED, "h2": STATUS_SEED, "h3": STATUS_PROPAGATED, "h4": "unlabeled"}
    return PolarityLexicon("dim", scores, status, (-1.0, 1.0))


def tt(tweet_id, tags, tokens=None):
    return TokenizedTweet(tweet_id, tuple(tags), tuple(tokens or tags))


def record(tweet_id, user, ts="2020-01-01T10:00:00Z"):
    return TweetRecord(tweet_id, user, parse_timestamp(ts), "")


class TestScoreTweets:
    def test_symmetric_mean(self):
        scores = score_tweets([tt("t1", ["h1", "h2"])], lexicon_fixture())
        assert scores["t1"].value == 0.0
        assert scores["t1"].n_items == 2

    def test_no_hashtags_unclassified(self):
        scores = score_tweets([tt("t1", [], ["word"])], lexicon_fixture())
        assert scores["t1"].value is None
        assert scores["t1"].n_items == 0

    def test_unlabeled_items_ignored(self):
        scores = score_tweets([tt("t1", ["h1", "h3", "h4"])], lexicon_fixture())
        assert scores["t1"].value == pytest.approx(0.75)
        assert scores["t1"].n_items == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="^unknown scoring mode 'embedding'$"):
            score_tweets([tt("t1", ["h1"])], lexicon_fixture(), mode="embedding")

    def test_token_mode_counts_repeats(self):
        tweets = [tt("t1", ["h1"], ["h1", "h1", "h2"])]
        scores = score_tweets(tweets, lexicon_fixture(), mode="token")
        assert scores["t1"].value == pytest.approx((1.0 + 1.0 - 1.0) / 3)
        assert scores["t1"].n_items == 3


    def test_scores_keep_no_instance_dict(self):
        # one score per tweet per dimension is held at once
        assert not hasattr(PolarityScore(0.5, 1), "__dict__")


class TestScoreAggregate:
    def test_single_tweet_same_under_both_weightings(self):
        scores = score_tweets([tt("t1", ["h1", "h3"])], lexicon_fixture())
        for weighting in (BY_ITEM, BY_TWEET):
            agg = score_aggregate({"t1"}, scores, weighting)
            assert agg.value == scores["t1"].value
            assert agg.n_items == 2

    def test_weightings_differ(self):
        tweet_scores = {
            "ta": PolarityScore(1.0, 2),   # items +1, +1
            "tb": PolarityScore(-1.0, 1),  # item -1
        }
        assert score_aggregate({"ta", "tb"}, tweet_scores, BY_ITEM).value == pytest.approx(1 / 3)
        assert score_aggregate({"ta", "tb"}, tweet_scores, BY_TWEET).value == pytest.approx(0.0)

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ConfigError, match="^unknown weighting 'by_day'$"):
            score_aggregate({"t1"}, {"t1": PolarityScore(1.0, 1)}, "by_day")

    def test_all_unclassified(self):
        tweet_scores = {"t1": PolarityScore(None, 0)}
        agg = score_aggregate({"t1"}, tweet_scores)
        assert agg.value is None and agg.n_items == 0

    @given(
        st.lists(
            st.lists(st.floats(min_value=-1, max_value=1), min_size=0, max_size=6),
            min_size=1,
            max_size=20,
        )
    )
    def test_by_item_equals_pooled_mean(self, item_lists):
        tweet_scores = {}
        pooled = []
        for i, items in enumerate(item_lists):
            value = math.fsum(items) / len(items) if items else None
            tweet_scores[f"t{i:03d}"] = PolarityScore(value, len(items))
            pooled.extend(items)
        agg = score_aggregate(set(tweet_scores), tweet_scores, BY_ITEM)
        if pooled:
            assert agg.value == pytest.approx(math.fsum(pooled) / len(pooled), abs=1e-12)
        else:
            assert agg.value is None

    def test_score_users_groups_by_author(self):
        records = [record("t1", "u1"), record("t2", "u1"), record("t3", "u2")]
        tweet_scores = {
            "t1": PolarityScore(1.0, 1),
            "t2": PolarityScore(0.0, 1),
            "t3": PolarityScore(None, 0),
        }
        users = score_users(records, tweet_scores)
        assert users["u1"].value == pytest.approx(0.5)
        assert users["u2"].value is None


class TestTernarize:
    def test_positive_is_pole_a(self):
        assert ternarize(0.33, (-1.0, 1.0)) == POLE_A

    def test_exact_zero_is_neutral(self):
        assert ternarize(0.0, (-1.0, 1.0)) == NEUTRAL

    def test_negative_is_pole_b(self):
        assert ternarize(-1e-12, (-1.0, 1.0)) == POLE_B

    def test_unit_scale_midpoint(self):
        assert ternarize(0.5, (0.0, 1.0)) == NEUTRAL
        assert ternarize(0.51, (0.0, 1.0)) == POLE_A
        assert ternarize(0.49, (0.0, 1.0)) == POLE_B

    def test_unclassified_passthrough(self):
        assert ternarize(None, (-1.0, 1.0)) == UNCLASSIFIED

    # magnitudes below 2**-53 round onto the rescaled midpoint, so the
    # commute property is claimed at the package's 9-digit score resolution
    @given(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-9, max_value=1.0),
            st.floats(min_value=-1.0, max_value=-1e-9),
        )
    )
    def test_affine_rescale_commutes(self, value):
        before = ternarize(value, (-1.0, 1.0))
        after = ternarize((value + 1.0) / 2.0, (0.0, 1.0))
        assert before == after


class TestOverallTally:
    def test_counts_and_percentages(self):
        users = {
            "u1": PolarityScore(0.5, 1),
            "u2": PolarityScore(0.1, 1),
            "u3": PolarityScore(-0.5, 1),
            "u4": PolarityScore(None, 0),
        }
        rows = overall_tally(users, {}, (-1.0, 1.0))
        by_label = {r.label: r for r in rows}
        assert by_label[POLE_A].n_users == 2
        assert by_label[POLE_A].pct_users == pytest.approx(50.0)
        assert by_label[POLE_B].pct_users == pytest.approx(25.0)
        assert by_label[UNCLASSIFIED].pct_users == pytest.approx(25.0)

    def test_empty_corpus_zero_rows(self):
        assert overall_tally({}, {}, (-1.0, 1.0)) == []


class TestDailySeries:
    def test_empty_corpus_gives_each_group_no_days(self):
        series = daily_series([], {}, {"u1": "g2", "u2": "g1", "u3": "g2"})
        assert [(s.group_name, s.days) for s in series] == [("g1", []), ("g2", [])]

    def test_single_value_day(self):
        records = [record("t1", "u1")]
        scores = {"t1": PolarityScore(0.4, 1)}
        series = daily_series(records, scores, {"u1": "g"})
        assert len(series) == 1
        day = series[0].days[0]
        assert day.mean == pytest.approx(0.4)
        assert day.std == 0.0
        assert day.n == 1

    def test_population_sigma(self):
        records = [record("t1", "u1"), record("t2", "u2")]
        scores = {
            "t1": PolarityScore(1.0, 1),
            "t2": PolarityScore(-1.0, 1),
        }
        series = daily_series(records, scores, {"u1": "g", "u2": "g"})
        day = series[0].days[0]
        assert day.mean == pytest.approx(0.0)
        assert day.std == pytest.approx(1.0)

    def test_empty_days_emitted(self):
        records = [
            record("t1", "u1", "2020-01-01T10:00:00Z"),
            record("t2", "u1", "2020-01-03T10:00:00Z"),
        ]
        scores = {
            "t1": PolarityScore(0.1, 1),
            "t2": PolarityScore(0.2, 1),
        }
        series = daily_series(records, scores, {"u1": "g"})
        days = series[0].days
        assert [d.day for d in days] == [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)]
        assert days[1].n == 0 and days[1].mean is None

    def test_group_without_tweets_still_emitted(self):
        records = [record("t1", "u1")]
        scores = {"t1": PolarityScore(0.1, 1)}
        series = daily_series(records, scores, {"u1": "g1", "ghost": "g2"})
        names = [s.group_name for s in series]
        assert names == ["g1", "g2"]
        assert all(d.n == 0 for d in series[1].days)

    def test_unclassified_counted_separately(self):
        records = [record("t1", "u1"), record("t2", "u1")]
        scores = {
            "t1": PolarityScore(0.3, 1),
            "t2": PolarityScore(None, 0),
        }
        day = daily_series(records, scores, {"u1": "g"})[0].days[0]
        assert day.n == 1 and day.n_unclassified == 1

    def test_means_within_scale(self):
        records = [record(f"t{i}", "u1") for i in range(5)]
        scores = {f"t{i}": PolarityScore(v, 1) for i, v in enumerate([-1, 1, 0.5, -0.5, 0])}
        day = daily_series(records, scores, {"u1": "g"})[0].days[0]
        assert -1.0 <= day.mean <= 1.0


# Keys and dimensions: characters csv must quote, CR, which csv.writer leaves
# bare, and characters written as they are.
names = st.text(alphabet='a,"\r\n é', max_size=4)


@st.composite
def score_tables(draw):
    """Scores of one set of keys per dimension, and a key order or None."""
    keys = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    scores = {}
    for dim in draw(st.lists(names, max_size=3, unique=True)):
        # read_score_csv reads no value of a larger magnitude
        values = [draw(st.none() | st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)) for _ in keys]
        scores[dim] = {
            key: PolarityScore(v, 0 if v is None else draw(st.integers(1, 9)))
            for key, v in zip(keys, values)
        }
    return scores, draw(st.none() | st.permutations(keys))


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        scores = {
            "dim": {
                "t1": PolarityScore(0.123456789, 3),
                "t2": PolarityScore(None, 0),
            }
        }
        path = tmp_path / "scores.csv"
        write_score_csv(scores, path, "tweet_id", ["t1", "t2"])
        assert read_score_csv(path) == scores

    @pytest.mark.parametrize("key_order", [None, ["t1", "t2", "t3"]])
    def test_returns_scores_as_read_back(self, tmp_path, key_order):
        scores = {
            "dim": {
                "t1": PolarityScore(0.1234567895, 3),
                "t2": PolarityScore(-1e-12, 1),
                "t3": PolarityScore(None, 0),
            },
            "other": {
                "t1": PolarityScore(2 / 3, 1),
                "t2": PolarityScore(None, 0),
                "t3": PolarityScore(-0.9999999996, 2),
            },
        }
        if key_order is None:
            scores["no_rows"] = {}
        path = tmp_path / "scores.csv"
        got = write_score_csv(scores, path, "tweet_id", key_order)
        assert got == read_score_csv(path)
        assert got["dim"] is scores["dim"]

    @given(score_tables())
    @example(({"d": {"a\rb": PolarityScore(0.5, 1), "a": PolarityScore(None, 0)}}, None))
    def test_bytes_match_csv_writer_and_read_back(self, tmp_path_factory, table):
        scores, key_order = table
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        csv_write_score_csv(scores, path, "user_id", key_order)
        want = path.read_bytes()
        got = write_score_csv(scores, path, "user_id", key_order)
        assert got == read_score_csv(path)
        # csv.writer leaves a name holding CR but no ',', '"' or LF bare,
        # which reads back as two rows; write_score_csv quotes it
        written = {name for dim, by_key in scores.items() for name in (dim, *by_key)}
        if not any("\r" in name and not set(',"\n') & set(name) for name in written):
            assert path.read_bytes() == want

    def test_streams_rows(self, tmp_path):
        # 200k rows of about 25 bytes: a writer that held its lines, or even
        # a block of 65k of them, would peak well above 2 MB
        keys = [f"t{i:07d}" for i in range(200_000)]
        scores = {"dim": {key: PolarityScore(i / 7, 1) for i, key in enumerate(keys)}}
        path = tmp_path / "scores.csv"
        tracemalloc.start()
        try:
            write_score_csv(scores, path, "tweet_id", keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 200_000 * 20
        assert peak < 2 << 20

    def test_membership_reader(self, tmp_path):
        path = tmp_path / "members.tsv"
        path.write_text("u1\tgroup_x\nu2\tgroup_y\n")
        assert read_membership(path) == {"u1": "group_x", "u2": "group_y"}

    def test_membership_duplicate_rejected(self, tmp_path):
        path = tmp_path / "members.tsv"
        path.write_text("u1\tg\nu1\th\n")
        with pytest.raises(Exception, match="line 2"):
            read_membership(path)

    def test_score_csv_invariant_enforced(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("tweet_id,dimension,value,n_items\nt1,dim,,3\n")
        with pytest.raises(Exception, match="line 2"):
            read_score_csv(path)

    def test_score_csv_line_numbers_count_quoted_line_breaks(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_score_csv({"dim": {"t\n1": PolarityScore(0.5, 1)}}, path, "tweet_id")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("t2,dim,,3\n")
        # the header is line 1, the quoted key spans lines 2 and 3
        with pytest.raises(DataError, match="line 4: value and n_items disagree"):
            read_score_csv(path)

    def test_daily_series_csv_layout(self, tmp_path):
        from polarlex.polarity import write_daily_series_csv

        records = [
            record("t1", "u1", "2020-01-01T10:00:00Z"),
            record("t2", "u1", "2020-01-02T10:00:00Z"),
        ]
        scores = {
            "t1": PolarityScore(0.25, 1),
            "t2": PolarityScore(None, 0),
        }
        series = daily_series(records, scores, {"u1": "g"})
        path = tmp_path / "daily.csv"
        write_daily_series_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "group,date,mean,std,n,n_unclassified"
        assert lines[1] == "g,2020-01-01,0.250000000,0.000000000,1,0"
        assert lines[2] == "g,2020-01-02,,,0,1"
