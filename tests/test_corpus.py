import json
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarlex import corpus
from polarlex.cli import main
from polarlex.corpus import (
    TweetRecord,
    group_by_user_day,
    load_corpus,
    parse_timestamp,
    read_tokenized,
    tokenize,
    write_corpus,
    write_tokenized,
)
from polarlex.errors import DataError

import oracles


def make_record(tweet_id="t1", user="u1", ts="2020-01-01T10:00:00+00:00", text=""):
    return TweetRecord(
        tweet_id=tweet_id, user_id=user, timestamp=parse_timestamp(ts), text=text
    )


def tokenize_text(text):
    """(hashtags, tokens) of one text, through tokenize on a one-record list."""
    (tweet,) = tokenize([make_record(text=text)])
    return tweet.hashtags, tweet.tokens


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def base_row(**overrides):
    row = {
        "tweet_id": "t1",
        "user_id": "u1",
        "timestamp": "2020-01-01T10:00:00Z",
        "text": "hello",
    }
    row.update(overrides)
    return row


class TestLoadCorpus:
    def test_three_valid_lines_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [base_row(tweet_id=f"t{i}") for i in range(3)])
        records = load_corpus(path)
        assert [r.tweet_id for r in records] == ["t0", "t1", "t2"]

    def test_missing_user_id_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [base_row(), base_row(tweet_id="t2"), base_row(tweet_id="t3")]
        del rows[1]["user_id"]
        write_jsonl(path, rows)
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_duplicate_tweet_id_names_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [base_row(tweet_id=f"t{i}") for i in range(5)]
        rows[4]["tweet_id"] = "t0"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match="t0"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(base_row()) + "\n{broken\n")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_empty_tweet_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        for tweet_id in ("", "t\t1", "t\n1", "t\r1"):
            write_jsonl(path, [base_row(tweet_id=tweet_id)])
            with pytest.raises(DataError, match="line 1"):
                load_corpus(path)

    def test_non_string_interaction_user_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        for key in ("retweet_of_user", "reply_to_user"):
            for value in (42, ["u2"], {"id": "u2"}, True):
                write_jsonl(path, [base_row(), base_row(tweet_id="t2", **{key: value})])
                with pytest.raises(DataError, match=f"line 2: {key} must be a string"):
                    load_corpus(path)
            write_jsonl(path, [base_row(**{key: None}), base_row(tweet_id="t2", **{key: "u2"})])
            assert [getattr(r, key) for r in load_corpus(path)] == [None, "u2"]

    def test_mention_and_retweet_flag_types_checked(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = [
            ("mentions", [None, ["x"]], "each mention must be a string"),
            ("mentions", ["u2", True], "each mention must be a string"),
            ("mentions", [1.5], "each mention must be a string"),
            ("mentions", False, "mentions must be an array"),
            ("mentions", {}, "mentions must be an array"),
            ("mentions", "", "mentions must be an array"),
            ("mentions", 0, "mentions must be an array"),
            ("is_retweet", "false", "is_retweet must be true, false or null"),
            ("is_retweet", 0, "is_retweet must be true, false or null"),
        ]
        for key, value, message in bad:
            write_jsonl(path, [base_row(), base_row(tweet_id="t2", **{key: value})])
            with pytest.raises(DataError, match=f"line 2: {message}"):
                load_corpus(path)
        write_jsonl(path, [
            base_row(mentions=["u2", 7], is_retweet=None),
            base_row(tweet_id="t2", is_retweet=False, mentions=None),
            base_row(tweet_id="t3", is_retweet=True),
        ])
        records = load_corpus(path, include_retweets=False)
        assert [r.tweet_id for r in records] == ["t1", "t2"]
        assert [r.mentions for r in records] == [("u2", "7"), ()]

    def test_retweet_filter(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                base_row(),
                base_row(tweet_id="t2", is_retweet=True, retweet_of_user="u9"),
            ],
        )
        assert len(load_corpus(path)) == 2
        assert [r.tweet_id for r in load_corpus(path, include_retweets=False)] == ["t1"]

    def test_timezone_normalized_to_utc(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [base_row(timestamp="2020-01-01T05:00:00+05:00")])
        record = load_corpus(path)[0]
        assert record.timestamp == datetime(2020, 1, 1, 0, 0, tzinfo=timezone.utc)

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_timestamp_outside_utc_range_names_line(self, tmp_path, stamp):
        # a valid ISO instant whose UTC time falls outside datetime's years 1-9999
        path = tmp_path / "c.jsonl"
        write_corpus([make_record()], path)
        written = path.read_text().replace("2020-01-01T10:00:00+00:00", stamp)
        assert corpus._WRITTEN_LINE.fullmatch(written.rstrip("\n"))
        other = json.dumps(base_row(timestamp=stamp)) + "\n"
        for line in (written, other):  # write_corpus's pattern, then json.loads
            path.write_text(json.dumps(base_row(tweet_id="t0")) + "\n" + line)
            with pytest.raises(DataError, match="line 2: "):
                load_corpus(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [
            TweetRecord(
                tweet_id="t1",
                user_id="u1",
                timestamp=parse_timestamp("2020-01-02T03:04:05Z"),
                text="#a b",
                is_retweet=True,
                retweet_of_user="u2",
                mentions=("u3", "u4"),
                reply_to_user="u5",
            )
        ]
        write_corpus(records, path)
        assert load_corpus(path) == records

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps(base_row()).encode()
        path.write_bytes(good + b"\n" + good.replace(b"hello", b"hel\xfflo") + b"\n")
        with pytest.raises(DataError, match=r"c\.jsonl: line 2: not valid UTF-8$"):
            load_corpus(path)
        # lines are counted at LF, CR and CRLF, as the text reader counts them
        second = good.replace(b"t1", b"t2")
        path.write_bytes(good + b"\r\n\r" + second + b"\n\xe2\x82\n")
        with pytest.raises(DataError, match="line 4: not valid UTF-8"):
            load_corpus(path)


# Pieces of corpus strings: ones json.dumps writes raw, among them the ", "
# that separates mentions in write_corpus's layout, and ones it escapes.
RAW_PIECES = ["u1", ", ", "\u2028", "\x7f", "é", "😀", " ", "#a"]
ESCAPED_PIECES = ['"', "\\", "\x00", "\x1f", "\t", "\n", "\r", '", "']
raw_strings = st.lists(st.sampled_from(RAW_PIECES), max_size=3).map("".join)
escaped_strings = st.lists(
    st.sampled_from(RAW_PIECES + ESCAPED_PIECES), min_size=1, max_size=3
).map("".join)
TIMESTAMPS = ["2020-01-01T10:00:00+00:00", "2020-01-02T01:00:00+05:00", "2020-01-01T10:00:00Z",
              " 2020-01-01 ", "2020-01-01"]
MISSING = object()
odd_values = escaped_strings | st.sampled_from(
    [MISSING, None, 7, True, False, 1.5, "", "2020-13-01", "x", ["u1", 7], [None], [True], {}]
)


@st.composite
def corpus_lines(draw):
    """One corpus line: mostly write_corpus's layout, half of those with one
    field off it; else another valid or malformed spelling of a tweet, or no
    tweet at all."""
    kind = draw(st.sampled_from(["written"] * 6 + ["other json", "blank", "garbage"]))
    if kind == "blank":
        return draw(st.sampled_from(["\n", "  \n", "\r\n", "\x0b\n", "\u2028\n"]))
    if kind == "garbage":
        return draw(st.sampled_from(["{broken\n", "5\n", "null\n", '"t1"\n', "[]\n", "{}\n"]))
    obj = {
        "tweet_id": draw(st.text("t12é", min_size=1, max_size=4)),
        "user_id": draw(raw_strings),
        "timestamp": draw(st.sampled_from(TIMESTAMPS)),
        "text": draw(raw_strings),
        "is_retweet": draw(st.sampled_from([False, True, None])),
        "retweet_of_user": draw(st.none() | raw_strings),
        "mentions": draw(st.lists(raw_strings, max_size=3)),
        "reply_to_user": draw(st.none() | raw_strings),
    }
    if draw(st.booleans()):
        obj[draw(st.sampled_from([*obj, "extra"]))] = draw(odd_values)
    obj = {key: value for key, value in obj.items() if value is not MISSING}
    if kind == "written":
        line = json.dumps(obj, ensure_ascii=False, sort_keys=True)
        if draw(st.booleans()):
            # control characters written raw, which json.loads rejects
            line = line.replace("\\t", "\t").replace("\\u001f", "\x1f")
    else:
        keys = draw(st.permutations(sorted(obj)))
        line = json.dumps(
            {key: obj[key] for key in keys},
            ensure_ascii=draw(st.booleans()),
            separators=draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,  ", " :  ")])),
        )
    return line + draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\x0b\n", " \n", ""]))


def load_outcome(load, path, include_retweets):
    try:
        return load(path, include_retweets=include_retweets)
    except DataError as exc:
        return str(exc)


def written_line(**fields):
    """A corpus line in write_corpus's layout, fields as given."""
    obj = {"is_retweet": False, "mentions": [], "reply_to_user": None, "retweet_of_user": None,
           "text": "", "timestamp": "2020-01-01", "tweet_id": "t1", "user_id": "u1", **fields}
    return json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n"


class TestLoadCorpusMatchesJsonOracle:
    @settings(max_examples=300)
    @given(st.lists(corpus_lines(), max_size=6), st.booleans())
    @example([written_line(is_retweet=True, mentions=["", ", ", "a\u2028"], reply_to_user="",
                           text="\x7f\u00e9")], True)
    @example([written_line(is_retweet=True), written_line(tweet_id="t2", is_retweet=None)], False)
    @example([written_line(text="a\\b")], True)
    @example([written_line(text="a\tb").replace("\\t", "\t")], True)
    @example([written_line(timestamp="2020-13-01")], True)
    @example([written_line().replace("}\n", "}\x0b\n")], True)
    @example([written_line(), written_line(tweet_id="")], True)
    @example([written_line(), "\n", written_line()], True)
    def test_same_records_or_same_error(self, tmp_path_factory, lines, include_retweets):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line if line.endswith("\n") else line + "\n" for line in lines))
        want = load_outcome(oracles.json_load_corpus, path, include_retweets)
        assert load_outcome(load_corpus, path, include_retweets) == want

    def test_written_corpus_takes_the_pattern(self, tmp_path, monkeypatch):
        synth = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(synth), "--n-users", "30", "--n-tweets", "400",
                     "--rng-seed", "3"]) == 0
        path = synth / "corpus.jsonl"
        want = oracles.json_load_corpus(path)
        assert any(r.mentions for r in want) and any(r.is_retweet for r in want)

        def no_json(line):
            raise AssertionError(f"json.loads called on {line!r}")

        monkeypatch.setattr(corpus.json, "loads", no_json)
        assert load_corpus(path) == want
        assert load_corpus(path, include_retweets=False) == [r for r in want if not r.is_retweet]


class TestReadTokenized:
    def test_one_string_per_distinct_item(self, tmp_path):
        records = [make_record("t1", text="#Peace talks #war"),
                   make_record("t2", text="no #war talks #WAR"),
                   make_record("t3", text="@someone")]
        tweets = tokenize(records)
        path = tmp_path / "tokenized.tsv"
        write_tokenized(tweets, path)
        back = read_tokenized(path)
        assert back == tweets
        first, second, _ = back
        assert first.hashtags[1] is second.hashtags[0] is second.tokens[3]
        items = [item for tw in back for item in (*tw.hashtags, *tw.tokens)]
        assert len({id(item) for item in items}) == len(set(items))


class TestTokenize:
    def test_camelcase_hashtags_folded(self):
        tags, tokens = tokenize_text("We r waiting #StormWatch #CityAlerts")
        assert tags == ("stormwatch", "cityalerts")
        assert tokens == ("we", "r", "waiting", "stormwatch", "cityalerts")

    def test_empty_text(self):
        assert tokenize_text("") == ((), ())

    def test_duplicate_hashtags_dedup_in_tags_kept_in_tokens(self):
        tags, tokens = tokenize_text("#Peace #peace war")
        assert tags == ("peace",)
        assert tokens == ("peace", "peace", "war")

    def test_mentions_and_urls_dropped(self):
        tags, tokens = tokenize_text("@someone look https://t.co/x HTTP://Y.co ok")
        assert tags == ()
        assert tokens == ("look", "ok")

    def test_punctuation_stripped_keeps_inner(self):
        _, tokens = tokenize_text("(don't) stop!! #go,")
        assert tokens == ("don't", "stop", "go")

    def test_wrapped_mention_excluded(self):
        assert tokenize_text('"@user" hi')[1] == ("hi",)

    def test_multilingual_text(self):
        tags, tokens = tokenize_text("امن #امن शांति")
        assert tags == ("امن",)
        assert tokens == ("امن", "امن", "शांति")

    def test_record_wrapper(self):
        record = make_record(text="#One two")
        (tt,) = tokenize([record])
        assert tt.tweet_id == "t1"
        assert tt.hashtags == ("one",)

    @given(st.text(max_size=200))
    def test_hashtags_subset_of_tokens(self, text):
        tags, tokens = tokenize_text(text)
        assert set(tags) <= set(tokens)
        assert all(t for t in tokens)

    @given(st.text(max_size=200))
    @example("#:0")
    @example("#!A")
    @example("#@c")
    @example("#'#x")
    @example("httpſ://x")
    @example("#httpſ://x")
    def test_idempotent_on_own_tokens(self, text):
        _, tokens = tokenize_text(text)
        _, again = tokenize_text(" ".join(tokens))
        assert again == tokens


# Fragments of whitespace pieces: Unicode punctuation, '#'/'@'/'##' markers,
# URL schemes in two cases, and letters whose case folding changes length or
# needs more than lower(): ß -> ss, İ -> i̇, ﬁ -> fi.
FRAGMENTS = [
    "#", "##", "@", "http://", "HTTPS://", "ß", "İ", "ﬁ", "a", "Q", "x.co/y", "امن",
    "!", "'", "(", ")", "«", "»", "¿", "—", "…", "،", "。", "«#", "_",
]
SEPARATORS = [" ", "  ", "\t", "\n", "\u00a0", "\u3000", "\u2029"]
pieces = st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=3).map("".join)


@st.composite
def corpora(draw):
    """Tweet texts built from one small pool of pieces, so pieces recur across tweets."""
    pool = draw(st.lists(pieces, min_size=1, max_size=8))
    text = st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(SEPARATORS)), max_size=8)
    parts = draw(st.lists(text, max_size=8))
    return ["".join(piece + sep for piece, sep in words) for words in parts]


class TestTokenizeMatchesOracle:
    @settings(max_examples=300)
    @given(corpora())
    @example([])
    @example(["#Straße", "Straße #Straße"])
    @example(["#:0 #!A", "#@c #'#x #x"])
    def test_corpus_matches_verbatim_tokenizer(self, texts):
        records = [make_record(f"t{i}", text=text) for i, text in enumerate(texts)]
        got = [(tw.tweet_id, tw.hashtags, tw.tokens) for tw in tokenize(records)]
        assert got == [(r.tweet_id, *map(tuple, oracles.tokenize_text(r.text)))
                       for r in records]
        for text in texts:
            assert tokenize_text(text) == tuple(map(tuple, oracles.tokenize_text(text)))


def user_strings(records):
    """Every user id the records hold, in any field."""
    return [user for r in records
            for user in (r.user_id, r.retweet_of_user, r.reply_to_user, *r.mentions)
            if user is not None]


class TestSharedValues:
    @pytest.fixture
    def written(self, tmp_path):
        """A synth corpus as write_corpus wrote it, and as other JSON."""
        assert main(["synth", "--out-dir", str(tmp_path), "--n-users", "30", "--n-tweets",
                     "400", "--rng-seed", "3"]) == 0
        path = tmp_path / "corpus.jsonl"
        other = tmp_path / "other.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        other.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                                 for line in lines), encoding="utf-8")
        assert all(corpus._WRITTEN_LINE.fullmatch(line) for line in lines)
        assert not any(map(corpus._WRITTEN_LINE.fullmatch,
                           other.read_text(encoding="utf-8").splitlines()))
        return path, other

    def test_both_parse_paths_share_user_ids_and_empty_mentions(self, written):
        path, other = written
        by_pattern, by_json = load_corpus(path), load_corpus(other)
        assert by_pattern == by_json
        for records in (by_pattern, by_json):
            users = user_strings(records)
            assert len(users) > len(set(users))
            assert len({id(user) for user in users}) == len(set(users))
            assert all(type(r.mentions) is tuple for r in records)
            empty = [r.mentions for r in records if not r.mentions]
            assert len(empty) > 1 and len({id(m) for m in empty}) == 1

    def test_no_sharing_across_loads(self, written):
        path, _ = written
        first, second = load_corpus(path), load_corpus(path)
        assert first[0].user_id == second[0].user_id
        assert first[0].user_id is not second[0].user_id

    @settings(max_examples=100)
    @given(corpora())
    @example(["#a #b", "#a x", "#a #A", "", "@u"])
    def test_hashtags_equal_to_tokens_are_one_tuple(self, tmp_path_factory, texts):
        tweets = tokenize([make_record(f"t{i}", text=text) for i, text in enumerate(texts)])
        path = tmp_path_factory.mktemp("tokenized") / "tokenized.tsv"
        write_tokenized(tweets, path)
        back = read_tokenized(path)
        assert back == tweets
        for tw in (*tweets, *back):
            assert type(tw.hashtags) is tuple and type(tw.tokens) is tuple
            assert (tw.hashtags is tw.tokens) == (tw.hashtags == tw.tokens)


class TestGroupByUserDay:
    def test_same_day_two_tweets(self):
        records = [
            make_record("t1", ts="2020-01-01T10:00:00Z"),
            make_record("t2", ts="2020-01-01T23:00:00Z"),
        ]
        groups = group_by_user_day(records)
        assert len(groups) == 1
        assert list(groups.values()) == [["t1", "t2"]]

    def test_utc_midnight_boundary(self):
        records = [
            make_record("t1", ts="2020-01-01T23:59:00Z"),
            make_record("t2", ts="2020-01-02T00:01:00Z"),
        ]
        assert len(group_by_user_day(records)) == 2

    def test_offset_timestamp_grouped_by_utc_day(self):
        # 01:00+05:00 is the previous UTC day
        records = [
            make_record("t1", ts="2020-01-02T01:00:00+05:00"),
            make_record("t2", ts="2020-01-01T22:00:00Z"),
        ]
        assert group_by_user_day(records) == {"u1@2020-01-01": ["t1", "t2"]}

    def test_three_users_two_days(self):
        records = []
        k = 0
        for user in ("u1", "u2", "u3"):
            for day in ("2020-01-01", "2020-01-02"):
                for _ in range(2 if user == "u1" else 1):
                    k += 1
                    records.append(
                        make_record(f"t{k}", user=user, ts=f"{day}T12:00:00Z")
                    )
        # u1 gets 2 tweets per day -> 10 tweets total over 6 groups
        records.append(make_record("t9", user="u2", ts="2020-01-01T13:00:00Z"))
        records.append(make_record("t10", user="u3", ts="2020-01-02T13:00:00Z"))
        groups = group_by_user_day(records)
        assert len(groups) == 6
        assert sum(len(v) for v in groups.values()) == 10

    def test_keys_sorted(self):
        # by (user_id, day), not by key text: 'u1' sorts before 'u1!', '@' after '!'
        records = [
            make_record("t1", user="u2", ts="2020-01-02T10:00:00Z"),
            make_record("t2", user="u1", ts="2020-01-03T10:00:00Z"),
            make_record("t3", user="u1!", ts="2020-01-01T10:00:00Z"),
            make_record("t4", user="u1", ts="2020-01-01T10:00:00Z"),
        ]
        keys = list(group_by_user_day(records))
        assert keys == ["u1@2020-01-01", "u1@2020-01-03", "u1!@2020-01-01", "u2@2020-01-02"]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2", "u3"]),
                st.integers(min_value=0, max_value=3 * 86400 - 1),
            ),
            max_size=30,
        )
    )
    def test_group_sizes_sum_to_corpus_size(self, draws):
        records = [
            TweetRecord(
                tweet_id=f"t{i}",
                user_id=user,
                timestamp=datetime.fromtimestamp(1577836800 + offset, tz=timezone.utc),
                text="",
            )
            for i, (user, offset) in enumerate(draws)
        ]
        groups = group_by_user_day(records)
        assert sum(len(v) for v in groups.values()) == len(records)
        seen = [t for ids in groups.values() for t in ids]
        assert sorted(seen) == sorted(r.tweet_id for r in records)
