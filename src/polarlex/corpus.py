"""Tweet ingestion, Unicode-aware tokenization, per-user-per-day grouping, tokenized.tsv."""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable

from .errors import DataError
from .ioutil import NON_XML_CHAR, read_lines, read_rows, unique_keys

REQUIRED_KEYS = ("tweet_id", "user_id", "timestamp", "text")

# The item a tweet contributes to graphs and scores: its hashtags or its tokens.
HASHTAG_MODE = "hashtag"
TOKEN_MODE = "token"

# json.loads decodes an escape such as \ud800 to a lone surrogate, which is no
# Unicode text and cannot be written back as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass(slots=True)
class TweetRecord:
    """One message. Interaction fields feed the communication network only.

    load_corpus gives equal ids one str object, and every record without
    mentions the empty tuple.
    """

    tweet_id: str
    user_id: str
    timestamp: datetime
    text: str
    is_retweet: bool = False
    retweet_of_user: str | None = None
    mentions: tuple[str, ...] = ()
    reply_to_user: str | None = None

    def day(self) -> date:
        return self.timestamp.astimezone(timezone.utc).date()


@dataclass(slots=True)
class TokenizedTweet:
    """Normalized hashtags (deduplicated) and tokens (occurrences kept) of one tweet.

    tokenize and read_tokenized give a tweet whose hashtags equal its tokens
    one tuple for both fields.
    """

    tweet_id: str
    hashtags: tuple[str, ...]
    tokens: tuple[str, ...]


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def record_from_json(obj: dict, strings: dict[str, str] | None = None) -> TweetRecord:
    """The record of one decoded corpus line.

    User ids and mentions equal to a key of strings are given its value, and
    the others are added to it, so that the records of one load share them.
    """
    one = {}.setdefault if strings is None else strings.setdefault
    if not isinstance(obj, dict):
        raise DataError(f"expected a JSON object, got {type(obj).__name__}")
    required = []
    for key in REQUIRED_KEYS:
        value = obj.get(key)
        if value is None:
            raise DataError(f"missing required key {key!r}")
        # json gives exact types, so type() tells a bool from an int
        is_id = key in ("tweet_id", "user_id")
        if is_id and type(value) is int:
            value = str(value)
        if type(value) is not str:
            raise DataError(f"{key} must be a string" + (" or an integer" if is_id else ""))
        required.append(value)
    tweet_id, user_id, timestamp, text = required
    if not tweet_id:
        raise DataError("empty tweet_id")
    # write_tokenized writes one tab-separated row per tweet, keyed by tweet_id.
    if "\t" in tweet_id or "\n" in tweet_id or "\r" in tweet_id:
        raise DataError(f"tweet_id {tweet_id!r} contains a tab or line break")
    mentions = obj.get("mentions")
    if mentions is None:
        mentions = ()
    elif not isinstance(mentions, list):
        raise DataError("mentions must be an array")
    if not all(isinstance(m, str) for m in mentions):
        # json gives exact types, so type() tells a bool from an int
        if not all(type(m) in (str, int) for m in mentions):
            raise DataError("each mention must be a string or an integer")
        mentions = [m if isinstance(m, str) else str(m) for m in mentions]
    is_retweet = obj.get("is_retweet")
    if is_retweet is not None and not isinstance(is_retweet, bool):
        raise DataError("is_retweet must be true, false or null")
    retweet_of_user = obj.get("retweet_of_user")
    reply_to_user = obj.get("reply_to_user")
    for key, value in (("retweet_of_user", retweet_of_user), ("reply_to_user", reply_to_user)):
        if value is not None and not isinstance(value, str):
            raise DataError(f"{key} must be a string or null")
    fields = {"tweet_id": tweet_id, "user_id": user_id, "timestamp": timestamp, "text": text,
              "retweet_of_user": retweet_of_user, "reply_to_user": reply_to_user,
              "mentions": "".join(mentions)}
    for key, value in fields.items():
        if isinstance(value, str) and _SURROGATE.search(value):
            raise DataError(f"{key} holds a lone surrogate, which is not Unicode text")
    # the communication network's GraphML file names users by these ids
    for key in ("user_id", "mentions", "retweet_of_user", "reply_to_user"):
        if fields[key] and (bad := NON_XML_CHAR.search(fields[key])):
            raise DataError(f"{key} holds {bad[0]!r}, which XML cannot hold")
    return TweetRecord(
        tweet_id=tweet_id,
        user_id=one(user_id, user_id),
        timestamp=parse_timestamp(timestamp),
        text=text,
        is_retweet=bool(is_retweet),
        retweet_of_user=one(retweet_of_user, retweet_of_user),
        mentions=tuple(map(one, mentions, mentions)),
        reply_to_user=one(reply_to_user, reply_to_user),
    )


# A line exactly as write_corpus writes it: json.dumps with sorted keys and the
# default separators, every string free of '"', '\\', control characters and
# U+FFFE and U+FFFF, so that its raw text is its value and holds no character
# record_from_json would reject, and the timestamp in isoformat's UTC layout
# to the second, in ASCII digits. Any other line goes through json.loads.
_CHARS = r'[^"\\\x00-\x1f\ufffe\uffff]'
_WRITTEN_LINE = re.compile(
    r'\{"is_retweet": (null|true|false), '
    rf'"mentions": \[((?:"{_CHARS}*"(?:, "{_CHARS}*")*)?)\], '
    rf'"reply_to_user": (?:null|"({_CHARS}*)"), '
    rf'"retweet_of_user": (?:null|"({_CHARS}*)"), '
    rf'"text": "({_CHARS}*)", '
    r'"timestamp": "([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\+00:00)", '
    rf'"tweet_id": "({_CHARS}+)", "user_id": "({_CHARS}*)"\}}'
)


def _record_from_match(match: re.Match, strings: dict[str, str]) -> TweetRecord:
    """The record of a _WRITTEN_LINE match, as record_from_json gives it.

    fromisoformat gives a '+00:00' timestamp timezone.utc as its tzinfo, as
    parse_timestamp's astimezone does.
    """
    is_retweet, mentions, reply_to, retweet_of, text, timestamp, tweet_id, user_id = (
        match.groups()
    )
    one = strings.setdefault
    mentions = mentions[1:-1].split('", "') if mentions else ()
    return TweetRecord(
        tweet_id,
        one(user_id, user_id),
        datetime.fromisoformat(timestamp),
        text,
        is_retweet == "true",
        one(retweet_of, retweet_of),
        tuple(map(one, mentions, mentions)),
        one(reply_to, reply_to),
    )


def load_corpus(path: str | Path, include_retweets: bool = True) -> list[TweetRecord]:
    """Read a JSONL tweet corpus file, preserving input order.

    Lines in write_corpus's layout are parsed by one pattern; any other line
    by json.loads and record_from_json, with the same result. Rejects
    duplicate tweet_ids, malformed lines and invalid UTF-8, naming the
    offending line. Equal user ids, in any of the four fields that hold one,
    are one str object.
    """
    records: list[TweetRecord] = []
    seen: set[str] = set()
    strings: dict[str, str] = {}
    match_line = _WRITTEN_LINE.fullmatch
    for lineno, line in read_lines(path):
        match = match_line(line)
        try:
            record = (_record_from_match(match, strings) if match
                      else record_from_json(json.loads(line, object_pairs_hook=unique_keys),
                                            strings))
        except (ValueError, OverflowError, DataError) as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        if record.tweet_id in seen:
            raise DataError(f"{path}: line {lineno}: duplicate tweet_id {record.tweet_id!r}")
        seen.add(record.tweet_id)
        if record.is_retweet and not include_retweets:
            continue
        records.append(record)
    return records


def write_corpus(records: Iterable[TweetRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {
                "tweet_id": r.tweet_id,
                "user_id": r.user_id,
                "timestamp": r.timestamp.astimezone(timezone.utc).isoformat(),
                "text": r.text,
                "is_retweet": r.is_retweet,
                "retweet_of_user": r.retweet_of_user,
                "mentions": r.mentions,
                "reply_to_user": r.reply_to_user,
            }
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def write_tokenized(tweets: Iterable[TokenizedTweet], path: str | Path) -> None:
    """One 'tweet_id<TAB>hashtags<TAB>tokens' row per tweet, items space-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for tw in tweets:
            fh.write(f"{tw.tweet_id}\t{' '.join(tw.hashtags)}\t{' '.join(tw.tokens)}\n")


def read_tokenized(path: str | Path) -> list[TokenizedTweet]:
    """Read write_tokenized's rows; a repeated tweet_id is a data error.

    Every occurrence of an item is the same str object, so the tweets hold
    one copy per distinct item, not one per occurrence.
    """
    one = {}.setdefault

    def items(field: str) -> tuple[str, ...]:
        parts = field.split(" ") if field else ()
        return tuple(map(one, parts, parts))

    def tweet(tweet_id: str, tags: str, tokens: str) -> TokenizedTweet:
        hashtags = items(tags)
        return TokenizedTweet(tweet_id, hashtags, hashtags if tokens == tags else items(tokens))

    return [tweet(*row) for _, row in read_rows(path, "\t", 3, key="tweet_id")]


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_piece(piece: str) -> str:
    """Strip leading/trailing punctuation, keeping a leading '#' or '@' marker."""
    end = len(piece)
    while end > 0 and _is_punct(piece[end - 1]):
        end -= 1
    start = 0
    while start < end and _is_punct(piece[start]):
        if piece[start] in "#@":
            break
        start += 1
    return piece[start:end]


def _piece_item(raw: str) -> tuple[str, bool]:
    """The item a whitespace piece stands for and whether it is a hashtag.

    The item is "" for a piece that is dropped: only punctuation, a mention,
    a URL or a bare run of '#'. A hashtag's name is the item of the text after
    its '#'s, so a second tokenization does not strip it further: '#:0' is
    '0', and '#@a' and '#http://x' are dropped. The result depends on the
    piece alone.
    """
    if raw.isalnum():  # letters and digits only: no punctuation, no '#' or '@'
        return raw.casefold(), False
    piece = _strip_piece(raw)
    if not piece or piece.startswith("@"):
        return "", False
    if piece.startswith("#"):
        return _piece_item(piece.lstrip("#"))[0], True
    item = piece.casefold()
    # on the folded text, so that 'httpſ://x' (long s) is no token 'https://x'
    if item.startswith(("http://", "https://")):
        return "", False
    return item, False


def tokenize(records: Iterable[TweetRecord]) -> list[TokenizedTweet]:
    """Each record's text split on Unicode whitespace and normalized, in input order.

    Hashtags are case-folded with '#' removed and deduplicated in first-seen
    order; every hashtag occurrence also counts as a token. Mentions and URLs
    are dropped entirely. Pieces repeat across tweets, so each distinct piece
    is classified once per call; the memo lives only as long as the call.
    """
    memo: dict[str, tuple[str, bool]] = {}
    out: list[TokenizedTweet] = []
    for record in records:
        tags: list[str] = []
        tokens: list[str] = []
        for raw in record.text.split():
            item = memo.get(raw)
            if item is None:
                item = memo[raw] = _piece_item(raw)
            name, is_tag = item
            if name:
                tokens.append(name)
                if is_tag:
                    tags.append(name)
        hashtags, tokens = tuple(dict.fromkeys(tags)), tuple(tokens)
        if hashtags == tokens:
            hashtags = tokens
        out.append(TokenizedTweet(tweet_id=record.tweet_id, hashtags=hashtags, tokens=tokens))
    return out


def group_by_user_day(corpus: Iterable[TweetRecord]) -> dict[str, list[str]]:
    """Bucket tweet ids by user and UTC day, keyed 'user_id@YYYY-MM-DD' as a gold
    file names a user-day; keys in (user_id, day) order."""
    groups: dict[tuple[str, date], list[str]] = {}
    for record in corpus:
        groups.setdefault((record.user_id, record.day()), []).append(record.tweet_id)
    return {f"{user}@{day.isoformat()}": groups[user, day] for user, day in sorted(groups)}
