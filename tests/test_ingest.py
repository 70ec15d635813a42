import dataclasses
import io
import json
import os
import random
import re
import subprocess
import time
import unicodedata
from datetime import date, datetime, timezone

import pytest

import socialqe.ingest
from conftest import assert_no_child_left, counted_forks, tree_bytes
from socialqe.cli import main
from socialqe.ingest import (
    DEFAULT_STOPWORDS,
    MAX_HASHTAG_LENGTH,
    MEMO_LIMIT,
    Memo,
    ParseStats,
    TweetRecord,
    canonicalize_url,
    load_wordlist,
    normalize_and_tokenize,
    normalize_hashtag,
    parse_metadata,
    parse_stream,
    url_from_canonical,
    word_break_hashtag,
)


def tweet_obj(**over):
    base = {
        "id": "1",
        "user_id": "u1",
        "created_at": "2017-01-15T12:00:00Z",
        "text": "hello world",
        "hashtags": [],
        "urls": [],
        "is_retweet": False,
    }
    base.update(over)
    return base


# A verbatim copy of ingest._TIMESTAMP_RE and ingest._parse_timestamp from
# before parse_stream read UTC-second stamps through its day table: the
# reference that every created_at form's outcome must equal.
_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:Z|[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?"
)


def _parse_timestamp(value: object) -> date | None:
    """created_at's UTC day; None unless _TIMESTAMP_RE."""
    if not isinstance(value, str) or _TIMESTAMP_RE.fullmatch(value) is None:
        return None
    if value[-1] == "Z":
        value = value[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(value)
        if ts.tzinfo is not None:  # a time with no offset is already UTC
            ts = ts.astimezone(timezone.utc)
    except (ValueError, OverflowError):  # OverflowError: shifted past year 1 or 9999
        return None
    return ts.date()


# Leap days real and not, the ends of the year range, and dates the grammar
# refuses; near-valid separators; the edges of a time of day, fractions and
# shortened times; and offsets the grammar reads or refuses, or none.
GRID_DATES = (
    "2016-02-29", "2017-02-29", "2017-02-30", "0000-01-01", "0001-01-01",
    "9999-12-31", "2017-13-01", "2017-1-15", "٢٠١٧-01-15",
)
GRID_SEPARATORS = ("T", " ", "t", "x", "")
GRID_TIMES = (
    "00:00:00", "00:30:00", "12:34:56", "23:59:59", "23:59:60", "24:00:00",
    "24:00", "24", "25:00:00", "12:60", "12:60:00", "12:00:60", "1:00:00",
    "12:00:00.1", "12:00:00.123", "12:00:00.123456", "23:59:59.999999",
    "12:00:00.1234567", "12", "12:30",
)
GRID_OFFSETS = ("Z", "z", "+00:00", "-02:00", "+05:30:15", "+0530", "+24:00", "")


def created_at_grid() -> list[str]:
    """Every date with every separator, time and offset, and with each offset alone."""
    stamps = [
        day + separator + time + offset
        for day in GRID_DATES
        for separator in GRID_SEPARATORS
        for time in GRID_TIMES
        for offset in GRID_OFFSETS
    ]
    return stamps + [day + offset for day in GRID_DATES for offset in GRID_OFFSETS]


def created_at_grid_outcomes() -> tuple[int, int, list[str]]:
    """Parse one line per grid form in one stream: (forms, days read, forms
    whose outcome, a day or a skip, differs from _parse_timestamp's).

    Needs no pytest, so that any interpreter can run it.
    """
    stamps = created_at_grid()
    lines = [json.dumps(tweet_obj(text=str(i), created_at=s)) for i, s in enumerate(stamps)]
    stats = ParseStats()
    got = {int(record.text): record.day for record in parse_stream(lines, stats)}
    differing = [s for i, s in enumerate(stamps) if got.get(i) != _parse_timestamp(s)]
    return len(stamps), stats.parsed, differing


class TestCanonicalize:
    def test_lowercases_scheme_and_host(self):
        c = canonicalize_url("HTTP://Politico.Com/Story/A")
        assert c.full == "http://politico.com/Story/A"
        assert c.file_name == "A"

    def test_strips_fragment_and_tracking(self):
        c = canonicalize_url(
            "https://ex.com/a?utm_source=x&id=3&fbclid=y&gclid=z&utm_campaign=w&utm=k#frag"
        )
        assert c.full == "https://ex.com/a?id=3&utm=k"

    def test_file_name_is_last_path_segment(self):
        assert canonicalize_url("http://ex.com/2017/06/grenfell-tower-fire").file_name == "grenfell-tower-fire"
        assert canonicalize_url("http://ex.com/dir/").file_name == ""
        assert canonicalize_url("http://ex.com").file_name == ""

    def test_scheme_required(self):
        with pytest.raises(ValueError):
            canonicalize_url("not a url")
        with pytest.raises(ValueError):
            canonicalize_url("//ex.com/a")

    def test_idempotent(self):
        rng = random.Random(11)
        hosts = ["News.Example.COM", "ex.com", "a.b.co"]
        for _ in range(200):
            raw = "https://{}/{}?{}#sec".format(
                rng.choice(hosts),
                "/".join(f"p{rng.randrange(9)}" for _ in range(rng.randint(0, 3))),
                "&".join(f"k{i}={rng.randrange(5)}" for i in range(rng.randint(0, 3))),
            )
            once = canonicalize_url(raw)
            again = canonicalize_url(once.full)
            assert again == once

    def test_url_from_canonical_preserves_query(self):
        # loader path: must not re-filter params that a custom config kept
        c = url_from_canonical("https://ex.com/a?utm_source=kept")
        assert c.full == "https://ex.com/a?utm_source=kept"
        assert c.file_name == "a"


class TestTokenizer:
    def test_strips_urls_mentions_hashtags(self):
        text = "Free speech! #CharlieHebdo https://t.co/abc @someone"
        assert normalize_and_tokenize(text, DEFAULT_STOPWORDS) == ["free", "speech"]

    def test_retweet_prefix_dropped_as_stopword(self):
        assert normalize_and_tokenize("RT @user: Sad day", DEFAULT_STOPWORDS) == ["sad", "day"]

    def test_empty_and_symbol_only(self):
        assert normalize_and_tokenize("", DEFAULT_STOPWORDS) == []
        assert normalize_and_tokenize("!!! ... ???", DEFAULT_STOPWORDS) == []

    def test_duplicates_retained_in_order(self):
        toks = normalize_and_tokenize("goal goal GOAL", frozenset())
        assert toks == ["goal", "goal", "goal"]

    def test_apostrophe_kept_inside_word(self):
        toks = normalize_and_tokenize("Trump's rally", frozenset())
        assert toks == ["trump's", "rally"]

    def test_www_url_stripped(self):
        assert normalize_and_tokenize("see www.ex.com/a now", DEFAULT_STOPWORDS) == ["see", "now"]

    # URLs go before mentions and mentions before tags: one merged
    # alternation would take "@http" as a mention and keep x, com, story.
    def test_url_removed_before_mention(self):
        assert normalize_and_tokenize("@http://x.com/story a", frozenset()) == ["a"]

    def test_url_removed_before_hashtag(self):
        assert normalize_and_tokenize("#www.foo.com bar", frozenset()) == ["bar"]

    # Case-insensitive matching folds U+017F (long s) to "s", so "httpſ://"
    # is a URL: a guard may not look for a literal "http".
    def test_long_s_scheme_is_a_url(self):
        assert normalize_and_tokenize("httpſ://evil.com/x y", frozenset()) == ["y"]

    def test_www_in_any_case(self):
        assert normalize_and_tokenize("WwW.Example.com z", frozenset()) == ["z"]

    def test_other_schemes_kept(self):
        assert normalize_and_tokenize("ftp://x.com", frozenset()) == ["ftp", "x", "com"]


class TestWordBreak:
    LEX = frozenset(
        ["basket", "of", "deplorables", "london", "fire", "grenfell", "a", "an",
         "and", "ba", "sket", "na", "tional"]
    )

    def test_known_compound(self):
        assert word_break_hashtag("basketofdeplorables", self.LEX) == ["basket", "of", "deplorables"]

    def test_single_word(self):
        assert word_break_hashtag("london", self.LEX) == ["london"]

    def test_unsegmentable_falls_back_whole(self):
        assert word_break_hashtag("xqzw", self.LEX) == ["xqzw"]

    def test_fewest_segments_wins(self):
        # "basket" (1 segment) beats "ba sket" (2)
        assert word_break_hashtag("basket", self.LEX) == ["basket"]

    def test_lexicographic_among_equal_counts(self):
        lex = frozenset(["ab", "cd", "abc", "d"])
        # two 2-segment parses: ab|cd and abc|d; lexicographically smaller tuple wins
        assert word_break_hashtag("abcd", lex) == ["ab", "cd"]

    def test_empty_tag(self):
        assert word_break_hashtag("", self.LEX) == []

    def test_segments_concatenate_back(self):
        rng = random.Random(3)
        words = sorted(self.LEX)
        for _ in range(100):
            tag = "".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
            parts = word_break_hashtag(tag, self.LEX)
            assert "".join(parts) == tag


class TestParseStream:
    def test_valid_lines(self):
        lines = [
            json.dumps(tweet_obj(id="1", text="a")),
            json.dumps(tweet_obj(id="2", user_id="u2", text="b",
                                 hashtags=["#Tag"], urls=["http://ex.com/x"])),
        ]
        out = list(parse_stream(lines))
        assert [(t.account_id, t.text) for t in out] == [("u1", "a"), ("u2", "b")]
        assert out[1].hashtags == ("tag",)
        assert out[1].links[0].full == "http://ex.com/x"

    def test_malformed_lines_counted_and_skipped(self):
        stats = ParseStats()
        lines = [
            json.dumps(tweet_obj(id="1", text="first")),
            "{not json",
            json.dumps({"id": "3"}),  # missing required fields
            json.dumps(tweet_obj(id="4", text="fourth", created_at="yesterday")),
            json.dumps(tweet_obj(id="5", text="fifth")),
        ]
        out = list(parse_stream(lines, stats=stats))
        assert [t.text for t in out] == ["first", "fifth"]
        assert stats.parsed == 2
        assert stats.skipped == 3

    def test_retweet_flag_consistency(self):
        good = tweet_obj(id="1", text="good", is_retweet=True, retweet_of="9")
        bad = tweet_obj(id="2", text="bad", is_retweet=True)  # no source id
        out = list(parse_stream([json.dumps(good), json.dumps(bad)]))
        assert [t.text for t in out] == ["good"]
        assert out[0].is_retweet is True

    def test_bad_url_dropped_tweet_kept(self):
        line = json.dumps(tweet_obj(id="1", urls=["http://ok.com/a", "not-a-url"]))
        (t,) = parse_stream([line])
        assert [u.full for u in t.links] == ["http://ok.com/a"]

    def test_day_property_uses_utc(self):
        line = json.dumps(tweet_obj(id="1", created_at="2017-01-15T23:30:00-02:00"))
        (t,) = parse_stream([line])
        assert t.day == date(2017, 1, 16)

    def test_empty_stream(self):
        assert list(parse_stream([])) == []

    def assert_only_bad_line_skipped(self, bad):
        stats = ParseStats()
        first = json.dumps(tweet_obj(id="1", text="first"))
        second = json.dumps(tweet_obj(id="2", text="second"))
        out = list(parse_stream([first, bad, second], stats))
        assert [t.text for t in out] == ["first", "second"]
        assert (stats.lines, stats.parsed, stats.skipped) == (3, 2, 1)
        assert parse_metadata([bad]) == {}

    def test_deeply_nested_line_skipped(self):
        self.assert_only_bad_line_skipped('{"url": ' + "[" * 100_000 + "]" * 100_000 + "}")

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"])
    def test_timestamp_out_of_range_in_utc_skipped(self, stamp):
        self.assert_only_bad_line_skipped(json.dumps(tweet_obj(id="3", created_at=stamp)))

    # One grammar on every supported Python: 3.11 on would also read the
    # skipped forms, so equal corpora built different indexes. parsed is the
    # UTC time a form names, to the second; a record keeps its day.
    @pytest.mark.parametrize("stamp, parsed", [
        ("2017-01-15T12:00:00Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00+00:00", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00-02:00", "2017-01-15T14:00:00+00:00"),
        ("2017-01-15 12:00:00Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00.123456Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00.999Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15", "2017-01-15T00:00:00+00:00"),
        ("2017-01-15T23:30:00-02:00", "2017-01-16T01:30:00+00:00"),
        ("2017-01-15T00:30:00+01:00", "2017-01-14T23:30:00+00:00"),
        ("20170115T120000Z", None),  # basic format
        ("2017-W03-7T12:00:00Z", None),  # week date
        ("2017-01-15T12:00:00.1Z", None),  # one-digit fraction
        ("2017-01-15T12:00:00+0530", None),  # offset without a colon
        ("2017-01-15T12:00:00z", None),
        ("2017-01-15Z", None),  # offset without a time
        ("2017-01-15x12:00:00Z", None),  # separator other than T or space
        ("2017-01-15T12:00:00Z ", None),
        ("٢٠١٧-01-15T12:00:00Z", None),  # non-ASCII digits
        ("", None),
    ])
    def test_created_at_grammar(self, stamp, parsed):
        line = json.dumps(tweet_obj(id="3", created_at=stamp))
        if parsed is None:
            self.assert_only_bad_line_skipped(line)
        else:
            (t,) = parse_stream([line])
            assert t.day == date.fromisoformat(parsed[:10])

    def test_invalid_utf8_line_skipped(self):
        bad = json.dumps(tweet_obj(id="3", url="http://ex.com/x")).encode()
        self.assert_only_bad_line_skipped(bad.replace(b"hello", b"hel\xfflo"))

    def test_number_too_long_to_convert_skipped(self):
        self.assert_only_bad_line_skipped('{"url": "http://ex.com/a", "n": ' + "9" * 5000 + "}")

    def test_hashtag_over_tweet_length_dropped(self):
        # Counted after normalization: the '#' and case do not change the length.
        kept, dropped = "a" * MAX_HASHTAG_LENGTH, "#" + "B" * (MAX_HASHTAG_LENGTH + 1)
        (t,) = parse_stream([json.dumps(tweet_obj(id="1", hashtags=[kept, dropped, "#x"]))])
        assert MAX_HASHTAG_LENGTH == 280
        assert t.hashtags == (kept, "x")

    def test_hashtag_with_separator_or_control_character_dropped(self):
        tags = ["a/b", "a\\b", "x\x00y", "tab\x7fdel", "c1\x9fx", "café", "日本語", "ok"]
        (t,) = parse_stream([json.dumps(tweet_obj(id="1", hashtags=tags))])
        assert t.hashtags == ("café", "日本語", "ok")

    def test_bytes_lines_parse_like_str_lines(self):
        lines = [json.dumps(tweet_obj(id="1", text="café crème")) + "\r\n", "\n"]
        as_str = list(parse_stream(lines))
        assert list(parse_stream(line.encode() for line in lines)) == as_str
        assert [t.text for t in as_str] == ["café crème"]

    def test_equal_values_share_one_object(self):
        # Each line's strings are decoded anew; the stream hands back the first.
        lines = [
            json.dumps(tweet_obj(id="1", user_id="account-1", text="the same text",
                                 hashtags=["#Foo", "bar"], urls=["http://ex.com/a?utm_source=x"])),
            json.dumps(tweet_obj(id="2", user_id="account-1", text="the same text",
                                 hashtags=["FOO", "#bar"], urls=["HTTP://ex.com/a"])),
            json.dumps(tweet_obj(id="3", user_id="account-2", text="other",
                                 hashtags=["foo"], urls=["http://ex.com/a#top"])),
        ]
        first, second, third = parse_stream(line.encode() for line in lines)
        assert first.account_id is second.account_id
        assert first.text is second.text
        assert first.hashtags == ("foo", "bar") and first.hashtags is second.hashtags
        assert first.hashtags[0] is third.hashtags[0]
        assert first.links[0] is second.links[0] is third.links[0]

    def test_equal_days_share_one_object(self):
        lines = [
            json.dumps(tweet_obj(id="1", created_at="2017-01-15T12:00:00Z")),
            json.dumps(tweet_obj(id="2", created_at="2017-01-16T01:00:00+02:00")),
            json.dumps(tweet_obj(id="3", created_at="2017-01-16T01:00:00Z")),
        ]
        a, b, c = parse_stream(lines)
        assert a.day == date(2017, 1, 15) and a.day is b.day
        assert c.day == date(2017, 1, 16)

    def test_created_at_grid_matches_reference(self):
        forms, read, differing = created_at_grid_outcomes()
        assert forms >= 7_000
        assert 0 < read < forms
        assert differing == []

    def test_record_keeps_the_dataclass_contract(self):
        line = json.dumps(tweet_obj(user_id="u7", text="hi", hashtags=["#A"], urls=["http://ex.com/x"],
                                    is_retweet=True, retweet_of="9"))
        (got,) = parse_stream([line])
        want = TweetRecord(account_id="u7", day=date(2017, 1, 15), text="hi", hashtags=("a",),
                           links=(canonicalize_url("http://ex.com/x"),), is_retweet=True)
        assert type(got) is TweetRecord
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        for field in dataclasses.fields(TweetRecord):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, field.name, getattr(want, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(got, field.name)
        assert not hasattr(got, "__dict__")
        changed = dataclasses.replace(got, text="bye")
        assert changed == dataclasses.replace(want, text="bye") and got.text == "hi"


def split_parse_corpus() -> bytes:
    """Tweets between every kind of line the README says is skipped, in both line endings.

    Also blank lines, and a last line with no newline.
    """
    bad = [
        b"",
        b"   ",
        json.dumps(tweet_obj(id="b1", text="caf\u00e9")).encode().replace(b"caf", b"c\xffaf"),
        b"{not json",
        b"[1, 2]",
        b'{"url": ' + b"[" * 10_000 + b"]" * 10_000 + b"}",
        b'{"id": "b2", "n": ' + b"9" * 5000 + b"}",
        json.dumps({"id": "b3"}).encode(),
        json.dumps(tweet_obj(id="b4", text=5)).encode(),
        json.dumps(tweet_obj(id="b5", is_retweet=True)).encode(),
        json.dumps(tweet_obj(id="b6", created_at="yesterday")).encode(),
        json.dumps(tweet_obj(id="b7", created_at="0001-01-01T00:00:00+01:00")).encode(),
    ]
    lines = []
    for i in range(600):
        retweet = {"is_retweet": True, "retweet_of": "r"} if i % 7 == 0 else {}
        lines.append(json.dumps(tweet_obj(
            id=str(i), user_id=f"u{i % 13}", text=f"post {i % 9} about #t{i % 4}",
            created_at=f"2017-01-{10 + i % 5}T12:00:00Z",
            hashtags=[f"#T{i % 4}", "#x"][:: 1 if i < 300 else -1],
            urls=[f"http://Ex.com/{i % 6}?utm_source=a", "not a url"][: i % 3], **retweet)).encode())
        if i % 40 == 0:
            lines.append(bad[i // 40 % len(bad)])
    ends = [b"\r\n" if i % 3 == 0 else b"\n" for i in range(len(lines))]
    return b"".join(line + end for line, end in zip(lines, ends)) + lines[0]


def equal_lines_corpus(count: int) -> bytes:
    """count tweet lines of one length: a cut at an even share is a line start."""
    lines = [json.dumps(tweet_obj(id=f"{i:04}", text=f"text {i:04}")).encode() + b"\n"
             for i in range(count)]
    assert len(set(map(len, lines))) == 1
    return b"".join(lines)


def long_line_corpus() -> bytes:
    """A tweet line longer than half the file between short ones."""
    short = [json.dumps(tweet_obj(id=str(i), text=f"short {i}")) for i in range(4)]
    long = json.dumps(tweet_obj(id="long", text="word " * 2_000))
    data = "\n".join([short[0], long, *short[1:]]).encode() + b"\n"
    assert len(long) > len(data) / 2
    return data


class TestSplitParse:
    """parse_stream of a regular file cut into byte ranges, one per process."""

    @staticmethod
    def parse(path):
        """parse_stream's records and stats over the file at path, and its forks."""
        stats = ParseStats()
        with counted_forks() as forks, open(path, "rb") as f:
            records = list(parse_stream(f, stats))
        assert_no_child_left()
        return records, stats, len(forks)

    @staticmethod
    def serial(data: bytes):
        # A buffered reader without a file descriptor is read in one process.
        stats = ParseStats()
        return list(parse_stream(io.BufferedReader(io.BytesIO(data)), stats)), stats

    @staticmethod
    def ranges(path):
        with open(path, "rb") as f:
            return socialqe.ingest._byte_ranges(f)

    @pytest.mark.parametrize("corpus", [split_parse_corpus, lambda: equal_lines_corpus(6),
                                        long_line_corpus, bytes],
                             ids=["mixed", "exact-cuts", "long-line", "empty"])
    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_equals_the_serial_parse(self, tmp_path, cpus, corpus, processes):
        data = corpus()
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        cpus(processes)
        ranges = self.ranges(path)
        records, stats, forks = self.parse(path)
        want_records, want_stats = self.serial(data)
        assert records == want_records
        assert stats == want_stats
        assert forks == max(len(ranges) - 1, 0)
        if corpus is split_parse_corpus:
            assert forks == processes - 1
            assert stats.skipped > 12 and stats.parsed == 601
        # Equal values are one object, whichever process parsed them.
        for values in ([r.account_id for r in records], [r.day for r in records],
                       [r.text for r in records], [r.hashtags for r in records],
                       [h for r in records for h in r.hashtags],
                       [u for r in records for u in r.links]):
            assert len(set(map(id, values))) == len(set(values))
        if ranges:
            assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
            assert all(data[a - 1:a] == b"\n" for a, _ in ranges[1:])

    @pytest.mark.parametrize("processes", [2, 3])
    def test_a_cut_at_a_line_start_stays_there(self, tmp_path, cpus, processes):
        data = equal_lines_corpus(6)
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        cpus(processes)
        share = len(data) // processes
        assert [a for a, _ in self.ranges(path)] == [share * i for i in range(processes)]

    def test_a_line_longer_than_a_share_leaves_fewer_ranges(self, tmp_path, cpus):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(long_line_corpus())
        cpus(3)
        assert len(self.ranges(path)) == 2

    @staticmethod
    def in_workers(monkeypatch, worker, parent=None):
        """Make _parse_line call worker() first in a forked worker, and parent() here."""
        parse_line, here = socialqe.ingest._parse_line, os.getpid()

        def parse_line_acting(*args):
            act = worker if os.getpid() != here else parent
            if act is not None:
                act()
            return parse_line(*args)

        monkeypatch.setattr(socialqe.ingest, "_parse_line", parse_line_acting)

    def test_worker_exception_names_its_byte_range(self, tmp_path, cpus, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(split_parse_corpus())
        cpus(2)
        (_, (start, end)) = self.ranges(path)

        def fail():
            raise ValueError("no lines wanted")

        self.in_workers(monkeypatch, fail)
        with pytest.raises(RuntimeError) as caught:
            self.parse(path)
        assert str(caught.value) == \
            f"parsing bytes {start}..{end} in a worker: ValueError: no lines wanted"
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_workers(self, tmp_path, cpus, monkeypatch):
        # The workers would sleep for a minute; the interrupt ends the parse at once.
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(split_parse_corpus())
        cpus(3)

        def interrupt():
            raise KeyboardInterrupt

        self.in_workers(monkeypatch, lambda: time.sleep(60), interrupt)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.parse(path)
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_closing_the_stream_early_kills_and_reaps_the_workers(self, tmp_path, cpus,
                                                                 monkeypatch):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(split_parse_corpus())
        cpus(3)
        self.in_workers(monkeypatch, lambda: time.sleep(60))
        started = time.monotonic()
        with counted_forks() as forks, open(path, "rb") as f:
            records = parse_stream(f)
            first = next(records)
            records.close()
        assert first.account_id == "u0" and len(forks) == 2
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_fifo_corpus_is_parsed_in_one_process(self, tmp_path, cpus, monkeypatch):
        # Build in one process, so every fork counted is the parse's.
        monkeypatch.setattr(socialqe.index, "_MIN_WORKER_POSTS", 10**9)
        cpus(2)
        corpus, fifo = tmp_path / "corpus.jsonl", tmp_path / "fifo"
        corpus.write_bytes(split_parse_corpus())
        os.mkfifo(fifo)
        built = {}
        for name, path in (("file", corpus), ("fifo", fifo)):
            writer = None
            if path == fifo:
                writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', corpus, fifo])
            try:
                with counted_forks() as forks:
                    assert main(["build-index", "--corpus", str(path),
                                 "--out", str(tmp_path / f"idx-{name}")]) == 0
            finally:
                if writer is not None:
                    writer.kill()
                    writer.wait(timeout=60)
            built[name] = (tree_bytes(tmp_path / f"idx-{name}"), len(forks))
        assert built["fifo"] == (built["file"][0], 0)
        assert built["file"][1] == 1


class TestMemo:
    def test_derives_each_key_once_and_stores_none(self):
        calls = []

        def derive(key):
            calls.append(key)
            return None if key == "none" else key.upper()

        memo = Memo(derive)
        assert [memo["a"], memo["none"], memo["a"], memo["none"]] == ["A", None, "A", None]
        assert calls == ["a", "none"]
        assert dict(memo) == {"a": "A", "none": None}

    def test_emptied_when_full(self):
        memo = Memo(lambda key: -key)
        for key in range(MEMO_LIMIT):
            memo[key]
        assert len(memo) == MEMO_LIMIT
        assert memo[MEMO_LIMIT] == -MEMO_LIMIT
        assert dict(memo) == {MEMO_LIMIT: -MEMO_LIMIT}


class TestLoadWordlist:
    CAFE_NFD = unicodedata.normalize("NFD", "café")

    def test_lines_end_as_in_text_mode(self, tmp_path):
        # \r\n and \r end a line; U+2028 and U+0085 do not.
        path = tmp_path / "words.txt"
        path.write_bytes("a\r\nb\rc\u2028d\ne\x85f".encode("utf-8"))
        assert load_wordlist(path) == {"a", "b", "c\u2028d", "e\x85f"}

    def test_bad_byte_named_by_file_and_line(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"alpha\nbeta\ngam\xffma\n")
        with pytest.raises(ValueError) as caught:
            load_wordlist(path)
        assert str(caught.value).startswith(f"{path}: line 3: not UTF-8: ")

    def test_nfd_lexicon_entry_segments_nfc_tag(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text(f"{self.CAFE_NFD}\nbar\n", encoding="utf-8")
        assert self.CAFE_NFD != "café"
        assert word_break_hashtag(normalize_hashtag("#CaféBar"), load_wordlist(path)) == ["café", "bar"]

    def test_nfd_stopword_drops_nfc_token(self, tmp_path):
        path = tmp_path / "stopwords.txt"
        path.write_text(f"{self.CAFE_NFD.upper()}\n", encoding="utf-8")
        assert normalize_and_tokenize("Café ouvert", load_wordlist(path)) == ["ouvert"]


class TestParseMetadata:
    def test_last_record_wins_per_url(self):
        lines = [
            json.dumps({"url": "http://ex.com/a", "title": "old", "description": ""}),
            json.dumps({"url": "http://EX.com/a#f", "title": "new", "description": "d"}),
        ]
        meta = parse_metadata(lines)
        assert len(meta) == 1
        (m,) = meta.values()
        assert m.title == "new"
        assert m.description == "d"

    def test_missing_fields_default_empty(self):
        meta = parse_metadata([json.dumps({"url": "http://ex.com/a"})])
        (m,) = meta.values()
        assert (m.title, m.description) == ("", "")
