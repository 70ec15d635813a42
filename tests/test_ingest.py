import json
import random

import pytest

from socialqe.ingest import (
    DEFAULT_STOPWORDS,
    MAX_HASHTAG_LENGTH,
    ParseStats,
    canonicalize_url,
    normalize_and_tokenize,
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


class TestCanonicalize:
    def test_lowercases_scheme_and_host(self):
        c = canonicalize_url("HTTP://Politico.Com/Story/A")
        assert c.full == "http://politico.com/Story/A"
        assert c.host == "politico.com"
        assert c.path == "/Story/A"

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
        assert [t.tweet_id for t in out] == ["1", "2"]
        assert out[1].hashtags == ("tag",)
        assert out[1].links[0].full == "http://ex.com/x"

    def test_malformed_lines_counted_and_skipped(self):
        stats = ParseStats()
        lines = [
            json.dumps(tweet_obj(id="1")),
            "{not json",
            json.dumps({"id": "3"}),  # missing required fields
            json.dumps(tweet_obj(id="4", created_at="yesterday")),
            json.dumps(tweet_obj(id="5")),
        ]
        out = list(parse_stream(lines, stats=stats))
        assert [t.tweet_id for t in out] == ["1", "5"]
        assert stats.parsed == 2
        assert stats.skipped == 3

    def test_retweet_flag_consistency(self):
        good = tweet_obj(id="1", is_retweet=True, retweet_of="9")
        bad = tweet_obj(id="2", is_retweet=True)  # no source id
        out = list(parse_stream([json.dumps(good), json.dumps(bad)]))
        assert [t.tweet_id for t in out] == ["1"]
        assert out[0].retweet_of == "9"

    def test_bad_url_dropped_tweet_kept(self):
        line = json.dumps(tweet_obj(id="1", urls=["http://ok.com/a", "not-a-url"]))
        (t,) = parse_stream([line])
        assert [u.full for u in t.links] == ["http://ok.com/a"]

    def test_day_property_uses_utc(self):
        line = json.dumps(tweet_obj(id="1", created_at="2017-01-15T23:30:00-02:00"))
        (t,) = parse_stream([line])
        assert str(t.day) == "2017-01-16"

    def test_empty_stream(self):
        assert list(parse_stream([])) == []

    def assert_only_bad_line_skipped(self, bad):
        stats = ParseStats()
        good = json.dumps(tweet_obj(id="1"))
        out = list(parse_stream([good, bad, good.replace('"1"', '"2"')], stats))
        assert [t.tweet_id for t in out] == ["1", "2"]
        assert (stats.lines, stats.parsed, stats.skipped) == (3, 2, 1)
        assert parse_metadata([bad]) == {}

    def test_deeply_nested_line_skipped(self):
        self.assert_only_bad_line_skipped('{"url": ' + "[" * 100_000 + "]" * 100_000 + "}")

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"])
    def test_timestamp_out_of_range_in_utc_skipped(self, stamp):
        self.assert_only_bad_line_skipped(json.dumps(tweet_obj(id="3", created_at=stamp)))

    # One grammar on every supported Python: 3.11 on would also read the
    # skipped forms, so equal corpora built different indexes.
    @pytest.mark.parametrize("stamp, parsed", [
        ("2017-01-15T12:00:00Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00+00:00", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00-02:00", "2017-01-15T14:00:00+00:00"),
        ("2017-01-15 12:00:00Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00.123456Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00:00.999Z", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15T12:00", "2017-01-15T12:00:00+00:00"),
        ("2017-01-15", "2017-01-15T00:00:00+00:00"),
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
            assert t.timestamp.isoformat() == parsed

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
