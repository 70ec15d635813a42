from datetime import date

import pytest

from socialqe.index import build_index
from socialqe.ingest import ParseStats, parse_metadata, parse_stream
from socialqe.scenarios import bundled_names, get_scenario
from socialqe.synth import (
    EventSpec,
    LinkTemplate,
    ScenarioSpec,
    gen_synthetic_corpus,
    iter_tweet_objects,
    scenario_hashtags,
    scenario_metadata,
    validate_spec,
)
from socialqe.votes import ElementKey

D1 = date(2017, 5, 1)
D2 = date(2017, 5, 2)


def tiny_spec(**over):
    fields = dict(
        name="tiny",
        start=D1,
        end=D2,
        events=(
            EventSpec(
                hashtag="storm",
                days=(D1,),
                phrases=("heavy rain", "wind damage"),
                accounts=3,
                links=(LinkTemplate("http://news.ex/storm", "Storm hits", "d"),),
                retweet_accounts=2,
            ),
        ),
        noise_rate=2,
        noise_vocabulary=("lunch", "coffee"),
        noise_accounts=5,
        lexicon=("heavy", "rain"),
    )
    fields.update(over)
    return ScenarioSpec(**fields)


class TestValidate:
    def test_tiny_spec_is_valid(self):
        validate_spec(tiny_spec())

    def test_day_outside_range(self):
        bad = tiny_spec(events=(EventSpec("x", (date(2018, 1, 1),), ("p",), 1),))
        with pytest.raises(ValueError, match="outside"):
            validate_spec(bad)

    def test_zero_accounts(self):
        bad = tiny_spec(events=(EventSpec("x", (D1,), ("p",), 0),))
        with pytest.raises(ValueError, match="accounts"):
            validate_spec(bad)

    def test_phrase_accounts_length_mismatch(self):
        bad = tiny_spec(events=(EventSpec("x", (D1,), ("p", "q"), 5,
                                          phrase_accounts=(2,)),))
        with pytest.raises(ValueError, match="phrase_accounts"):
            validate_spec(bad)

    def test_phrase_accounts_exceeding_pool(self):
        bad = tiny_spec(events=(EventSpec("x", (D1,), ("p",), 5,
                                          phrase_accounts=(9,)),))
        with pytest.raises(ValueError):
            validate_spec(bad)

    def test_noise_without_vocabulary(self):
        bad = tiny_spec(noise_rate=3, noise_vocabulary=(), noise_accounts=0)
        with pytest.raises(ValueError, match="noise"):
            validate_spec(bad)


class TestGeneration:
    def test_deterministic_for_seed(self):
        a = list(iter_tweet_objects(tiny_spec(), seed=5))
        b = list(iter_tweet_objects(tiny_spec(), seed=5))
        assert a == b

    def test_seed_changes_only_noise(self):
        a = [t for t in iter_tweet_objects(tiny_spec(), 1) if t["hashtags"]]
        b = [t for t in iter_tweet_objects(tiny_spec(), 2) if t["hashtags"]]
        assert a == b

    def test_ids_unique_and_sequential(self):
        ids = [t["id"] for t in iter_tweet_objects(tiny_spec(), 5)]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)

    def test_every_event_tweet_carries_links_and_tag(self):
        for t in iter_tweet_objects(tiny_spec(), 5):
            if t["hashtags"]:
                assert t["hashtags"] == ["storm"]
                assert t["urls"] == ["http://news.ex/storm"]

    def test_retweets_reference_first_original(self):
        tweets = list(iter_tweet_objects(tiny_spec(), 5))
        rts = [t for t in tweets if t["is_retweet"]]
        assert len(rts) == 4  # 2 retweeters x 2 phrases
        first_original = {}
        for t in tweets:
            if not t["is_retweet"] and t["hashtags"]:
                first_original.setdefault(t["text"], t["id"])
        for rt in rts:
            phrase = rt["text"][3:]  # strip "RT "
            assert rt["retweet_of"] == first_original[phrase]

    def test_parses_cleanly(self):
        stats = ParseStats()
        import json
        records = list(parse_stream(
            (json.dumps(t) for t in iter_tweet_objects(tiny_spec(), 5)), stats=stats))
        assert stats.skipped == 0
        assert stats.parsed == len(records) == 3 * 2 + 4 + 2 * 2  # posts + rts + noise

    def test_empty_scenario(self):
        quiet = ScenarioSpec(name="quiet", start=D1, end=D1)
        assert list(iter_tweet_objects(quiet, 1)) == []

    def test_account_votes_flow_through_aggregation(self):
        spec = tiny_spec(events=(
            EventSpec("storm", (D1,), ("heavy rain",), 50),), noise_rate=0)
        import json
        idx = build_index(parse_stream(json.dumps(t) for t in iter_tweet_objects(spec, 1)))
        rec = idx.day_records[D1][ElementKey("hashtag", "storm")]
        assert rec.total_votes == 50


class TestScenarioFiles:
    def test_gen_writes_all_files(self, tmp_path):
        out = gen_synthetic_corpus(tiny_spec(), 5, tmp_path / "corp")
        for path in out:
            assert path.exists(), path
        assert out.corpus.name == "corpus.jsonl"
        lex = set(out.lexicon.read_text().split())
        assert lex == {"heavy", "rain"}
        assert out.hashtags.read_text().split() == ["storm"]
        assert "lexicon=lexicon.txt" in out.config.read_text()

    def test_gen_is_byte_deterministic(self, tmp_path):
        a = gen_synthetic_corpus(tiny_spec(), 9, tmp_path / "a")
        b = gen_synthetic_corpus(tiny_spec(), 9, tmp_path / "b")
        assert a.corpus.read_bytes() == b.corpus.read_bytes()
        assert a.metadata.read_bytes() == b.metadata.read_bytes()

    def test_metadata_covers_event_links(self):
        rows = scenario_metadata(tiny_spec())
        assert [r["url"] for r in rows] == ["http://news.ex/storm"]
        assert rows[0]["title"] == "Storm hits"

    def test_hashtags_skip_link_only_events(self):
        spec = tiny_spec(events=(
            EventSpec("storm", (D1,), ("p",), 1),
            EventSpec("", (D1,), ("q",), 1, links=(LinkTemplate("http://x.ex/a"),)),
        ))
        assert scenario_hashtags(spec) == ["storm"]

    def test_metadata_parses_back(self, tmp_path):
        out = gen_synthetic_corpus(tiny_spec(), 5, tmp_path / "corp")
        meta = parse_metadata(out.metadata.read_text().splitlines())
        assert set(meta) == {"http://news.ex/storm"}


class TestBundled:
    def test_names(self):
        names = bundled_names()
        assert "false-positive-peak" in names
        assert "dominant-event" in names
        assert "aspect-shift" in names
        assert "single-event" in names

    def test_unknown_scenario_lists_options(self):
        with pytest.raises(LookupError, match="false-positive-peak"):
            get_scenario("nope")

    def test_bundled_specs_validate(self):
        for name in bundled_names():
            validate_spec(get_scenario(name))
