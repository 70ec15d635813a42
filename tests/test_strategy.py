import csv
import random
from datetime import date

import pytest

from conftest import make_tweet
from socialqe.index import build_index, build_link_doc
from socialqe.ingest import DEFAULT_STOPWORDS, LinkMetadata, canonicalize_url
from socialqe.strategy import (
    BOTH_HIGH,
    BOTH_LOW,
    GLOBAL,
    GLOBAL_ONLY_HIGH,
    LOCAL,
    LOCAL_ONLY_HIGH,
    ExpansionSet,
    PhraseTable,
    classify_behavior,
    days_in,
    global_expansions,
    local_expansions,
    match_links,
    run_comparison,
    write_comparison_csvs,
)

D = [date(2017, 1, d) for d in range(1, 6)]  # D[0] is Jan 1


def meta_for(url, title="", description=""):
    return LinkMetadata(canonicalize_url(url), title, description)


def docs(metas, stopwords):
    return [build_link_doc(m, stopwords, 4) for m in metas]


def exp(ngrams, hashtag="x", day=date(2017, 1, 1)):
    return ExpansionSet(hashtag=hashtag, strategy=LOCAL, scope=(day, day),
                        ngrams=tuple(ngrams), weights=tuple(1.0 for _ in ngrams))


def drifting_corpus():
    """Tag peaks on two days with different vocab; day 3 has no tag posts."""
    tweets = []
    for i in range(6):
        tweets.append(make_tweet(f"a{i}", day="2017-01-01",
                                 text="stadium crowd", hashtags=["match"]))
    for i in range(3):
        tweets.append(make_tweet(f"b{i}", day="2017-01-02",
                                 text="injury update", hashtags=["match"]))
    for i in range(2):
        tweets.append(make_tweet(f"c{i}", day="2017-01-03",
                                 text="quiet news", hashtags=["other"]))
    return tweets


class TestDaysIn:
    def test_inclusive(self):
        assert days_in((D[0], D[2])) == [D[0], D[1], D[2]]
        assert days_in((D[0], D[0])) == [D[0]]

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            days_in((D[2], D[0]))


class TestLocalExpansions:
    def test_top_n_of_day_vector(self):
        idx = build_index(drifting_corpus())
        got = local_expansions(idx, "match", D[0], n=2)
        assert got.strategy == LOCAL
        assert got.scope == (D[0], D[0])
        assert got.ngrams == ("crowd", "stadium")
        assert got.weights[0] == got.weights[1]

    def test_day_without_entry_is_empty(self):
        idx = build_index(drifting_corpus())
        got = local_expansions(idx, "match", D[2])
        assert got.ngrams == ()

    def test_out_of_span_rejected(self):
        idx = build_index(drifting_corpus())
        with pytest.raises(ValueError):
            local_expansions(idx, "match", date(2018, 1, 1))


class TestNegativeCounts:
    def test_local_and_global_reject_negative_n(self):
        idx = build_index(drifting_corpus())
        assert local_expansions(idx, "match", D[0], n=0).ngrams == ()
        assert global_expansions(idx, "match", (D[0], D[2]), n=0).ngrams == ()
        with pytest.raises(ValueError, match="n must be >= 0"):
            local_expansions(idx, "match", D[0], n=-1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            global_expansions(idx, "match", (D[0], D[2]), n=-1)


class TestGlobalExpansions:
    def test_merges_across_days(self):
        idx = build_index(drifting_corpus())
        got = global_expansions(idx, "match", (D[0], D[2]))
        assert got.strategy == GLOBAL
        # day-1 ngrams (6 votes) outrank day-2 ngrams (3 votes)
        assert set(got.ngrams) == {
            "crowd", "stadium", "stadium crowd", "injury", "update", "injury update",
        }
        assert list(got.ngrams[:3]) == ["crowd", "stadium", "stadium crowd"]

    def test_single_day_range_equals_local(self):
        idx = build_index(drifting_corpus())
        for day in (D[0], D[1]):
            loc = local_expansions(idx, "match", day, n=10)
            glo = global_expansions(idx, "match", (day, day), n=10)
            assert glo.ngrams == loc.ngrams
            assert glo.weights == loc.weights

    def test_max_merge_keeps_peak_weight(self):
        tweets = []
        for day, count in (("2017-01-01", 3), ("2017-01-02", 9)):
            for i in range(count):
                tweets.append(make_tweet(f"u{day}{i}", day=day,
                                         text="surge", hashtags=["x"]))
        idx = build_index(tweets)
        glo = global_expansions(idx, "x", (D[0], D[1]))
        peak = local_expansions(idx, "x", D[1]).weights[0]
        assert glo.ngrams == ("surge",)
        assert glo.weights == (peak,)

    def test_absent_hashtag_is_empty(self):
        idx = build_index(drifting_corpus())
        assert global_expansions(idx, "ghost", (D[0], D[2])).ngrams == ()


class TestMatchLinks:
    LEX = frozenset(["basket", "of", "deplorables"])

    def test_raw_hashtag_token_matches(self):
        links = [meta_for("http://ex.com/a", title="the storm hits")]
        got = match_links(docs(links, DEFAULT_STOPWORDS), "storm", exp([]), frozenset(), DEFAULT_STOPWORDS)
        assert [(m.field, m.phrase) for m in got] == [("title", "storm")]

    def test_word_broken_form_matches(self):
        links = [meta_for("http://ex.com/a", title="A basket of deplorables indeed")]
        got = match_links(docs(links, DEFAULT_STOPWORDS), "basketofdeplorables", exp([]), self.LEX, DEFAULT_STOPWORDS)
        # stopwords drop on both sides: "basket deplorables" hits the title
        assert [(m.field, m.phrase) for m in got] == [("title", "basket deplorables")]

    def test_expansion_ngram_matches_description(self):
        links = [meta_for("http://ex.com/a", title="unrelated",
                          description="full election polls roundup")]
        got = match_links(docs(links, DEFAULT_STOPWORDS), "x", exp(["election polls"]), frozenset(), DEFAULT_STOPWORDS)
        assert [(m.field, m.phrase) for m in got] == [("description", "election polls")]

    def test_phrase_must_be_contiguous(self):
        links = [meta_for("http://ex.com/a", title="election results and polls")]
        got = match_links(docs(links, DEFAULT_STOPWORDS), "x", exp(["election polls"]), frozenset(), DEFAULT_STOPWORDS)
        assert got == []

    def test_no_needles_no_matches(self):
        # hashtag made entirely of stopwords and no expansions
        links = [meta_for("http://ex.com/a", title="anything at all")]
        assert match_links(docs(links, DEFAULT_STOPWORDS), "the", exp([]), frozenset(), DEFAULT_STOPWORDS) == []

    def test_first_needle_wins_as_witness(self):
        links = [meta_for("http://ex.com/a", title="storm surge flood")]
        got = match_links(docs(links, DEFAULT_STOPWORDS), "storm", exp(["surge"]), frozenset(), DEFAULT_STOPWORDS)
        assert got[0].phrase == "storm"

    def test_duplicate_urls_counted_once(self):
        m = meta_for("http://ex.com/a", title="storm")
        got = match_links(docs([m, m], DEFAULT_STOPWORDS), "storm", exp([]), frozenset(), DEFAULT_STOPWORDS)
        assert len(got) == 1

    def test_order_preserved(self):
        links = [meta_for("http://ex.com/b", title="storm b"),
                 meta_for("http://ex.com/a", title="storm a")]
        got = match_links(docs(links, DEFAULT_STOPWORDS), "storm", exp([]), frozenset(), DEFAULT_STOPWORDS)
        assert [m.meta.url.full for m in got] == ["http://ex.com/b", "http://ex.com/a"]

    def test_more_expansions_never_lose_matches(self):
        rng = random.Random(12)
        vocab = ["w%d" % i for i in range(8)]
        links = [
            meta_for("http://ex.com/%d" % i,
                     title=" ".join(rng.choice(vocab) for _ in range(5)))
            for i in range(30)
        ]
        grams = ["w1", "w2 w3", "w4", "w0 w0"]
        for cut in range(len(grams)):
            small = match_links(docs(links, frozenset()), "zzz", exp(grams[:cut]), frozenset(), frozenset())
            big = match_links(docs(links, frozenset()), "zzz", exp(grams[:cut + 1]), frozenset(), frozenset())
            assert {m.meta.url.full for m in small} <= {m.meta.url.full for m in big}

    def test_witness_actually_contained(self):
        rng = random.Random(44)
        vocab = ["w%d" % i for i in range(6)]
        links = [
            meta_for("http://ex.com/%d" % i,
                     title=" ".join(rng.choice(vocab) for _ in range(6)),
                     description=" ".join(rng.choice(vocab) for _ in range(4)))
            for i in range(40)
        ]
        grams = ["w0", "w1 w2", "w3 w4 w5"]
        for m in match_links(docs(links, frozenset()), "w5", exp(grams), frozenset(), frozenset()):
            field_text = m.meta.title if m.field == "title" else m.meta.description
            assert f" {m.phrase} " in f" {field_text} "


class TestClassify:
    def test_all_four_quadrants(self):
        assert classify_behavior(0, 25, 10) == (GLOBAL_ONLY_HIGH, False)
        assert classify_behavior(25, 0, 10) == (LOCAL_ONLY_HIGH, True)
        assert classify_behavior(25, 25, 10) == (BOTH_HIGH, True)
        assert classify_behavior(0, 0, 10) == (BOTH_LOW, False)

    def test_threshold_boundary(self):
        assert classify_behavior(10, 9, 10) == (LOCAL_ONLY_HIGH, True)
        assert classify_behavior(9, 10, 10) == (GLOBAL_ONLY_HIGH, False)
        assert classify_behavior(10, 10, 10) == (BOTH_HIGH, True)
        assert classify_behavior(9, 9, 10) == (BOTH_LOW, False)

    def test_include_iff_local_high(self):
        for lc in range(0, 21, 5):
            for gc in range(0, 21, 5):
                assert classify_behavior(lc, gc, 10).include == (lc >= 10)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_behavior(1, 1, 0)


def comparison_fixture():
    """Small corpus where day 2 matches only via the global set."""
    tweets = []
    meta = {}
    # day 1: tag posts about "rally crowd" plus 12 same-day links titled to match
    for i in range(12):
        tweets.append(make_tweet(f"a{i}", day="2017-01-01",
                                 text="rally crowd", hashtags=["rally"]))
    for i in range(12):
        url = f"http://news.ex/one-{i}"
        tweets.append(make_tweet(f"la{i}", day="2017-01-01", urls=[url]))
        meta[url] = meta_for(url, title=f"rally crowd report {i}")
    # day 2: the tag goes quiet (one off-topic post), but 12 links about the
    # crowd still circulate; their titles avoid the literal tag token so only
    # carried-over expansion vocabulary can reach them
    tweets.append(make_tweet("q0", day="2017-01-02",
                             text="breakfast pics", hashtags=["rally"]))
    for i in range(12):
        url = f"http://news.ex/two-{i}"
        tweets.append(make_tweet(f"lb{i}", day="2017-01-02", urls=[url]))
        meta[url] = meta_for(url, title=f"crowd wrapup {i}")
    return build_index(tweets, metadata=meta)


class TestRunComparison:
    def test_quadrant_shift_between_days(self):
        idx = comparison_fixture()
        result = run_comparison(idx, ["rally"])
        d1, d2 = date(2017, 1, 1), date(2017, 1, 2)
        v1 = result.verdicts[("rally", d1)]
        v2 = result.verdicts[("rally", d2)]
        # day 1: both strategies carry "rally crowd" and the tag token itself
        assert v1.category == BOTH_HIGH and v1.include
        # day 2: the local vector is "breakfast pics"; only the global set
        # still carries day-1 vocabulary
        assert v2.local_count < 12 <= v2.global_count
        assert v2.category == GLOBAL_ONLY_HIGH and not v2.include

    def test_totals_sum_over_hashtags(self):
        idx = comparison_fixture()
        result = run_comparison(idx, ["rally", "ghost"])
        for day, (lt, gt) in result.totals.items():
            want_l = sum(result.series[t][0].counts[day] for t in ("rally", "ghost"))
            want_g = sum(result.series[t][1].counts[day] for t in ("rally", "ghost"))
            assert (lt, gt) == (want_l, want_g)

    def test_deterministic(self):
        idx = comparison_fixture()
        assert run_comparison(idx, ["rally"]) == run_comparison(idx, ["rally"])

    def test_range_outside_span_rejected(self):
        idx = comparison_fixture()
        with pytest.raises(ValueError):
            run_comparison(idx, ["rally"], day_range=(date(2016, 1, 1), date(2017, 1, 2)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": -1}, "n must be >= 0"),
        ({"threshold": 0}, "threshold must be >= 1"),
    ], ids=["negative-n", "zero-threshold"])
    def test_bad_count_rejected_before_matching(self, monkeypatch, kwargs, message):
        idx = comparison_fixture()

        def must_not_run(*args, **kwargs):
            raise AssertionError("matched links before checking the arguments")

        monkeypatch.setattr(PhraseTable, "hits", must_not_run)
        monkeypatch.setattr(type(idx), "link_doc", must_not_run)
        with pytest.raises(ValueError, match=message):
            run_comparison(idx, ["rally", "ghost"], **kwargs)

    def test_phrase_longer_than_max_ngram_matches(self):
        # Matching is by token run, of any length: a 5-word broken phrase
        # matches under max_ngram=4, where it never scores in a rerank
        # (test_retrieval's TestLongTermsNeverScore).
        lexicon = frozenset(["crimson", "sky", "burns", "blue", "sea"])
        tweets = [make_tweet(f"a{i}", day="2017-01-01", text="quiet",
                             hashtags=["crimsonskyburnsbluesea"], urls=["http://ex.com/7"])
                  for i in range(3)]
        meta = {"http://ex.com/7": meta_for("http://ex.com/7",
                                            title="Crimson sky burns blue sea")}
        idx = build_index(tweets, metadata=meta, lexicon=lexicon)
        assert idx.params.max_ngram == 4
        result = run_comparison(idx, ["crimsonskyburnsbluesea"], n=0, threshold=1)
        local, glob = result.series["crimsonskyburnsbluesea"]
        assert local.counts == glob.counts == {date(2017, 1, 1): 1}

    def test_zero_n_matches_the_tag_and_its_broken_form_only(self):
        idx = comparison_fixture()
        result = run_comparison(idx, ["rally"], n=0, threshold=1)
        local, glob = result.series["rally"]
        assert local.counts == glob.counts == {date(2017, 1, 1): 12, date(2017, 1, 2): 0}

    def test_aliased_canonical_url_counted_once(self):
        idx = comparison_fixture()
        metadata = dict(idx.metadata)
        # a second day-1 link whose metadata names the first link's URL
        metadata["http://news.ex/one-1"] = metadata["http://news.ex/one-0"]
        result = run_comparison(idx, ["rally"], metadata=metadata)
        local, glob = result.series["rally"]
        assert local.counts[date(2017, 1, 1)] == glob.counts[date(2017, 1, 1)] == 11

    def test_empty_index_needs_explicit_range(self):
        with pytest.raises(ValueError):
            run_comparison(build_index([]), ["x"])


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path):
        idx = comparison_fixture()
        result = run_comparison(idx, ["rally"])
        paths = write_comparison_csvs(result, tmp_path)
        names = {p.name for p in paths}
        assert names == {"rally.csv", "totals.csv"}
        with open(tmp_path / "rally.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        local, glob = result.series["rally"]
        assert [date.fromisoformat(r["day"]) for r in rows] == list(local.counts)
        assert [int(r["local_count"]) for r in rows] == list(local.counts.values())
        assert [int(r["global_count"]) for r in rows] == list(glob.counts.values())

    def test_csv_shape(self, tmp_path):
        idx = comparison_fixture()
        write_comparison_csvs(run_comparison(idx, ["rally"]), tmp_path)
        lines = (tmp_path / "rally.csv").read_text().splitlines()
        assert lines[0] == "day,local_count,global_count,category,include"
        assert lines[1].startswith("2017-01-01,")
        assert lines[1].endswith(",true") or lines[1].endswith(",false")
        totals = (tmp_path / "totals.csv").read_text().splitlines()
        assert totals[0] == "day,local_total,global_total"
        assert len(totals) == 3
