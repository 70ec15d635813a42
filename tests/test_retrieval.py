import hashlib
import random
import sys
import threading
from datetime import date
from unittest import mock

import pytest

import socialqe.ingest
import socialqe.retrieval
from conftest import build_scenario_index, make_tweet
from socialqe.index import broken_phrase, build_index, build_link_doc
from socialqe.ingest import (
    DEFAULT_STOPWORDS,
    LinkMetadata,
    canonicalize_url,
    file_name_tokens,
)
from socialqe.retrieval import (
    ExpandedQuery,
    RerankedLink,
    doc_term_vector,
    expand_query,
    sim,
    sprf_rerank,
    sqe_score,
)
from socialqe.strategy import run_comparison
from socialqe.votes import element_weight

DAY = date(2017, 1, 15)
NONE = frozenset()


def meta_for(url, title="", description=""):
    return LinkMetadata(canonicalize_url(url), title, description)


class TestSim:
    def test_frozen_example(self):
        q = {"fire": 0.4, "tower": 0.5, "smoke": 0.9}
        d = {"fire": 1.0, "rescue": 1.0, "tower": 1.0, "crews": 1.0}
        assert sim(q, d) == pytest.approx(0.9, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert sim({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_always_a_float(self):
        for q, d in (({"a": 1.0}, {"b": 1.0}), ({}, {}), ({"a": 1.0}, {"a": 2.0})):
            assert type(sim(q, d)) is float

    def test_empty_sides(self):
        assert sim({}, {"a": 1.0}) == 0.0
        assert sim({"a": 1.0}, {}) == 0.0

    def test_exact_symmetry_random(self):
        rng = random.Random(6)
        vocab = ["t%d" % i for i in range(30)]
        for _ in range(500):
            q = {t: rng.uniform(0, 2) for t in rng.sample(vocab, rng.randint(0, 10))}
            d = {t: rng.uniform(0, 2) for t in rng.sample(vocab, rng.randint(0, 10))}
            assert sim(q, d) == sim(d, q)  # bitwise, not approx

    def test_matches_nested_loop_oracle(self):
        rng = random.Random(7)
        vocab = ["t%d" % i for i in range(30)]
        for _ in range(300):
            q = {t: rng.uniform(0, 2) for t in rng.sample(vocab, rng.randint(0, 10))}
            d = {t: rng.uniform(0, 2) for t in rng.sample(vocab, rng.randint(0, 10))}
            want = 0.0
            for t1, w1 in q.items():
                for t2, w2 in d.items():
                    if t1 == t2:
                        want += w1 * w2
            assert sim(q, d) == pytest.approx(want, abs=1e-9)


class TestDocVectors:
    def test_title_ngrams_binary(self):
        m = meta_for("http://ex.com/x", title="Grenfell tower fire")
        vec = doc_term_vector(m, "title", NONE)
        assert vec == {
            "grenfell": 1.0, "tower": 1.0, "fire": 1.0,
            "grenfell tower": 1.0, "tower fire": 1.0, "grenfell tower fire": 1.0,
        }

    def test_empty_description(self):
        m = meta_for("http://ex.com/x", title="t")
        assert doc_term_vector(m, "description", NONE) == {}

    def test_file_name_drops_digits_and_separators(self):
        m = meta_for("http://ex.com/2017/06/grenfell-tower-fire-42.html")
        assert file_name_tokens(m.url.file_name, NONE) == [
            "grenfell", "tower", "fire", "html",
        ]
        vec = doc_term_vector(m, "file_name", NONE)
        assert vec["grenfell tower fire"] == 1.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            doc_term_vector(meta_for("http://ex.com/x"), "body", NONE)

    def test_stopwords_removed_before_ngrams(self):
        m = meta_for("http://ex.com/x", title="basket of deplorables")
        vec = doc_term_vector(m, "title", DEFAULT_STOPWORDS)
        assert "basket deplorables" in vec
        assert "basket of deplorables" not in vec


class TestBrokenPhrase:
    def test_drops_stopwords(self):
        lex = frozenset(["basket", "of", "deplorables"])
        assert broken_phrase("basketofdeplorables", lex, DEFAULT_STOPWORDS) == "basket deplorables"

    def test_unsegmentable_falls_back(self):
        assert broken_phrase("xqzw", frozenset(["a"]), DEFAULT_STOPWORDS) == "xqzw"

    def test_all_stopword_segments_fall_back(self):
        lex = frozenset(["of", "the"])
        assert broken_phrase("ofthe", lex, DEFAULT_STOPWORDS) == "ofthe"


def mini_index():
    """One hashtag, three links, vector dominated by 'tower fire'."""
    tweets = []
    for i in range(20):
        tweets.append(make_tweet(f"a{i}", text="tower fire crews",
                                 hashtags=["grenfell"], urls=["http://ex.com/alpha"]))
    for i in range(10):
        tweets.append(make_tweet(f"b{i}", text="tower fire",
                                 hashtags=["grenfell"], urls=["http://ex.com/beta"]))
    for i in range(4):
        tweets.append(make_tweet(f"c{i}", text="rescue effort",
                                 hashtags=["grenfell"], urls=["http://ex.com/gamma"]))
    meta = {
        "http://ex.com/alpha": meta_for("http://ex.com/alpha",
                                        title="Tower fire kills dozens",
                                        description="crews respond to the tower"),
        "http://ex.com/beta": meta_for("http://ex.com/beta",
                                       title="Morning briefing"),
        "http://ex.com/gamma": meta_for("http://ex.com/gamma",
                                        title="Rescue effort continues overnight"),
    }
    return build_index(tweets, metadata=meta)


class TestExpandQuery:
    def test_normalizes_to_peak_and_adds_phrase(self):
        idx = mini_index()
        q = expand_query(idx, "grenfell", DAY, k=10)
        assert q.terms["grenfell"] == 1.0  # word-broken form (trivially itself)
        peak = max(q.terms.values())
        assert peak == 1.0
        # strongest vector ngram normalized to exactly 1.0
        strongest = idx.entry("grenfell", DAY).vector[0]
        assert q.terms[strongest.ngram] == 1.0

    def test_k_truncates(self):
        idx = mini_index()
        q2 = expand_query(idx, "grenfell", DAY, k=2)
        vec = idx.entry("grenfell", DAY).vector
        assert set(q2.terms) == {e.ngram for e in vec[:2]} | {"grenfell"}

    def test_zero_k_leaves_phrase_only(self):
        idx = mini_index()
        q = expand_query(idx, "grenfell", DAY, k=0)
        assert q.terms == {"grenfell": 1.0}

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            expand_query(mini_index(), "grenfell", DAY, k=-1)

    def test_missing_entry_raises(self):
        with pytest.raises(LookupError):
            expand_query(mini_index(), "grenfell", date(2016, 1, 1))

    def test_weights_proportional_to_vector(self):
        idx = mini_index()
        q = expand_query(idx, "grenfell", DAY, k=10)
        vec = idx.entry("grenfell", DAY).vector
        peak = vec[0].weight
        for e in vec[:10]:
            if e.ngram in q.terms and e.ngram != "grenfell":
                assert q.terms[e.ngram] == pytest.approx(e.weight / peak, abs=1e-12)


class TestSqeScore:
    def test_no_overlap_scores_zero(self):
        q = ExpandedQuery("x", DAY, {"quantum": 1.0})
        s = sqe_score(q, build_link_doc(meta_for("http://ex.com/a", title="cooking pasta"), NONE, 4))
        assert s.score == 0.0
        assert s.field_scores == (0.0, 0.0, 0.0)

    def test_best_field_wins(self):
        q = ExpandedQuery("x", DAY, {"fire": 1.0, "tower fire": 0.8})
        m = meta_for("http://ex.com/tower-fire", title="fire")
        s = sqe_score(q, build_link_doc(m, NONE, 4))
        # title matches "fire" (1.0); file_name matches fire and "tower fire" (1.8)
        assert s.field_scores[0] == pytest.approx(1.0)
        assert s.field_scores[2] == pytest.approx(1.8)
        assert s.score == pytest.approx(1.8)


class TestRerank:
    def test_orders_by_text_times_social(self):
        idx = mini_index()
        rows = sprf_rerank(idx, "grenfell", DAY)
        # beta's metadata shares nothing with the query, so even its larger
        # social weight cannot lift a zero text score above gamma
        assert [r.url.full for r in rows] == [
            "http://ex.com/alpha", "http://ex.com/gamma", "http://ex.com/beta",
        ]
        assert rows[0].total > rows[1].total > rows[2].total == 0.0
        for r in rows:
            assert r.total == pytest.approx(r.text_score * r.social_weight, abs=1e-12)

    def test_social_weight_decides_equal_text(self):
        tweets = []
        for i in range(12):
            tweets.append(make_tweet(f"a{i}", text="storm",
                                     hashtags=["x"], urls=["http://ex.com/big"]))
        for i in range(5):
            tweets.append(make_tweet(f"b{i}", text="storm",
                                     hashtags=["x"], urls=["http://ex.com/small"]))
        meta = {u: meta_for(u, title="storm warning")
                for u in ("http://ex.com/big", "http://ex.com/small")}
        idx = build_index(tweets, metadata=meta)
        rows = sprf_rerank(idx, "x", DAY)
        assert rows[0].text_score == pytest.approx(rows[1].text_score)
        assert [r.url.full for r in rows] == ["http://ex.com/big", "http://ex.com/small"]

    def test_missing_metadata_falls_back_to_file_name(self):
        tweets = [make_tweet(f"a{i}", text="tower fire",
                             hashtags=["grenfell"],
                             urls=["http://ex.com/tower-fire-report"])
                  for i in range(8)]
        idx = build_index(tweets)  # no metadata at all
        (row,) = sprf_rerank(idx, "grenfell", DAY)
        assert row.text_score > 0
        assert row.field_scores[0] == 0.0
        assert row.field_scores[2] > 0

    def test_k_truncates(self):
        idx = mini_index()
        assert len(sprf_rerank(idx, "grenfell", DAY, k=2)) == 2

    def test_zero_k_is_empty_negative_k_rejected(self):
        idx = mini_index()
        assert sprf_rerank(idx, "grenfell", DAY, k=0) == []
        with pytest.raises(ValueError, match="k must be >= 0"):
            sprf_rerank(idx, "grenfell", DAY, k=-1)

    def test_url_tiebreak_when_totals_equal(self):
        tweets = []
        for i in range(5):
            tweets.append(make_tweet(f"a{i}", text="same words",
                                     hashtags=["x"],
                                     urls=["http://ex.com/bbb", "http://ex.com/aaa"]))
        idx = build_index(tweets)
        rows = sprf_rerank(idx, "x", DAY)
        assert rows[0].total == rows[1].total
        assert [r.url.full for r in rows] == ["http://ex.com/aaa", "http://ex.com/bbb"]

    def test_missing_entry_raises(self):
        with pytest.raises(LookupError):
            sprf_rerank(mini_index(), "grenfell", date(2016, 1, 1))

    @pytest.mark.parametrize(
        "name", ["false-positive-peak", "aspect-shift", "dominant-event", "single-event"]
    )
    def test_field_scores_equal_fresh_term_vectors(self, scenario_index, name):
        _, idx = scenario_index(name)
        p = idx.params
        fields = ("title", "description", "file_name")
        for hashtag, day in sorted(idx.entries, key=lambda k: (k[1], k[0])):
            query = expand_query(idx, hashtag, day, p.expansion_size)
            for row in sprf_rerank(idx, hashtag, day, k=10**6):
                meta = idx.metadata.get(row.url.full) or LinkMetadata(url=row.url)
                want = tuple(
                    sim(query.terms, doc_term_vector(meta, f, idx.stopwords, p.max_ngram))
                    for f in fields
                )
                assert row.field_scores == want  # bit for bit, not approx

    @pytest.mark.parametrize(
        "name", ["false-positive-peak", "aspect-shift", "dominant-event", "single-event"]
    )
    def test_every_score_is_a_float(self, scenario_index, name):
        # dominant-event: berlin on 2016-12-19 shares no term with one field.
        _, idx = scenario_index(name)
        for hashtag, day in idx.entries:
            for row in sprf_rerank(idx, hashtag, day, k=10**6):
                assert type(row.text_score) is float
                assert [type(s) for s in row.field_scores] == [float] * 3


def rerank_digest(idx):
    """sha256 over every hashtag-day's full rerank, totals and field scores as float.hex."""
    lines = []
    for hashtag, day in sorted(idx.entries, key=lambda k: (k[1], k[0])):
        for row in sprf_rerank(idx, hashtag, day, k=10**6):
            # Every score is a float (TestRerank.test_every_score_is_a_float).
            scores = "\t".join(s.hex() for s in row.field_scores)
            lines.append(f"{day}\t{hashtag}\t{row.url.full}\t{row.total.hex()}\t{scores}")
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestRerankOutputUnchanged:
    # Recorded before the tokenizer and ngram kernel were rewritten (seed 7).
    # doc_term_vector shares that kernel with the link documents, so only a
    # recorded digest catches a kernel change that moves a token or an ngram.
    @pytest.mark.parametrize("name, rows, digest", [
        ("single-event", 25,
         "27cad41ca0c0dd6fac518b55fb6d27be249c8a5333579fde96f9713bbc1f93bf"),
        ("aspect-shift", 48,
         "88c6b9d979a83c8e79a85c7d3dcded4152dc87489ab45c5aefc895de9084631b"),
        ("dominant-event", 11,
         "60dc76ca88616435891fd81be4bd7fc2a2d9a96ed98a9ba989f7e112163be378"),
        ("false-positive-peak", 8,
         "93a30cea605170dba296deada0191be53ad403991fc9c8a087ca951f0710f4dd"),
    ])
    def test_scenario_rerank_digest_unchanged(self, scenario_index, name, rows, digest):
        _, idx = scenario_index(name)
        assert rerank_digest(idx) == (rows, digest)


class TestBoundedLinkDocCache:
    # At a limit of 4, aspect-shift's 33 links empty the link-doc cache many
    # times over; dominant-event's 4 links just fill it.
    @pytest.mark.parametrize("name, emptied", [("dominant-event", False), ("aspect-shift", True)])
    def test_answers_unchanged_and_cache_bounded(self, scenario_index, name, emptied):
        _, reference = scenario_index(name)
        hashtags = sorted({h for h, _ in reference.entries})
        with mock.patch.object(socialqe.ingest, "MEMO_LIMIT", 4):
            _, idx = build_scenario_index(name)
            docs = idx._link_docs
            derive, derived = docs.derive, []

            def checked(meta):
                assert len(docs) <= 4
                derived.append(meta)
                return derive(meta)

            docs.derive = checked
            for hashtag, day in sorted(idx.entries, key=lambda k: (k[1], k[0])):
                rows = sprf_rerank(idx, hashtag, day, k=10**6)
                assert rows == sprf_rerank(reference, hashtag, day, k=10**6)
                assert len(docs) <= 4
            assert run_comparison(idx, hashtags) == run_comparison(reference, hashtags)
            assert len(docs) <= 4
        assert (len(derived) > len(set(derived))) == emptied


def reference_rerank(idx, hashtag, day, k):
    """sprf_rerank as it was before the per-index memos: everything derived per call.

    The query is rebuilt with a fresh word break, each link's metadata, doc
    and social weight are looked up or built anew, and each field is scored
    by sim.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    entry = idx.entry(hashtag, day)
    p = idx.params
    terms = {}
    top = entry.vector[: p.expansion_size]
    if top:
        peak = top[0].weight
        if peak > 0:
            for e in top:
                terms[e.ngram] = max(terms.get(e.ngram, 0.0), e.weight / peak)
    terms[broken_phrase(hashtag, idx.lexicon, idx.stopwords)] = 1.0
    rows = []
    for assoc in entry.links:
        meta = idx.metadata.get(assoc.url.full)
        if meta is None:
            meta = LinkMetadata(url=assoc.url)
        doc = build_link_doc(meta, idx.stopwords, p.max_ngram)
        scores = tuple(sim(terms, field) for field in doc.terms)
        social = element_weight(
            assoc.votes, p.tweet_weight, p.retweet_weight, p.vote_weight, p.link_weight
        )
        rows.append(RerankedLink(assoc.url, max(scores) * social, max(scores), scores, social))
    rows.sort(key=lambda r: (-r.total, r.url.full))
    return rows[:k]


def hex_rows(rows):
    return [
        (r.url.full, r.total.hex(), r.text_score.hex(), r.social_weight.hex(),
         tuple(s.hex() for s in r.field_scores))
        for r in rows
    ]


def one_linked_one_bare_index():
    """Two hashtags on one day: `linked` with one link, `bare` with none."""
    tweets = [make_tweet(f"a{i}", text="tower fire", hashtags=["linked"],
                         urls=["http://ex.com/tower-fire"]) for i in range(3)]
    tweets += [make_tweet(f"b{i}", text="quiet day", hashtags=["bare"]) for i in range(3)]
    return build_index(tweets)


class TestRerankMatchesReference:
    @pytest.mark.parametrize("k", [1, 10, 50])
    @pytest.mark.parametrize(
        "name", ["false-positive-peak", "aspect-shift", "dominant-event", "single-event"]
    )
    def test_every_entry_bit_for_bit(self, scenario_index, name, k):
        _, idx = scenario_index(name)
        for hashtag, day in sorted(idx.entries, key=lambda key: (key[1], key[0])):
            # Twice: once deriving the memos, once reading them.
            for _ in range(2):
                got = sprf_rerank(idx, hashtag, day, k)
                assert hex_rows(got) == hex_rows(reference_rerank(idx, hashtag, day, k))

    def test_entry_without_links_is_empty_and_not_expanded(self):
        idx = one_linked_one_bare_index()
        assert idx.entry("bare", DAY).links == ()
        with mock.patch.object(
            socialqe.retrieval, "expand_query", side_effect=AssertionError("expanded")
        ):
            assert sprf_rerank(idx, "bare", DAY) == []
        assert len(sprf_rerank(idx, "linked", DAY)) == 1

    @pytest.mark.parametrize("hashtag", ["linked", "bare"])
    def test_missing_entry_and_negative_k_still_raise(self, hashtag):
        idx = one_linked_one_bare_index()
        for _ in range(2):  # before and after the entry's candidates are derived
            with pytest.raises(LookupError, match="no entry for hashtag"):
                sprf_rerank(idx, hashtag, date(2016, 1, 1))
            with pytest.raises(ValueError, match="k must be >= 0"):
                sprf_rerank(idx, hashtag, DAY, k=-1)
            # k is checked before the entry, as before.
            with pytest.raises(ValueError, match="k must be >= 0"):
                sprf_rerank(idx, hashtag, date(2016, 1, 1), k=-1)
            sprf_rerank(idx, hashtag, DAY)


class TestConcurrentReranks:
    def test_threads_racing_on_fresh_memos_agree(self, scenario_index):
        # Eight threads rerank every entry of a fresh index, each in its own
        # order, while a limit of 4 keeps emptying the memos under them.
        _, reference = scenario_index("aspect-shift")
        keys = sorted(reference.entries, key=lambda key: (key[1], key[0]))
        want = {key: hex_rows(reference_rerank(reference, *key, 10**6)) for key in keys}
        errors = []

        def read(idx, seed):
            try:
                for key in random.Random(seed).sample(keys, len(keys)):
                    if hex_rows(sprf_rerank(idx, *key, 10**6)) != want[key]:
                        errors.append(key)
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        with mock.patch.object(socialqe.ingest, "MEMO_LIMIT", 4):
            _, idx = build_scenario_index("aspect-shift")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=read, args=(idx, i)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
