"""Property tests: the fast paths against the brute-force code they replaced, and ingest on arbitrary input."""

import json
import random
import re
import tempfile
import unicodedata
from datetime import date
from itertools import groupby
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    make_tweet,
    reference_neighbours,
    reference_simhash64,
    reference_term_hash,
    tree_bytes,
)
from test_votes import answers, counted, merged  # noqa: E402
from socialqe.config import EngineParams  # noqa: E402
from socialqe.index import (  # noqa: E402
    HashtagIndex,
    IndexFormatError,
    NeighbourSearch,
    broken_phrase,
    build_index,
    build_link_doc,
    load_index,
    save_index,
)
import socialqe.ingest  # noqa: E402
from socialqe.ingest import (  # noqa: E402
    UNSAFE_HASHTAG_RE,
    LinkMetadata,
    Memo,
    ParseStats,
    TweetRecord,
    _parse_timestamp,
    canonicalize_url,
    normalize_and_tokenize,
    normalize_hashtag,
    parse_metadata,
    parse_stream,
    word_break_hashtag,
)
from socialqe.retrieval import ExpandedQuery, sim, sqe_score  # noqa: E402
import socialqe.signatures  # noqa: E402
from socialqe.signatures import (  # noqa: E402
    RankedNgram,
    build_vector,
    simhash64,
    tally_vector,
    term_hashes,
    vector_fingerprints,
)
from socialqe.strategy import (  # noqa: E402
    LOCAL,
    ExpansionSet,
    LinkMatch,
    days_in,
    global_expansions,
    local_expansions,
    match_links,
    run_comparison,
)
from socialqe.votes import (  # noqa: E402
    HASHTAG,
    NGRAM,
    DailyAggregate,
    ElementKey,
    NgramTally,
    element_weight,
    extract_ngrams,
)


def reference_word_break(tag, lexicon):
    """The segmentation DP that bounded each slice by the longest lexicon word."""
    if not tag:
        return []
    n = len(tag)
    max_len = 0
    for w in lexicon:
        if len(w) > max_len:
            max_len = len(w)
    if max_len == 0:
        return [tag]
    best = [None] * (n + 1)
    best[0] = (0, ())
    for i in range(1, n + 1):
        chosen = None
        for j in range(max(0, i - max_len), i):
            prev = best[j]
            if prev is None:
                continue
            piece = tag[j:i]
            if piece in lexicon:
                cand = (prev[0] + 1, prev[1] + (piece,))
                if chosen is None or cand < chosen:
                    chosen = cand
        best[i] = chosen
    final = best[n]
    if final is None:
        return [tag]
    return list(final[1])


_REF_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_REF_MENTION_RE = re.compile(r"@\w+")
_REF_HASHTAG_RE = re.compile(r"#\w+")
_REF_WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")


def reference_tokenize(text, stopwords):
    """The tokenizer that ran all three removal patterns on every text."""
    if not text:
        return []
    text = unicodedata.normalize("NFC", text)
    text = _REF_URL_RE.sub(" ", text)
    text = _REF_MENTION_RE.sub(" ", text)
    text = _REF_HASHTAG_RE.sub(" ", text)
    text = text.lower()
    return [t for t in _REF_WORD_RE.findall(text) if t not in stopwords]


def reference_ngrams(tokens, max_len):
    """The ngram extractor that sliced and joined every window."""
    out = []
    n = len(tokens)
    for size in range(1, max_len + 1):
        if size > n:
            break
        for i in range(n - size + 1):
            out.append(" ".join(tokens[i : i + size]))
    return out


def reference_contains(hay, needle):
    if not needle or len(needle) > len(hay):
        return False
    first = needle[0]
    span = len(needle)
    for i in range(len(hay) - span + 1):
        if hay[i] == first and hay[i : i + span] == needle:
            return True
    return False


def reference_match_links(day_links, hashtag, expansions, lexicon, stopwords):
    """The matcher that re-tokenized every link's fields and scanned for each phrase."""
    needles = []
    seen_needles = set()

    def add_needle(phrase):
        tokens = tuple(t for t in phrase.split() if t not in stopwords)
        if tokens and tokens not in seen_needles:
            seen_needles.add(tokens)
            needles.append((" ".join(tokens), tokens))

    add_needle(hashtag)
    add_needle(broken_phrase(hashtag, lexicon, stopwords))
    for ngram in expansions.ngrams:
        add_needle(ngram)

    matched = []
    seen_urls = set()
    for meta in day_links:
        if meta.url.full in seen_urls:
            continue
        seen_urls.add(meta.url.full)
        fields = (
            ("title", tuple(normalize_and_tokenize(meta.title, stopwords))),
            ("description", tuple(normalize_and_tokenize(meta.description, stopwords))),
        )
        hit = None
        for phrase, tokens in needles:
            for field_name, hay in fields:
                if reference_contains(hay, tokens):
                    hit = LinkMatch(meta=meta, field=field_name, phrase=phrase)
                    break
            if hit:
                break
        if hit:
            matched.append(hit)
    return matched


def oracle_first_hit(doc, needles):
    """The per-needle matcher match_links and run_comparison ran before both
    matched each link once: one lookup or token scan per (link, needle)."""
    title_terms, desc_terms = doc.terms[0], doc.terms[1]
    for phrase, tokens in needles:
        if len(tokens) <= doc.max_ngram:
            if phrase in title_terms:
                return LinkMatch(meta=doc.meta, field="title", phrase=phrase)
            if phrase in desc_terms:
                return LinkMatch(meta=doc.meta, field="description", phrase=phrase)
        elif reference_contains(doc.tokens[0], tokens):
            return LinkMatch(meta=doc.meta, field="title", phrase=phrase)
        elif reference_contains(doc.tokens[1], tokens):
            return LinkMatch(meta=doc.meta, field="description", phrase=phrase)
    return None


def oracle_match_links(day_docs, hashtag, expansions, lexicon, stopwords):
    """match_links over LinkDocs as it was, with oracle_first_hit per link."""
    needles = []
    seen_needles = set()

    def add_needle(phrase):
        tokens = tuple(t for t in phrase.split() if t not in stopwords)
        if tokens and tokens not in seen_needles:
            seen_needles.add(tokens)
            needles.append((" ".join(tokens), tokens))

    add_needle(hashtag)
    add_needle(broken_phrase(hashtag, lexicon, stopwords))
    for ngram in expansions.ngrams:
        add_needle(ngram)

    matched = []
    seen_urls = set()
    for doc in day_docs:
        if doc.meta.url.full in seen_urls:
            continue
        seen_urls.add(doc.meta.url.full)
        hit = oracle_first_hit(doc, needles)
        if hit is not None:
            matched.append(hit)
    return matched


class TestWordBreakMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        lexicon=st.frozensets(st.text("abc", min_size=1, max_size=4), max_size=8),
        tag=st.text("abcd", max_size=12),
    )
    def test_same_segmentation(self, lexicon, tag):
        assert word_break_hashtag(tag, lexicon) == reference_word_break(tag, lexicon)


# Scheme and www spellings in mixed case, with characters whose case folding
# or normalization is special: U+017F (long s) matches "s" case-insensitively,
# U+0130 lowercases to two characters, U+212A (Kelvin) lowercases to "k", and
# a combining acute composes under NFC.
TEXT_PIECES = [
    "http://", "HTTPS://", "hTtPs://", "httpſ://", "ftp://", "://", "www.", "WwW.", "ww.",
    "w", "W", ".", ":", "/", "s", "ſ", "İ", "\u212a", "K", "k", "@", "#", "’", "'", "-", "_",
    "e", "\u0301", "x.com/a", "Rt", "the", "a1", "9", " ", " ", "\t", "\n",
]
free_text = st.lists(
    st.sampled_from(TEXT_PIECES) | st.text(max_size=3), max_size=24
).map("".join)


class TestTokenizerMatchesReference:
    @settings(max_examples=1000, deadline=None)
    @given(text=free_text, stopwords=st.sampled_from([frozenset(), frozenset(["the", "k"])]))
    def test_same_tokens(self, text, stopwords):
        assert normalize_and_tokenize(text, stopwords) == reference_tokenize(text, stopwords)


class TestNgramsMatchReference:
    @settings(max_examples=500, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(["a", "b", "c", "ab", "é"]), max_size=12),
        max_len=st.integers(1, 8),
    )
    def test_same_ngrams_in_order(self, tokens, max_len):
        assert extract_ngrams(tokens, max_len) == reference_ngrams(tokens, max_len)
        assert extract_ngrams(tuple(tokens), max_len) == reference_ngrams(tokens, max_len)


# Small vocabularies make phrase hits frequent; "the" and "of" are stopwords
# when the stopword set is on, so needles made only of them vanish.
WORDS = ["red", "sky", "sea", "the", "of"]
STOPWORDS = frozenset(["the", "of"])
DAY = date(2017, 1, 1)

field_text = st.lists(st.sampled_from(WORDS + ["Sky,", "RED"]), max_size=12).map(" ".join)
phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=10).map(" ".join)
link = st.builds(
    lambda n, title, description: LinkMetadata(
        canonicalize_url(f"http://ex.com/{n}"), title, description
    ),
    st.integers(0, 3),  # few URLs, so duplicates are common
    field_text,
    field_text,
)


class TestMatchLinksMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(
        links=st.lists(link, max_size=6),
        hashtag=st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map("".join),
        ngrams=st.lists(phrase, max_size=6),
        max_ngram=st.sampled_from([1, 2, 4, 8]),
        stopwords=st.sampled_from([frozenset(), STOPWORDS]),
    )
    def test_same_matches_and_witnesses(self, links, hashtag, ngrams, max_ngram, stopwords):
        # The lexicon word-breaks compound tags into up to six words, longer
        # than max_ngram for most draws, which exercises the scanning path.
        lexicon = frozenset(WORDS)
        expansions = ExpansionSet(hashtag, LOCAL, (DAY, DAY), tuple(ngrams),
                                  tuple(1.0 for _ in ngrams))
        docs = [build_link_doc(m, stopwords, max_ngram) for m in links]
        got = match_links(docs, hashtag, expansions, lexicon, stopwords)
        want = reference_match_links(links, hashtag, expansions, lexicon, stopwords)
        assert got == want
        assert got == oracle_match_links(docs, hashtag, expansions, lexicon, stopwords)


# Query terms from the fields' words, so that many are shared, with weights
# of mixed magnitudes, so that the order of summation shows in the last bits.
query_term = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
query_weight = st.sampled_from([1.0, 0.1, 1 / 3, 1e-17]) | st.floats(0.0, 1e6)


class TestSqeScoreMatchesSim:
    @settings(max_examples=500, deadline=None)
    @given(
        meta=link,
        terms=st.lists(st.tuples(query_term | st.text(max_size=3), query_weight), max_size=12),
        max_ngram=st.sampled_from([1, 2, 4]),
        stopwords=st.sampled_from([frozenset(), STOPWORDS]),
    )
    def test_field_scores_bit_for_bit(self, meta, terms, max_ngram, stopwords):
        # The query's terms keep the drawn insertion order, and may be none; a
        # field is empty when its text is (and a file name of digits always is).
        query = ExpandedQuery("x", DAY, dict(terms))
        doc = build_link_doc(meta, stopwords, max_ngram)
        scored = sqe_score(query, doc)
        want = [sim(query.terms, field).hex() for field in doc.terms]
        assert [score.hex() for score in scored.field_scores] == want
        assert scored.score.hex() == max(scored.field_scores).hex()


class TestBrokenPhraseMemoMatchesFunction:
    # At a limit of 2 the memo empties on most draws.
    @pytest.mark.parametrize("limit", [socialqe.ingest.MEMO_LIMIT, 2])
    @settings(max_examples=300, deadline=None)
    @given(
        lexicon=st.frozensets(st.text("abc", min_size=1, max_size=4), max_size=8),
        tags=st.lists(st.text("abcd", max_size=12), max_size=8),
        stopwords=st.sampled_from([frozenset(), frozenset(["a", "bc"])]),
    )
    def test_same_phrase(self, limit, lexicon, tags, stopwords):
        with mock.patch.object(socialqe.ingest, "MEMO_LIMIT", limit):
            index = HashtagIndex(None, EngineParams(), stopwords, lexicon, {}, {}, {})
            for tag in tags + tags[::-1]:  # each tag again: a hit, or derived anew
                assert index.broken_phrase(tag) == broken_phrase(tag, lexicon, stopwords)
                assert len(index._broken_phrases) <= limit


# Compound tags break into up to five lexicon words, more than max_ngram for
# most draws; "the" and "theof" break into stopwords only.
TAGS = ["red", "redsky", "skysea", "the", "theof", "seaofsky", "redskysearedsky"]
URLS = [f"http://ex.com/{n}" for n in range(5)]
comparison_post = st.tuples(
    st.integers(0, 1),  # day offset
    st.sampled_from(["u1", "u2", "u3"]),
    st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
    st.lists(st.sampled_from(TAGS), max_size=2),
    st.lists(st.sampled_from(URLS), max_size=2),
)


@st.composite
def comparison_inputs(draw):
    posts = draw(st.lists(comparison_post, min_size=1, max_size=12))
    tweets = [
        make_tweet(account, day=f"2017-01-0{1 + offset}", text=text,
                   hashtags=tags, urls=urls)
        for i, (offset, account, text, tags, urls) in enumerate(posts)
    ]
    metadata = {}
    for url in URLS:
        if draw(st.booleans()):
            metadata[url] = LinkMetadata(canonicalize_url(url), draw(field_text), draw(field_text))
    # Optionally make a second key name the first key's canonical URL, as a
    # caller's mapping may; run_comparison counts such a link once.
    alias = draw(st.one_of(st.none(), st.tuples(st.sampled_from(URLS), st.sampled_from(URLS))))
    if alias is not None and alias[0] != alias[1]:
        metadata[alias[1]] = LinkMetadata(canonicalize_url(alias[0]), draw(field_text),
                                          draw(field_text))
    return tweets, metadata


class TestRunComparisonMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        drawn=comparison_inputs(),
        queried=st.lists(st.sampled_from(TAGS + ["ghost"]), min_size=1, max_size=5),
        max_ngram=st.sampled_from([1, 2, 4, 8]),
        n=st.integers(0, 6),
        stopwords=st.sampled_from([frozenset(), STOPWORDS]),
    )
    def test_every_count_equals_oracle_match_count(self, drawn, queried, max_ngram, n,
                                                   stopwords):
        tweets, metadata = drawn
        lexicon = frozenset(WORDS)
        index = build_index(tweets, params=EngineParams(max_ngram=max_ngram, vector_size=6),
                            stopwords=stopwords, lexicon=lexicon)
        result = run_comparison(index, queried, n=n, metadata=metadata)
        days = days_in(index.span)
        for tag in set(queried):
            global_set = global_expansions(index, tag, index.span, n)
            for day in days:
                docs = [index.link_doc(metadata[full]) for full in index.links_on(day)
                        if full in metadata]
                local_set = local_expansions(index, tag, day, n)
                verdict = result.verdicts[(tag, day)]
                assert verdict.local_count == len(
                    oracle_match_links(docs, tag, local_set, lexicon, stopwords))
                assert verdict.global_count == len(
                    oracle_match_links(docs, tag, global_set, lexicon, stopwords))


# Ten distinct ngrams, so vector sizes up to 12 cover "more than there are".
GRAMS = ["a", "b", "c", "d", "a b", "b c", "c d", "a b c", "b c d", "a b c d"]
post = st.tuples(
    st.lists(st.sampled_from(GRAMS), max_size=6),  # repeats within a post
    st.sampled_from(["u1", "u2", "u3", "u4"]),  # few accounts: many repeat votes
    st.booleans(),  # is_retweet
    st.booleans(),  # has_link
)
multiplier = st.sampled_from([0.0, 0.2, 0.35, 0.5, 0.8, 1.0])


class TestTallyVectorMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(
        posts=st.lists(post, max_size=25),
        size=st.integers(1, 12),
        exclude=st.frozensets(st.sampled_from(GRAMS), max_size=3),
        weights=st.tuples(multiplier, multiplier, multiplier, multiplier),
    )
    def test_same_vector_bit_for_bit(self, posts, size, exclude, weights):
        agg = DailyAggregate(DAY)
        tally = NgramTally()
        shared = {}  # equal texts share one frozenset, as in the build
        for grams, account, is_retweet, has_link in posts:
            agg.add_elements([ElementKey(NGRAM, g) for g in grams], account, is_retweet, has_link)
            grams = shared.setdefault(frozenset(grams), frozenset(grams))
            tally.add(grams, account, is_retweet, has_link)
        want = build_vector(agg.finalize(), size, exclude, *weights)
        got = tally_vector(tally, size, exclude, *weights, Memo(lambda w: w))
        assert got == want
        assert [e.weight.hex() for e in got] == [e.weight.hex() for e in want]


# Thirty ngrams over four accounts: classes of many ngrams, more than a vector holds.
VOCAB = [f"g{i:02d}" for i in range(30)]
vocab_post = st.tuples(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12),
    st.sampled_from(["u1", "u2", "u3", "u4"]),
    st.booleans(),  # is_retweet
    st.booleans(),  # has_link
)


class TestTallyVectorCutsABoundaryClass:
    @settings(max_examples=300, deadline=None)
    @given(
        posts=st.lists(vocab_post, min_size=1, max_size=20),
        weights=st.tuples(multiplier, multiplier, multiplier, multiplier),
        data=st.data(),
    )
    def test_same_vector_bit_for_bit(self, posts, weights, data):
        agg = DailyAggregate(DAY)
        tally = NgramTally()
        for grams, account, is_retweet, has_link in posts:
            agg.add_elements([ElementKey(NGRAM, g) for g in grams], account, is_retweet, has_link)
            tally.add(frozenset(grams), account, is_retweet, has_link)
        records = agg.finalize()

        def rank_class(ngram):
            votes = records[ElementKey(NGRAM, ngram)]
            return element_weight(votes, *weights), votes.total_votes

        # Every ranked ngram, grouped by (weight, total votes) in rank order.
        ranked = build_vector(records, len(VOCAB), frozenset(), *weights)
        classes = [list(c) for _, c in groupby((e.ngram for e in ranked), key=rank_class)]
        cuttable = [i for i, c in enumerate(classes) if len(c) >= 3]
        assume(cuttable)
        i = data.draw(st.sampled_from(cuttable))
        boundary = classes[i]
        # At least one ngram of the boundary class is excluded, one ranked and one cut off.
        excluded = data.draw(
            st.lists(st.sampled_from(boundary), min_size=1, max_size=len(boundary) - 2, unique=True)
        )
        room = len(boundary) - len(excluded) - 1
        size = sum(map(len, classes[:i])) + data.draw(st.integers(1, room))
        exclude = frozenset(excluded)

        want = build_vector(records, size, exclude, *weights)
        got = tally_vector(tally, size, exclude, *weights, Memo(lambda w: w))
        assert [(e.rank, e.ngram, e.weight.hex()) for e in got] == [
            (e.rank, e.ngram, e.weight.hex()) for e in want
        ]
        assert len(got) == size and got[-1].ngram in boundary


element_post = st.tuples(
    st.integers(1, 3),  # occurrences of the element within the post
    st.lists(st.sampled_from(GRAMS), max_size=3),  # the post's ngrams, maybe none
    st.sampled_from(["u1", "u2", "u3", "u4"]),
    st.booleans(),  # is_retweet
    st.booleans(),  # has_link
)


class TestTallyRecordMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(posts=st.lists(element_post, min_size=1, max_size=25))
    def test_same_counters(self, posts):
        key = ElementKey(HASHTAG, "x")
        agg = DailyAggregate(DAY)
        tally = NgramTally()
        for repeats, grams, account, is_retweet, has_link in posts:
            agg.add_elements([key] * repeats, account, is_retweet, has_link)
            for _ in range(repeats):  # as the build feeds each occurrence
                tally.add(frozenset(grams), account, is_retweet, has_link)
        assert tally.record() == agg.finalize()[key]


def day_post(tags, urls):
    """A post of one day, of words from a small vocabulary."""
    return st.builds(
        lambda account, words, is_retweet, hashtags, links: make_tweet(
            account, text=" ".join(words), hashtags=hashtags, urls=links,
            is_retweet=is_retweet,
        ),
        st.sampled_from(["u1", "u2", "u3"]),
        st.lists(st.sampled_from(["fire", "tower", "smoke", "crowd"]), max_size=3),
        st.booleans(),
        tags,
        urls,
    )


TAGS = st.lists(st.sampled_from(["x", "y"]), max_size=2)  # maybe none, maybe twice
URLS = ["http://ex.com/1", "http://ex.com/2"]
any_post = day_post(TAGS, st.lists(st.sampled_from(URLS), max_size=2))
# A tally keeps _linked None while all its posts carry a link (an empty one
# too), and makes it a dict at its first post without one: here x's.
linked_shard = st.lists(
    day_post(TAGS, st.lists(st.sampled_from(URLS), min_size=1, max_size=2)), max_size=5
)
mixed_shard = st.tuples(
    st.lists(any_post, max_size=4),
    day_post(TAGS.map(lambda tags: ["x", *tags]), st.just([])),
    st.lists(any_post, max_size=4),
).map(lambda parts: [*parts[0], parts[1], *parts[2]])


class TestTallyMergeMatchesSinglePass:
    """Shards of a day counted by the build's tally_day, then merged."""

    @settings(max_examples=300, deadline=None)
    @given(
        shards=st.lists(st.one_of(linked_shard, mixed_shard), min_size=2, max_size=6),
        data=st.data(),
    )
    def test_shards_merged_in_any_order(self, shards, data):
        order = data.draw(st.permutations(range(len(shards))))
        folded = merged([counted(shards[i]) for i in order])
        assert answers(folded) == answers(counted([p for s in shards for p in s]))

    @pytest.mark.parametrize(
        "left, right",
        [
            (linked_shard, linked_shard),
            (linked_shard, mixed_shard),
            (mixed_shard, linked_shard),
            (mixed_shard, mixed_shard),
        ],
        ids=["None-None", "None-dict", "dict-None", "dict-dict"],
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_linked_state_pairing(self, left, right, data):
        mine, theirs = data.draw(left), data.draw(right)
        later = data.draw(st.lists(any_post, max_size=2))
        a, b = counted(mine), counted(theirs)
        before = answers(b)
        for key, tally in b.items():
            assert a.setdefault(key, NgramTally()).merge(tally) is a[key]
        for key, tally in counted(later).items():  # into a's sets only, never into b's
            a.setdefault(key, NgramTally()).merge(tally)
        assert answers(a) == answers(counted(mine + theirs + later))
        assert answers(b) == before


LANE = 2**63 / 1_000_000  # a weight whose scaled value is 2**63
weight = st.one_of(
    st.just(0.0),
    st.floats(-4.9e-7, 4.9e-7),  # rounds to 0 micro-units
    st.floats(-50.0, 50.0),
    st.sampled_from([LANE, 2 * LANE, -LANE, LANE / 3]),  # lane sums reach 2**63 and past 2**64
    st.floats(-3 * LANE, 3 * LANE),
)
term = st.text(max_size=6) | st.sampled_from(["fire", "tower fire", "café", "日本語"])


class TestSimhashMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(terms=st.lists(st.tuples(term, weight), max_size=25), data=st.data())
    def test_same_fingerprint_bit_for_bit(self, terms, data):
        if terms:  # a repeated term counts each time
            terms += data.draw(st.lists(st.sampled_from(terms), max_size=3))
        want = reference_simhash64(terms)
        assert simhash64(terms) == want
        assert simhash64(iter(data.draw(st.permutations(terms)))) == want


# Up to about 1,000 UTF-8 bytes: 250 astral characters take four bytes each.
any_term = st.text(max_size=6) | st.text(min_size=200, max_size=250) | st.sampled_from(
    ["", "é", "日本語", "🔥", "🔥" * 250, "a" * 1000])


class TestBatchedHashesMatchScalar:
    @settings(max_examples=200, deadline=None)
    @given(terms=st.lists(any_term, max_size=40))
    def test_term_hashes_equal_scalar(self, terms):
        assert term_hashes(terms) == [reference_term_hash(t) for t in terms]

    @settings(max_examples=200, deadline=None)
    @given(vectors=st.lists(st.lists(st.tuples(term, weight), max_size=8), max_size=7))
    def test_fingerprints_across_batches(self, vectors):
        ranked = [[RankedNgram(r + 1, t, w) for r, (t, w) in enumerate(v)] for v in vectors]
        want = [reference_simhash64(v) for v in vectors]
        with mock.patch.object(socialqe.signatures, "_BATCH_VECTORS", 2):
            assert vector_fingerprints(ranked) == want
        assert vector_fingerprints(ranked) == want


def flip(base, bits):
    for bit in bits:
        base ^= 1 << bit
    return base


# Fingerprints clustered around a few bases, so many pairs fall inside small
# radii; 0 is the fingerprint of every empty vector. Seeded near-copies of
# the drawn ones take days past the size below which the search scans
# instead of using blocks.
fingerprint = st.one_of(
    st.just(0),
    st.integers(0, 2**64 - 1),
    st.builds(flip, st.sampled_from([0, 2**64 - 1, 0x0123456789ABCDEF]),
              st.lists(st.integers(0, 63), max_size=12)),
)
radius = st.sampled_from([0, 1, 8, 16, 63, 64]) | st.integers(0, 12) | st.integers(0, 64)


class TestNeighbourSearchMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        drawn=st.lists(fingerprint, min_size=1, max_size=20),
        copies=st.integers(0, 130),
        seed=st.integers(0, 2**32),
        radius=radius,
        data=st.data(),
    )
    def test_same_lists_for_every_tag(self, drawn, copies, seed, radius, data):
        rng = random.Random(seed)
        fps = drawn + [
            flip(rng.choice(drawn), rng.sample(range(64), rng.randint(0, 12)))
            for _ in range(copies)
        ]
        # Tag names in shuffled order: lexicographic ties, any insertion order.
        names = data.draw(st.permutations([f"t{i:03d}" for i in range(len(fps))]))
        fingerprints = dict(zip(names, fps))
        search = NeighbourSearch(dict(fingerprints), radius)
        for tag in fingerprints:
            got = search.near(tag)
            assert got == reference_neighbours(fingerprints, tag, radius)
            assert tag not in dict(got)


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
# Objects with the tweet fields, filled with arbitrary JSON, reach past the
# first checks; arbitrary bytes cover everything that is not JSON at all.
plausible = {
    "id": st.just("1"),
    "user_id": st.just("u1"),
    "created_at": st.sampled_from(["2017-01-15T12:00:00Z", "0001-01-01T00:00:00+01:00"]),
    "is_retweet": st.booleans(),
    "retweet_of": st.just("9"),
    "urls": st.lists(st.text(max_size=12).map(lambda t: "http://ex.com/" + t), max_size=2),
    "hashtags": st.lists(st.text(max_size=12), max_size=2),
}
tweetish = st.fixed_dictionaries(
    {name: plausible[name] | json_value for name in ("id", "user_id", "created_at")},
    optional={
        name: plausible.get(name, st.nothing()) | json_value | st.text(max_size=30)
        for name in ("text", "is_retweet", "retweet_of", "urls", "hashtags")
    },
).map(lambda obj: json.dumps(obj).encode())


class TestParseStreamNeverRaises:
    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.binary(max_size=60) | tweetish, max_size=8))
    def test_every_line_counted(self, lines):
        stats = ParseStats()
        records = list(parse_stream(lines, stats))
        assert stats.lines == len(lines)
        assert stats.lines == stats.parsed + stats.skipped
        assert stats.parsed == len(records)


def reference_parse_line(line):
    """One line the way parse_stream read it before its per-stream tables."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        obj = json.loads(line.strip())
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict):
        return None
    tweet_id, account_id = obj.get("id"), obj.get("user_id")
    if not isinstance(tweet_id, str) or not tweet_id:
        return None
    if not isinstance(account_id, str) or not account_id:
        return None
    day = _parse_timestamp(obj.get("created_at"))
    text = obj.get("text", "")
    is_retweet = obj.get("is_retweet", False)
    retweet_of = obj.get("retweet_of")
    raw_tags, raw_urls = obj.get("hashtags", []), obj.get("urls", [])
    if (
        day is None
        or not isinstance(text, str)
        or not isinstance(is_retweet, bool)
        or (retweet_of is not None and not isinstance(retweet_of, str))
        or is_retweet != bool(retweet_of)
        or not isinstance(raw_tags, list)
        or not isinstance(raw_urls, list)
    ):
        return None
    hashtags = []
    for h in raw_tags:
        norm = normalize_hashtag(h)
        if norm is not None and not UNSAFE_HASHTAG_RE.search(norm):
            hashtags.append(norm)
    links = []
    for u in raw_urls:
        if isinstance(u, str):
            try:
                links.append(canonicalize_url(u))
            except ValueError:
                pass
    return TweetRecord(
        account_id=account_id,
        day=day,
        text=text,
        hashtags=tuple(hashtags),
        links=tuple(links),
        is_retweet=is_retweet,
    )


def reference_parse_stream(lines):
    stats, records = ParseStats(), []
    for line in lines:
        stats.lines += 1
        record = reference_parse_line(line)
        if record is None:
            stats.skipped += 1
        else:
            stats.parsed += 1
            records.append(record)
    return records, stats


# Small pools, so values recur across lines: one tag in several raw forms,
# entries that are not strings or not hashable, unsafe tags, surrogates and
# bad URLs that come back.
tag_entries = st.sampled_from([
    "#Foo", " FOO", "foo", "Ｆｏｏ", "#bar", "a/b", "x\x00y", "x\ud800", "two words",
    "#", "", "c" * 300, 5, None, True, 1.5, ["foo"], {"foo": 1},
])
url_entries = st.sampled_from([
    "http://ex.com/a", "HTTP://EX.com/a?utm_source=x", "http://ex.com/a#top",
    "https://ex.com/b/", "not-a-url", "http://[bad", "http://ex.com/\ud800", "",
    7, None, ["http://ex.com/a"], {"u": 1},
])

# UTC seconds that parse_stream reads through its day table, beside the
# edges it leaves to _parse_timestamp: hour 24, second 60, impossible dates,
# year 0, a lowercase z, offsets that shift the day or past year 1, and
# shortened or fractional times.
created_at_entries = st.sampled_from([
    "2017-01-15T12:00:00Z", "2017-01-15 23:59:59Z", "2016-02-29T00:00:00Z",
    "9999-12-31T23:59:59Z", "0001-01-01T00:00:00Z", "2017-01-15T24:00:00Z",
    "2017-01-15T23:59:60Z", "2017-02-30T12:00:00Z", "2017-02-29 12:00:00Z",
    "0000-01-01T00:00:00Z", "2017-01-15T12:00:00z", "2017-01-15T12:00:00+00:00",
    "2017-01-15T23:30:00-02:00", "0001-01-01T00:30:00+01:00", "2017-01-16 08:30:00.5+02:00",
    "2017-01-15T12:00:00.123Z", "2017-01-15T12:00", "2017-01-15",
])


@st.composite
def stream_objects(draw):
    """A tweet object; one in four breaks a field or drops an optional one."""
    obj = {
        "id": draw(st.sampled_from(["1", "2", "3"])),
        "user_id": draw(st.sampled_from(["account-1", "account-2", "account-3"])),
        "created_at": draw(created_at_entries),
        "text": draw(st.sampled_from(["the same text", "other text", "", "x\ud800"])),
        "hashtags": draw(st.lists(tag_entries, max_size=4)),
        "urls": draw(st.lists(url_entries, max_size=3)),
        **draw(st.sampled_from([{}, {"is_retweet": False}, {"is_retweet": True, "retweet_of": "9"}])),
    }
    if draw(st.integers(0, 3)) == 0:
        field, bad = draw(st.sampled_from([
            ("id", ""), ("id", 3), ("user_id", None), ("created_at", "yesterday"),
            ("text", 4), ("hashtags", "foo"), ("urls", "http://ex.com/a"),
            ("is_retweet", True), ("is_retweet", 1), ("retweet_of", "9"),
            ("text", ...), ("hashtags", ...), ("urls", ...), ("is_retweet", ...),
        ]))
        obj[field] = bad
        if bad is ...:
            del obj[field]
    return obj


@st.composite
def stream_lines(draw):
    """One stream's lines: str or UTF-8 bytes, padded and sometimes broken."""
    lines = []
    for obj in draw(st.lists(stream_objects(), max_size=10)):
        line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
        kind = draw(st.sampled_from(["plain"] * 6 + ["padded", "bom", "trailing", "deep"]))
        if kind == "padded":  # whitespace str.strip removes, JSON's or not
            line = draw(st.sampled_from([" ", "\t", "\u3000", "\u2028"])) + line + "\r\n"
        elif kind == "bom":
            line = "\ufeff" + line
        elif kind == "trailing":
            line += draw(st.sampled_from(["x", "{}", " 1", "\n{}"]))
        elif kind == "deep":
            line = line[:-1] + ', "deep": ' + "[" * 5000 + "]" * 5000 + "}"
        # Unpaired surrogates pass through as bytes that are not UTF-8.
        lines.append(line.encode("utf-8", "surrogatepass") if draw(st.booleans()) else line)
    return lines


class TestParseStreamMatchesReference:
    @pytest.mark.parametrize("limit", [socialqe.ingest.MEMO_LIMIT, 4])
    @settings(max_examples=300, deadline=None)
    @given(lines=stream_lines())
    def test_same_records_and_stats(self, limit, lines):
        # A limit of 4 empties the tables on most streams.
        with mock.patch.object(socialqe.ingest, "MEMO_LIMIT", limit):
            stats = ParseStats()
            records = list(parse_stream(lines, stats))
        assert (records, stats) == reference_parse_stream(lines)


# Any encodable character, weighted towards the ones a line-oriented format
# could trip on: line separators that str.splitlines honours (U+2028, U+0085,
# U+001C), spaces, tabs and astral characters.
any_char = st.characters(codec="utf-8") | st.sampled_from(
    ["\u2028", "\u0085", "\u001c", " ", "\t", "\U0001f525", "\U00010348"]
)
free_text = st.text(any_char, max_size=12)
words = st.lists(st.sampled_from(["tower", "fire", "news"]) | free_text, max_size=6)


@st.composite
def tweet_and_metadata_lines(draw):
    """JSON lines of a small two-day corpus and of its links' metadata.

    Tweets draw their tags and links from small pools, so that hashtags
    share links on a day and accounts vote more than once.
    """
    tags = ["fire", "grenfell"]
    tags += draw(st.lists(st.text(any_char, min_size=1, max_size=8), max_size=2))
    urls = ["http://ex.com/" + path for path in draw(st.lists(free_text, min_size=1, max_size=3))]
    tweets = []
    for i in range(draw(st.integers(1, 12))):
        obj = {
            "id": str(i),
            "user_id": draw(st.sampled_from(["a", "b", "c"])),
            "created_at": draw(st.sampled_from(["2017-01-15T12:00:00Z", "2017-01-16T08:00:00Z"])),
            "text": " ".join(draw(words)),
            "hashtags": draw(st.lists(st.sampled_from(tags), max_size=3, unique=True)),
            "urls": draw(st.lists(st.sampled_from(urls), max_size=2)),
        }
        if draw(st.booleans()):
            obj.update(is_retweet=True, retweet_of="0")
        tweets.append(json.dumps(obj, ensure_ascii=draw(st.booleans())))
    metadata = [
        json.dumps({"url": url, "title": " ".join(draw(words)),
                    "description": draw(free_text)}, ensure_ascii=False)
        for url in urls
    ]
    # Lines as a file gives them: UTF-8 bytes split at newlines only.
    return [("\n".join(lines) + "\n").encode().splitlines(keepends=True)
            for lines in (tweets, metadata)]


def assert_one_association_per_link_and_day(index):
    shared = {}
    for (_, day), entry in index.entries.items():
        for assoc in entry.links:
            assert shared.setdefault((day, assoc.url.full), assoc) is assoc


class TestIndexRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(drawn=tweet_and_metadata_lines())
    def test_save_load_resave(self, drawn):
        tweet_lines, metadata_lines = drawn
        built = build_index(parse_stream(tweet_lines), parse_metadata(metadata_lines))
        assert_one_association_per_link_and_day(built)
        with tempfile.TemporaryDirectory() as tmp:
            one, two = Path(tmp, "one"), Path(tmp, "two")
            save_index(built, one)
            loaded = load_index(one)
            assert loaded == built
            for key, entry in loaded.entries.items():
                want = reference_simhash64([(e.ngram, e.weight) for e in entry.vector])
                assert entry.fingerprint == built.entries[key].fingerprint == want
            assert_one_association_per_link_and_day(loaded)
            save_index(loaded, two)
            assert tree_bytes(one) == tree_bytes(two)


@pytest.fixture(scope="module")
def dominant_tree(tmp_path_factory, scenario_index):
    """The saved dominant-event index (seed 7), for tests that edit and restore it."""
    root = tmp_path_factory.mktemp("dominant") / "idx"
    save_index(scenario_index("dominant-event")[1], root)
    return root


class TestDayFileEditsRefused:
    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_any_changed_byte_refused_naming_its_file(self, dominant_tree, data):
        # meta is left as saved, so its CRC-32 of the file no longer holds. A
        # row check may refuse the edit first, but only ever naming this file:
        # each day file is checked against meta before the next is read.
        day_files = sorted(p for p in dominant_tree.glob("*/*") if p.is_file())
        path = data.draw(st.sampled_from(day_files), label="file")
        saved = path.read_bytes()
        at = data.draw(st.integers(0, len(saved) - 1), label="offset")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != saved[at]), label="byte")
        path.write_bytes(saved[:at] + bytes([byte]) + saved[at + 1:])
        try:
            with pytest.raises(IndexFormatError) as caught:
                load_index(dominant_tree)
        finally:
            path.write_bytes(saved)
        assert str(caught.value).startswith(f"{path}: ")
