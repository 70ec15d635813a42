"""Property tests: the fast paths against the brute-force code they replaced, and ingest on arbitrary input."""

import json
import random
import tempfile
from datetime import date
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import reference_neighbours, reference_simhash64, reference_term_hash  # noqa: E402
from socialqe.index import (  # noqa: E402
    NeighbourSearch,
    build_index,
    build_link_doc,
    load_index,
    save_index,
)
from socialqe.ingest import (  # noqa: E402
    LinkMetadata,
    ParseStats,
    canonicalize_url,
    normalize_and_tokenize,
    parse_metadata,
    parse_stream,
    word_break_hashtag,
)
from socialqe.retrieval import broken_phrase  # noqa: E402
import socialqe.signatures  # noqa: E402
from socialqe.signatures import (  # noqa: E402
    RankedNgram,
    build_vector,
    simhash64,
    tally_vector,
    term_hashes,
    vector_fingerprints,
)
from socialqe.strategy import LOCAL, ExpansionSet, LinkMatch, match_links  # noqa: E402
from socialqe.votes import HASHTAG, NGRAM, DailyAggregate, ElementKey, NgramTally  # noqa: E402


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


class TestWordBreakMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        lexicon=st.frozensets(st.text("abc", min_size=1, max_size=4), max_size=8),
        tag=st.text("abcd", max_size=12),
    )
    def test_same_segmentation(self, lexicon, tag):
        assert word_break_hashtag(tag, lexicon) == reference_word_break(tag, lexicon)


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
        got = tally_vector(tally, size, exclude, *weights)
        assert got == want
        assert [e.weight.hex() for e in got] == [e.weight.hex() for e in want]


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


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


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
            assert_one_association_per_link_and_day(loaded)
            save_index(loaded, two)
            assert tree_bytes(one) == tree_bytes(two)
