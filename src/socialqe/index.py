"""Date-keyed hashtag index: build, query, and deterministic persistence.

The index connects each (hashtag, day) to its contextual vector and that
vector's SimHash fingerprint, the links that co-occurred with it that day
(each carrying the link's vote counters and social signature), and same-day
hashtags with nearby fingerprints, found by one exact block-indexed search
(NeighbourSearch) at build and at query time. Fingerprints are computed once,
at build, and stored with the vectors. After build the structure is immutable
and safe for concurrent readers. The query side fills caches on first use
(each day's entries by hashtag and its fingerprints to search, a
NeighbourSearch per day and radius, and three Memos of at most MEMO_LIMIT
entries each: one LinkDoc per link text, one broken phrase per hashtag, and
one tuple of rerank candidates per entry); racing readers compute equal values.
A LinkDoc holds each field's token set and its tokens as one padded string,
and phrase_probe turns a phrase into the test of both that rerank and
evaluate run against it, so no query builds a link's ngrams.

A day is built from its own posts alone, so once the corpus is grouped by
day, build_tree deals the days into shares, one process each: as many as
ingest.forkable_cpus allows (one per CPU in os.sched_getaffinity, which
`taskset -c 0` sets to one CPU; one without os.fork or while another thread
is alive), at most one per day and one per _MIN_WORKER_POSTS posts. One
share forks nothing. The workers are forked by ingest.forked, the helper
that parse_stream's workers also run under. The build makes save's hidden
partial directory before it forks. Each process runs one step per day of its
share, the same in every process: _build_day, then _write_day, which writes
the day's one file there and returns its manifest entry, and then the day is
dropped. A worker reads its days' posts from the memory the fork shares, and
sends back only the day's manifest entry and its hashtag and link names. No
process parses a day it wrote to check it: verify_index is the check of a
tree on disk. The manifest has one in-memory form, a dict from file name to
"ROWS CRC", which _write_day and _write_side_files fill, verify_index
rebuilds and load_index reads from meta. The build process then writes the
side files and meta, and renames the directory into place, so the tree is
the same for any number of workers. build_index writes a tree into a
temporary directory and loads it: every in-memory index comes from
load_index. Peak RSS as wait4 reports it for a build is the largest of the
build process and its reaped workers, not their sum.

On disk an index is a directory, and each fact is stored once:

    meta                 key=value: span, engine params, config provenance,
                         file.NAME=<row count> <CRC-32> per other file, and
                         last crc=<CRC-32 of the rows before it>
    stopwords.txt        one word per line, sorted
    lexicon.txt          one word per line, sorted
    metadata.jsonl       {"description","title","url"} per line, sorted by url
    vectors/DAY          one file per day, its rows in this order:
                           kind value <8 counters>  (hashtag and link rows)
                           cv key n ngram weight ... fingerprint
                           ss key n ngram weight ...
                           ln hashtag url        (in ranked link order)
                           nb hashtag other      (by distance, then other)
                         (fingerprint: 16 lowercase hex digits)

A day file's rows do not repeat its day. A link's counters are its counter
row, and a neighbour's distance is the Hamming distance of the two stored
fingerprints. All files are UTF-8, tab-separated, and framed by a
`#socialqe <section> 4` header and `#end <row count>` footer. The meta
manifest lists every other file with its row count and the CRC-32 of its
bytes (8 lowercase hex digits), and meta's last row guards meta itself, so a
lost, truncated or edited file is refused naming it before any of its rows
is used. Counter column order everywhere: tweet_frequency,
retweet_frequency, total_frequency, tweet_votes, retweet_votes, total_votes,
link_tweet_votes, link_retweet_votes. Writes are fully sorted, so equal
indexes produce byte-identical trees.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import zlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from itertools import chain, repeat, zip_longest
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from socialqe.config import EngineParams
from socialqe.ingest import (
    DEFAULT_STOPWORDS,
    CanonicalUrl,
    LinkMetadata,
    Memo,
    TweetRecord,
    file_name_tokens,
    forkable_cpus,
    forked,
    normalize_and_tokenize,
    url_from_canonical,
    word_break_hashtag,
)
from socialqe.signatures import (
    RankedNgram,
    hamming64,
    tally_vector,
    vector_fingerprints,
)
from socialqe.signatures import build_vector  # noqa: F401  (bench/tracing.py wraps it)
from socialqe.signatures import vector_fingerprint  # noqa: F401  (bench/tracing.py wraps it)
from socialqe.votes import (
    HASHTAG,
    LINK,
    ElementKey,
    NgramTally,
    VoteRecord,
    element_weight,
    extract_ngrams,
)

FORMAT_VERSION = 4

DOC_FIELDS = ("title", "description", "file_name")

class IndexFormatError(ValueError):
    """Raised when a persisted index is unreadable: bad version, framing, or rows."""


@dataclass(frozen=True, slots=True)
class LinkAssociation:
    """A link on one day: its own day counters and social signature.

    One object per link and day, shared by every hashtag the link ranks under
    that day, both as built and as loaded.
    """

    url: CanonicalUrl
    votes: VoteRecord
    signature: tuple[RankedNgram, ...]


@dataclass(frozen=True, slots=True)
class DayEntry:
    """Everything the index knows about one hashtag on one day.

    fingerprint is vector_fingerprint(vector), computed at build and stored.
    """

    hashtag: str
    day: date
    vector: tuple[RankedNgram, ...]
    fingerprint: int
    links: tuple[LinkAssociation, ...]
    similar: tuple[tuple[str, int], ...]


@dataclass(frozen=True, slots=True)
class LinkDoc:
    """One link's text, tokenized once, for matching and scoring.

    Per field of DOC_FIELDS, words[i] is the set of the field's stopword-free
    tokens and text[i] those tokens in order, space-joined between two
    spaces. A rerank reads it under max_ngram, the longest term that scores.
    """

    meta: LinkMetadata
    max_ngram: int
    words: tuple[frozenset[str], ...]
    text: tuple[str, ...]


def phrase_probe(phrase: str) -> tuple[str, str | None]:
    """(first token, padded phrase or None) that tests phrase against a field.

    phrase, space-joined tokens, runs contiguously in field i of a LinkDoc
    exactly when its first token is in words[i] and the padded phrase is None
    (one token) or a substring of text[i]. Tokens never hold whitespace, so
    the padding spaces pin both ends to token boundaries; a phrase with a
    leading, trailing or doubled space, or other whitespace, matches nothing.
    """
    first, sep, _ = phrase.partition(" ")
    return first, f" {phrase} " if sep else None


def field_tokens(
    meta: LinkMetadata, field: str, stopwords: frozenset[str] | set[str]
) -> list[str]:
    """Stopword-free tokens of one document field of DOC_FIELDS."""
    if field == "title":
        return normalize_and_tokenize(meta.title, stopwords)
    if field == "description":
        return normalize_and_tokenize(meta.description, stopwords)
    if field == "file_name":
        return file_name_tokens(meta.url.file_name, stopwords)
    raise ValueError(f"unknown document field {field!r}")


def build_link_doc(
    meta: LinkMetadata, stopwords: frozenset[str] | set[str], max_ngram: int
) -> LinkDoc:
    """Tokenize each field of meta once, into its word set and padded text."""
    tokens = [field_tokens(meta, f, stopwords) for f in DOC_FIELDS]
    return LinkDoc(
        meta=meta,
        max_ngram=max_ngram,
        words=tuple(frozenset(t) for t in tokens),
        text=tuple(f" {' '.join(t)} " for t in tokens),
    )


def broken_phrase(
    hashtag: str,
    lexicon: frozenset[str],
    stopwords: frozenset[str] | set[str],
) -> str:
    """Word-broken hashtag as a stopword-free phrase; falls back to the tag.

    Document tokens have stopwords removed, so the query phrase must drop
    them too or "basket of deplorables" could never match any title.
    """
    words = [w for w in word_break_hashtag(hashtag, lexicon) if w not in stopwords]
    if not words:
        return hashtag
    return " ".join(words)


RerankCandidate = tuple[CanonicalUrl, float, LinkDoc]


def _no_entry(hashtag: str, day: date) -> LookupError:
    return LookupError(f"no entry for hashtag {hashtag!r} on {day.isoformat()}")


def _rerank_candidates(
    entries: Mapping[tuple[str, date], DayEntry],
    metadata: Mapping[str, LinkMetadata],
    link_docs: Memo,
    weight_args: tuple[float, float, float, float],
    key: tuple[str, date],
) -> tuple[RerankCandidate, ...]:
    """(url, social weight, LinkDoc) of each link of the entry at key, in link order.

    A link without crawled metadata gets a doc of its file name alone.
    """
    entry = entries.get(key)
    if entry is None:
        raise _no_entry(*key)
    candidates = []
    for assoc in entry.links:
        meta = metadata.get(assoc.url.full)
        if meta is None:
            meta = LinkMetadata(url=assoc.url)
        weight = element_weight(assoc.votes, *weight_args)
        candidates.append((assoc.url, weight, link_docs[meta]))
    return tuple(candidates)


# Up to this radius the 64 bits split into radius+1 blocks of four bits or
# more, and on a day of 1,000 random fingerprints a query checks under half
# the day. Past it the union of the buckets nears the whole day (at radius 15
# a query is barely faster than a scan), so a scan answers without the tables.
_MAX_BLOCKED_RADIUS = 12
# A day of at most this many tags is scanned whole. Building the tables costs
# about a dozen scans of the day, which so few tags seldom repay: one query
# on a fresh day would pay it all.
_MIN_BLOCKED_TAGS = 64


def _blocks(radius: int) -> list[tuple[int, int]]:
    """(shift, mask) of radius+1 disjoint blocks covering all 64 bits."""
    count = radius + 1
    blocks, shift = [], 0
    for i in range(count):
        width = 64 // count + (i < 64 % count)
        blocks.append((shift, (1 << width) - 1))
        shift += width
    return blocks


def _comparable(
    tagged: Iterable[tuple[str, tuple[RankedNgram, ...], int]],
) -> dict[str, int]:
    """The fingerprints to search, of one day's (tag, vector, fingerprint) triples.

    A tag whose vector is empty has no context to compare (its fingerprint
    is 0 whatever it was tagged with), so it is left out: it has no
    neighbours and is no tag's neighbour. The build and the query side
    (through which verify_index checks stored neighbours) both take the
    fingerprints they search from here.
    """
    return {tag: fp for tag, vector, fp in tagged if vector}


class NeighbourSearch:
    """Exact Hamming-radius neighbours among one day's hashtag fingerprints.

    Pigeonhole block search (Manku, Jain & Das Sarma, WWW 2007): two 64-bit
    fingerprints at most `radius` bits apart agree exactly on at least one of
    radius+1 disjoint blocks. Each tag is bucketed by every block's value;
    the tags sharing a bucket with the queried one are the only candidates,
    and each is checked with the exact distance. Large radii and small days
    take one zero-width block instead: every tag is a candidate (a scan).
    """

    __slots__ = ("fingerprints", "radius", "_tables")

    def __init__(self, fingerprints: dict[str, int], radius: int):
        self.fingerprints = fingerprints
        self.radius = radius
        self._tables = None
        if 0 <= radius <= _MAX_BLOCKED_RADIUS and len(fingerprints) > _MIN_BLOCKED_TAGS:
            tables = []
            for shift, mask in _blocks(radius):
                buckets: dict[int, list[str]] = {}
                for tag, fp in fingerprints.items():
                    buckets.setdefault(fp >> shift & mask, []).append(tag)
                tables.append((shift, mask, buckets))
            self._tables = tables

    def near(self, tag: str) -> list[tuple[str, int]]:
        """(other, distance) within the radius of tag, nearest first, ties by tag.

        tag itself is never listed; other tags with its fingerprint are. A
        tag outside the search has no neighbours.
        """
        fingerprints, radius = self.fingerprints, self.radius
        own = fingerprints.get(tag)
        if own is None:
            return []
        found = []
        if self._tables is None:
            # A scan reads the pairs in place: no lookup per tag.
            for other, fp in fingerprints.items():
                if other != tag:
                    distance = hamming64(own, fp)
                    if distance <= radius:
                        found.append((distance, other))
        else:
            candidates = set()
            for shift, mask, buckets in self._tables:
                candidates.update(buckets.get(own >> shift & mask, ()))
            for other in candidates:
                if other != tag:
                    distance = hamming64(own, fingerprints[other])
                    if distance <= radius:
                        found.append((distance, other))
        found.sort()
        return [(other, distance) for distance, other in found]


@dataclass(eq=True, slots=True)
class HashtagIndex:
    span: tuple[date, date] | None
    params: EngineParams
    stopwords: frozenset[str]
    lexicon: frozenset[str]
    day_records: dict[date, dict[ElementKey, VoteRecord]]
    entries: dict[tuple[str, date], DayEntry]
    metadata: dict[str, LinkMetadata]
    provenance: tuple[tuple[str, str], ...] = ()
    _by_day: dict | None = field(init=False, default=None, compare=False, repr=False)
    _link_docs: Memo = field(init=False, compare=False, repr=False)
    _broken_phrases: Memo = field(init=False, compare=False, repr=False)
    _rerank_candidates: Memo = field(init=False, compare=False, repr=False)
    _neighbour_searches: dict = field(
        init=False, default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self):
        # Each memo starts empty and derives on first use, so a load does no
        # work for them. Their derive functions hold the index's parts, not
        # the index, so a dropped index is freed without a cycle collection.
        p = self.params
        self._link_docs = Memo(
            partial(build_link_doc, stopwords=self.stopwords, max_ngram=p.max_ngram)
        )
        self._broken_phrases = Memo(
            partial(broken_phrase, lexicon=self.lexicon, stopwords=self.stopwords)
        )
        weight_args = (p.tweet_weight, p.retweet_weight, p.vote_weight, p.link_weight)
        self._rerank_candidates = Memo(
            partial(
                _rerank_candidates,
                self.entries,
                self.metadata,
                self._link_docs,
                weight_args,
            )
        )

    def entry(self, hashtag: str, day: date) -> DayEntry:
        found = self.entries.get((hashtag, day))
        if found is None:
            raise _no_entry(hashtag, day)
        return found

    def days(self) -> list[date]:
        return sorted(self.day_records)

    def _day(self, day: date) -> tuple[tuple[DayEntry, ...], dict[str, int]]:
        """day's entries in hashtag order, and the fingerprints to search among them.

        Derived for every day in one pass on first use, each day sorted alone.
        A day's first search then copies one small dict: reading the day's
        entries instead, cold, doubled `long`'s first-of-day latency.
        """
        by_day = self._by_day
        if by_day is None:
            grouped: dict[date, list[DayEntry]] = {}
            for e in self.entries.values():
                grouped.setdefault(e.day, []).append(e)
            by_day = {}
            for d, es in grouped.items():
                es = tuple(sorted(es, key=lambda e: e.hashtag))
                by_day[d] = (es, _comparable((e.hashtag, e.vector, e.fingerprint) for e in es))
            self._by_day = by_day
        return by_day.get(day, ((), {}))

    def hashtags_on(self, day: date) -> list[str]:
        """Hashtags with an entry that day, sorted, in a new list."""
        return [e.hashtag for e in self._day(day)[0]]

    def links_on(self, day: date) -> list[str]:
        """Canonical URLs of every link seen that day, sorted."""
        records = self.day_records.get(day, {})
        return sorted(key.value for key in records if key.kind == LINK)

    def link_doc(self, meta: LinkMetadata) -> LinkDoc:
        """meta's LinkDoc under this index's stopwords and max_ngram, built once.

        The cache is a Memo: it holds at most MEMO_LIMIT docs, and is emptied
        when full.
        """
        return self._link_docs[meta]

    def broken_phrase(self, hashtag: str) -> str:
        """broken_phrase of hashtag under this index's lexicon and stopwords, once.

        A Memo, like the link docs: expand_query and run_comparison both
        read it, so an evaluate warms it for the reranks of its tags.
        """
        return self._broken_phrases[hashtag]

    def rerank_candidates(self, hashtag: str, day: date) -> tuple[RerankCandidate, ...]:
        """(url, social weight, LinkDoc) of each of the entry's links, derived once.

        The metadata lookup, the LinkDoc and element_weight under this
        index's params, per link, in the entry's link order; a Memo keyed by
        (hashtag, day). Raises LookupError when the entry is missing.
        """
        return self._rerank_candidates[(hashtag, day)]

    def fingerprint(self, hashtag: str, day: date) -> int:
        """SimHash fingerprint of the hashtag's vector that day.

        Read from its entry: the build computes it, and the index stores it
        beside the vector, so no query computes one.
        """
        return self.entry(hashtag, day).fingerprint

    def neighbour_search(self, day: date, radius: int) -> NeighbourSearch:
        """The NeighbourSearch over day's fingerprints at radius, built once."""
        search = self._neighbour_searches.get((day, radius))
        if search is None:
            # A copy, though the day's dict never changes: the search then
            # reads entries this call has just touched (warm in cache).
            search = NeighbourSearch(dict(self._day(day)[1]), radius)
            self._neighbour_searches[(day, radius)] = search
        return search


def similar_hashtags(
    index: HashtagIndex, hashtag: str, day: date, max_distance: int | None = None
) -> list[tuple[str, int]]:
    """Same-day hashtags within a fingerprint Hamming distance, nearest first.

    Searches the day at max_distance, or at params.max_distance if None, as
    the build did for the lists it stored. The queried hashtag is never in
    its own result, and a hashtag with an empty vector neither has nor is a
    neighbour. Ties break lexicographically.
    """
    index.entry(hashtag, day)  # LookupError when the entry is missing
    if max_distance is None:
        max_distance = index.params.max_distance
    # Every radius past 64 finds what 64 does, every negative one nothing;
    # clamping keeps the per-(day, radius) cache bounded.
    radius = max(-1, min(max_distance, 64))
    return index.neighbour_search(day, radius).near(hashtag)


class DayTally(NamedTuple):
    """One day's posts, or a shard of them, counted by tally_day."""

    hashtags: defaultdict[str, NgramTally]
    links: defaultdict[str, NgramTally]
    cooccur: dict[str, set[str]]  # hashtag -> the links posted with it
    urls: dict[str, CanonicalUrl]  # full URL -> its first-seen object


def tally_day(
    tweets: Iterable[TweetRecord], stopwords: frozenset[str], max_ngram: int
) -> DayTally:
    """Count posts of one day in one pass: a tally per hashtag and per link.

    A post that names a hashtag or a link is tokenized (each distinct text
    once) and fed to each of its elements' tallies, once per occurrence; a
    post that names neither counts nothing. The rule reads only the post, so
    tallies of shards of a day, merged, equal the tallies of the whole day.
    """
    # normalize_and_tokenize is looked up here per call: bench/tracing.py wraps it.
    grams_of = Memo(lambda text: frozenset(
        extract_ngrams(normalize_and_tokenize(text, stopwords), max_ngram)))
    day = DayTally(defaultdict(NgramTally), defaultdict(NgramTally), {}, {})
    hashtags, links, cooccur, urls = day
    for tweet in tweets:
        if not (tweet.hashtags or tweet.links):
            continue
        fulls = [u.full for u in tweet.links]
        post = (grams_of[tweet.text], tweet.account_id, tweet.is_retweet, bool(fulls))
        for h in tweet.hashtags:
            hashtags[h].add(*post)
            if fulls:
                cooccur.setdefault(h, set()).update(fulls)
        for url in tweet.links:
            links[url.full].add(*post)
            urls.setdefault(url.full, url)
    return day


def _build_day(
    by_day: dict[date, list[TweetRecord]],
    day: date,
    params: EngineParams,
    stopwords: frozenset[str],
    broken_forms: Memo,
    shared_weights: Memo,
) -> tuple[dict[ElementKey, VoteRecord], list[DayEntry]] | None:
    """Day's records and entries, in hashtag order; None if its posts count nothing.

    Pops the day's posts from by_day, so they are freed once counted, and
    reads no other day: days build in any order and in any process. Per
    day, tally_day's NgramTally per hashtag and per link counts that element
    (its stored day record) and the ngram votes of its own tweets, from which
    a hashtag's contextual vector and a co-occurring link's social signature
    are ranked. broken_forms maps a hashtag to its word-broken form, and
    shared_weights is tally_vector's identity Memo. The records are tested
    equal to DailyAggregate's counts of the day, and the vectors to
    build_vector over its restricted counts.
    """
    weight_args = (params.tweet_weight, params.retweet_weight,
                   params.vote_weight, params.link_weight)
    hashtag_tallies, link_tallies, cooccur, url_objects = tally_day(
        by_day.pop(day), stopwords, params.max_ngram
    )
    records = {ElementKey(LINK, f): t.record() for f, t in link_tallies.items()}
    records.update(
        (ElementKey(HASHTAG, h), t.record()) for h, t in hashtag_tallies.items()
    )
    if not records:
        return None
    day_hashtags = sorted(hashtag_tallies)

    vectors: dict[str, tuple[RankedNgram, ...]] = {}
    for h in day_hashtags:
        exclude = {h, broken_forms[h]}
        vectors[h] = tuple(
            tally_vector(
                hashtag_tallies[h],
                params.vector_size,
                exclude,
                *weight_args,
                shared_weights,
            )
        )

    # One association per link posted with a hashtag (no other link's grams
    # are read), shared by every hashtag it ranks under, by (-weight, url).
    assocs: dict[str, LinkAssociation] = {}
    rank_key: dict[str, tuple[float, str]] = {}
    for full in set().union(*cooccur.values()):
        votes = records[ElementKey(LINK, full)]
        signature = tally_vector(
            link_tallies[full],
            params.vector_size,
            frozenset(),
            *weight_args,
            shared_weights,
        )
        assocs[full] = LinkAssociation(url_objects[full], votes, tuple(signature))
        rank_key[full] = (-element_weight(votes, *weight_args), full)
    del hashtag_tallies, link_tallies  # ranked: what follows need not hold them

    fingerprints = dict(
        zip(day_hashtags, vector_fingerprints(map(vectors.get, day_hashtags)))
    )
    neighbours = NeighbourSearch(
        _comparable((h, vectors[h], fingerprints[h]) for h in day_hashtags),
        params.max_distance,
    )
    return records, [
        DayEntry(
            hashtag=h,
            day=day,
            vector=vectors[h],
            fingerprint=fingerprints[h],
            links=tuple(
                assocs[full]
                for full in sorted(cooccur.get(h, ()), key=rank_key.__getitem__)
            ),
            similar=tuple(neighbours.near(h)),
        )
        for h in day_hashtags
    ]


# A build forks a worker only for this many posts or more each. Measured when
# a worker sent back each day's rows: at half as many, on the cheapest posts
# (`tall`'s), the fork and those rows cost about what the worker saved.
_MIN_WORKER_POSTS = 1_000


def _worker_count(days: int, posts: int) -> int:
    """How many processes build a corpus of posts over days.

    As many as forkable_cpus allows, at most one per day and one per
    _MIN_WORKER_POSTS posts.
    """
    return max(1, min(forkable_cpus(), days, posts // _MIN_WORKER_POSTS))


class BuiltTree(NamedTuple):
    """What build_tree wrote: its span, and how many distinct hashtags and links."""

    span: tuple[date, date] | None
    hashtags: int
    links: int


def build_tree(
    corpus: Iterable[TweetRecord],
    out_dir: str | Path,
    metadata: Mapping[str, LinkMetadata] | None = None,
    params: EngineParams | None = None,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    lexicon: frozenset[str] = frozenset(),
    provenance: Iterable[tuple[str, str]] = (),
) -> BuiltTree:
    """Aggregate a tweet stream into the index tree at out_dir, as save_index writes it.

    Deterministic given the corpus as a set: ingestion order and sharding do
    not affect the tree. The span runs from the first day to the last (an
    empty corpus yields an empty index with no span); one longer than 366
    days is a ValueError naming both days. provenance is the config entries
    to echo into meta, less `stopwords` and `lexicon`: those lists are
    stored by content. out_dir must be missing or empty, as for save_index,
    and a build that fails leaves no tree.

    Each day is built by _build_day from its own posts. Each post that names
    a hashtag or a link counts its grams, whatever the day's other posts
    are. The days are dealt into _worker_count shares; this process builds
    one, and a process forked from it once the corpus is grouped by day
    builds each other. Each runs the same step per day and parses no file
    it wrote, so whichever process builds a day, the tree is the same.
    The corpus is consumed as a stream, so a parse_stream that parses in
    workers (a large corpus file) hands over each post as it is read back.
    """
    if params is None:
        params = EngineParams()

    by_day: dict[date, list[TweetRecord]] = {}
    for tweet in corpus:
        by_day.setdefault(tweet.day, []).append(tweet)

    span = (min(by_day), max(by_day)) if by_day else None
    if span is not None and (length := (span[1] - span[0]).days + 1) > 366:
        raise ValueError(
            f"corpus spans {span[0].isoformat()}..{span[1].isoformat()} "
            f"({length} days), longer than 366"
        )

    if metadata is None:
        metadata = {}

    # word_break_hashtag is looked up here per call: bench/tracing.py wraps it.
    broken_forms = Memo(lambda h: " ".join(word_break_hashtag(h, lexicon)))
    # Equal rounded weights share one float in every vector built here.
    shared_weights = Memo(lambda weight: weight)
    workers = _worker_count(len(by_day), sum(map(len, by_day.values())))
    # Largest day first, dealt round: shares of about equal posts.
    order = sorted(by_day, key=lambda d: (-len(by_day[d]), d))
    shares = [order[i::workers] for i in range(workers)]
    manifest: dict[str, str] = {}
    hashtags: set[str] = set()
    links: set[str] = set()
    with _new_tree(out_dir) as tree:

        def day_files(day: date):
            """Build day and write its files into tree, then drop it.

            Yields the day file's name and manifest entry and the day's
            hashtag and link names, if its posts count anything.
            """
            built = _build_day(by_day, day, params=params, stopwords=stopwords,
                               broken_forms=broken_forms, shared_weights=shared_weights)
            if built is not None:
                records = built[0]
                yield (_write_day(tree, day, *built),
                       [key.value for key in records if key.kind == HASHTAG],
                       [key.value for key in records if key.kind == LINK])

        # This process builds shares[0]; a child forked from it builds each
        # other share from the posts the fork left in its copy-on-write memory.
        with forked(shares[1:], day_files, "building", date.isoformat) as sent:
            for days in shares[1:]:
                for day in days:
                    del by_day[day]
            for (name, listed), day_hashtags, day_links in chain(
                chain.from_iterable(map(day_files, shares[0])),
                (done for _, done in sent),
            ):
                manifest[name] = listed
                hashtags.update(day_hashtags)
                links.update(day_links)
        _write_side_files(
            tree, span, params,
            # Their paths would make equal corpora in two directories give two trees.
            sorted((k, v) for k, v in provenance if k not in ("stopwords", "lexicon")),
            stopwords, lexicon,
            {full: meta for full, meta in metadata.items() if full in links},
            manifest,
        )
    return BuiltTree(span, len(hashtags), len(links))


def build_index(
    corpus: Iterable[TweetRecord],
    metadata: Mapping[str, LinkMetadata] | None = None,
    params: EngineParams | None = None,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    lexicon: frozenset[str] = frozenset(),
    provenance: Iterable[tuple[str, str]] = (),
) -> HashtagIndex:
    """Aggregate a tweet stream into a HashtagIndex: build_tree, then load_index.

    The tree is written into a temporary directory, which is removed once
    loaded, so the index is exactly what load_index reads from the tree
    that `build-index` writes for the same arguments.
    """
    import tempfile  # only here: a build-index process does not need it

    with tempfile.TemporaryDirectory(prefix="socialqe-") as tmp:
        out = Path(tmp) / "index"
        build_tree(corpus, out, metadata, params, stopwords, lexicon, provenance)
        return load_index(out)


# --- persistence ---

# Every day's rows are in the one file vectors/DAY, a name kept from format
# 3 as bench/test_bench.py picks a day file there. Each meta row
# `file.NAME=<row count> <CRC-32>` lists one other file a save wrote, and
# meta's last row is `crc=<CRC-32 of the rows before it>`.
_DAYS = "vectors"
_MANIFEST = "file."
_META_CRC = "crc="
_HEX_DIGITS = "0123456789abcdef"


def _write_section(path: Path, section: str, rows: list[str]) -> str:
    """Write a framed file; its manifest entry, "ROWS CRC".

    The CRC is read back, not built in memory: the largest file then never
    sits in memory twice, and the CRC is of the bytes on disk.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#socialqe\t{section}\t{FORMAT_VERSION}\n")
        for row in rows:
            f.write(row)
            f.write("\n")
        f.write(f"#end\t{len(rows)}\n")
    return f"{len(rows)} {zlib.crc32(path.read_bytes()):08x}"


def _bad_row(path: Path, lineno: int, problem: str) -> IndexFormatError:
    return IndexFormatError(f"{path}: line {lineno}: {problem}")


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise IndexFormatError(f"{path}: listed in meta but missing") from None
    except OSError as exc:
        raise IndexFormatError(f"{path}: unreadable: {exc}") from None


def _read_section(path: Path, section: str, data: bytes | None = None) -> list[str]:
    """The rows of the framed file at path, whose bytes are data if already read."""
    try:
        text = (_read_bytes(path) if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"{path}: not UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise IndexFormatError(f"{path}: truncated: missing final newline")
    if not lines:
        raise IndexFormatError(f"{path}: empty file")
    header = lines[0].split("\t")
    if len(header) != 3 or header[0] != "#socialqe" or header[1] != section:
        raise _bad_row(path, 1, f"bad header {lines[0]!r}")
    if header[2] != str(FORMAT_VERSION):
        raise _bad_row(
            path,
            1,
            f"unsupported format version {header[2]!r}, this socialqe reads "
            f"{FORMAT_VERSION}: rebuild the index with `socialqe build-index`",
        )
    if len(lines) < 2 or not lines[-1].startswith("#end\t"):
        raise _bad_row(path, len(lines), "missing #end footer")
    rows = lines[1:-1]
    # Only what save_index writes: the row count, and nothing after it.
    footer = f"#end\t{len(rows)}"
    if lines[-1] != footer:
        raise _bad_row(path, len(lines), f"footer {lines[-1]!r}, not {footer!r}")
    return rows


def _counter_row(votes: VoteRecord) -> list[str]:
    """The counter columns: VoteRecord's fields, in their declared order."""
    return [str(getattr(votes, name)) for name in VoteRecord.__dataclass_fields__]


def _vector_row(kind: str, key: str, vec: tuple[RankedNgram, ...], weight_texts: Memo) -> str:
    """The row of a vector; weight_texts is a Memo of f"{weight:.6f}".

    Only weights > 0.0 go through it: positive floats that compare equal
    have equal bits, while 0.0 == -0.0 would give both one text.
    """
    fields_ = [kind, key, str(len(vec))]
    for _, ngram, weight in vec:
        fields_.append(ngram)
        fields_.append(weight_texts[weight] if weight > 0.0 else f"{weight:.6f}")
    return "\t".join(fields_)


def _parse_vector(
    fields_: list[str], path: Path, lineno: int, fingerprinted: bool, weights_of: Memo
) -> tuple[RankedNgram, ...]:
    """Ranked entries of a vector row already checked to have 3+ fields.

    A fingerprinted (cv) row has one more field after its pairs. weights_of
    is a Memo(float), so equal weight texts give one float.
    """
    count_s = fields_[2]
    try:
        count = int(count_s)
    except ValueError:
        raise _bad_row(path, lineno, f"bad entry count {count_s!r}") from None
    end = 3 + 2 * count
    if len(fields_) != end + fingerprinted:
        expected = f"expected {count} (ngram, weight) pairs"
        raise _bad_row(
            path, lineno, expected + " and a fingerprint" if fingerprinted else expected
        )
    weights_s = fields_[4:end:2]
    try:
        weights = list(map(weights_of.__getitem__, weights_s))
    except ValueError:
        bad = next(w for w in weights_s if not _is_float(w))
        raise _bad_row(path, lineno, f"bad weight {bad!r}") from None
    # Only what save_index writes: no weight negative, a finite sum, and no
    # weight above the one before it (a vector is ranked, and expand_query
    # divides by its first weight as the peak; rounding to .6f keeps the
    # build's order). Checked per row in C, as load is most of a query
    # process's set-up: a row in order has its smallest weight last.
    if weights and not (
        weights == sorted(weights, reverse=True)
        and weights[-1] >= 0.0
        and math.isfinite(sum(weights))
    ):
        # Named: the first weight that is negative, at which the running sum
        # stops being finite, or that is above the one before it.
        total = 0.0
        for i, weight in enumerate(weights):
            total += weight
            text = weights_s[i]
            if not (weight >= 0.0 and math.isfinite(total)):
                raise _bad_row(path, lineno, f"bad weight {text!r}")
            if i and weight > weights[i - 1]:
                before = weights_s[i - 1]
                raise _bad_row(path, lineno, f"weight {text!r} is above the {before!r} before it")
    # tuple.__new__ is RankedNgram._make without its per-call overhead.
    ranked = zip(range(1, count + 1), fields_[3:end:2], weights)
    return tuple(map(tuple.__new__, repeat(RankedNgram), ranked))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_empty_target(out_dir: str | Path):
    """ValueError unless out_dir is missing or an empty directory, as save_index needs."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise ValueError(f"refusing to write index into non-empty {out}")


@contextmanager
def _new_tree(out_dir: str | Path):
    """A new hidden sibling of out_dir holding the empty day-file directory.

    When the with block ends, the directory is renamed onto out_dir, which
    must still be missing or empty; on any error it is removed instead, so
    nothing is left behind. A process killed meanwhile leaves it hidden.
    """
    out = Path(out_dir)
    check_empty_target(out)
    target = Path(os.path.realpath(out))  # a link to an empty directory stays
    target.parent.mkdir(parents=True, exist_ok=True)
    # os.urandom, not secrets: importing that loads OpenSSL (about 4 MB RSS).
    tree = target.with_name(f".{target.name}.{os.urandom(8).hex()}.partial")
    tree.mkdir()
    try:
        (tree / _DAYS).mkdir()
        yield tree
        check_empty_target(out)
        os.replace(tree, target)
    except BaseException:
        shutil.rmtree(tree, ignore_errors=True)
        raise


def save_index(index: HashtagIndex, out_dir: str | Path):
    """Write the index directory; refuses a non-empty target.

    The tree is written into a hidden sibling directory and then renamed onto
    out_dir, so a save that fails part-way leaves no partial tree behind.
    """
    with _new_tree(out_dir) as tree:
        manifest = dict(_write_day(tree, day, index.day_records[day], index._day(day)[0])
                        for day in sorted(index.day_records))
        _write_side_files(tree, index.span, index.params, index.provenance,
                          index.stopwords, index.lexicon, index.metadata, manifest)


def _day_rows(
    records: Mapping[ElementKey, VoteRecord], day_entries: Iterable[DayEntry]
) -> list[str]:
    """The rows of one day's file: counter rows, then cv, ss, ln and nb rows.

    day_entries come in hashtag order. _write_day writes the rows, and
    verify_index compares them with the file it read.
    """
    rows = [
        "\t".join([key.kind, key.value, *_counter_row(records[key])])
        for key in sorted(records)
    ]
    signatures: dict[str, tuple[RankedNgram, ...]] = {}
    link_rows = []
    sim_rows = []
    weight_texts = Memo(lambda weight: f"{weight:.6f}")
    for e in day_entries:
        rows.append(
            f"{_vector_row('cv', e.hashtag, e.vector, weight_texts)}\t{e.fingerprint:016x}")
        for assoc in e.links:
            signatures[assoc.url.full] = assoc.signature
            link_rows.append(f"ln\t{e.hashtag}\t{assoc.url.full}")
        sim_rows.extend(f"nb\t{e.hashtag}\t{other}" for other, _ in e.similar)
    rows.extend(
        _vector_row("ss", full, signatures[full], weight_texts) for full in sorted(signatures)
    )
    return rows + link_rows + sim_rows


def _write_day(
    tree: Path,
    day: date,
    records: Mapping[ElementKey, VoteRecord],
    day_entries: Iterable[DayEntry],
) -> tuple[str, str]:
    """Write day's file into tree; its name and manifest entry, as meta lists them."""
    name = f"{_DAYS}/{day.isoformat()}"
    return name, _write_section(tree / name, "day", _day_rows(records, day_entries))


def _side_files(
    stopwords: frozenset[str], lexicon: frozenset[str], metadata: Mapping[str, LinkMetadata]
):
    """Yield (file name, section, rows) of each file of a tree but meta and the day files."""
    yield "stopwords.txt", "stopwords", sorted(stopwords)
    yield "lexicon.txt", "lexicon", sorted(lexicon)
    yield "metadata.jsonl", "metadata", [
        json.dumps(
            {
                "url": full,
                "title": metadata[full].title,
                "description": metadata[full].description,
            },
            ensure_ascii=False,
            sort_keys=True,
        )
        for full in sorted(metadata)
    ]


def _rows_crc(rows: Iterable[str]) -> str:
    """The CRC-32 of rows as a framed file holds them, each ending in a newline."""
    text = "".join(row + "\n" for row in rows)
    return f"{zlib.crc32(text.encode()):08x}"


def _meta_rows(
    span: tuple[date, date] | None,
    params: EngineParams,
    provenance: Iterable[tuple[str, str]],
    manifest: Mapping[str, str],
) -> list[str]:
    """meta's rows; manifest maps each other file's name to its "ROWS CRC"."""
    if span is None:
        rows = ["span_start=none", "span_end=none"]
    else:
        rows = [f"span_start={span[0].isoformat()}", f"span_end={span[1].isoformat()}"]
    rows += [f"{key}={value}" for key, value in params.to_entries()]
    rows += [f"config.{key}={value}" for key, value in provenance]
    rows += [f"{_MANIFEST}{name}={manifest[name]}" for name in sorted(manifest)]
    rows.append(_META_CRC + _rows_crc(rows))
    return rows


def _write_side_files(tree: Path, span, params, provenance, stopwords, lexicon, metadata,
                      manifest: dict[str, str]):
    """Write the side files into tree, then meta, which lists them and manifest's day files."""
    for name, section, rows in _side_files(stopwords, lexicon, metadata):
        manifest[name] = _write_section(tree / name, section, rows)
    _write_section(tree / "meta", "meta", _meta_rows(span, params, provenance, manifest))


def iso_day(text: str) -> date:
    """The day text names in canonical YYYY-MM-DD form, else ValueError.

    From Python 3.11 date.fromisoformat also reads other forms ("20170614",
    "2017-W24-3"); this reads only the one form on every supported Python.
    Index day-file names and the CLI's --day and --range share it.
    """
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def _read_listed(root: Path, name: str, section: str, listed: Mapping[str, str]) -> list[str]:
    """The rows of the framed file root/name, once it matches its manifest entry.

    listed is meta's manifest, from file name to "ROWS CRC". The file's bytes
    must have that CRC-32 before they are decoded, and its #end count that
    row count, so a lost, edited or truncated file is refused naming it
    before any of its rows is used.
    """
    path = root / name
    want = listed.get(name)
    if want is None:
        raise IndexFormatError(f"{path}: not listed in meta")
    data = _read_bytes(path)
    want_rows, _, want_crc = want.partition(" ")
    crc = f"{zlib.crc32(data):08x}"
    if want_crc != crc:
        raise IndexFormatError(
            f"{path}: CRC-32 {crc}, meta lists {want_crc or 'none'}: "
            "the file changed after it was saved"
        )
    rows = _read_section(path, section, data)
    if want_rows != str(len(rows)):
        raise IndexFormatError(f"{path}: #end count {len(rows)}, meta lists {want_rows}")
    return rows


def _load_day(
    root: Path,
    day: date,
    listed: Mapping[str, str],
    max_distance: int,
    metadata: Mapping[str, LinkMetadata],
    weights_of: Memo,
) -> tuple[dict[ElementKey, VoteRecord], list[DayEntry]]:
    """One day's records, and its entries in the order of their cv rows.

    load_index, its only caller, reads the day's file root/vectors/DAY through
    _read_listed (listed is meta's manifest), and errors name that path. The
    rows are read in one pass, and a row naming what no row before it holds
    is refused at its line; a row missing from the file is refused naming
    it, so a day is refused, not loaded in part. A link's counters are its
    counter row, and a neighbour's distance is that of the two tags' stored
    fingerprints, checked once every cv row is read. An ss row's link reuses
    the CanonicalUrl its metadata record already parsed. Weights are read
    through weights_of, a Memo(float).
    """
    name = f"{_DAYS}/{day.isoformat()}"
    path = root / name
    records: dict[ElementKey, VoteRecord] = {}
    vectors: dict[str, tuple[RankedNgram, ...]] = {}
    hex_prints: dict[str, str] = {}
    assocs: dict[str, LinkAssociation] = {}  # one per ss row
    links: dict[str, dict[str, LinkAssociation]] = {}  # hashtag -> url -> assoc
    similar: dict[str, dict[str, int]] = {}  # hashtag -> other -> line, then distance
    for lineno, row in enumerate(_read_listed(root, name, "day", listed), 2):
        fields_ = row.split("\t")
        kind = fields_[0]
        if kind == HASHTAG or kind == LINK:
            if len(fields_) != 10:
                raise _bad_row(path, lineno, "expected 10 fields")
            key = ElementKey(kind, fields_[1])
            if key in records:
                raise _bad_row(path, lineno, f"repeats the row of {kind} {key.value!r}")
            try:
                records[key] = VoteRecord(*map(int, fields_[2:]))
            except ValueError as exc:
                raise _bad_row(path, lineno, str(exc)) from None
        elif kind == "cv" or kind == "ss":
            if len(fields_) < 3:
                raise _bad_row(path, lineno, "short vector row")
            key = fields_[1]
            element = HASHTAG if kind == "cv" else LINK
            votes = records.get(ElementKey(element, key))
            if votes is None:
                raise _bad_row(path, lineno, f"{key!r} has no {element} row")
            if key in (vectors if kind == "cv" else assocs):
                raise _bad_row(path, lineno, f"repeats the {kind} row of {key!r}")
            vector = _parse_vector(fields_, path, lineno, kind == "cv", weights_of)
            if kind == "cv":
                # Only what save_index writes: exactly 16 lowercase hex digits
                # (int(x, 16) would also read "0x1f", "1_f", "+1F" or " 1f").
                hex_print = fields_[-1]
                if len(hex_print) != 16 or hex_print.strip(_HEX_DIGITS):
                    raise _bad_row(path, lineno, f"bad fingerprint {hex_print!r}")
                vectors[key] = vector
                hex_prints[key] = hex_print
            else:
                meta = metadata.get(key)
                url = url_from_canonical(key) if meta is None else meta.url
                assocs[key] = LinkAssociation(url, votes, vector)
        elif kind == "ln" or kind == "nb":
            if len(fields_) != 3:
                raise _bad_row(path, lineno, "expected 3 fields")
            _, hashtag, other = fields_
            if hashtag not in vectors:
                raise _bad_row(path, lineno, f"{hashtag!r} has no cv row")
            if kind == "ln":
                assoc = assocs.get(other)
                if assoc is None:
                    raise _bad_row(path, lineno, f"link {other!r} has no ss row")
                tag_links = links.setdefault(hashtag, {})
                if other in tag_links:
                    raise _bad_row(path, lineno, f"repeats the row of {hashtag!r} and {other!r}")
                tag_links[other] = assoc
                continue
            if other not in vectors:
                raise _bad_row(path, lineno, f"{other!r} has no cv row")
            if other == hashtag:
                raise _bad_row(path, lineno, f"{hashtag!r} lists itself")
            near = similar.setdefault(hashtag, {})
            if other in near:
                raise _bad_row(path, lineno, f"repeats the row of {hashtag!r} and {other!r}")
            near[other] = lineno
        else:
            raise _bad_row(path, lineno, f"bad kind {kind!r}")
    # Only what save_index writes: a day's posts count something.
    if not records:
        raise IndexFormatError(f"{path}: no hashtag or link row")
    for key in records:
        if key.kind == HASHTAG and key.value not in vectors:
            raise IndexFormatError(f"{path}: no cv row for hashtag {key.value!r}")
    linked = {full for tag_links in links.values() for full in tag_links}
    for full in assocs:
        if full not in linked:
            raise IndexFormatError(f"{path}: no ln row for link {full!r}")
    # The day's fingerprint ints are made in one pass, so they lie together
    # in memory for the neighbour search that reads them.
    fingerprints = dict(zip(hex_prints, map(int, hex_prints.values(), repeat(16))))
    for hashtag, near in similar.items():
        for other, lineno in near.items():
            distance = hamming64(fingerprints[hashtag], fingerprints[other])
            if distance > max_distance:
                raise _bad_row(path, lineno, f"the fingerprints of {hashtag!r} and {other!r} are "
                               f"{distance} bits apart, past max_distance {max_distance}")
            near[other] = distance

    return records, [
        DayEntry(
            hashtag=hashtag,
            day=day,
            vector=vector,
            fingerprint=fingerprints[hashtag],
            links=tuple(links.get(hashtag, {}).values()),
            similar=tuple(similar.get(hashtag, {}).items()),
        )
        for hashtag, vector in vectors.items()
    ]


def load_index(index_dir: str | Path) -> HashtagIndex:
    """Read an index directory back; structurally equal to what was saved.

    meta's rows must match its last row's CRC-32, and each file it lists its
    entry there (_read_listed), before any of that file's rows is used. The
    days are those meta lists, each inside the span (which may hold none);
    a file it does not list is left to verify.
    """
    root = Path(index_dir)
    meta_path = root / "meta"
    if not meta_path.exists():
        raise IndexFormatError(f"{root}: no meta file; not an index directory")
    *rows, last = _read_section(meta_path, "meta") or [""]
    crc = _rows_crc(rows)
    if last != _META_CRC + crc:
        raise IndexFormatError(
            f"{meta_path}: CRC-32 {crc}, its last row is {last!r}: "
            "the file changed after it was saved"
        )

    meta: dict[str, str] = {}
    listed: dict[str, str] = {}
    provenance: dict[str, str] = {}
    for lineno, row in enumerate(rows, 2):
        if "=" not in row:
            raise _bad_row(meta_path, lineno, f"bad row {row!r}")
        key, _, value = row.partition("=")
        if key.startswith("config."):
            table, name = provenance, key[len("config.") :]
        elif key.startswith(_MANIFEST):
            table, name = listed, key[len(_MANIFEST) :]
        else:
            table, name = meta, key
        # Where meta's CRC was rewritten to match, a second row of a key
        # would silently win.
        if name in table:
            raise _bad_row(meta_path, lineno, f"repeats the key {key!r}")
        table[name] = value

    # Only what save_index writes: both `none`, or two days.
    for key, other in (("span_start", "span_end"), ("span_end", "span_start")):
        if key not in meta:
            problem = f"{other} without {key}" if other in meta else f"no {key}"
            raise IndexFormatError(f"{meta_path}: bad span: {problem}")
    if meta["span_start"] == meta["span_end"] == "none":
        span = None
    else:
        try:
            span = (iso_day(meta["span_start"]), iso_day(meta["span_end"]))
        except ValueError as exc:
            raise IndexFormatError(f"{meta_path}: bad span: {exc}") from None
    try:
        params = EngineParams.from_mapping(meta)
    except ValueError as exc:
        raise IndexFormatError(f"{meta_path}: {exc}") from None

    stopwords = frozenset(_read_listed(root, "stopwords.txt", "stopwords", listed))
    lexicon = frozenset(_read_listed(root, "lexicon.txt", "lexicon", listed))

    metadata: dict[str, LinkMetadata] = {}
    path = root / "metadata.jsonl"
    previous = None
    for lineno, row in enumerate(_read_listed(root, path.name, "metadata", listed), 2):
        try:
            obj = json.loads(row)
        except json.JSONDecodeError as exc:
            raise _bad_row(path, lineno, str(exc)) from None
        if not isinstance(obj, dict):
            raise _bad_row(path, lineno, "not a JSON object")
        for key in ("url", "title", "description"):
            if not isinstance(obj.get(key), str):
                problem = "is not a string" if key in obj else "is missing"
                raise _bad_row(path, lineno, f"field {key!r} {problem}")
        url = obj["url"]
        # Only what save_index writes: one row per url, sorted by url.
        if previous is not None and url <= previous:
            raise _bad_row(
                path, lineno, f"url {url!r} does not sort after the {previous!r} before it"
            )
        previous = url
        metadata[url] = LinkMetadata(
            url=url_from_canonical(url),
            title=obj["title"],
            description=obj["description"],
        )

    day_records: dict[date, dict[ElementKey, VoteRecord]] = {}
    entries: dict[tuple[str, date], DayEntry] = {}
    weights_of = Memo(float)
    for name in sorted(listed):
        if not name.startswith(f"{_DAYS}/"):
            continue
        try:
            day = iso_day(name[len(_DAYS) + 1 :])
        except ValueError:
            raise IndexFormatError(f"{root / name}: not a YYYY-MM-DD day file") from None
        if span is None or not span[0] <= day <= span[1]:
            raise IndexFormatError(f"{root / name}: day outside the span in {meta_path}")
        day_records[day], day_entries = _load_day(
            root, day, listed, params.max_distance, metadata, weights_of
        )
        entries.update(((e.hashtag, day), e) for e in day_entries)

    return HashtagIndex(
        span=span,
        params=params,
        stopwords=stopwords,
        lexicon=lexicon,
        day_records=day_records,
        entries=entries,
        metadata=metadata,
        provenance=tuple(provenance.items()),
    )


def _same_as_saved(path: Path, section: str, rendered: list[str]) -> str:
    """The manifest entry of the file at path, whose rows must be rendered, as save writes them.

    The first row that differs is refused naming its line and its first
    field that differs.
    """
    data = _read_bytes(path)
    rows = _read_section(path, section, data)
    for lineno, (row, want) in enumerate(zip_longest(rows, rendered), 2):
        if row != want:
            if row is None or want is None:
                wrote = "no" if want is None else "a"
                raise _bad_row(path, lineno, f"save writes {wrote} row here")
            fields_ = list(zip_longest(row.split("\t"), want.split("\t")))
            at, (got, wanted) = next((i, f) for i, f in enumerate(fields_) if f[0] != f[1])
            raise _bad_row(path, lineno, f"field {at + 1} is {got!r}, save writes {wanted!r}")
    return f"{len(rows)} {zlib.crc32(data):08x}"


def verify_index(index_dir: str | Path) -> HashtagIndex:
    """load_index, then recompute what it trusts and compare with what is stored.

    Per day, no cv or ss vector may repeat an ngram, hold more pairs than the
    stored vector_size, or hold an ngram of more tokens than max_ngram (left
    out of load, as a set per row would slow every query process's set-up),
    and every hashtag's fingerprint is recomputed from its stored vector
    (vector_fingerprints, as the build does). Once they all agree, each stored
    neighbour list is compared with what similar_hashtags finds at the stored
    max_distance, the search every query runs, and each hashtag's links must
    be in the build's rank order, by (-element_weight of the link's counters
    under the stored params, url). Then each file is compared with what save
    writes for what was loaded from it (_day_rows, _side_files, _meta_rows),
    one file at a time, so a row out of save's order or a value spelled
    another way is refused even where meta was rewritten to match. Last, any
    file or directory in the tree that save does not write is refused. The
    first difference is refused as an IndexFormatError naming the file, and
    the hashtag or link or the line; otherwise the loaded index is returned.
    """
    root = Path(index_dir)
    index = load_index(root)
    p = index.params
    radius = p.max_distance
    weight_args = (p.tweet_weight, p.retweet_weight, p.vote_weight, p.link_weight)
    manifest = {}
    for day in index.days():
        name = f"{_DAYS}/{day.isoformat()}"
        path = root / name
        day_entries = index._day(day)[0]
        signatures = {a.url.full: a.signature for e in day_entries for a in e.links}
        vectors = [("cv", e.hashtag, e.vector) for e in day_entries]
        vectors += [("ss", full, signature) for full, signature in signatures.items()]
        for kind, key, vector in vectors:
            if len({r.ngram for r in vector}) != len(vector):
                problem = "repeats an ngram"
            elif len(vector) > p.vector_size:
                problem = f"has {len(vector)} pairs, past vector_size {p.vector_size}"
            elif too_long := [r.ngram for r in vector if r.ngram.count(" ") >= p.max_ngram]:
                problem = (f"has the {too_long[0].count(' ') + 1}-token ngram {too_long[0]!r}, "
                           f"past max_ngram {p.max_ngram}")
            else:
                continue
            raise IndexFormatError(f"{path}: the {kind} vector of {key!r} {problem}")
        fingerprints = vector_fingerprints(e.vector for e in day_entries)
        for e, fp in zip(day_entries, fingerprints):
            if e.fingerprint != fp:
                raise IndexFormatError(
                    f"{path}: fingerprint of {e.hashtag!r} is "
                    f"{e.fingerprint:016x}, but its vector hashes to {fp:016x}"
                )
        for e in day_entries:
            if list(e.similar) != similar_hashtags(index, e.hashtag, day, radius):
                raise IndexFormatError(
                    f"{path}: neighbours of {e.hashtag!r} differ from a search at radius {radius}"
                )
            ranked = [(-element_weight(a.votes, *weight_args), a.url.full) for a in e.links]
            if ranked != sorted(ranked):
                raise IndexFormatError(f"{path}: links of {e.hashtag!r} are not in rank order")
        rows = _day_rows(index.day_records[day], day_entries)
        manifest[name] = _same_as_saved(path, "day", rows)
    for name, section, rows in _side_files(index.stopwords, index.lexicon, index.metadata):
        manifest[name] = _same_as_saved(root / name, section, rows)
    _same_as_saved(root / "meta", "meta",
                   _meta_rows(index.span, index.params, index.provenance, manifest))
    # Load reads only the files meta lists: anything else is refused here.
    saved = {"meta", _DAYS, *manifest}
    days_dir = root / _DAYS
    for path in sorted(chain(root.iterdir(), days_dir.iterdir() if days_dir.is_dir() else ())):
        if path.relative_to(root).as_posix() not in saved or path.is_dir() != (path == days_dir):
            raise IndexFormatError(f"{path}: save writes no such file or directory")
    return index
