"""Date-keyed hashtag index: build, query, and deterministic persistence.

The index connects each (hashtag, day) to its contextual vector and that
vector's SimHash fingerprint, the links that co-occurred with it that day
(each carrying the link's vote counters and social signature), and same-day
hashtags with nearby fingerprints, found by one exact block-indexed search
(NeighbourSearch) at build and at query time. Fingerprints are computed once,
at build, and stored with the vectors. After build the structure is immutable
and safe for concurrent readers. The query side fills caches on first use
(each day's fingerprints to search, a NeighbourSearch per day and radius,
and three Memos of at most MEMO_LIMIT entries each: one LinkDoc per link
text, one broken phrase per hashtag, and one tuple of rerank candidates per
entry); two readers racing on a miss compute equal values.

A day is built from its own posts alone, so once the corpus is grouped by
day, build_index forks workers and splits the days among them: one process
per CPU it may run on (os.sched_getaffinity, which `taskset -c 0` sets to
one CPU), at most one per day and one per _MIN_WORKER_POSTS posts. It
forks none without os.fork or while another thread is alive, as a child
would inherit that thread's locks but not the thread. A worker reads its
days' posts from the memory the fork shares, and sends back each day's
records and entries; the build inserts them in day order, so the index and
its tree are the same for any number of workers. Peak RSS as wait4 reports
it for a build is the largest of the build process and its reaped workers,
not their sum.

On disk an index is a directory, and each fact is stored once:

    meta                 key=value: span, engine params, config provenance,
                         and file.SECTION/DAY=<row count> <CRC-32> per day file
    stopwords.txt        one word per line, sorted
    lexicon.txt          one word per line, sorted
    metadata.jsonl       {"description","title","url"} per line, sorted by url
    aggregates/DAY       kind value <8 counters>     (hashtag and link rows)
    vectors/DAY          cv key n ngram weight ... fingerprint
                         ss key n ngram weight ...
                         (fingerprint: 16 lowercase hex digits)
    links/DAY            hashtag url                 (in ranked link order)
    similar/DAY          hashtag other               (by distance, then other)

A day file's rows do not repeat its day. A link's counters are its
aggregates row, and a neighbour's distance is the Hamming distance of the two
stored fingerprints. All files are UTF-8, tab-separated, and framed by a
`#socialqe <section> 3` header and `#end <row count>` footer. The meta
manifest lists each day file with its row count and the CRC-32 of its bytes
(8 lowercase hex digits), so a lost, truncated or edited day file is refused
naming it. Counter column order everywhere: tweet_frequency,
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
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from itertools import repeat
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

FORMAT_VERSION = 3

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

    Per field of DOC_FIELDS, tokens[i] is the field's stopword-free token run
    and terms[i] its binary-presence vector: every ngram of up to max_ngram
    tokens, space-joined, at weight 1.0. Tokens never contain whitespace, so
    a run of at most max_ngram tokens occurs in field i exactly when its
    space-joined form is a key of terms[i].
    """

    meta: LinkMetadata
    max_ngram: int
    tokens: tuple[tuple[str, ...], ...]
    terms: tuple[dict[str, float], ...]


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
    """Tokenize each field of meta once and collect its ngram terms."""
    tokens = tuple(tuple(field_tokens(meta, f, stopwords)) for f in DOC_FIELDS)
    return LinkDoc(
        meta=meta,
        max_ngram=max_ngram,
        tokens=tokens,
        terms=tuple(dict.fromkeys(extract_ngrams(t, max_ngram), 1.0) for t in tokens),
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
    _comparable_by_day: dict | None = field(
        init=False, default=None, compare=False, repr=False
    )
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

    def hashtags_on(self, day: date) -> list[str]:
        """Hashtags with an entry that day, sorted."""
        return sorted(h for h, d in self.entries if d == day)

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
            by_day = self._comparable_by_day
            if by_day is None:
                # Every day in one pass over the entries: a day's first search
                # then copies one small dict. Looking up each of the day's
                # entries instead, cold, doubled `long`'s first-of-day latency.
                grouped: dict[date, list] = {}
                for (h, d), e in self.entries.items():
                    grouped.setdefault(d, []).append((h, e.vector, e.fingerprint))
                by_day = {d: _comparable(tagged) for d, tagged in grouped.items()}
                self._comparable_by_day = by_day
            # A copy, though the day's dict never changes: the search then
            # reads entries this call has just touched (warm in cache).
            search = NeighbourSearch(dict(by_day.get(day, ())), radius)
            self._neighbour_searches[(day, radius)] = search
        return search


def similar_hashtags(
    index: HashtagIndex, hashtag: str, day: date, max_distance: int | None = None
) -> list[tuple[str, int]]:
    """Same-day hashtags within a fingerprint Hamming distance, nearest first.

    With max_distance None, returns the list frozen at build time (built with
    params.max_distance); otherwise searches the day at the given radius,
    exactly as the build did. The queried hashtag is never in its own result,
    and a hashtag with an empty vector neither has nor is a neighbour.
    Ties break lexicographically.
    """
    entry = index.entry(hashtag, day)
    if max_distance is None:
        return list(entry.similar)
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


# A build forks a worker only for this many posts or more each. At half as
# many, on the cheapest posts measured (`tall`'s), the fork and the results
# sent back cost about what the worker saves.
_MIN_WORKER_POSTS = 1_000


def _worker_count(days: int, posts: int) -> int:
    """How many processes build a corpus of posts over days.

    One per CPU this process may run on (so `taskset` limits it), at most
    one per day and one per _MIN_WORKER_POSTS posts. One without os.fork,
    or while another thread is alive: a forked child would hold a copy of
    every lock that thread held, and no thread to release it.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
    except OSError:  # no procfs: the threads cannot be counted
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), days, posts // _MIN_WORKER_POSTS))


def _build_forked(
    by_day: dict[date, list], build_day, shares: list[list[date]], shared_weights: Memo
) -> dict:
    """build_day(by_day, day) of every day of by_day, emptying it; a process per share.

    This process builds shares[0]; a child forked from it builds each other
    share from the posts the fork left in its copy-on-write memory, and
    sends back each day in _day_wire form. A worker's exception is raised
    here as a RuntimeError naming the day. On any exception every worker is
    killed, and each is reaped before this returns.
    """
    # Imported here, not at the top: a query process or a one-process build
    # needs neither.
    import pickle
    import signal

    workers: dict[int, tuple] = {}  # pid -> (results file, days) until reaped
    try:
        for days in shares[1:]:
            read_end, write_end = os.pipe()
            results = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _work(by_day, build_day, days, write_end)
            except BaseException:
                results.close()
                raise
            finally:
                os.close(write_end)
            workers[pid] = (results, days)
        for days in shares[1:]:
            for day in days:
                del by_day[day]
        built = {day: build_day(by_day, day) for day in shares[0]}
        for pid, (results, days) in list(workers.items()):
            with results:
                for _ in days:
                    try:
                        day, wire, error = pickle.load(results)
                    except (EOFError, pickle.UnpicklingError):
                        break
                    if error is not None:
                        raise RuntimeError(f"building {day.isoformat()} in a worker: {error}")
                    built[day] = wire and _day_from_wire(day, wire, shared_weights)
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            missing = [day for day in days if day not in built]
            if missing:
                raise RuntimeError(
                    f"a worker exited with status {os.waitstatus_to_exitcode(status)} "
                    f"before it sent {missing[0].isoformat()}"
                )
        return built
    except BaseException:
        for pid, (results, _) in workers.items():
            results.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise


def _work(by_day: dict[date, list], build_day, days: list[date], write_end: int):
    """In a forked worker: build days, write them to write_end, and exit.

    Each day is pickled as soon as it is built, so only its bytes wait; they
    are written once all are made, as the parent reads no pipe until its own
    days are built. The worker leaves by os._exit, so no atexit handler runs
    and no buffer inherited from the parent is flushed.
    """
    import pickle

    code = 1
    try:
        sent = []
        for day in days:
            try:
                wire, error = _day_wire(build_day(by_day, day)), None
            except Exception as exc:
                wire, error = None, f"{type(exc).__name__}: {exc}"
            sent.append(pickle.dumps((day, wire, error), pickle.HIGHEST_PROTOCOL))
            if error is not None:
                break
        with open(write_end, "wb") as out:
            out.writelines(sent)
        code = 0
    finally:
        os._exit(code)


def _day_wire(built: tuple | None) -> tuple | None:
    """A built day as tuples of str, int, float and list, for a worker to send.

    These pickle several times faster than the day's objects.
    """
    if built is None:
        return None
    records, entries = built
    links = {a.url.full: a for e in entries for a in e.links}
    return (
        [
            (k.kind, k.value, *map(getattr, repeat(v), VoteRecord.__dataclass_fields__))
            for k, v in records.items()
        ],
        [
            (full, a.url.file_name,
             [r.ngram for r in a.signature], [r.weight for r in a.signature])
            for full, a in links.items()
        ],
        [
            (e.hashtag, [r.ngram for r in e.vector], [r.weight for r in e.vector],
             e.fingerprint, [a.url.full for a in e.links], e.similar)
            for e in entries
        ],
    )


def _day_from_wire(day: date, wire: tuple, shared_weights: Memo) -> tuple:
    """The built day that _day_wire sent, its weights shared through shared_weights."""
    record_rows, link_rows, entry_rows = wire
    records = {
        ElementKey(kind, value): VoteRecord(*counters)
        for kind, value, *counters in record_rows
    }

    def ranked(ngrams: list[str], weights: list[float]) -> tuple[RankedNgram, ...]:
        rows = zip(range(1, len(ngrams) + 1), ngrams, map(shared_weights.__getitem__, weights))
        return tuple(map(tuple.__new__, repeat(RankedNgram), rows))

    assocs = {
        full: LinkAssociation(
            CanonicalUrl(full, file_name), records[ElementKey(LINK, full)], ranked(ngrams, weights)
        )
        for full, file_name, ngrams, weights in link_rows
    }
    return records, [
        DayEntry(hashtag, day, ranked(ngrams, weights), fingerprint,
                 tuple(map(assocs.__getitem__, links)), similar)
        for hashtag, ngrams, weights, fingerprint, links, similar in entry_rows
    ]


def build_index(
    corpus: Iterable[TweetRecord],
    metadata: Mapping[str, LinkMetadata] | None = None,
    params: EngineParams | None = None,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    lexicon: frozenset[str] = frozenset(),
    provenance: Iterable[tuple[str, str]] = (),
) -> HashtagIndex:
    """Aggregate a tweet stream into a HashtagIndex.

    Deterministic given the corpus as a set: ingestion order and sharding do
    not affect the result. The span runs from the first day to the last (an
    empty corpus yields an empty index with no span); one longer than 366
    days is a ValueError naming both days. provenance is the config entries
    to echo into meta, less `stopwords` and `lexicon`: those lists are
    stored by content.

    Each day is built by _build_day from its own posts. Each post that names
    a hashtag or a link counts its grams, whatever the day's other posts
    are. The days are split among _worker_count processes, forked from this
    one once the corpus is grouped by day; whichever process builds a day,
    the index is the same.
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

    # Equal rounded weights share one float in every vector the build keeps.
    shared_weights = Memo(lambda weight: weight)
    build_day = partial(
        _build_day,
        params=params,
        stopwords=stopwords,
        # word_break_hashtag is looked up here per call: bench/tracing.py wraps it.
        broken_forms=Memo(lambda h: " ".join(word_break_hashtag(h, lexicon))),
        shared_weights=shared_weights,
    )
    workers = _worker_count(len(by_day), sum(map(len, by_day.values())))
    if workers > 1:
        # Largest day first, dealt round: shares of about equal posts.
        order = sorted(by_day, key=lambda d: (-len(by_day[d]), d))
        shares = [order[i::workers] for i in range(workers)]
        built = _build_forked(by_day, build_day, shares, shared_weights)
    else:
        built = {day: build_day(by_day, day) for day in sorted(by_day)}

    day_records: dict[date, dict[ElementKey, VoteRecord]] = {}
    entries: dict[tuple[str, date], DayEntry] = {}
    for day, day_built in sorted(built.items()):
        if day_built is not None:
            day_records[day], day_entries = day_built
            entries.update(((e.hashtag, day), e) for e in day_entries)
    corpus_links = {
        key.value for records in day_records.values() for key in records if key.kind == LINK
    }

    return HashtagIndex(
        span=span,
        params=params,
        stopwords=stopwords,
        lexicon=lexicon,
        day_records=day_records,
        entries=entries,
        metadata={
            full: meta for full, meta in metadata.items() if full in corpus_links
        },
        # Their paths would make equal corpora in two directories give two trees.
        provenance=tuple(
            sorted((k, v) for k, v in provenance if k not in ("stopwords", "lexicon"))
        ),
    )


# --- persistence ---

_DAY_SECTIONS = ("aggregates", "vectors", "links", "similar")
# Each meta row `file.SECTION/DAY=<row count> <CRC-32>` lists one day file a
# save wrote.
_MANIFEST = "file."
_HEX_DIGITS = "0123456789abcdef"


def _write_section(path: Path, section: str, rows: list[str]):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#socialqe\t{section}\t{FORMAT_VERSION}\n")
        for row in rows:
            f.write(row)
            f.write("\n")
        f.write(f"#end\t{len(rows)}\n")


def _bad_row(path: Path, lineno: int, problem: str) -> IndexFormatError:
    return IndexFormatError(f"{path}: line {lineno}: {problem}")


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
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
    declared = lines[-1].split("\t")[1]
    rows = lines[1:-1]
    if declared != str(len(rows)):
        raise _bad_row(
            path, len(lines), f"footer declares {declared} rows, found {len(rows)}"
        )
    return rows


def _counter_row(votes: VoteRecord) -> list[str]:
    """The counter columns: VoteRecord's fields, in their declared order."""
    return [str(getattr(votes, name)) for name in VoteRecord.__dataclass_fields__]


def _vector_row(kind: str, key: str, vec: tuple[RankedNgram, ...]) -> str:
    fields_ = [kind, key, str(len(vec))]
    for entry in vec:
        fields_.append(entry.ngram)
        fields_.append(f"{entry.weight:.6f}")
    return "\t".join(fields_)


def _parse_vector(
    fields_: list[str], path: Path, lineno: int, fingerprinted: bool
) -> tuple[RankedNgram, ...]:
    """Ranked entries of a vector row already checked to have 3+ fields.

    A fingerprinted (cv) row has one more field after its pairs.
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
        weights = list(map(float, weights_s))
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


def save_index(index: HashtagIndex, out_dir: str | Path):
    """Write the index directory; refuses a non-empty target.

    The tree is written into a hidden sibling directory and then renamed onto
    out_dir, so a save that fails part-way leaves no partial tree behind.
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise ValueError(f"refusing to write index into non-empty {out}")
    target = Path(os.path.realpath(out))  # a link to an empty directory stays
    target.parent.mkdir(parents=True, exist_ok=True)
    # os.urandom, not secrets: importing that loads OpenSSL (about 4 MB RSS).
    partial = target.with_name(f".{target.name}.{os.urandom(8).hex()}.partial")
    partial.mkdir()
    try:
        _write_tree(index, partial)
        os.replace(partial, target)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise


def _write_tree(index: HashtagIndex, out: Path):
    """Every file of the index into the empty directory out, meta last."""
    for sub in _DAY_SECTIONS:
        (out / sub).mkdir()

    _write_section(out / "stopwords.txt", "stopwords", sorted(index.stopwords))
    _write_section(out / "lexicon.txt", "lexicon", sorted(index.lexicon))
    _write_section(
        out / "metadata.jsonl",
        "metadata",
        [
            json.dumps(
                {
                    "url": full,
                    "title": index.metadata[full].title,
                    "description": index.metadata[full].description,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            for full in sorted(index.metadata)
        ],
    )

    entries_by_day: dict[date, list[DayEntry]] = {}
    for (h, day), entry in index.entries.items():
        entries_by_day.setdefault(day, []).append(entry)

    manifest = []
    for day in sorted(index.day_records):
        day_s = day.isoformat()
        records = index.day_records[day]
        agg_rows = [
            "\t".join([key.kind, key.value, *_counter_row(records[key])])
            for key in sorted(records)
        ]

        day_entries = sorted(entries_by_day.get(day, []), key=lambda e: e.hashtag)
        vec_rows = [
            f"{_vector_row('cv', e.hashtag, e.vector)}\t{e.fingerprint:016x}"
            for e in day_entries
        ]
        signatures: dict[str, tuple[RankedNgram, ...]] = {}
        link_rows = []
        sim_rows = []
        for e in day_entries:
            for assoc in e.links:
                signatures[assoc.url.full] = assoc.signature
                link_rows.append(f"{e.hashtag}\t{assoc.url.full}")
            sim_rows.extend(f"{e.hashtag}\t{other}" for other, _ in e.similar)
        vec_rows.extend(
            _vector_row("ss", full, signatures[full]) for full in sorted(signatures)
        )
        # A day always has its aggregates file; the others only with rows.
        for section, rows in zip(
            _DAY_SECTIONS, (agg_rows, vec_rows, link_rows, sim_rows)
        ):
            if rows or section == "aggregates":
                path = out / section / day_s
                _write_section(path, section, rows)
                # Read back, not built in memory: the largest file then never
                # sits in memory twice, and the CRC is of the bytes on disk.
                crc = zlib.crc32(path.read_bytes())
                manifest.append(f"{_MANIFEST}{section}/{day_s}={len(rows)} {crc:08x}")

    meta_rows = []
    if index.span is None:
        meta_rows.append("span_start=none")
        meta_rows.append("span_end=none")
    else:
        meta_rows.append(f"span_start={index.span[0].isoformat()}")
        meta_rows.append(f"span_end={index.span[1].isoformat()}")
    for key, value in index.params.to_entries():
        meta_rows.append(f"{key}={value}")
    for key, value in index.provenance:
        meta_rows.append(f"config.{key}={value}")
    meta_rows.extend(sorted(manifest))
    _write_section(out / "meta", "meta", meta_rows)


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


def _day_rows(
    path: Path, present: set[str], width: int | None, listed: dict[str, str]
):
    """Yield (lineno, fields) for each row of root/section/DAY, if section is present.

    Each row is checked for `width` fields (vector rows, whose width varies,
    for at least 3). Once its rows are read, the file must be listed in meta
    with its row count and CRC-32: any edit that meta does not mirror is
    refused naming this file, before another file of the day is read. The
    file's entry is taken out of listed, so what stays there was never read.
    """
    section = path.parent.name
    if section not in present:
        return
    data = _read_bytes(path)
    rows = _read_section(path, section, data)
    for lineno, row in enumerate(rows, 2):
        fields_ = row.split("\t")
        if width is None:
            if len(fields_) < 3:
                raise _bad_row(path, lineno, "short vector row")
        elif len(fields_) != width:
            raise _bad_row(path, lineno, f"expected {width} fields")
        yield lineno, fields_
    want = listed.pop(f"{section}/{path.name}", None)
    if want is None:
        raise IndexFormatError(f"{path}: day file not listed in meta")
    want_rows, _, want_crc = want.partition(" ")
    count, crc = str(len(rows)), f"{zlib.crc32(data):08x}"
    if want_rows != count:
        raise IndexFormatError(f"{path}: #end count {count}, meta lists {want_rows}")
    if want_crc != crc:
        raise IndexFormatError(
            f"{path}: CRC-32 {crc}, meta lists {want_crc or 'none'}: "
            "the file changed after it was saved"
        )


def _load_day(
    root: Path,
    day: date,
    present: set[str],
    max_distance: int,
    metadata: Mapping[str, LinkMetadata],
    entries: dict[tuple[str, date], DayEntry],
    listed: dict[str, str],
) -> dict[ElementKey, VoteRecord]:
    """Read one day's four files, add its entries, and return its records.

    An absent file has no rows. A day is refused, not loaded in part: a row
    naming what another of the day's files lacks is refused at its line, and
    a row missing from a day file is refused naming that file. A link's
    counters are its aggregates row, and a neighbour's distance is that of
    the two tags' stored fingerprints. An ss row's link reuses the
    CanonicalUrl its metadata record already parsed.
    """
    day_s = day.isoformat()
    path = root / "aggregates" / day_s
    records: dict[ElementKey, VoteRecord] = {}
    for lineno, (kind, value, *counters) in _day_rows(path, present, 10, listed):
        if kind not in (HASHTAG, LINK):
            raise _bad_row(path, lineno, f"bad kind {kind!r}")
        try:
            records[ElementKey(kind, value)] = VoteRecord(*map(int, counters))
        except ValueError as exc:
            raise _bad_row(path, lineno, str(exc)) from None

    path = root / "vectors" / day_s
    vectors: dict[str, tuple[RankedNgram, ...]] = {}
    hex_prints: dict[str, str] = {}
    assocs: dict[str, LinkAssociation] = {}  # one per ss row
    for lineno, fields_ in _day_rows(path, present, None, listed):
        kind, key = fields_[:2]
        if kind not in ("cv", "ss"):
            raise _bad_row(path, lineno, f"bad kind {kind!r}")
        votes = records.get(ElementKey(HASHTAG if kind == "cv" else LINK, key))
        if votes is None:
            raise _bad_row(path, lineno, f"{key!r} has no aggregates row")
        vector = _parse_vector(fields_, path, lineno, kind == "cv")
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
    for key in records:
        if key.kind == HASHTAG and key.value not in vectors:
            raise IndexFormatError(f"{path}: no cv row for hashtag {key.value!r}")
    # The day's fingerprint ints are made in one pass, so they lie together
    # in memory for the neighbour search that reads them.
    fingerprints = dict(zip(hex_prints, map(int, hex_prints.values(), repeat(16))))

    path = root / "links" / day_s
    links: dict[str, list[LinkAssociation]] = {}
    linked: set[str] = set()
    for lineno, (hashtag, full) in _day_rows(path, present, 2, listed):
        if hashtag not in vectors:
            raise _bad_row(path, lineno, f"{hashtag!r} has no cv row")
        assoc = assocs.get(full)
        if assoc is None:
            raise _bad_row(path, lineno, f"link {full!r} has no ss row")
        linked.add(full)
        links.setdefault(hashtag, []).append(assoc)
    for full in assocs:
        if full not in linked:
            raise IndexFormatError(f"{path}: no links row for link {full!r}")

    path = root / "similar" / day_s
    similar: dict[str, list[tuple[str, int]]] = {}
    for lineno, (hashtag, other) in _day_rows(path, present, 2, listed):
        for tag in (hashtag, other):
            if tag not in vectors:
                raise _bad_row(path, lineno, f"{tag!r} has no cv row")
        if other == hashtag:
            raise _bad_row(path, lineno, f"{hashtag!r} lists itself")
        distance = hamming64(fingerprints[hashtag], fingerprints[other])
        if distance > max_distance:
            raise _bad_row(
                path,
                lineno,
                f"the fingerprints of {hashtag!r} and {other!r} are {distance} "
                f"bits apart, past max_distance {max_distance}",
            )
        similar.setdefault(hashtag, []).append((other, distance))

    for hashtag, vector in vectors.items():
        entries[(hashtag, day)] = DayEntry(
            hashtag=hashtag,
            day=day,
            vector=vector,
            fingerprint=fingerprints[hashtag],
            links=tuple(links.get(hashtag, ())),
            similar=tuple(similar.get(hashtag, ())),
        )
    return records


def load_index(index_dir: str | Path) -> HashtagIndex:
    """Read an index directory back; structurally equal to what was saved.

    Each day file is checked against its row in meta's manifest (row count
    and CRC-32) once its own rows are checked, before the day's next file is
    read; a file meta lists that is not on disk is refused last.
    """
    root = Path(index_dir)
    if not (root / "meta").exists():
        raise IndexFormatError(f"{root}: no meta file; not an index directory")

    meta: dict[str, str] = {}
    listed: dict[str, str] = {}
    provenance = []
    for lineno, row in enumerate(_read_section(root / "meta", "meta"), 2):
        if "=" not in row:
            raise _bad_row(root / "meta", lineno, f"bad row {row!r}")
        key, _, value = row.partition("=")
        if key.startswith("config."):
            provenance.append((key[len("config.") :], value))
        elif key.startswith(_MANIFEST):
            listed[key[len(_MANIFEST) :]] = value
        else:
            meta[key] = value

    # Only what save_index writes: both `none`, or two days.
    for key, other in (("span_start", "span_end"), ("span_end", "span_start")):
        if key not in meta:
            problem = f"{other} without {key}" if other in meta else f"no {key}"
            raise IndexFormatError(f"{root / 'meta'}: bad span: {problem}")
    if meta["span_start"] == meta["span_end"] == "none":
        span = None
    else:
        try:
            span = (iso_day(meta["span_start"]), iso_day(meta["span_end"]))
        except ValueError as exc:
            raise IndexFormatError(f"{root / 'meta'}: bad span: {exc}") from None
    try:
        params = EngineParams.from_mapping(meta)
    except ValueError as exc:
        raise IndexFormatError(f"{root / 'meta'}: {exc}") from None

    stopwords = frozenset(_read_section(root / "stopwords.txt", "stopwords"))
    lexicon = frozenset(_read_section(root / "lexicon.txt", "lexicon"))

    metadata: dict[str, LinkMetadata] = {}
    meta_path = root / "metadata.jsonl"
    previous = None
    for lineno, row in enumerate(_read_section(meta_path, "metadata"), 2):
        try:
            obj = json.loads(row)
        except json.JSONDecodeError as exc:
            raise _bad_row(meta_path, lineno, str(exc)) from None
        if not isinstance(obj, dict):
            raise _bad_row(meta_path, lineno, "not a JSON object")
        for key in ("url", "title", "description"):
            if not isinstance(obj.get(key), str):
                problem = "is not a string" if key in obj else "is missing"
                raise _bad_row(meta_path, lineno, f"field {key!r} {problem}")
        url = obj["url"]
        # Only what save_index writes: one row per url, sorted by url.
        if previous is not None and url <= previous:
            raise _bad_row(
                meta_path, lineno, f"url {url!r} does not sort after the {previous!r} before it"
            )
        previous = url
        metadata[url] = LinkMetadata(
            url=url_from_canonical(url),
            title=obj["title"],
            description=obj["description"],
        )

    # One scan finds the days and which of their files are present.
    present: dict[date, set[str]] = {}
    for section in _DAY_SECTIONS:
        if not (root / section).is_dir():
            raise IndexFormatError(f"{root / section}: missing section directory")
        for path in sorted((root / section).iterdir()):
            try:
                day = iso_day(path.name)
            except ValueError:
                raise IndexFormatError(f"{path}: not a YYYY-MM-DD day file") from None
            present.setdefault(day, set()).add(section)

    day_records: dict[date, dict[ElementKey, VoteRecord]] = {}
    entries: dict[tuple[str, date], DayEntry] = {}
    for day in sorted(present):
        records = _load_day(
            root, day, present[day], params.max_distance, metadata, entries, listed
        )
        if "aggregates" in present[day]:
            day_records[day] = records
    if listed:
        raise IndexFormatError(f"{root / min(listed)}: listed in meta but missing")

    return HashtagIndex(
        span=span,
        params=params,
        stopwords=stopwords,
        lexicon=lexicon,
        day_records=day_records,
        entries=entries,
        metadata=metadata,
        provenance=tuple(provenance),
    )


def verify_index(index_dir: str | Path) -> HashtagIndex:
    """load_index, then recompute what it trusts and compare with what is stored.

    Per day, every hashtag's fingerprint is recomputed from its stored vector
    (vector_fingerprints, as the build does). Once they all agree, each
    stored neighbour list is compared with what similar_hashtags finds at
    the stored max_distance, the search every query runs. The first
    difference is refused as an IndexFormatError naming the day file and the
    hashtag; otherwise the loaded index is returned.
    """
    root = Path(index_dir)
    index = load_index(root)
    radius = index.params.max_distance
    for day in index.days():
        day_s = day.isoformat()
        day_entries = [index.entries[(h, day)] for h in index.hashtags_on(day)]
        fingerprints = vector_fingerprints(e.vector for e in day_entries)
        for e, fp in zip(day_entries, fingerprints):
            if e.fingerprint != fp:
                raise IndexFormatError(
                    f"{root / 'vectors' / day_s}: fingerprint of {e.hashtag!r} is "
                    f"{e.fingerprint:016x}, but its vector hashes to {fp:016x}"
                )
        for e in day_entries:
            if list(e.similar) != similar_hashtags(index, e.hashtag, day, radius):
                raise IndexFormatError(
                    f"{root / 'similar' / day_s}: neighbours of {e.hashtag!r} "
                    f"differ from a search at radius {radius}"
                )
    return index
