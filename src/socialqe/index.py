"""Date-keyed hashtag index: build, query, and deterministic persistence.

The index connects each (hashtag, day) to its contextual vector, the links
that co-occurred with it that day (each carrying the link's vote counters and
social signature), and same-day hashtags with nearby SimHash fingerprints,
found by one exact block-indexed search (NeighbourSearch) at build and at
query time. After build the structure is immutable and safe for concurrent
readers. The query side fills caches on first use (fingerprints, per-day
hashtag lists, a NeighbourSearch per day and radius, and one LinkDoc per link
text); two readers racing on a miss compute equal values.

On disk an index is a directory:

    meta                 key=value: span, engine params, config provenance
    stopwords.txt        one word per line, sorted
    lexicon.txt          one word per line, sorted
    metadata.jsonl       {"description","title","url"} per line, sorted by url
    aggregates/DAY       day kind value <8 counters>   (hashtag and link rows)
    vectors/DAY          day cv|ss key n ngram weight ngram weight ...
    links/DAY            day hashtag url <8 counters>  (in ranked link order;
                         the counters repeat the link's aggregates row)
    similar/DAY          day hashtag other distance    (in ascending distance)

All files are UTF-8, tab-separated, and framed by a `#socialqe <section> 1`
header and `#end <row count>` footer so truncation is detectable. Counter
column order everywhere: tweet_frequency, retweet_frequency, total_frequency,
tweet_votes, retweet_votes, total_votes, link_tweet_votes, link_retweet_votes.
Writes are fully sorted, so equal indexes produce byte-identical trees.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping

from socialqe.config import EngineParams
from socialqe.ingest import (
    DEFAULT_STOPWORDS,
    CanonicalUrl,
    LinkMetadata,
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

FORMAT_VERSION = 1

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
    """Everything the index knows about one hashtag on one day."""

    hashtag: str
    day: date
    vector: tuple[RankedNgram, ...]
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

        tag itself is never listed; other tags with its fingerprint are.
        """
        fingerprints, radius = self.fingerprints, self.radius
        own = fingerprints[tag]
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
    _fingerprints: dict = field(
        init=False, default_factory=dict, compare=False, repr=False
    )
    _hashtags_by_day: dict | None = field(
        init=False, default=None, compare=False, repr=False
    )
    _link_docs: dict = field(
        init=False, default_factory=dict, compare=False, repr=False
    )
    _neighbour_searches: dict = field(
        init=False, default_factory=dict, compare=False, repr=False
    )

    def entry(self, hashtag: str, day: date) -> DayEntry:
        found = self.entries.get((hashtag, day))
        if found is None:
            raise LookupError(f"no entry for hashtag {hashtag!r} on {day.isoformat()}")
        return found

    def has_entry(self, hashtag: str, day: date) -> bool:
        return (hashtag, day) in self.entries

    def days(self) -> list[date]:
        return sorted(self.day_records)

    def hashtags_on(self, day: date) -> list[str]:
        """Hashtags with an entry that day, sorted."""
        by_day = self._hashtags_by_day
        if by_day is None:
            grouped: dict[date, list[str]] = {}
            for h, d in self.entries:
                grouped.setdefault(d, []).append(h)
            by_day = {d: tuple(sorted(tags)) for d, tags in grouped.items()}
            self._hashtags_by_day = by_day
        return list(by_day.get(day, ()))

    def links_on(self, day: date) -> list[str]:
        """Canonical URLs of every link seen that day, sorted."""
        records = self.day_records.get(day, {})
        return sorted(key.value for key in records if key.kind == LINK)

    def link_doc(self, meta: LinkMetadata) -> LinkDoc:
        """meta's LinkDoc under this index's stopwords and max_ngram, built once."""
        doc = self._link_docs.get(meta)
        if doc is None:
            doc = build_link_doc(meta, self.stopwords, self.params.max_ngram)
            self._link_docs[meta] = doc
        return doc

    def _day_fingerprints(self, day: date) -> dict[str, int]:
        """SimHash fingerprint of every hashtag's vector that day, computed once."""
        day_prints = self._fingerprints.get(day)
        if day_prints is None:
            tags = self.hashtags_on(day)
            vectors = [self.entries[(h, day)].vector for h in tags]
            day_prints = dict(zip(tags, vector_fingerprints(vectors)))
            self._fingerprints[day] = day_prints
        return day_prints

    def fingerprint(self, hashtag: str, day: date) -> int:
        """SimHash fingerprint of the hashtag's vector that day.

        The first call for a day fingerprints all of that day's hashtags.
        """
        self.entry(hashtag, day)  # LookupError for a hashtag-day not indexed
        return self._day_fingerprints(day)[hashtag]

    def neighbour_search(self, day: date, radius: int) -> NeighbourSearch:
        """The NeighbourSearch over day's fingerprints at radius, built once."""
        search = self._neighbour_searches.get((day, radius))
        if search is None:
            # A copy, though the day's dict never changes: the search then
            # reads entries this call has just touched. Sharing the dict made
            # each day's first `long` query about 3 µs slower (p99 +35%).
            search = NeighbourSearch(dict(self._day_fingerprints(day)), radius)
            self._neighbour_searches[(day, radius)] = search
        return search


def similar_hashtags(
    index: HashtagIndex, hashtag: str, day: date, max_distance: int | None = None
) -> list[tuple[str, int]]:
    """Same-day hashtags within a fingerprint Hamming distance, nearest first.

    With max_distance None, returns the list frozen at build time (built with
    params.max_distance); otherwise searches the day at the given radius,
    exactly as the build did. The queried hashtag is never in its own result.
    Ties break lexicographically.
    """
    entry = index.entry(hashtag, day)
    if max_distance is None:
        return list(entry.similar)
    # Every radius past 64 finds what 64 does, every negative one nothing;
    # clamping keeps the per-(day, radius) cache bounded.
    radius = max(-1, min(max_distance, 64))
    return index.neighbour_search(day, radius).near(hashtag)


def build_index(
    corpus: Iterable[TweetRecord],
    metadata: Mapping[str, LinkMetadata] | None = None,
    params: EngineParams | None = None,
    span: tuple[date, date] | None = None,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    lexicon: frozenset[str] = frozenset(),
    provenance: Iterable[tuple[str, str]] = (),
) -> HashtagIndex:
    """Aggregate a tweet stream into a HashtagIndex.

    Deterministic given the corpus as a set: ingestion order and sharding do
    not affect the result. With span None the span is inferred from the
    corpus (an empty corpus then yields an empty index with no span); with an
    explicit span any tweet outside it is a hard error naming the tweet.

    Per day, one NgramTally per hashtag and per link counts that element (its
    stored day record) and the ngram votes of its own tweets, from which a
    hashtag's contextual vector and a co-occurring link's social signature
    are ranked. The records are tested equal to DailyAggregate's counts of
    the day, and the vectors to build_vector over its restricted counts.
    """
    if params is None:
        params = EngineParams()

    by_day: dict[date, list[TweetRecord]] = {}
    for tweet in corpus:
        day = tweet.day
        if span is not None and not (span[0] <= day <= span[1]):
            raise ValueError(
                f"tweet {tweet.tweet_id} dated {day.isoformat()} falls outside "
                f"span {span[0].isoformat()}..{span[1].isoformat()}"
            )
        by_day.setdefault(day, []).append(tweet)

    if span is None and by_day:
        span = (min(by_day), max(by_day))
    if span is not None:
        if span[0] > span[1]:
            raise ValueError(f"span start {span[0]} after end {span[1]}")
        if (span[1] - span[0]).days + 1 > 366:
            raise ValueError("span longer than 366 days")

    if metadata is None:
        metadata = {}

    weight_args = (
        params.tweet_weight,
        params.retweet_weight,
        params.vote_weight,
        params.link_weight,
    )
    day_records: dict[date, dict[ElementKey, VoteRecord]] = {}
    entries: dict[tuple[str, date], DayEntry] = {}
    corpus_links: set[str] = set()
    break_cache: dict[str, str] = {}

    for day in sorted(by_day):
        tweets = by_day.pop(day)
        cooccur: dict[str, set[str]] = {}
        url_objects: dict[str, CanonicalUrl] = {}
        for tweet in tweets:
            for url in tweet.links:
                url_objects.setdefault(url.full, url)
            if tweet.hashtags and tweet.links:
                fulls = [u.full for u in tweet.links]
                for h in tweet.hashtags:
                    cooccur.setdefault(h, set()).update(fulls)
        sig_links: set[str] = set().union(*cooccur.values())

        # Second pass: a tally per hashtag and per link, fed once per
        # occurrence. A text is tokenized once per day (retweets repeat it),
        # and only if it can reach a vector: a link with no hashtag that day
        # has no signature, so its hashtag-free tweets count empty grams.
        grams_of: dict[str, frozenset[str]] = {}
        hashtag_tallies: defaultdict[str, NgramTally] = defaultdict(NgramTally)
        link_tallies: defaultdict[str, NgramTally] = defaultdict(NgramTally)
        for tweet in tweets:
            fulls = [u.full for u in tweet.links]
            if tweet.hashtags or not sig_links.isdisjoint(fulls):
                grams = grams_of.get(tweet.text)
                if grams is None:
                    tokens = normalize_and_tokenize(tweet.text, stopwords)
                    grams = frozenset(extract_ngrams(tokens, params.max_ngram))
                    grams_of[tweet.text] = grams
            else:
                grams = frozenset()
            post = (grams, tweet.account_id, tweet.is_retweet, bool(fulls))
            for h in tweet.hashtags:
                hashtag_tallies[h].add(*post)
            for full in fulls:
                link_tallies[full].add(*post)
        del tweets  # the day is counted; later days need not hold it

        records = {ElementKey(LINK, f): t.record() for f, t in link_tallies.items()}
        records.update(
            (ElementKey(HASHTAG, h), t.record()) for h, t in hashtag_tallies.items()
        )
        if not records:
            continue
        day_records[day] = records
        corpus_links.update(url_objects)
        day_hashtags = sorted(hashtag_tallies)

        vectors: dict[str, tuple[RankedNgram, ...]] = {}
        for h in day_hashtags:
            broken = break_cache.get(h)
            if broken is None:
                broken = " ".join(word_break_hashtag(h, lexicon))
                break_cache[h] = broken
            vectors[h] = tuple(
                tally_vector(
                    hashtag_tallies[h], params.vector_size, {h, broken}, *weight_args
                )
            )

        # One association per co-occurring link, shared by every hashtag it
        # ranks under; a hashtag's links rank by (-weight, url).
        assocs: dict[str, LinkAssociation] = {}
        rank_key: dict[str, tuple[float, str]] = {}
        for full in sig_links:
            votes = records[ElementKey(LINK, full)]
            signature = tally_vector(
                link_tallies[full], params.vector_size, frozenset(), *weight_args
            )
            assocs[full] = LinkAssociation(url_objects[full], votes, tuple(signature))
            rank_key[full] = (-element_weight(votes, *weight_args), full)

        fingerprints = vector_fingerprints([vectors[h] for h in day_hashtags])
        neighbours = NeighbourSearch(
            dict(zip(day_hashtags, fingerprints)), params.max_distance
        )
        for h in day_hashtags:
            entries[(h, day)] = DayEntry(
                hashtag=h,
                day=day,
                vector=vectors[h],
                links=tuple(
                    assocs[full]
                    for full in sorted(cooccur.get(h, ()), key=rank_key.__getitem__)
                ),
                similar=tuple(neighbours.near(h)),
            )

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
        provenance=tuple(sorted(provenance)),
    )


# --- persistence ---


def _write_section(path: Path, section: str, rows: list[str]):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#socialqe\t{section}\t{FORMAT_VERSION}\n")
        for row in rows:
            f.write(row)
            f.write("\n")
        f.write(f"#end\t{len(rows)}\n")


def _bad_row(path: Path, lineno: int, problem: str) -> IndexFormatError:
    return IndexFormatError(f"{path}: line {lineno}: {problem}")


def _read_section(path: Path, section: str) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IndexFormatError(f"{path}: unreadable: {exc}") from None
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
        raise _bad_row(path, 1, f"unsupported format version {header[2]!r}")
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


def _vector_row(day: date, kind: str, key: str, vec: tuple[RankedNgram, ...]) -> str:
    fields_ = [day.isoformat(), kind, key, str(len(vec))]
    for entry in vec:
        fields_.append(entry.ngram)
        fields_.append(f"{entry.weight:.6f}")
    return "\t".join(fields_)


def _parse_vector(
    fields_: list[str], path: Path, lineno: int
) -> tuple[RankedNgram, ...]:
    """Ranked entries of a vector row already checked to have 4+ fields."""
    count_s = fields_[3]
    try:
        count = int(count_s)
    except ValueError:
        raise _bad_row(path, lineno, f"bad entry count {count_s!r}") from None
    if len(fields_) != 4 + 2 * count:
        raise _bad_row(path, lineno, f"expected {count} (ngram, weight) pairs")
    weights_s = fields_[5::2]
    try:
        weights = list(map(float, weights_s))
    except ValueError:
        bad = next(w for w in weights_s if not _is_float(w))
        raise _bad_row(path, lineno, f"bad weight {bad!r}") from None
    # tuple.__new__ is RankedNgram._make without its per-call overhead.
    ranked = zip(range(1, count + 1), fields_[4::2], weights)
    return tuple(map(tuple.__new__, repeat(RankedNgram), ranked))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def save_index(index: HashtagIndex, out_dir: str | Path):
    """Write the index directory; refuses a non-empty target."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise ValueError(f"refusing to write index into non-empty {out}")
    out.mkdir(parents=True, exist_ok=True)
    for sub in ("aggregates", "vectors", "links", "similar"):
        (out / sub).mkdir()

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
    _write_section(out / "meta", "meta", meta_rows)

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

    for day in sorted(index.day_records):
        day_s = day.isoformat()
        records = index.day_records[day]
        agg_rows = []
        for key in sorted(records):
            agg_rows.append(
                "\t".join([day_s, key.kind, key.value, *_counter_row(records[key])])
            )
        _write_section(out / "aggregates" / day_s, "aggregates", agg_rows)

        day_entries = sorted(entries_by_day.get(day, []), key=lambda e: e.hashtag)
        vec_rows = [_vector_row(day, "cv", e.hashtag, e.vector) for e in day_entries]
        signatures: dict[str, tuple[RankedNgram, ...]] = {}
        link_rows = []
        sim_rows = []
        for e in day_entries:
            for assoc in e.links:
                signatures[assoc.url.full] = assoc.signature
                link_rows.append(
                    "\t".join(
                        [day_s, e.hashtag, assoc.url.full, *_counter_row(assoc.votes)]
                    )
                )
            for other, distance in e.similar:
                sim_rows.append("\t".join([day_s, e.hashtag, other, str(distance)]))
        vec_rows.extend(
            _vector_row(day, "ss", full, signatures[full])
            for full in sorted(signatures)
        )
        if vec_rows:
            _write_section(out / "vectors" / day_s, "vectors", vec_rows)
        if link_rows:
            _write_section(out / "links" / day_s, "links", link_rows)
        if sim_rows:
            _write_section(out / "similar" / day_s, "similar", sim_rows)


_DAY_SECTIONS = ("aggregates", "vectors", "links", "similar")


def _iso_day(text: str) -> date:
    """The day text names in canonical YYYY-MM-DD form, else ValueError.

    From Python 3.11 date.fromisoformat also reads other forms ("20170614").
    """
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def _day_rows(path: Path, present: set[str], width: int | None):
    """Yield (lineno, fields) for each row of root/section/DAY, if section is present.

    Each row is checked for `width` fields (vector rows, whose width varies,
    for at least 4) and for a first field that names the file's day.
    """
    if path.parent.name not in present:
        return
    for lineno, row in enumerate(_read_section(path, path.parent.name), 2):
        fields_ = row.split("\t")
        if width is None:
            if len(fields_) < 4:
                raise _bad_row(path, lineno, "short vector row")
        elif len(fields_) != width:
            raise _bad_row(path, lineno, f"expected {width} fields")
        if fields_[0] != path.name:
            raise _bad_row(path, lineno, f"day mismatch {fields_[0]}")
        yield lineno, fields_


def _load_day(
    root: Path,
    day: date,
    present: set[str],
    max_distance: int,
    metadata: Mapping[str, LinkMetadata],
    entries: dict[tuple[str, date], DayEntry],
) -> dict[ElementKey, VoteRecord]:
    """Read one day's four files, add its entries, and return its records.

    An absent file has no rows. A day is refused, not loaded in part: a row
    naming what another of the day's files lacks is refused at its line, and
    a row missing from a day file is refused naming that file. An ss row's
    link reuses the CanonicalUrl its metadata record already parsed.
    """
    day_s = day.isoformat()
    path = root / "aggregates" / day_s
    records: dict[ElementKey, VoteRecord] = {}
    for lineno, (_, kind, value, *counters) in _day_rows(path, present, 11):
        if kind not in (HASHTAG, LINK):
            raise _bad_row(path, lineno, f"bad kind {kind!r}")
        try:
            records[ElementKey(kind, value)] = VoteRecord(*map(int, counters))
        except ValueError as exc:
            raise _bad_row(path, lineno, str(exc)) from None

    path = root / "vectors" / day_s
    vectors: dict[str, tuple[RankedNgram, ...]] = {}
    assocs: dict[str, LinkAssociation] = {}  # one per ss row
    for lineno, fields_ in _day_rows(path, present, None):
        _, kind, key = fields_[:3]
        if kind not in ("cv", "ss"):
            raise _bad_row(path, lineno, f"bad kind {kind!r}")
        votes = records.get(ElementKey(HASHTAG if kind == "cv" else LINK, key))
        if votes is None:
            raise _bad_row(path, lineno, f"{key!r} has no aggregates row")
        vector = _parse_vector(fields_, path, lineno)
        if kind == "cv":
            vectors[key] = vector
        else:
            meta = metadata.get(key)
            url = url_from_canonical(key) if meta is None else meta.url
            assocs[key] = LinkAssociation(url, votes, vector)
    for key in records:
        if key.kind == HASHTAG and key.value not in vectors:
            raise IndexFormatError(f"{path}: no cv row for hashtag {key.value!r}")

    path = root / "links" / day_s
    links: dict[str, list[LinkAssociation]] = {}
    linked: set[str] = set()
    for lineno, (_, hashtag, full, *counters) in _day_rows(path, present, 11):
        if hashtag not in vectors:
            raise _bad_row(path, lineno, f"{hashtag!r} has no cv row")
        assoc = assocs.get(full)
        if assoc is None:
            raise _bad_row(path, lineno, f"link {full!r} has no ss row")
        if counters != _counter_row(assoc.votes):
            raise _bad_row(
                path, lineno, f"counters of {full!r} differ from its aggregates row"
            )
        linked.add(full)
        links.setdefault(hashtag, []).append(assoc)
    for full in assocs:
        if full not in linked:
            raise IndexFormatError(f"{path}: no links row for link {full!r}")

    path = root / "similar" / day_s
    similar: dict[str, list[tuple[str, int]]] = {}
    for lineno, (_, hashtag, other, dist_s) in _day_rows(path, present, 4):
        for tag in (hashtag, other):
            if tag not in vectors:
                raise _bad_row(path, lineno, f"{tag!r} has no cv row")
        if other == hashtag:
            raise _bad_row(path, lineno, f"{hashtag!r} lists itself")
        # Only what save_index writes: canonical decimal within the radius.
        try:
            distance = int(dist_s)
        except ValueError:
            distance = None
        if distance is None or str(distance) != dist_s:
            raise _bad_row(path, lineno, f"bad distance {dist_s!r}")
        if not 0 <= distance <= max_distance:
            raise _bad_row(
                path, lineno, f"distance {distance} outside 0..{max_distance}"
            )
        similar.setdefault(hashtag, []).append((other, distance))

    for hashtag, vector in vectors.items():
        entries[(hashtag, day)] = DayEntry(
            hashtag=hashtag,
            day=day,
            vector=vector,
            links=tuple(links.get(hashtag, ())),
            similar=tuple(similar.get(hashtag, ())),
        )
    return records


def load_index(index_dir: str | Path) -> HashtagIndex:
    """Read an index directory back; structurally equal to what was saved."""
    root = Path(index_dir)
    if not (root / "meta").exists():
        raise IndexFormatError(f"{root}: no meta file; not an index directory")

    meta: dict[str, str] = {}
    provenance = []
    for lineno, row in enumerate(_read_section(root / "meta", "meta"), 2):
        if "=" not in row:
            raise _bad_row(root / "meta", lineno, f"bad row {row!r}")
        key, _, value = row.partition("=")
        if key.startswith("config."):
            provenance.append((key[len("config.") :], value))
        else:
            meta[key] = value

    if meta.get("span_start", "none") == "none":
        span = None
    else:
        try:
            span = (_iso_day(meta["span_start"]), _iso_day(meta["span_end"]))
        except (KeyError, ValueError) as exc:
            raise IndexFormatError(f"{root / 'meta'}: bad span: {exc}") from None
    try:
        params = EngineParams.from_mapping(meta)
    except ValueError as exc:
        raise IndexFormatError(f"{root / 'meta'}: {exc}") from None

    stopwords = frozenset(_read_section(root / "stopwords.txt", "stopwords"))
    lexicon = frozenset(_read_section(root / "lexicon.txt", "lexicon"))

    metadata: dict[str, LinkMetadata] = {}
    meta_path = root / "metadata.jsonl"
    for lineno, row in enumerate(_read_section(meta_path, "metadata"), 2):
        try:
            obj = json.loads(row)
            metadata[obj["url"]] = LinkMetadata(
                url=url_from_canonical(obj["url"]),
                title=obj["title"],
                description=obj["description"],
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise _bad_row(meta_path, lineno, str(exc)) from None

    # One scan finds the days and which of their files are present.
    present: dict[date, set[str]] = {}
    for section in _DAY_SECTIONS:
        if not (root / section).is_dir():
            raise IndexFormatError(f"{root / section}: missing section directory")
        for path in sorted((root / section).iterdir()):
            try:
                day = _iso_day(path.name)
            except ValueError:
                raise IndexFormatError(f"{path}: not a YYYY-MM-DD day file") from None
            present.setdefault(day, set()).add(section)

    day_records: dict[date, dict[ElementKey, VoteRecord]] = {}
    entries: dict[tuple[str, date], DayEntry] = {}
    for day in sorted(present):
        records = _load_day(
            root, day, present[day], params.max_distance, metadata, entries
        )
        if "aggregates" in present[day]:
            day_records[day] = records

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
