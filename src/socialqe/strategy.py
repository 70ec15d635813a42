"""Local-vs-global expansion strategies, link matching, and the daily harness.

The local strategy expands a hashtag from that day's contextual vector; the
global strategy merges all daily vectors over a range once (max weight per
ngram) and applies the same fixed set to every day. A link matches when its
normalized title or description contains the hashtag, its word-broken form,
or any expansion ngram as a contiguous token run. Links are matched through
the index's LinkDoc cache, so each link's text is tokenized once per index,
and run_comparison matches each link once per day for every hashtag under
both strategies. Per-day match counts are classified into four behaviors
against a threshold, and a hashtag-day is included iff its local count
clears the threshold.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from socialqe.config import GLOBAL, LOCAL
from socialqe.index import HashtagIndex, LinkDoc, broken_phrase
from socialqe.ingest import UNSAFE_HASHTAG_RE, LinkMetadata
from socialqe.ingest import normalize_and_tokenize  # noqa: F401  (bench/tracing.py wraps it)

GLOBAL_ONLY_HIGH = "GLOBAL_ONLY_HIGH"
LOCAL_ONLY_HIGH = "LOCAL_ONLY_HIGH"
BOTH_HIGH = "BOTH_HIGH"
BOTH_LOW = "BOTH_LOW"

CATEGORIES = (GLOBAL_ONLY_HIGH, LOCAL_ONLY_HIGH, BOTH_HIGH, BOTH_LOW)


@dataclass(frozen=True, slots=True)
class ExpansionSet:
    """Ranked expansion ngrams for one hashtag under one strategy.

    scope is the day (local) or the inclusive day range (global) the set was
    computed from; weights[i] is ngrams[i]'s score under that strategy (the
    day weight locally, the merged weight globally).
    """

    hashtag: str
    strategy: str
    scope: tuple[date, date]
    ngrams: tuple[str, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class LinkMatch:
    """A matched link plus its witness: which phrase hit which field."""

    meta: LinkMetadata
    field: str
    phrase: str


@dataclass(frozen=True, slots=True)
class MatchSeries:
    hashtag: str
    strategy: str
    counts: dict[date, int]


class Classification(NamedTuple):
    category: str
    include: bool


@dataclass(frozen=True, slots=True)
class BehaviorVerdict:
    hashtag: str
    day: date
    local_count: int
    global_count: int
    category: str
    include: bool


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Everything run_comparison produces for one hashtag set over one range."""

    day_range: tuple[date, date]
    series: dict[str, tuple[MatchSeries, MatchSeries]]
    verdicts: dict[tuple[str, date], BehaviorVerdict]
    totals: dict[date, tuple[int, int]]


def days_in(day_range: tuple[date, date]) -> list[date]:
    first, last = day_range
    if first > last:
        raise ValueError(f"day range {first}..{last} is reversed")
    return [first + timedelta(days=i) for i in range((last - first).days + 1)]


def _check_covered(index: HashtagIndex, day_range: tuple[date, date]):
    if index.span is None:
        raise ValueError("index has no span; nothing to evaluate")
    if day_range[0] < index.span[0] or day_range[1] > index.span[1]:
        raise ValueError(
            f"range {day_range[0]}..{day_range[1]} outside index span "
            f"{index.span[0]}..{index.span[1]}"
        )


def _check_count(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")


def local_expansions(
    index: HashtagIndex, hashtag: str, day: date, n: int = 10
) -> ExpansionSet:
    """Top-n ngrams of that day's contextual vector; empty when no vector."""
    _check_count(n)
    _check_covered(index, (day, day))
    entry = index.entries.get((hashtag, day))
    top = entry.vector[:n] if entry else ()
    return ExpansionSet(
        hashtag=hashtag,
        strategy=LOCAL,
        scope=(day, day),
        ngrams=tuple(e.ngram for e in top),
        weights=tuple(e.weight for e in top),
    )


def global_expansions(
    index: HashtagIndex,
    hashtag: str,
    day_range: tuple[date, date],
    n: int = 10,
) -> ExpansionSet:
    """One fixed top-n set for the whole range.

    Each ngram's merged score is its best daily weight. Order ties resolve by
    earliest best day, then the rank it held in that day's vector, then the
    ngram, which makes a one-day range reproduce local_expansions exactly.
    """
    _check_count(n)
    _check_covered(index, day_range)
    best: dict[str, tuple[float, int, int]] = {}
    for day in days_in(day_range):
        entry = index.entries.get((hashtag, day))
        if entry is None:
            continue
        ordinal = day.toordinal()
        for e in entry.vector:
            cand = (-e.weight, ordinal, e.rank)
            cur = best.get(e.ngram)
            if cur is None or cand < cur:
                best[e.ngram] = cand
    ranked = sorted((key, ngram) for ngram, key in best.items())[:n]
    return ExpansionSet(
        hashtag=hashtag,
        strategy=GLOBAL,
        scope=day_range,
        ngrams=tuple(ngram for _, ngram in ranked),
        weights=tuple(-key[0] for key, _ in ranked),
    )


def _contains(hay: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    first = needle[0]
    span = len(needle)
    for i in range(len(hay) - span + 1):
        if hay[i] == first and hay[i : i + span] == needle:
            return True
    return False


def _query_needles(
    phrases: Iterable[str], stopwords: frozenset[str] | set[str]
) -> dict[str, tuple[str, ...]]:
    """Each phrase's stopword-free token run, keyed by its space-joined form.

    Insertion order is phrase order; a repeated run keeps its first place and
    a run left empty by the stopwords is dropped.
    """
    needles: dict[str, tuple[str, ...]] = {}
    for phrase in phrases:
        tokens = tuple(t for t in phrase.split() if t not in stopwords)
        if tokens:
            needles.setdefault(" ".join(tokens), tokens)
    return needles


class PhraseTable:
    """A batch of needles, prepared for matching LinkDocs of one max_ngram.

    A needle of at most max_ngram tokens occurs in a field exactly when its
    key is one of the field's terms. A longer needle can occur only where its
    first max_ngram tokens do, so its prefix is looked up with the short keys
    and only a field holding that prefix has its tokens scanned.
    """

    __slots__ = ("_probe", "_long", "_prefix_only")

    def __init__(self, needles: Mapping[str, tuple[str, ...]], max_ngram: int):
        short = set()
        self._long: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for key, tokens in needles.items():
            if len(tokens) <= max_ngram:
                short.add(key)
            else:
                prefix = " ".join(tokens[:max_ngram])
                self._long.setdefault(prefix, []).append((key, tokens))
        self._prefix_only = self._long.keys() - short
        self._probe = short | self._long.keys()

    def hits(self, doc: LinkDoc) -> tuple[set[str], set[str]]:
        """Keys of the needles in doc's title and in its description.

        doc must have been built with this table's max_ngram.
        """
        return (
            self._field_hits(doc.tokens[0], doc.terms[0]),
            self._field_hits(doc.tokens[1], doc.terms[1]),
        )

    def _field_hits(self, tokens: tuple[str, ...], terms: dict[str, float]) -> set[str]:
        found = terms.keys() & self._probe
        if self._long:
            for prefix in found.intersection(self._long):
                for key, needle in self._long[prefix]:
                    if _contains(tokens, needle):
                        found.add(key)
            found -= self._prefix_only
        return found


def match_links(
    day_docs: Sequence[LinkDoc],
    hashtag: str,
    expansions: ExpansionSet,
    lexicon: frozenset[str],
    stopwords: frozenset[str] | set[str],
) -> list[LinkMatch]:
    """Links whose title or description contains any query phrase.

    Phrases tried in order: the raw hashtag token, its word-broken form, then
    each expansion ngram; the first hit is recorded as the witness, title
    before description. Matching is containment of the phrase's token run
    inside the normalized field tokens (both sides stopword-filtered; the
    docs must be built with the same stopwords and max_ngram). Each link is
    matched once, through PhraseTable.hits, the routine run_comparison uses:
    its field terms are intersected with every phrase of at most max_ngram
    tokens, and its tokens are scanned only for a longer phrase whose first
    max_ngram tokens it holds. Input order is preserved and duplicate
    canonical URLs are checked once.
    """
    if not day_docs:
        return []
    needles = _query_needles(
        [hashtag, broken_phrase(hashtag, lexicon, stopwords), *expansions.ngrams],
        stopwords,
    )
    table = PhraseTable(needles, day_docs[0].max_ngram)
    matched = []
    seen_urls = set()
    for doc in day_docs:
        full = doc.meta.url.full
        if full in seen_urls:
            continue
        seen_urls.add(full)
        title_hits, desc_hits = table.hits(doc)
        for key in needles:
            if key in title_hits:
                matched.append(LinkMatch(meta=doc.meta, field="title", phrase=key))
                break
            if key in desc_hits:
                matched.append(LinkMatch(meta=doc.meta, field="description", phrase=key))
                break
    return matched


def classify_behavior(
    local_count: int, global_count: int, threshold: int
) -> Classification:
    """Four-way day classification; include iff the local count is high."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    local_high = local_count >= threshold
    global_high = global_count >= threshold
    if local_high and global_high:
        category = BOTH_HIGH
    elif local_high:
        category = LOCAL_ONLY_HIGH
    elif global_high:
        category = GLOBAL_ONLY_HIGH
    else:
        category = BOTH_LOW
    return Classification(category=category, include=local_high)


def run_comparison(
    index: HashtagIndex,
    hashtags: Iterable[str],
    day_range: tuple[date, date] | None = None,
    n: int | None = None,
    metadata: Mapping[str, LinkMetadata] | None = None,
    threshold: int | None = None,
) -> ComparisonResult:
    """Count matched links per day under both strategies for each hashtag.

    Candidate links for a day are every link seen in the corpus that day that
    has metadata, one per canonical URL. Defaults come from the index: its
    span, its params' expansion_size and threshold, and its stored metadata.

    Each day's candidates are matched once against the union of that day's
    needles (every hashtag's, under both strategies), and each needle gets a
    bitmask of the candidates holding it; a (hashtag, strategy) count is the
    popcount of the OR of its needles' masks. The cost per day is one
    PhraseTable.hits per candidate plus one mask lookup per needle, not one
    match per (hashtag, strategy, candidate).
    """
    if day_range is None:
        if index.span is None:
            raise ValueError("index has no span; pass an explicit day range")
        day_range = index.span
    _check_covered(index, day_range)
    if n is None:
        n = index.params.expansion_size
    _check_count(n)
    if threshold is None:
        threshold = index.params.threshold
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if metadata is None:
        metadata = index.metadata
    tags = sorted(set(hashtags))
    days = days_in(day_range)
    stopwords = index.stopwords

    base = {tag: [tag, index.broken_phrase(tag)] for tag in tags}
    global_needles = {
        tag: _query_needles(
            [*base[tag], *global_expansions(index, tag, day_range, n).ngrams], stopwords
        )
        for tag in tags
    }
    local_counts: dict[str, dict[date, int]] = {tag: {} for tag in tags}
    global_counts: dict[str, dict[date, int]] = {tag: {} for tag in tags}
    for day in days:
        unique: dict[str, LinkMetadata] = {}
        for full in index.links_on(day):
            meta = metadata.get(full)
            if meta is not None:
                unique.setdefault(meta.url.full, meta)
        docs = [index.link_doc(meta) for meta in unique.values()]
        local_needles = {
            tag: _query_needles(
                [*base[tag], *local_expansions(index, tag, day, n).ngrams], stopwords
            )
            for tag in tags
        }
        day_needles: dict[str, tuple[str, ...]] = {}
        for needles in (*local_needles.values(), *global_needles.values()):
            day_needles.update(needles)
        table = PhraseTable(day_needles, index.params.max_ngram)
        hits = [table.hits(doc) for doc in docs]
        masks: dict[str, int] = {}
        for bit, (title_hits, desc_hits) in enumerate(hits):
            flag = 1 << bit
            for key in title_hits | desc_hits:
                masks[key] = masks.get(key, 0) | flag
        for tag in tags:
            local_counts[tag][day] = _count(masks, local_needles[tag])
            global_counts[tag][day] = _count(masks, global_needles[tag])

    series: dict[str, tuple[MatchSeries, MatchSeries]] = {}
    verdicts: dict[tuple[str, date], BehaviorVerdict] = {}
    totals = {day: (0, 0) for day in days}
    for tag in tags:
        for day in days:
            local_n = local_counts[tag][day]
            global_n = global_counts[tag][day]
            category, include = classify_behavior(local_n, global_n, threshold)
            verdicts[(tag, day)] = BehaviorVerdict(
                hashtag=tag,
                day=day,
                local_count=local_n,
                global_count=global_n,
                category=category,
                include=include,
            )
            lt, gt = totals[day]
            totals[day] = (lt + local_n, gt + global_n)
        series[tag] = (
            MatchSeries(hashtag=tag, strategy=LOCAL, counts=local_counts[tag]),
            MatchSeries(hashtag=tag, strategy=GLOBAL, counts=global_counts[tag]),
        )
    return ComparisonResult(
        day_range=day_range, series=series, verdicts=verdicts, totals=totals
    )


def _count(masks: Mapping[str, int], needles: Iterable[str]) -> int:
    """How many of the day's candidates hold at least one of the needles."""
    held = 0
    for key in needles:
        held |= masks.get(key, 0)
    return held.bit_count()


def names_csv_file(tag: str) -> bool:
    """Whether `<tag>.csv` is a plain file directly in a directory, not totals.csv.

    False for a tag holding a character ingest drops hashtags for (a path
    separator of any platform, or a control character such as NUL), a name
    over 255 bytes, or the tag "totals", whose CSV would overwrite the totals.
    """
    return not (
        tag == "totals"
        or UNSAFE_HASHTAG_RE.search(tag)
        or len(os.fsencode(f"{tag}.csv")) > 255
    )


def write_comparison_csvs(result: ComparisonResult, out_dir: str | Path) -> list[Path]:
    """One CSV per hashtag plus totals.csv; returns the paths written.

    Raises ValueError, before writing anything, for a hashtag that fails
    names_csv_file.
    """
    for tag in result.series:
        if not names_csv_file(tag):
            raise ValueError(f"hashtag {tag!r} cannot name a CSV file in {out_dir}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    days = days_in(result.day_range)
    written = []
    for tag in sorted(result.series):
        path = out / f"{tag}.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["day", "local_count", "global_count", "category", "include"])
            for day in days:
                v = result.verdicts[(tag, day)]
                writer.writerow(
                    [
                        day.isoformat(),
                        v.local_count,
                        v.global_count,
                        v.category,
                        str(v.include).lower(),
                    ]
                )
        written.append(path)
    totals_path = out / "totals.csv"
    with open(totals_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["day", "local_total", "global_total"])
        for day in days:
            lt, gt = result.totals[day]
            writer.writerow([day.isoformat(), lt, gt])
    written.append(totals_path)
    return written

