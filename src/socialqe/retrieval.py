"""Query expansion and link scoring over the index.

A query is a hashtag on a day, expanded with its word-broken form and its
contextual-vector ngrams. Links are scored by a dot product between query
terms and binary-presence term vectors over the link's title, description,
and file name, taking the best field; the final ranking multiplies that text
score by the link's social vote weight. Per loaded index, each hashtag's
broken phrase is derived once, and so is each entry's rerank input: its
links' social weights and LinkDocs (HashtagIndex.rerank_candidates). So each
link's text is tokenized once per index, and evaluate's phrase matching
reads the same docs. A rerank builds its query and turns each term that can
score (at most max_ngram tokens) into a phrase_probe once, in term order.
A field holds a term of its binary vector exactly when the term's probe
finds it in the field's words and padded text, so summing per field the
weights of the terms it holds, in that order, is sim's sum bit for bit,
without building any link's ngrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Mapping

from socialqe.index import HashtagIndex, LinkDoc, field_tokens, phrase_probe
from socialqe.ingest import CanonicalUrl, LinkMetadata
from socialqe.ingest import word_break_hashtag  # noqa: F401  (bench/tracing.py wraps it)
from socialqe.votes import extract_ngrams


@dataclass(frozen=True, slots=True)
class ExpandedQuery:
    """Weighted query terms for one hashtag-day; never empty."""

    hashtag: str
    day: date
    terms: dict[str, float]
    # (term, weight) pairs in term order: the order sim sums shared terms in.
    ordered_terms: tuple[tuple[str, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "ordered_terms", tuple(sorted(self.terms.items())))


@dataclass(frozen=True, slots=True)
class ScoredLink:
    """Text-similarity score of one link: max over the three field scores."""

    url: CanonicalUrl
    score: float
    field_scores: tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class RerankedLink:
    """Final rerank row: total = text score x social vote weight."""

    url: CanonicalUrl
    total: float
    text_score: float
    field_scores: tuple[float, float, float]
    social_weight: float


def sim(q: Mapping[str, float], d: Mapping[str, float]) -> float:
    """Dot product over shared terms.

    Terms are summed in sorted order, so sim(q, d) == sim(d, q) exactly, not
    just within rounding. Always a float: 0.0 when no term is shared.
    """
    if len(d) < len(q):
        q, d = d, q
    shared = [t for t in q if t in d]
    shared.sort()
    return sum((q[t] * d[t] for t in shared), 0.0)


def doc_term_vector(
    meta: LinkMetadata,
    field: str,
    stopwords: frozenset[str] | set[str],
    max_ngram: int = 4,
) -> dict[str, float]:
    """Binary-presence ngram vector for one document field.

    The vector a rerank scores a field by, built on its own: a query term
    scores in a LinkDoc's field exactly when it is a key here. A rerank never
    builds it; it tests each term with phrase_probe instead.
    """
    tokens = field_tokens(meta, field, stopwords)
    return dict.fromkeys(extract_ngrams(tokens, max_ngram), 1.0)


def expand_query(
    index: HashtagIndex, hashtag: str, day: date, k: int = 10
) -> ExpandedQuery:
    """Build the weighted term set for a hashtag-day.

    The word-broken hashtag enters at weight 1.0; the top-k vector ngrams
    enter max-normalized so the strongest ngram also weighs 1.0. Raises
    LookupError when the entry is missing and ValueError when k is negative.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    entry = index.entry(hashtag, day)
    terms: dict[str, float] = {}
    top = entry.vector[:k]
    if top and (peak := top[0].weight) > 0:
        for _, ngram, weight in top:
            # A repeated ngram keeps its largest weight.
            weight /= peak
            held = terms.get(ngram)
            if held is None or weight > held:
                terms[ngram] = weight
    terms[index.broken_phrase(hashtag)] = 1.0
    return ExpandedQuery(hashtag=hashtag, day=day, terms=terms)


def _probes(query: ExpandedQuery, max_ngram: int) -> list[tuple[tuple[str, str | None], float]]:
    """(phrase_probe(term), weight) of each query term that can score, in term order.

    A term of max_ngram or more spaces is longer than any ngram of a field,
    so it never scores and is dropped.
    """
    return [(phrase_probe(t), w) for t, w in query.ordered_terms if t.count(" ") < max_ngram]


def _field_scores(
    probes: list[tuple[tuple[str, str | None], float]], doc: LinkDoc
) -> tuple[float, float, float]:
    (title, description, file_name), (title_text, description_text, file_name_text) = (
        doc.words, doc.text
    )
    return (
        sum([w for (first, padded), w in probes
             if first in title and (padded is None or padded in title_text)], 0.0),
        sum([w for (first, padded), w in probes
             if first in description and (padded is None or padded in description_text)], 0.0),
        sum([w for (first, padded), w in probes
             if first in file_name and (padded is None or padded in file_name_text)], 0.0),
    )


def sqe_score(query: ExpandedQuery, doc: LinkDoc) -> ScoredLink:
    """Score one link against the query: best of title/description/file_name.

    Each field score is sim(query.terms, doc_term_vector(...)) bit for bit:
    a field's vector weighs each term it holds 1.0, so sim's products are the
    query weights, summed by the same sum in the same (term) order.
    """
    scores = _field_scores(_probes(query, doc.max_ngram), doc)
    return ScoredLink(url=doc.meta.url, score=max(scores), field_scores=scores)


def sprf_rerank(
    index: HashtagIndex, hashtag: str, day: date, k: int = 10
) -> list[RerankedLink]:
    """Re-rank a hashtag-day's links by text score times social vote weight.

    The query is the hashtag-day expanded with params.expansion_size vector
    ngrams; an entry with no links returns [] without expanding it. Links
    without crawled metadata still participate through their file names.
    Each candidate is scored as sqe_score does, with the query's probes built
    once. Sorted by total descending, URL ascending on ties, truncated to k.
    Raises LookupError when the entry is missing and ValueError when k is
    negative.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    candidates = index.rerank_candidates(hashtag, day)
    if not candidates:
        return []
    query = expand_query(index, hashtag, day, index.params.expansion_size)
    probes = _probes(query, index.params.max_ngram)
    rows = []
    for url, social, doc in candidates:
        scores = _field_scores(probes, doc)
        text_score = max(scores)
        rows.append(
            RerankedLink(
                url=url,
                total=text_score * social,
                text_score=text_score,
                field_scores=scores,
                social_weight=social,
            )
        )
    rows.sort(key=lambda r: (-r.total, r.url.full))
    return rows[:k]
