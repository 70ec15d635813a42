"""Query expansion and link scoring over the index.

A query is a hashtag on a day, expanded with its word-broken form and its
contextual-vector ngrams. Links are scored by a dot product between query
terms and binary-presence term vectors over the link's title, description,
and file name, taking the best field; the final ranking multiplies that text
score by the link's social vote weight. The term vectors come from the
index's LinkDoc cache, so each link's text is tokenized once per index, and
evaluate's phrase matching reads the same docs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Mapping

from socialqe.index import HashtagIndex, LinkDoc, field_tokens
from socialqe.ingest import CanonicalUrl, LinkMetadata, word_break_hashtag
from socialqe.votes import element_weight, extract_ngrams


@dataclass(frozen=True, slots=True)
class ExpandedQuery:
    """Weighted query terms for one hashtag-day; never empty."""

    hashtag: str
    day: date
    terms: dict[str, float]


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

    Equal to the matching LinkDoc.terms entry; this builds it on its own.
    """
    tokens = field_tokens(meta, field, stopwords)
    return dict.fromkeys(extract_ngrams(tokens, max_ngram), 1.0)


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
    if top:
        peak = top[0].weight
        if peak > 0:
            for e in top:
                terms[e.ngram] = max(terms.get(e.ngram, 0.0), e.weight / peak)
    terms[broken_phrase(hashtag, index.lexicon, index.stopwords)] = 1.0
    return ExpandedQuery(hashtag=hashtag, day=day, terms=terms)


def sqe_score(query: ExpandedQuery, doc: LinkDoc) -> ScoredLink:
    """Score one link against the query: best of title/description/file_name."""
    scores = tuple(sim(query.terms, terms) for terms in doc.terms)
    return ScoredLink(url=doc.meta.url, score=max(scores), field_scores=scores)


def sprf_rerank(
    index: HashtagIndex, hashtag: str, day: date, k: int = 10
) -> list[RerankedLink]:
    """Re-rank a hashtag-day's links by text score times social vote weight.

    The query is the hashtag-day expanded with params.expansion_size vector
    ngrams. Links without crawled metadata still participate through their
    file names. Sorted by total descending, URL ascending on ties, truncated
    to k. Raises LookupError when the entry is missing and ValueError when k
    is negative.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    entry = index.entry(hashtag, day)
    p = index.params
    query = expand_query(index, hashtag, day, p.expansion_size)
    rows = []
    for assoc in entry.links:
        meta = index.metadata.get(assoc.url.full)
        if meta is None:
            meta = LinkMetadata(url=assoc.url)
        scored = sqe_score(query, index.link_doc(meta))
        social = element_weight(
            assoc.votes, p.tweet_weight, p.retweet_weight, p.vote_weight, p.link_weight
        )
        rows.append(
            RerankedLink(
                url=assoc.url,
                total=scored.score * social,
                text_score=scored.score,
                field_scores=scored.field_scores,
                social_weight=social,
            )
        )
    rows.sort(key=lambda r: (-r.total, r.url.full))
    return rows[:k]
