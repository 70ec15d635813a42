"""socialqe: temporal social query expansion over tweet streams.

Builds per-day contextual vectors for hashtags and signature vectors for
shared links from account-deduplicated vote counts, indexes them behind a
SimHash near-duplicate lookup, and evaluates local (per-day) against global
(range-merged) expansion strategies.
"""

from socialqe.config import EngineParams
from socialqe.index import (
    DayEntry,
    HashtagIndex,
    IndexFormatError,
    LinkAssociation,
    LinkDoc,
    build_index,
    load_index,
    save_index,
    similar_hashtags,
    verify_index,
)
from socialqe.ingest import (
    CanonicalUrl,
    LinkMetadata,
    TweetRecord,
    canonicalize_url,
    normalize_and_tokenize,
    parse_metadata,
    parse_stream,
    word_break_hashtag,
)
from socialqe.retrieval import (
    ExpandedQuery,
    RerankedLink,
    ScoredLink,
    expand_query,
    sim,
    sprf_rerank,
    sqe_score,
)
from socialqe.signatures import (
    RankedNgram,
    hamming64,
    simhash64,
    vector_fingerprint,
)
from socialqe.strategy import (
    BehaviorVerdict,
    ComparisonResult,
    ExpansionSet,
    MatchSeries,
    classify_behavior,
    global_expansions,
    local_expansions,
    run_comparison,
)
from socialqe.votes import (
    HASHTAG,
    LINK,
    NGRAM,
    ElementKey,
    VoteRecord,
    element_weight,
    extract_ngrams,
)

__version__ = "0.1.0"
