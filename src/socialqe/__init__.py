"""socialqe: temporal social query expansion over tweet streams.

Builds per-day contextual vectors for hashtags and signature vectors for
shared links from account-deduplicated vote counts, indexes them behind a
SimHash near-duplicate lookup, and evaluates local (per-day) against global
(range-merged) expansion strategies.
"""

import importlib

# Each public name and the module it comes from. A name is imported on first
# use (PEP 562), so a process loads only the modules it reads: `build-index`
# never loads retrieval, strategy, scenarios or synth.
_EXPORTS = {
    "socialqe.config": ("EngineParams",),
    "socialqe.index": (
        "DayEntry",
        "HashtagIndex",
        "IndexFormatError",
        "LinkAssociation",
        "LinkDoc",
        "build_index",
        "load_index",
        "save_index",
        "similar_hashtags",
        "verify_index",
    ),
    "socialqe.ingest": (
        "CanonicalUrl",
        "LinkMetadata",
        "TweetRecord",
        "canonicalize_url",
        "normalize_and_tokenize",
        "parse_metadata",
        "parse_stream",
        "word_break_hashtag",
    ),
    "socialqe.retrieval": (
        "ExpandedQuery",
        "RerankedLink",
        "ScoredLink",
        "expand_query",
        "sim",
        "sprf_rerank",
        "sqe_score",
    ),
    "socialqe.signatures": (
        "RankedNgram",
        "hamming64",
        "simhash64",
        "vector_fingerprint",
    ),
    "socialqe.strategy": (
        "BehaviorVerdict",
        "ComparisonResult",
        "ExpansionSet",
        "MatchSeries",
        "classify_behavior",
        "global_expansions",
        "local_expansions",
        "run_comparison",
    ),
    "socialqe.votes": (
        "HASHTAG",
        "LINK",
        "NGRAM",
        "ElementKey",
        "VoteRecord",
        "element_weight",
        "extract_ngrams",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
