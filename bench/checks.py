"""Output checks made from outside the program.

Each check returns a list of problems; an empty list means it passed. They
compare the CLI-built index with an in-process rebuild from shuffled input,
with its own reload, with an oracle recomputation of contextual vectors
(`DailyAggregate.accumulate` + `build_vector`, the route acceptance criteria
c01/c02 prove), and with neighbour lists recomputed at query time.
"""

from __future__ import annotations

import hashlib
import random
from datetime import date
from pathlib import Path

from socialqe.config import EngineParams, load_config
from socialqe.index import HashtagIndex, build_index, load_index, save_index, similar_hashtags
from socialqe.ingest import (
    DEFAULT_STOPWORDS,
    ParseStats,
    TweetRecord,
    load_wordlist,
    parse_metadata,
    parse_stream,
    word_break_hashtag,
)
from socialqe.signatures import build_vector
from socialqe.votes import NGRAM, DailyAggregate


def tree_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for name, data in tree_files(root).items():
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def compare_trees(want: Path, got: Path) -> list[str]:
    a, b = tree_files(want), tree_files(got)
    if a.keys() != b.keys():
        return [f"index trees list different files: {sorted(a.keys() ^ b.keys())[:5]}"]
    return [f"index file {name} differs" for name in a if a[name] != b[name]][:5]


def rebuild(inputs, seed: int, out: Path) -> tuple[HashtagIndex, list[TweetRecord], ParseStats]:
    """Build and save in-process from a seeded shuffle of the corpus lines.

    Uses the same config handling as `build-index`, so the saved tree must be
    byte-identical to the CLI's.
    """
    lines = inputs.corpus.read_text(encoding="utf-8").splitlines()
    random.Random(f"shuffle-{seed}").shuffle(lines)
    entries = load_config(inputs.config)
    stats = ParseStats()
    tweets = list(parse_stream(lines, stats))
    with open(inputs.metadata, encoding="utf-8") as f:
        metadata = parse_metadata(f)
    index = build_index(
        tweets,
        metadata=metadata,
        params=EngineParams.from_mapping(entries),
        stopwords=DEFAULT_STOPWORDS,
        lexicon=load_wordlist(entries["lexicon"]),
        provenance=sorted(entries.items()),
    )
    save_index(index, out)
    return index, tweets, stats


def check_reload(built: HashtagIndex, tree: Path) -> list[str]:
    loaded = load_index(tree)
    if loaded == built:
        return []
    for name in ("span", "params", "stopwords", "lexicon", "day_records", "entries", "metadata", "provenance"):
        if getattr(loaded, name) != getattr(built, name):
            return [f"load_index differs from the built index in {name}"]
    return ["load_index differs from the built index"]


def check_vectors(
    index: HashtagIndex, tweets: list[TweetRecord], sample: list[tuple[str, date]]
) -> list[str]:
    """Recompute sampled contextual vectors from the hashtag's own tweets."""
    p = index.params
    by_day: dict[date, list[TweetRecord]] = {}
    for t in tweets:
        by_day.setdefault(t.day, []).append(t)
    problems = []
    for hashtag, day in sample:
        agg = DailyAggregate(day)
        for t in by_day.get(day, ()):
            if hashtag in t.hashtags:
                agg.accumulate(t, stopwords=index.stopwords, max_ngram=p.max_ngram)
        restricted = {k: v for k, v in agg.finalize().items() if k.kind == NGRAM}
        broken = " ".join(word_break_hashtag(hashtag, index.lexicon))
        want = build_vector(
            restricted,
            p.vector_size,
            {hashtag, broken},
            p.tweet_weight,
            p.retweet_weight,
            p.vote_weight,
            p.link_weight,
        )
        if tuple(want) != index.entry(hashtag, day).vector:
            problems.append(f"stored vector of {hashtag} on {day} differs from the oracle")
    return problems


def check_neighbours(index: HashtagIndex) -> list[str]:
    """Stored neighbour lists equal a query-time recomputation at the build radius."""
    radius = index.params.max_distance
    return [
        f"stored neighbours of {h} on {d} differ from similar_hashtags"
        for (h, d), entry in sorted(index.entries.items())
        if similar_hashtags(index, h, d, max_distance=radius) != list(entry.similar)
    ][:5]
