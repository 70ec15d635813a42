"""Spans and counters recorded from outside the program.

The tracer replaces public functions by module attribute, exactly where
`socialqe.cli`, `socialqe.index`, `socialqe.retrieval` and `socialqe.strategy`
look them up at call time, so nothing under `src/` changes. Spans are
aggregated per (name, parent) into count, total and self seconds as they
close; `signatures.hamming64` is counted, not timed, because it is called a
million times per wide build.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import socialqe.cli
import socialqe.index
import socialqe.retrieval
import socialqe.strategy
import socialqe.votes

ROOT_SPAN = "-"


class Tracer:
    """In-memory span aggregate plus the counters measured at the same boundaries."""

    def __init__(self):
        self._stack: list[list] = []  # [name, seconds spent in child spans]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._texts: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---

    def _parent(self) -> str:
        return self._stack[-1][0] if self._stack else ROOT_SPAN

    def _enter(self, name: str) -> tuple[str, list, float]:
        parent = self._parent()
        frame = [name, 0.0]
        self._stack.append(frame)
        return parent, frame, perf_counter()

    def _exit(self, name: str, parent: str, frame: list, started: float):
        elapsed = perf_counter() - started
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        agg = self.spans[(name, parent)]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]

    @contextmanager
    def phase(self, name: str):
        """A span around a benchmark phase, so program spans nest under it."""
        parent, frame, started = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, parent, frame, started)

    def timed(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame, started = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, parent, frame, started)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args):
            spans[(name, self._stack[-1][0] if self._stack else ROOT_SPAN)][0] += 1
            return fn(*args)

        return wrapper

    def timed_iter(self, name: str, fn, done=None):
        """Wrap a generator function: each `next()` is one span; `done(args)` at the end."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    parent, frame, started = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        if done is not None:
                            done(args)
                        return
                    finally:
                        self._exit(name, parent, frame, started)
                    yield item

            return steps()

        return wrapper

    # --- installation ---

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every layer boundary the per-layer metrics read."""
        cli, idx, ret, strat = socialqe.cli, socialqe.index, socialqe.retrieval, socialqe.strategy
        agg = socialqe.votes.DailyAggregate
        counts = self.counts

        def parse_done(args):
            stats = args[1]
            counts["ingest.lines"] += stats.lines
            counts["ingest.skipped"] += stats.skipped

        def tokenized(args, kwargs, result):
            self._texts.add(args[0])

        def added(args, kwargs, result):
            counts["votes.elements_counted"] += len(args[1])

        def finalized(args, kwargs, result):
            counts["votes.records_finalized"] += len(result)

        def vector_built(args, kwargs, result):
            counts["votes.rows_kept"] += len(result)

        def index_built(args, kwargs, result):
            counts["index.entries"] += len(result.entries)
            counts["index.neighbour_rows"] += sum(len(e.similar) for e in result.entries.values())

        def index_saved(args, kwargs, result):
            for dirpath, _, files in os.walk(args[1]):
                for f in files:
                    counts["index.files_written"] += 1
                    counts["index.bytes_written"] += os.path.getsize(os.path.join(dirpath, f))

        def links_matched(args, kwargs, result):
            counts["strategy.links_scanned"] += len(args[0])
            counts["strategy.links_matched"] += len(result)

        for owner, attr, name, after in (
            (cli, "build_index", "index.build_index", index_built),
            (cli, "save_index", "index.save_index", index_saved),
            (idx, "normalize_and_tokenize", "ingest.normalize_and_tokenize", tokenized),
            (idx, "word_break_hashtag", "ingest.word_break_hashtag", None),
            (idx, "build_vector", "signatures.build_vector", vector_built),
            (idx, "vector_fingerprint", "signatures.vector_fingerprint", None),
            (idx, "load_index", "index.load_index", None),
            (idx, "similar_hashtags", "index.similar_hashtags", None),
            (idx.HashtagIndex, "hashtags_on", "index.hashtags_on", None),
            (idx.HashtagIndex, "links_on", "index.links_on", None),
            (agg, "add_elements", "votes.add_elements", added),
            (agg, "finalize", "votes.finalize", finalized),
            (ret, "sprf_rerank", "retrieval.sprf_rerank", None),
            (ret, "expand_query", "retrieval.expand_query", None),
            (ret, "doc_term_vector", "retrieval.doc_term_vector", None),
            (ret, "word_break_hashtag", "ingest.word_break_hashtag", None),
            (strat, "run_comparison", "strategy.run_comparison", None),
            (strat, "write_comparison_csvs", "strategy.write_comparison_csvs", None),
            (strat, "global_expansions", "strategy.global_expansions", None),
            (strat, "match_links", "strategy.match_links", links_matched),
            (strat, "normalize_and_tokenize", "strategy.normalize_and_tokenize", None),
        ):
            self._patch(owner, attr, self.timed(name, getattr(owner, attr), after))
        self._patch(cli, "parse_stream", self.timed_iter("ingest.parse_stream", cli.parse_stream, parse_done))
        self._patch(idx, "hamming64", self.counted("signatures.hamming64", idx.hamming64))
        self._patch(ret, "sqe_score", self.counted("retrieval.sqe_score", ret.sqe_score))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- export ---

    def snapshot(self) -> dict:
        """JSON-ready spans and counters; `merge` folds one into another."""
        counts = dict(self.counts)
        counts["ingest.distinct_texts"] = len(self._texts)
        return {
            "spans": [[n, p, *agg] for (n, p), agg in sorted(self.spans.items())],
            "counts": counts,
        }


def merge(snapshots: list[dict]) -> dict:
    spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(float)
    for snap in snapshots:
        for name, parent, count, total, self_s in snap["spans"]:
            agg = spans[(name, parent)]
            agg[0] += count
            agg[1] += total
            agg[2] += self_s
        for key, value in snap["counts"].items():
            counts[key] += value
    return {
        "spans": [[n, p, *agg] for (n, p), agg in sorted(spans.items())],
        "counts": dict(counts),
    }


def by_name(snapshot: dict) -> dict[str, list]:
    """Spans summed over parents: name -> [count, total_s, self_s]."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, _, count, total, self_s in snapshot["spans"]:
        agg = out[name]
        agg[0] += count
        agg[1] += total
        agg[2] += self_s
    return out


def write_span_file(path: Path, snapshot: dict, overhead_line: str):
    """Tab-separated name, parent, count, total and self seconds, then the overhead."""
    rows = ["name\tparent\tcount\ttotal_s\tself_s"]
    for name, parent, count, total, self_s in snapshot["spans"]:
        rows.append(f"{name}\t{parent}\t{count}\t{total:.6f}\t{self_s:.6f}")
    rows.append(f"# {overhead_line}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
