"""socialqe benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {tall,wide,long} --seed N --seconds S --trace {0,1}

Run from the repository root (or anywhere: paths resolve from this file).
The benchmark generates its inputs from the seed under `.bench_work/`,
drives socialqe only through public entry points (the `build-index` CLI in
a child process; `load_index`, `sprf_rerank`, `similar_hashtags`,
`run_comparison` and `write_comparison_csvs` in-process), checks the
outputs, writes a result record (and with --trace 1 a span file) under
`.bench_out/`, and prints one JSON object as its last line.

Load model: one process, no threads, at most one working child at a time
(the input generator, then CLI builds) beside the idle host-speed monitor
of an untraced run; the query stream is a closed loop with a single client.

--trace 0 reports the end-to-end metrics. At least MIN_ROUNDS rounds of
set-up, evaluate and one query pass fill --seconds, with BUILDS builds
spread evenly over the run, and every timing is a median over its samples,
so that one busy stretch of a shared host moves no metric far. Each sample
is scaled to a reference host speed by the probes of a monitor child
(`hostspeed.py`), so that runs minutes apart, on a host whose speed
drifts, still agree.
--trace 1 runs each phase once untraced and once traced, reports the
per-layer metrics and the tracing overhead, and makes the expensive output
checks (byte-identical in-process rebuild, reload equality, vector oracle,
every stored neighbour list).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
from contextlib import nullcontext, suppress
from datetime import date
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "build_tweets_per_s": "tweets/s",
    "build_peak_rss_mb": "MB",
    "setup_s": "s",
    "rerank_p50_ms": "ms",
    "rerank_p99_ms": "ms",
    "similar_p50_ms": "ms",
    "similar_p99_ms": "ms",
    "evaluate_s": "s",
}

PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.lines": "count",
    "ingest.skipped": "count",
    "ingest.tokenize_calls": "count",
    "ingest.tokenize_s": "s",
    "ingest.tokenize_distinct_ratio": "ratio",
    "ingest.word_break_calls": "count",
    "ingest.word_break_s": "s",
    "votes.add_calls": "count",
    "votes.elements_counted": "count",
    "votes.add_s": "s",
    "votes.finalize_calls": "count",
    "votes.records_finalized": "count",
    "votes.finalize_s": "s",
    "votes.kept_ratio": "ratio",
    "signatures.build_vector_calls": "count",
    "signatures.build_vector_s": "s",
    "signatures.fingerprint_calls": "count",
    "signatures.fingerprint_s": "s",
    "signatures.hamming_calls": "count",
    "signatures.neighbour_yield": "ratio",
    "index.build_s": "s",
    "index.build_self_s": "s",
    "index.save_s": "s",
    "index.bytes_written": "bytes",
    "index.files_written": "count",
    "index.load_s": "s",
    "index.entries": "count",
    "index.hashtags_on_calls": "count",
    "index.hashtags_on_s": "s",
    "index.links_on_calls": "count",
    "index.links_on_s": "s",
    "retrieval.rerank_s": "s",
    "retrieval.expand_query_s": "s",
    "retrieval.doc_term_vector_calls": "count",
    "retrieval.doc_term_vector_s": "s",
    "retrieval.links_scored": "count",
    "strategy.match_links_calls": "count",
    "strategy.match_links_s": "s",
    "strategy.links_scanned": "count",
    "strategy.match_ratio": "ratio",
    "strategy.field_tokenize_calls": "count",
    "strategy.global_expansions_s": "s",
    "strategy.csv_write_s": "s",
    "cli.build_cpu_s": "s",
    "trace.build_overhead_ratio": "ratio",
    "trace.query_overhead_ratio": "ratio",
}

BUILDS = 3
MIN_ROUNDS = 3
QUERIES = 1000
QUERY_ZIPF_S = 1.0
VECTOR_ORACLE_SAMPLE = 40
BUILD_TIMEOUT_S = 170


class Ops:
    """Operation accounting: anything that raises or disagrees is failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])
        return not problems

    def call(self, label: str, fn, *args, **kwargs):
        """Attempt one operation; returns None (and counts it failed) if it raises."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, the run goes on
            self.check(label, [f"{type(exc).__name__}: {exc}"])
            return None
        self.attempted += 1
        return result


# --- helpers ---


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def git_rev() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_probe_ms() -> float:
    """A momentary stamp of host speed: the median of five host-speed probes."""
    import hostspeed

    return statistics.median(hostspeed.probe_ms() for _ in range(5))


def environment(seed: int) -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "host_probe_ms_before": host_probe_ms(),
        "seed": seed,
    }


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], log: Path) -> tuple[int, float, "os.struct_rusage", str]:
    """Run one child to completion; returns exit code, wall s, rusage, stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(BUILD_TIMEOUT_S)
    started = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: stop the child before giving up
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - started
    return os.waitstatus_to_exitcode(status), wall, usage, log.read_text(encoding="utf-8")


def cli_build(inputs, out: Path, log: Path, spans_out: Path | None = None):
    args = [
        "build-index",
        "--corpus", str(inputs.corpus),
        "--metadata", str(inputs.metadata),
        "--config", str(inputs.config),
        "--out", str(out),
    ]
    if spans_out is None:
        argv = ["-m", "socialqe.cli", *args]
    else:
        argv = [str(ROOT / "bench" / "traced_cli.py"), str(spans_out), *args]
    return run_child(argv, log)


def check_build(ops: Ops, inputs, code: int, output: str) -> bool:
    """Count the build's outcome; True when it wrote an index to measure further."""
    if code != 0:
        return ops.check("build-index", [f"exit code {code}: {output.strip()[-300:]}"])
    if tuple(output.split("\n")[:4]) != inputs.expected_cli:
        ops.check("build-index", [f"printed {output.split()!r}, expected {list(inputs.expected_cli)!r}"])
    else:
        ops.check("build-index", [])
    return True


def query_sample(inputs, seed: int) -> list[tuple[str, date]]:
    """QUERIES hashtag-days, Zipf-skewed toward the most tweeted ones.

    Each popularity rank gets a fixed number of queries and only the order
    is seeded, so every seed asks an equally heavy mix.
    """
    import workloads

    counts = workloads.zipf_counts(len(inputs.hashtag_days), QUERIES, QUERY_ZIPF_S)
    sample = [(h, date.fromisoformat(d)) for (h, d), c in zip(inputs.hashtag_days, counts) for _ in range(c)]
    random.Random(f"queries-{seed}").shuffle(sample)
    return sample


def setup_once(idx_mod, tree: Path, sample_days: set):
    """load_index plus one fingerprint touch of every hashtag-day on the sampled days."""
    index = idx_mod.load_index(tree)
    for hashtag, day in index.entries:
        if day in sample_days:
            index.fingerprint(hashtag, day)
    return index


def query_pass(ops: Ops, index, sample, reranks: list, similars: list) -> list:
    """One pass of reranks over the sample, then one of similar_hashtags.

    Appends each call's (start, end) to `reranks` or `similars`. The two run
    in separate loops so that a short similar_hashtags call is not timed in
    the caches a rerank just churned.
    """
    import socialqe.index as idx_mod
    import socialqe.retrieval as ret_mod

    radius = index.params.max_distance
    ranked = []
    for hashtag, day in sample:
        t0 = perf_counter()
        ranked.append(ops.call("rerank", ret_mod.sprf_rerank, index, hashtag, day))
        reranks.append((t0, perf_counter()))
    near = []
    for hashtag, day in sample:
        t0 = perf_counter()
        near.append(ops.call("similar", idx_mod.similar_hashtags, index, hashtag, day, max_distance=radius))
        similars.append((t0, perf_counter()))
    return list(zip(ranked, near))


def median_per_query(sample, passes: list[list[float]]) -> list[float]:
    """Each query's latency: the median over every time its hashtag-day was asked."""
    seen: dict = {}
    for latencies in passes:
        for key, ms in zip(sample, latencies):
            seen.setdefault(key, []).append(ms)
    medians = {key: statistics.median(values) for key, values in seen.items()}
    return [medians[key] for key in sample]


def render_queries(sample, outputs) -> bytes:
    lines = []
    for (hashtag, day), (rows, near) in zip(sample, outputs):
        ranked = [(r.url.full, r.total, r.field_scores) for r in rows or ()]
        lines.append(repr((hashtag, day.isoformat(), ranked, near)))
    return "\n".join(lines).encode("utf-8")


def check_queries(index, sample, outputs) -> list[str]:
    problems = []
    for (hashtag, day), (rows, near) in zip(sample, outputs):
        if rows is None or near is None:
            continue  # already counted as failed
        if near != list(index.entry(hashtag, day).similar):
            problems.append(f"similar_hashtags({hashtag}, {day}) != stored neighbours")
        keys = [(-r.total, r.url.full) for r in rows]
        if keys != sorted(keys) or len(rows) > 10:
            problems.append(f"rerank({hashtag}, {day}) is not a sorted top-10")
    return problems


def evaluate_once(index, tags, out: Path):
    import socialqe.strategy as strat

    result = strat.run_comparison(index, tags)
    strat.write_comparison_csvs(result, out)
    return result


def check_evaluate(result, tags) -> list[str]:
    if sorted(result.series) != sorted(set(tags)):
        return ["evaluate did not cover every tag"]
    for day, (local_total, global_total) in result.totals.items():
        local = sum(v.local_count for (_, d), v in result.verdicts.items() if d == day)
        glob = sum(v.global_count for (_, d), v in result.verdicts.items() if d == day)
        if (local, glob) != (local_total, global_total):
            return [f"totals on {day} disagree with the per-tag counts"]
    return []


def csv_bytes(out: Path) -> bytes:
    if not out.is_dir():
        return b""
    return b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in sorted(out.iterdir()))


# --- the two kinds of run ---


def measure(inputs, seed: int, seconds: float, work: Path, ops: Ops) -> tuple[dict, dict, bytes]:
    """Untraced run: every end-to-end metric, with sample counts.

    Every timing is taken as a (start, end) pair and scaled to the reference
    host speed afterwards, from the probes a Monitor took beside the work.
    """
    import hostspeed

    monitor = hostspeed.Monitor(work / "probes.txt")
    try:
        spans, rss, digest_input = measure_rounds(inputs, seed, seconds, work, ops)
    finally:
        speed = monitor.stop()
    builds, setups, evaluates, passes = spans
    build_s = [speed.scaled(*b) for b in builds]
    setup_s = [speed.scaled(*b) for b in setups]
    evaluate_s = [speed.scaled(*b) for b in evaluates]
    sample = query_sample(inputs, seed)
    # The work of a query is identical each time it is asked, so its median
    # latency drops one-off stalls; p50/p99 then describe the query mix.
    rerank_ms = median_per_query(sample, [[speed.scaled(*b) * 1e3 for b in reranks] for reranks, _ in passes])
    similar_ms = median_per_query(sample, [[speed.scaled(*b) * 1e3 for b in similars] for _, similars in passes])
    n_queries = len(passes) * QUERIES
    values = {
        "build_tweets_per_s": (inputs.lines / statistics.median(build_s), len(build_s)),
        "build_peak_rss_mb": (rss, 1),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "rerank_p50_ms": (percentile(rerank_ms, 50), n_queries),
        "rerank_p99_ms": (percentile(rerank_ms, 99), n_queries),
        "similar_p50_ms": (percentile(similar_ms, 50), n_queries),
        "similar_p99_ms": (percentile(similar_ms, 99), n_queries),
        "evaluate_s": (statistics.median(evaluate_s), len(evaluate_s)),
    }
    detail = {
        "build_wall_s": [t1 - t0 for t0, t1 in builds],
        "build_scaled_s": build_s,
        "setup_scaled_s": setup_s,
        "evaluate_wall_s": [t1 - t0 for t0, t1 in evaluates],
        "evaluate_scaled_s": evaluate_s,
        "query_passes": len(passes),
        "host_probes": len(speed.probes),
        "host_probe_ms_median": statistics.median(speed.probes),
    }
    return values, detail, digest_input


def measure_rounds(inputs, seed: int, seconds: float, work: Path, ops: Ops):
    """Builds, set-ups, evaluates and query passes filling `seconds`, checked and timed as (start, end) pairs."""
    import checks

    started = perf_counter()
    walls: list[tuple[float, float]] = []
    first_tree = work / "index-0"
    first_digest = None

    def build() -> tuple[bool, float]:
        tree = work / f"index-{len(walls)}"
        gc.collect()
        t0 = perf_counter()
        code, _, usage, output = cli_build(inputs, tree, work / f"build-{len(walls)}.log")
        walls.append((t0, perf_counter()))
        if not check_build(ops, inputs, code, output):
            return False, 0.0
        if tree != first_tree:
            same = checks.tree_digest(tree) == first_digest
            ops.check("rebuild determinism", [] if same else ["index trees differ between builds"])
            shutil.rmtree(tree)
        return True, usage.ru_maxrss / 1024

    # Peak RSS comes from the first build only: a spawned child starts with
    # its parent's peak RSS as its own, and this process is smallest now.
    ok, rss = build()
    if not ok:
        raise RuntimeError("build failed: " + "; ".join(ops.problems))
    first_digest = checks.tree_digest(first_tree)
    cli_output = (work / "build-0.log").read_text(encoding="utf-8")

    import socialqe.index as idx_mod

    sample = query_sample(inputs, seed)
    sample_days = {d for _, d in sample}
    setups: list[tuple[float, float]] = []
    evaluates: list[tuple[float, float]] = []
    passes: list[tuple[list, list]] = []
    eval_out = b""
    first_outputs = None
    # Rounds of set-up, evaluate and one query pass fill the run, with the
    # builds spread evenly over it, so the samples of every metric span the
    # whole run rather than one stretch of it.
    while len(walls) < BUILDS or len(passes) < MIN_ROUNDS or perf_counter() - started < seconds:
        if len(walls) < BUILDS and perf_counter() - started >= len(walls) * seconds / BUILDS:
            build()
        index = None
        gc.collect()
        t0 = perf_counter()
        index = ops.call("setup", setup_once, idx_mod, first_tree, sample_days)
        setups.append((t0, perf_counter()))
        if index is None:
            raise RuntimeError("set-up failed: " + "; ".join(ops.problems))

        out = work / f"eval-{len(evaluates)}"
        gc.collect()
        t0 = perf_counter()
        result = ops.call("evaluate", evaluate_once, index, list(inputs.hashtags), out)
        evaluates.append((t0, perf_counter()))
        if result is not None:
            ops.check("evaluate output", check_evaluate(result, inputs.hashtags))
            data = csv_bytes(out)
            if len(evaluates) == 1:
                eval_out = data
            else:
                ops.check("evaluate determinism", [] if data == eval_out else ["CSV output differs between repeats"])
        shutil.rmtree(out, ignore_errors=True)

        reranks: list[tuple[float, float]] = []
        similars: list[tuple[float, float]] = []
        gc.collect()
        outputs = query_pass(ops, index, sample, reranks, similars)
        passes.append((reranks, similars))
        if first_outputs is None:
            first_outputs = outputs
            ops.check("query outputs", check_queries(index, sample, outputs))
        else:
            ops.check("query determinism", [] if outputs == first_outputs else ["query outputs differ between passes"])

    digest_input = cli_output.encode() + render_queries(sample, first_outputs) + eval_out
    return (walls, setups, evaluates, passes), rss, digest_input


def measure_traced(inputs, seed: int, work: Path, ops: Ops) -> tuple[dict, dict, bytes]:
    """Traced run: per-layer metrics, tracing overhead and the expensive checks."""
    import checks
    import socialqe.index as idx_mod
    import tracing

    # Untraced baseline for the overhead, then the same work traced.
    plain_tree, traced_tree = work / "index-plain", work / "index-traced"
    code, plain_wall, usage, cli_output = cli_build(inputs, plain_tree, work / "build-plain.log")
    if not check_build(ops, inputs, code, cli_output):
        raise RuntimeError("build failed: " + "; ".join(ops.problems))
    spans_path = work / "spans-build.json"
    code, traced_wall, _, output = cli_build(inputs, traced_tree, work / "build-traced.log", spans_path)
    check_build(ops, inputs, code, output)
    ops.check("traced build tree", checks.compare_trees(plain_tree, traced_tree))
    build_snap = json.loads(spans_path.read_text(encoding="utf-8"))

    sample = query_sample(inputs, seed)
    sample_days = {d for _, d in sample}

    def phases(tracer):
        ctx = tracer.phase if tracer else (lambda name: nullcontext())
        with ctx("bench.setup"):
            index = setup_once(idx_mod, plain_tree, sample_days)
        t0 = perf_counter()
        with ctx("bench.queries"):
            outputs = query_pass(ops, index, sample, [], [])
        queries_s = perf_counter() - t0
        out = work / ("eval-traced" if tracer else "eval-plain")
        with ctx("bench.evaluate"):
            result = ops.call("evaluate", evaluate_once, index, list(inputs.hashtags), out)
        return index, outputs, queries_s, result, out

    gc.collect()
    index, outputs, plain_queries_s, result, eval_dir = phases(None)
    ops.check("query outputs", check_queries(index, sample, outputs))
    if result is not None:
        ops.check("evaluate output", check_evaluate(result, inputs.hashtags))
    gc.collect()
    tracer = tracing.Tracer().install()
    try:
        _, traced_outputs, traced_queries_s, _, traced_eval_dir = phases(tracer)
    finally:
        tracer.uninstall()
    ops.check("traced query outputs", [] if traced_outputs == outputs else ["traced queries differ"])
    ops.check("traced evaluate output", [] if csv_bytes(traced_eval_dir) == csv_bytes(eval_dir) else ["traced CSVs differ"])

    # Output checks from outside.
    built, tweets, stats = checks.rebuild(inputs, seed, work / "index-rebuilt")
    ops.check("parse stats", [] if stats.skipped == inputs.injected else [f"skipped {stats.skipped}, injected {inputs.injected}"])
    ops.check("in-process rebuild", checks.compare_trees(plain_tree, work / "index-rebuilt"))
    ops.check("reload", checks.check_reload(built, plain_tree))
    rng = random.Random(f"oracle-{seed}")
    keys = sorted(built.entries, key=lambda k: (k[1], k[0]))
    ops.check("vector oracle", checks.check_vectors(built, tweets, rng.sample(keys, min(VECTOR_ORACLE_SAMPLE, len(keys)))))
    ops.check("neighbours", checks.check_neighbours(index))

    snap = tracing.merge([build_snap, tracer.snapshot()])
    values = layer_metrics(snap, usage, traced_wall / plain_wall, traced_queries_s / plain_queries_s)
    overhead = (
        f"tracing overhead: build {traced_wall - plain_wall:+.3f} s ({traced_wall:.3f} traced vs "
        f"{plain_wall:.3f} untraced); queries {traced_queries_s - plain_queries_s:+.3f} s "
        f"({traced_queries_s:.3f} vs {plain_queries_s:.3f}, {QUERIES} queries)"
    )
    tracing.write_span_file(OUT / f"spans-{inputs.workload}.tsv", snap, overhead)
    digest_input = cli_output.encode() + render_queries(sample, outputs) + csv_bytes(eval_dir)
    return values, {"overhead": overhead}, digest_input


def layer_metrics(snap: dict, usage, build_ratio: float, query_ratio: float) -> dict:
    import tracing

    spans = tracing.by_name(snap)
    counts = snap["counts"]

    def calls(name):
        return spans[name][0]

    def total(name):
        return spans[name][1]

    def ratio(a, b):
        return a / b if b else 0.0

    tokenize_calls = calls("ingest.normalize_and_tokenize")
    build_hamming = sum(c for n, p, c, _, _ in snap["spans"] if n == "signatures.hamming64" and p == "index.build_index")
    raw = {
        "ingest.parse_s": total("ingest.parse_stream"),
        "ingest.lines": counts.get("ingest.lines", 0),
        "ingest.skipped": counts.get("ingest.skipped", 0),
        "ingest.tokenize_calls": tokenize_calls,
        "ingest.tokenize_s": total("ingest.normalize_and_tokenize"),
        "ingest.tokenize_distinct_ratio": ratio(counts.get("ingest.distinct_texts", 0), tokenize_calls),
        "ingest.word_break_calls": calls("ingest.word_break_hashtag"),
        "ingest.word_break_s": total("ingest.word_break_hashtag"),
        "votes.add_calls": calls("votes.add_elements"),
        "votes.elements_counted": counts.get("votes.elements_counted", 0),
        "votes.add_s": total("votes.add_elements"),
        "votes.finalize_calls": calls("votes.finalize"),
        "votes.records_finalized": counts.get("votes.records_finalized", 0),
        "votes.finalize_s": total("votes.finalize"),
        "votes.kept_ratio": ratio(counts.get("votes.rows_kept", 0), counts.get("votes.records_finalized", 0)),
        "signatures.build_vector_calls": calls("signatures.build_vector"),
        "signatures.build_vector_s": total("signatures.build_vector"),
        "signatures.fingerprint_calls": calls("signatures.vector_fingerprint"),
        "signatures.fingerprint_s": total("signatures.vector_fingerprint"),
        "signatures.hamming_calls": calls("signatures.hamming64"),
        "signatures.neighbour_yield": ratio(counts.get("index.neighbour_rows", 0), build_hamming),
        "index.build_s": total("index.build_index"),
        "index.build_self_s": spans["index.build_index"][2],
        "index.save_s": total("index.save_index"),
        "index.bytes_written": counts.get("index.bytes_written", 0),
        "index.files_written": counts.get("index.files_written", 0),
        "index.load_s": total("index.load_index"),
        "index.entries": counts.get("index.entries", 0),
        "index.hashtags_on_calls": calls("index.hashtags_on"),
        "index.hashtags_on_s": total("index.hashtags_on"),
        "index.links_on_calls": calls("index.links_on"),
        "index.links_on_s": total("index.links_on"),
        "retrieval.rerank_s": total("retrieval.sprf_rerank"),
        "retrieval.expand_query_s": total("retrieval.expand_query"),
        "retrieval.doc_term_vector_calls": calls("retrieval.doc_term_vector"),
        "retrieval.doc_term_vector_s": total("retrieval.doc_term_vector"),
        "retrieval.links_scored": calls("retrieval.sqe_score"),
        "strategy.match_links_calls": calls("strategy.match_links"),
        "strategy.match_links_s": total("strategy.match_links"),
        "strategy.links_scanned": counts.get("strategy.links_scanned", 0),
        "strategy.match_ratio": ratio(counts.get("strategy.links_matched", 0), counts.get("strategy.links_scanned", 0)),
        "strategy.field_tokenize_calls": calls("strategy.normalize_and_tokenize"),
        "strategy.global_expansions_s": total("strategy.global_expansions"),
        "strategy.csv_write_s": total("strategy.write_comparison_csvs"),
        "cli.build_cpu_s": usage.ru_utime + usage.ru_stime,
        "trace.build_overhead_ratio": build_ratio,
        "trace.query_overhead_ratio": query_ratio,
    }
    return {name: (value, 1) for name, value in raw.items()}


# --- entry point ---


def run(workload: str, seed: int, seconds: float, trace: bool, size: float = 1.0) -> dict:
    """One benchmark run; returns the result record (the last printed line is its summary)."""
    import workloads

    env = environment(seed)
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    try:
        gen_argv = [str(ROOT / "bench" / "workloads.py"), workload, str(seed), str(work / "inputs"), repr(size)]
        code, _, _, output = run_child(gen_argv, work / "generate.log")
        if code != 0:
            raise RuntimeError(f"input generation failed: {output.strip()[-500:]}")
        inputs = workloads.load_inputs(work / "inputs" / "inputs.json")
        if trace:
            values, detail, digest_input = measure_traced(inputs, seed, work, ops)
            units = PER_LAYER
        else:
            values, detail, digest_input = measure(inputs, seed, seconds, work, ops)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    env["loadavg_after"] = os.getloadavg()
    env["host_probe_ms_after"] = host_probe_ms()
    record = {
        "workload": workload,
        "trace": int(trace),
        "environment": env,
        "ops_attempted": ops.attempted,
        "ops_failed": ops.failed,
        "problems": ops.problems,
        "digest": "sha256:" + hashlib.sha256(digest_input).hexdigest(),
        "detail": detail,
        "metrics": {name: {"value": values[name][0], "unit": units[name], "samples": values[name][1]} for name in units},
    }
    return record


def summary(record: dict) -> dict:
    return {
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in record["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tall", "wide", "long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socialqe" / "__init__.py").is_file():
        print(f"error: no socialqe sources under {SRC.name}/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so the child is stopped and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["environment"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"env git_rev={env['git_rev']} python={env['python']} nproc={env['nproc']} "
        f"loadavg_before={','.join(f'{x:.2f}' for x in env['loadavg_before'])} "
        f"loadavg_after={','.join(f'{x:.2f}' for x in env['loadavg_after'])} "
        f"host_probe_ms={env['host_probe_ms_before']:.2f},{env['host_probe_ms_after']:.2f}"
    )
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    if "overhead" in record["detail"]:
        print(record["detail"]["overhead"])
    print(f"ops_attempted={record['ops_attempted']} ops_failed={record['ops_failed']}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"digest={record['digest']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
