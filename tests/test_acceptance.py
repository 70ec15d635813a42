"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Run with -s (or read captured stdout) to see the per-criterion lines; the
timed criteria assert their own wall-clock budgets.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path

import pytest

import socialqe
from conftest import make_tweet
from socialqe.cli import main
from socialqe.config import EngineParams
from socialqe.index import build_index, load_index, save_index, similar_hashtags
from socialqe.ingest import parse_metadata, parse_stream
from socialqe.retrieval import sim
from socialqe.scenarios import get_scenario
from socialqe.signatures import hamming64, simhash64
from socialqe.strategy import (
    BOTH_HIGH,
    BOTH_LOW,
    GLOBAL_ONLY_HIGH,
    LOCAL_ONLY_HIGH,
    classify_behavior,
    global_expansions,
    local_expansions,
    run_comparison,
)
from socialqe.synth import iter_tweet_objects, scenario_metadata
from socialqe.votes import NGRAM, DailyAggregate, VoteRecord, element_weight
from test_index import tree_digest
from test_votes import answers, as_tuples, counted, merged, oracle_counts, random_day_tweets

DAY = date(2017, 1, 15)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def scenario_corpus(name, seed=7):
    spec = get_scenario(name)
    tweets = list(parse_stream(json.dumps(o) for o in iter_tweet_objects(spec, seed)))
    meta = parse_metadata(json.dumps(o) for o in scenario_metadata(spec))
    return spec, tweets, meta


def test_c01_vote_dedupe_exactness():
    with criterion(1, "vote dedupe matches brute-force recount on 500 streams"):
        rng = random.Random(101)
        started = time.perf_counter()
        for stream_n in range(500):
            if stream_n < 490:
                n_tweets = rng.randint(10, 220)
            elif stream_n < 498:
                n_tweets = rng.randint(800, 2000)
            else:
                n_tweets = rng.randint(4000, 5000)
            n_accounts = rng.randint(1, 200)
            tweets = random_day_tweets(rng, n_tweets, n_accounts)
            agg = DailyAggregate(DAY)
            for t in tweets:
                agg.accumulate(t, stopwords=frozenset())
            want = oracle_counts(tweets)
            assert as_tuples(agg.finalize()) == want
            # the build's own hashtag and link rows, counted by its tallies
            built = build_index(tweets, stopwords=frozenset()).day_records.get(DAY, {})
            assert as_tuples(built) == {k: v for k, v in want.items() if k[0] != NGRAM}
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c02_merge_monoid():
    with criterion(2, "shard/merge equals single pass on 100 partitions"):
        rng = random.Random(202)
        tweets = random_day_tweets(rng, 500, 80)
        oracle = DailyAggregate(DAY)
        for t in tweets:
            oracle.accumulate(t, stopwords=frozenset())
        want = {k: v for k, v in as_tuples(oracle.finalize()).items() if k.kind != NGRAM}
        whole = counted(tweets)  # the build's own day pass
        assert as_tuples({k: t.record() for k, t in whole.items()}) == want
        want_answers = answers(whole)
        base = build_index(tweets, stopwords=frozenset())
        assert as_tuples(base.day_records[DAY]) == want
        started = time.perf_counter()
        for _ in range(100):
            order = tweets[:]
            rng.shuffle(order)
            n_shards = rng.randint(2, 6)
            shards = [counted(order[i::n_shards]) for i in range(n_shards)]
            rng.shuffle(shards)
            assert answers(merged(shards)) == want_answers
            built = build_index(order, stopwords=frozenset())
            assert built.day_records == base.day_records
            assert built.entries == base.entries
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _random_counts(rng):
    tv = rng.randint(2, 5000)
    rv = rng.randint(2, 5000)
    total = rng.randint(max(tv, rv), tv + rv)
    ltv = rng.randint(0, tv // 2)
    lrv = rng.randint(0, rv // 2)
    return tv, rv, total, ltv, lrv


def _record(tv, rv, total, ltv, lrv):
    return VoteRecord(
        tweet_frequency=tv, retweet_frequency=rv, total_frequency=tv + rv,
        tweet_votes=tv, retweet_votes=rv, total_votes=total,
        link_tweet_votes=ltv, link_retweet_votes=lrv,
    )


def test_c03_weight_formula_oracle():
    with criterion(3, "element weight matches direct log evaluation"):
        assert element_weight(VoteRecord()) == 0.0
        rng = random.Random(303)
        for _ in range(1000):
            tv, rv, total, ltv, lrv = _random_counts(rng)
            want = (math.log(1 + tv * 0.8) + math.log(1 + rv * 0.2)) * 0.35 \
                 + (math.log(1 + ltv * 0.8) + math.log(1 + lrv * 0.2)) * 0.5
            assert element_weight(_record(tv, rv, total, ltv, lrv)) == pytest.approx(
                want, abs=1e-9)
        # strict monotonicity: bump exactly one vote counter, weight must rise
        for _ in range(1000):
            tv, rv, total, ltv, lrv = _random_counts(rng)
            base = element_weight(_record(tv, rv, total, ltv, lrv))
            axis = rng.randrange(4)
            if axis == 0:
                d = rng.randint(1, 100)
                bumped = _record(tv + d, rv, max(total, tv + d), ltv, lrv)
            elif axis == 1:
                d = rng.randint(1, 100)
                bumped = _record(tv, rv + d, max(total, rv + d), ltv, lrv)
            elif axis == 2:
                d = rng.randint(1, tv - ltv)
                bumped = _record(tv, rv, total, ltv + d, lrv)
            else:
                d = rng.randint(1, rv - lrv)
                bumped = _record(tv, rv, total, ltv, lrv + d)
            assert element_weight(bumped) > base


def test_c04_sim_oracle():
    with criterion(4, "sim matches nested-loop dot product"):
        rng = random.Random(404)
        vocab = ["t%d" % i for i in range(40)]
        for _ in range(1000):
            q = {t: rng.uniform(0, 3) for t in rng.sample(vocab, rng.randint(0, 10))}
            d = {t: rng.uniform(0, 3) for t in rng.sample(vocab, rng.randint(0, 10))}
            want = 0.0
            for t1, w1 in q.items():
                for t2, w2 in d.items():
                    if t1 == t2:
                        want += w1 * w2
            assert sim(q, d) == pytest.approx(want, abs=1e-9)
            assert sim(q, d) == sim(d, q)
        assert sim({"a": 1.0, "b": 2.0}, {"c": 3.0}) == 0.0
        assert sim({}, {}) == 0.0


def test_c05_rank_invariance_under_joint_scaling():
    with criterion(5, "vector order invariant under joint weight scaling"):
        for name in ("false-positive-peak", "aspect-shift",
                     "dominant-event", "single-event"):
            spec, tweets, meta = scenario_corpus(name)
            lexicon = frozenset(spec.lexicon)
            base = build_index(tweets, meta, lexicon=lexicon)
            base_orders = {
                key: tuple(e.ngram for e in entry.vector)
                for key, entry in base.entries.items()
            }
            for c in (0.5, 2.0, 10.0):
                params = EngineParams(vote_weight=0.35 * c, link_weight=0.5 * c)
                scaled = build_index(tweets, meta, params=params, lexicon=lexicon)
                assert set(scaled.entries) == set(base_orders)
                for key, entry in scaled.entries.items():
                    got = tuple(e.ngram for e in entry.vector)
                    assert got == base_orders[key], (name, key, c)


def test_c06_false_positive_peak_end_to_end(tmp_path):
    with criterion(6, "global strategy alone spikes on drifted days"):
        started = time.perf_counter()
        corpus = tmp_path / "corpus"
        index = tmp_path / "index"
        out = tmp_path / "eval"
        assert main(["synth-gen", "--scenario", "false-positive-peak",
                     "--out", str(corpus)]) == 0
        assert main(["build-index",
                     "--corpus", str(corpus / "corpus.jsonl"),
                     "--metadata", str(corpus / "metadata.jsonl"),
                     "--config", str(corpus / "config.txt"),
                     "--out", str(index)]) == 0
        tags = tmp_path / "tags.txt"
        tags.write_text((corpus / "hashtags.txt").read_text())
        assert main(["evaluate", "--index", str(index),
                     "--hashtags", str(tags), "--out", str(out)]) == 0
        elapsed = time.perf_counter() - started
        rows = {}
        lines = (out / "euro2016.csv").read_text().splitlines()[1:]
        for line in lines:
            day, local_n, global_n, category, include = line.split(",")
            rows[day] = (int(local_n), int(global_n), category, include)
        tau = EngineParams().threshold
        drift_days = [date(2016, 6, 6) + timedelta(days=i) for i in range(7)]
        for day in drift_days:
            local_n, global_n, category, include = rows[day.isoformat()]
            assert local_n == 0, day
            assert global_n >= tau, day
            assert category == GLOBAL_ONLY_HIGH
            assert include == "false"
        assert elapsed < 20.0, f"took {elapsed:.1f}s"


def test_c07_aspect_shift_local_wins(scenario_index):
    with criterion(7, "local strategy captures per-day aspects"):
        spec, idx = scenario_index("aspect-shift")
        result = run_comparison(idx, ["basketofdeplorables"])
        aspects = {date(2016, 9, 2): "alicia machado", date(2016, 9, 4): "david duke"}
        span = idx.span
        global_set = global_expansions(idx, "basketofdeplorables", span,
                                       idx.params.expansion_size)
        for day, aspect in aspects.items():
            v = result.verdicts[("basketofdeplorables", day)]
            assert v.local_count >= 2 * v.global_count, (day, v)
            local_set = local_expansions(idx, "basketofdeplorables", day,
                                         idx.params.expansion_size)
            assert aspect in local_set.ngrams, day
            assert aspect not in global_set.ngrams, day


def test_c08_single_event_strategies_agree(scenario_index):
    with criterion(8, "both strategies match equally on a single steady event"):
        spec, idx = scenario_index("single-event")
        result = run_comparison(idx, ["carriefisher"])
        assert len(result.totals) == 5
        for day, (local_total, global_total) in result.totals.items():
            assert local_total == global_total, day
        for verdict in result.verdicts.values():
            assert verdict.local_count == verdict.global_count


def test_c09_behavior_classifier_boundary():
    with criterion(9, "nine boundary cases classify exactly"):
        tau = 10
        want = {
            (9, 9): (BOTH_LOW, False),
            (9, 10): (GLOBAL_ONLY_HIGH, False),
            (9, 11): (GLOBAL_ONLY_HIGH, False),
            (10, 9): (LOCAL_ONLY_HIGH, True),
            (11, 9): (LOCAL_ONLY_HIGH, True),
            (10, 10): (BOTH_HIGH, True),
            (10, 11): (BOTH_HIGH, True),
            (11, 10): (BOTH_HIGH, True),
            (11, 11): (BOTH_HIGH, True),
        }
        for (local_n, global_n), expected in want.items():
            got = classify_behavior(local_n, global_n, tau)
            assert (got.category, got.include) == expected, (local_n, global_n)


def _mini_corpus(rng):
    days = [date(2017, 3, 1) + timedelta(days=i) for i in range(5)]
    tags = ["alpha", "beta", "gamma"]
    urls = ["http://ex.com/a", "http://ex.com/b"]
    vocab = ["w%d" % i for i in range(10)]
    tweets = []
    for i in range(rng.randint(20, 80)):
        is_rt = rng.random() < 0.3
        tweets.append(make_tweet(
            f"u{rng.randrange(12)}",
            day=rng.choice(days).isoformat(),
            text=" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6))),
            hashtags=rng.sample(tags, rng.randint(0, 2)),
            urls=rng.sample(urls, rng.randint(0, 2)),
            is_retweet=is_rt,
        ))
    return tweets


def test_c10_index_round_trip(tmp_path):
    with criterion(10, "persisted indexes reload equal and rebuild byte-identical"):
        rng = random.Random(1010)
        for case in range(50):
            tweets = _mini_corpus(rng)
            idx = build_index(tweets)
            first = tmp_path / f"{case}-a"
            save_index(idx, first)
            assert load_index(first) == idx, case
            reordered = tweets[:]
            rng.shuffle(reordered)
            second = tmp_path / f"{case}-b"
            save_index(build_index(reordered), second)
            assert tree_digest(first) == tree_digest(second), case


def test_c11_simhash_properties(scenario_index):
    with criterion(11, "simhash invariance, metric axioms, near-dup retrieval"):
        rng = random.Random(1111)
        for _ in range(500):
            terms = [("term%d" % i, rng.uniform(0, 3))
                     for i in range(rng.randint(1, 20))]
            fp = simhash64(terms)
            shuffled = terms[:]
            rng.shuffle(shuffled)
            assert simhash64(shuffled) == fp
        for _ in range(10000):
            x, y, z = (rng.getrandbits(64) for _ in range(3))
            assert hamming64(x, x) == 0
            assert hamming64(x, y) == hamming64(y, x)
            assert hamming64(x, z) <= hamming64(x, y) + hamming64(y, z)
        _, idx = scenario_index("dominant-event")
        day = date(2016, 12, 20)
        near_sw = similar_hashtags(idx, "starwars", day, max_distance=8)
        near_ro = similar_hashtags(idx, "rogueone", day, max_distance=8)
        assert "rogueone" in dict(near_sw)
        assert "starwars" in dict(near_ro)
        # the stored lists (built at params.max_distance == 8) agree
        assert dict(idx.entry("starwars", day).similar) == dict(near_sw)


# A child's ru_maxrss starts at its parent's peak (exec keeps the old address
# space's high-water mark), so the build runs under a fresh interpreter that
# prints the build's own peak in kB from os.wait4 as its last line.
_MEASURE_CHILD = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, flush=True)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_c12_build_performance_envelope(tmp_path):
    with criterion(12, "100k-tweet corpus indexes inside the time budget"):
        corpus = tmp_path / "corpus"
        assert main(["synth-gen", "--scenario", "performance-100k",
                     "--out", str(corpus)]) == 0
        with open(corpus / "corpus.jsonl", encoding="utf-8") as f:
            n_lines = sum(1 for _ in f)
        assert n_lines == 100_000
        src = str(Path(socialqe.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _MEASURE_CHILD, "-m", "socialqe.cli", "build-index",
             "--corpus", str(corpus / "corpus.jsonl"),
             "--metadata", str(corpus / "metadata.jsonl"),
             "--out", str(tmp_path / "index")],
            env=env, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - started
        assert done.returncode == 0, done.stderr
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        peak_kb = int(done.stdout.split()[-1])
        assert peak_kb < 8 * 1024 * 1024, f"peak rss {peak_kb} kB"
