import json
import os
import random
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest

import socialqe
import socialqe.index
import socialqe.ingest
from socialqe.index import build_index
from socialqe.ingest import (
    CanonicalUrl,
    TweetRecord,
    canonicalize_url,
    parse_metadata,
    parse_stream,
)
from socialqe.scenarios import get_scenario
from socialqe.signatures import hamming64
from socialqe.synth import iter_tweet_objects, scenario_metadata


def make_tweet(
    account_id,
    day="2017-01-15",
    text="",
    hashtags=(),
    urls=(),
    is_retweet=False,
):
    """Hand-built TweetRecord with canonicalized links."""
    return TweetRecord(
        account_id=account_id,
        day=date.fromisoformat(day),
        text=text,
        hashtags=tuple(hashtags),
        links=tuple(canonicalize_url(u) for u in urls),
        is_retweet=is_retweet,
    )


def multi_day_corpus(seed=23):
    """Nine days of random posts over six tags, five links and twelve words.

    The fifth day names no tag and no link, so it counts nothing; at two or
    three workers, a forked one builds it.
    """
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(12)]
    tags = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    urls = [f"http://news.ex/{i}" for i in range(5)]
    tweets = []
    for d in range(9):
        day = (date(2017, 6, 1) + timedelta(days=d)).isoformat()
        quiet = d == 4
        for _ in range(rng.randint(20, 80)):
            tweets.append(make_tweet(
                f"a{rng.randrange(40)}", day=day,
                text=" ".join(rng.sample(words, rng.randint(2, 6))),
                hashtags=[] if quiet else rng.sample(tags, rng.randint(0, 3)),
                urls=[] if quiet else rng.sample(urls, rng.randint(0, 2)),
                is_retweet=rng.random() < 0.3))
    return tweets


def reference_term_hash(term):
    """Scalar FNV-1a 64 then the splitmix64 finalizer, one byte at a time."""
    h = 0xCBF29CE484222325
    for byte in term.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 31)


def reference_simhash64(weighted_terms):
    """The 64-step tally per term that the lane-packed simhash64 replaced."""
    tally = [0] * 64
    for term, weight in weighted_terms:
        scaled = round(weight * 1_000_000)
        if scaled == 0:
            continue
        h = reference_term_hash(term)
        for bit in range(64):
            if (h >> bit) & 1:
                tally[bit] += scaled
            else:
                tally[bit] -= scaled
    out = 0
    for bit in range(64):
        if tally[bit] > 0:
            out |= 1 << bit
    return out


def reference_neighbours(fingerprints, tag, radius):
    """The all-pairs loop that build_index and similar_hashtags once ran."""
    own = fingerprints[tag]
    found = []
    for other in sorted(fingerprints):
        if other == tag:
            continue
        distance = hamming64(own, fingerprints[other])
        if distance <= radius:
            found.append((distance, other))
    found.sort()
    return [(other, distance) for distance, other in found]


def rewrite_index_file(root, name, edit):
    """Replace the rows of the day file root/name with edit(rows).

    The file's #end footer and its row count and CRC-32 in the meta manifest
    follow, so only load's other checks (or verify's) can object to the edit.
    """
    path = root / name
    lines = path.read_text(encoding="utf-8").split("\n")
    rows = edit(lines[1:-2])
    path.write_text("\n".join([lines[0], *rows, f"#end\t{len(rows)}", ""]), encoding="utf-8")
    meta = root / "meta"
    meta_lines = meta.read_text(encoding="utf-8").split("\n")
    (at,) = [i for i, row in enumerate(meta_lines) if row.startswith(f"file.{name}=")]
    assert meta_lines[at].split("=")[1].split(" ")[0] == str(len(lines) - 3)
    meta_lines[at] = f"file.{name}={len(rows)} {zlib.crc32(path.read_bytes()):08x}"
    meta.write_text("\n".join(meta_lines), encoding="utf-8")


def tree_bytes(root):
    """{path relative to root: bytes} of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_python(*args, hash_seed=0):
    """stdout of `python ARGS` importing socialqe from src; it must exit 0, writing no stderr.

    The child runs under -X dev when this interpreter does, so its warnings count too.
    """
    done = subprocess.run(
        [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []), *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(Path(socialqe.__file__).resolve().parents[1]),
             "PYTHONHASHSEED": str(hash_seed)},
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def build_scenario_index(name, seed=7):
    spec = get_scenario(name)
    tweets = parse_stream(json.dumps(o) for o in iter_tweet_objects(spec, seed))
    metadata = parse_metadata(json.dumps(o) for o in scenario_metadata(spec))
    return spec, build_index(tweets, metadata, lexicon=frozenset(spec.lexicon))


@pytest.fixture(scope="session")
def scenario_index():
    """Factory for bundled scenario indexes, built once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_scenario_index(name)
        return cache[name]

    return get


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs a build sees, with one post, or one corpus byte, enough for a worker."""
    monkeypatch.setattr(socialqe.index, "_MIN_WORKER_POSTS", 1)
    monkeypatch.setattr(socialqe.ingest, "_MIN_WORKER_BYTES", 1)
    # A build forks only in a one-thread process, and the task of a thread
    # that an earlier test joined can outlive join() for a moment.
    deadline = time.monotonic() + 10
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.001)

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return set_cpus


@contextmanager
def counted_forks():
    """A list that gets the pid each os.fork returns in this process while the block runs."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forked.append(pid)
        return pid

    with mock.patch.object(os, "fork", counted_fork):
        yield forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
