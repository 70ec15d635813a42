import json
import os
import random
import re
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


def signed_meta(meta, files=()):
    """meta's bytes with each (name, data) of files listed at data's row count and
    CRC-32, and its last row, crc=, recomputed over the rows before it.

    Bytes that no longer hold a crc= row followed by a line keep the crc they have.
    """
    for name, data in files:
        row = b"file.%s=%d %08x" % (name.encode(), data.count(b"\n") - 2, zlib.crc32(data))
        meta = re.sub(rb"(?m)^file\." + re.escape(name.encode()) + rb"=.*$", lambda _: row, meta)
    head, at = meta.find(b"\n") + 1, meta.rfind(b"\ncrc=") + 1
    end = meta.find(b"\n", at)
    if at and end > 0:
        meta = meta[:at] + b"crc=%08x" % zlib.crc32(meta[head:at]) + meta[end:]
    return meta


def relist(root, name):
    """List the file root/name in meta as it now is, and re-sign meta (name may be meta)."""
    meta = root / "meta"
    files = [] if name == "meta" else [(name, (root / name).read_bytes())]
    meta.write_bytes(signed_meta(meta.read_bytes(), files))


def rewrite_index_file(root, name, edit):
    """Replace the rows of the file root/name with edit(rows).

    The file's #end footer follows, and so do its row count and CRC-32 in the
    meta manifest and meta's own crc= row, so only load's other checks (or
    verify's) can object to the edit. meta's rows are passed without that
    last row.
    """
    path = root / name
    header, *rows, footer, end = path.read_text(encoding="utf-8").split("\n")
    if name == "meta":
        *rows, crc = rows
        rows = [*edit(rows), crc]
    else:
        rows = edit(rows)
    path.write_text("\n".join([header, *rows, f"#end\t{len(rows)}", end]), encoding="utf-8")
    relist(root, name)


def day_rows_of(rows, *kinds):
    """Indexes of the day-file rows whose first field is one of kinds."""
    return [i for i, row in enumerate(rows) if row.split("\t")[0] in kinds]


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
