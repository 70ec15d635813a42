import json
from datetime import date, datetime, timezone

import pytest

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
    tweet_id,
    account_id,
    day="2017-01-15",
    time="12:00:00",
    text="",
    hashtags=(),
    urls=(),
    is_retweet=False,
    retweet_of=None,
):
    """Hand-built TweetRecord with canonicalized links."""
    ts = datetime.fromisoformat(f"{day}T{time}+00:00").astimezone(timezone.utc)
    return TweetRecord(
        tweet_id=tweet_id,
        account_id=account_id,
        timestamp=ts,
        text=text,
        hashtags=tuple(hashtags),
        links=tuple(canonicalize_url(u) for u in urls),
        is_retweet=is_retweet,
        retweet_of=retweet_of,
    )


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
