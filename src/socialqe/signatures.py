"""Ranked ngram vectors and 64-bit SimHash fingerprints.

A contextual vector (for a hashtag) or signature (for a link) is the top-n
ngrams that co-occurred with the element on one day, ranked by vote weight.
Fingerprints compress a vector into 64 bits so near-duplicate vectors land
within a small Hamming distance.
"""

from __future__ import annotations

import heapq
import struct
from typing import Iterable, NamedTuple

from socialqe.votes import (
    ElementKey,
    NgramTally,
    VoteRecord,
    element_weight,
    vote_counts_weight,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Weights are scaled to integer micro-units before the bit tally so the
# fingerprint is exactly invariant under term reordering (float addition
# is not associative; int addition is).
_WEIGHT_SCALE = 1_000_000

# SimHash tallies all 64 bits at once in one big int of 64 lanes, 64 bits
# each: bit b of a term's hash becomes lane b's value 0 or 1, spread one hash
# byte at a time (8 lanes, 64 little-endian bytes) from this table. A lane
# holds a sum below 2**64 without carrying into the next.
_BYTE_LANES = tuple(
    b"".join((byte >> bit & 1).to_bytes(8, "little") for bit in range(8))
    for byte in range(256)
)
_LANE_LIMIT = 1 << 64
_LANE_SUMS = struct.Struct("<64Q")


class RankedNgram(NamedTuple):
    """One vector entry: rank is 1-based, weight rounded to 6 decimals."""

    rank: int
    ngram: str
    weight: float


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _mix64(x: int) -> int:
    # splitmix64 finalizer; FNV alone diffuses the low bits poorly.
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def term_hash(term: str) -> int:
    """Stable 64-bit hash of a term; fixed across runs and platforms."""
    return _mix64(_fnv1a64(term.encode("utf-8")))


def simhash64(weighted_terms: Iterable[tuple[str, float]]) -> int:
    """64-bit SimHash over weighted terms.

    Each term's hash pushes its weight onto 64 bit-tallies (+w where the bit
    is set, -w where clear); the sign of each tally becomes one output bit.
    Invariant under input order and zero-weight terms. Empty input gives 0.

    With P_b the summed weight of the terms whose bit b is set and S the sum
    of all weights, tally b is 2*P_b - S. Positive and negative weights sum
    into separate lane-packed ints, so every lane stays unsigned; sums too
    large for a lane take the bit-by-bit tally instead.
    """
    hashed = []
    pos = neg = pos_total = neg_total = 0
    for term, weight in weighted_terms:
        scaled = round(weight * _WEIGHT_SCALE)
        if scaled == 0:
            continue
        h = term_hash(term)
        hashed.append((h, scaled))
        lanes = int.from_bytes(
            b"".join([_BYTE_LANES[byte] for byte in h.to_bytes(8, "little")]),
            "little",
        )
        if scaled > 0:
            pos += lanes * scaled
            pos_total += scaled
        else:
            neg -= lanes * scaled
            neg_total -= scaled
    if pos_total >= _LANE_LIMIT or neg_total >= _LANE_LIMIT:
        return _simhash64_bitwise(hashed)
    total = pos_total - neg_total
    set_sums = _LANE_SUMS.unpack(pos.to_bytes(512, "little"))
    if neg:
        set_sums = [
            p - n
            for p, n in zip(set_sums, _LANE_SUMS.unpack(neg.to_bytes(512, "little")))
        ]
    out = 0
    for bit, set_sum in enumerate(set_sums):
        if 2 * set_sum > total:
            out |= 1 << bit
    return out


def _simhash64_bitwise(hashed: list[tuple[int, int]]) -> int:
    """simhash64's tally one bit at a time over (term hash, scaled weight) pairs."""
    tally = [0] * 64
    for h, scaled in hashed:
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


def hamming64(a: int, b: int) -> int:
    """Number of differing bits between two 64-bit fingerprints."""
    return ((a ^ b) & _MASK64).bit_count()


def build_vector(
    ngram_votes: dict[ElementKey, VoteRecord],
    size: int = 20,
    exclude: frozenset[str] | set[str] = frozenset(),
    tweet_weight: float = 0.8,
    retweet_weight: float = 0.2,
    vote_weight: float = 0.35,
    link_weight: float = 0.5,
) -> list[RankedNgram]:
    """Rank ngram vote records into a top-n vector.

    Sorts by descending weight; ties break on higher totalVotes, then the
    ngram string, so equal inputs always produce identical vectors. Ngrams in
    ``exclude`` (a hashtag's own surface and word-broken forms) are dropped,
    as are zero-weight ngrams. Stored weights are rounded to 6 decimals after
    ranking, which is exactly what serialization writes, so persisted vectors
    round-trip bit-exactly.
    """
    scored = []
    for key, votes in ngram_votes.items():
        if key.value in exclude:
            continue
        w = element_weight(votes, tweet_weight, retweet_weight, vote_weight, link_weight)
        if w > 0.0:
            scored.append((-w, -votes.total_votes, key.value))
    return _top(scored, size)


def tally_vector(
    tally: NgramTally,
    size: int,
    exclude: frozenset[str] | set[str],
    tweet_weight: float,
    retweet_weight: float,
    vote_weight: float,
    link_weight: float,
) -> list[RankedNgram]:
    """build_vector straight from a tally's vote counts.

    Equal to build_vector over the VoteRecords a DailyAggregate would count
    from the same posts, without making one per ngram.
    """
    scored = []
    for ngram, counts, total_votes in tally.votes():
        if ngram in exclude:
            continue
        w = vote_counts_weight(
            counts, tweet_weight, retweet_weight, vote_weight, link_weight
        )
        if w > 0.0:
            scored.append((-w, -total_votes, ngram))
    return _top(scored, size)


def _top(scored: list[tuple[float, int, str]], size: int) -> list[RankedNgram]:
    """The `size` smallest (-weight, -total_votes, ngram) keys, ranked from 1."""
    return [
        RankedNgram(rank=i + 1, ngram=ngram, weight=round(-neg_w, 6))
        for i, (neg_w, _, ngram) in enumerate(heapq.nsmallest(size, scored))
    ]


def vector_fingerprint(vector: Iterable[RankedNgram]) -> int:
    """SimHash fingerprint of a ranked vector's (ngram, weight) pairs."""
    return simhash64((entry.ngram, entry.weight) for entry in vector)
