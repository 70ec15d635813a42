"""Ranked ngram vectors and 64-bit SimHash fingerprints.

A contextual vector (for a hashtag) or signature (for a link) is the top-n
ngrams that co-occurred with the element on one day, ranked by vote weight.
Fingerprints compress a vector into 64 bits so near-duplicate vectors land
within a small Hamming distance.
"""

from __future__ import annotations

import heapq
import operator
import struct
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

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

# Vectors fingerprinted together: enough to share the hashing of each term
# length, few enough that a 1,000-tag day never holds all its work at once
# (batches of 256 raised the `wide` benchmark build's peak RSS by 0.7 MB).
_BATCH_VECTORS = 128

# term_hashes packs one term per 128-bit lane (16 bytes, little-endian) of a
# big int. A lane's 64-bit state times the 41-bit FNV prime, or times a 64-bit
# splitmix64 constant, stays below 2**128, so no lane carries into the next.
_HASH_LANE = b"\x01" + bytes(15)

# SimHash tallies all 64 bits at once in one big int of 64 lanes, 64 bits
# each: bit b of a term's hash becomes lane b's value 0 or 1, spread one hash
# byte at a time (8 lanes, 64 little-endian bytes) from this table. A lane
# holds a sum below 2**64 without carrying into the next.
_BYTE_LANES = tuple(
    b"".join((byte >> bit & 1).to_bytes(8, "little") for bit in range(8))
    for byte in range(256)
)
_LANE_LIMIT = 1 << 64
_LANE_ONES = int.from_bytes((b"\x01" + bytes(7)) * 64, "little")
# A lane's top byte, as the ASCII binary digit of its top bit.
_TOP_BIT_DIGITS = bytes(b"01"[byte >> 7] for byte in range(256))


class RankedNgram(NamedTuple):
    """One vector entry: rank is 1-based, weight rounded to 6 decimals."""

    rank: int
    ngram: str
    weight: float


def term_hashes(terms: Sequence[str]) -> list[int]:
    """term_hash of each term, hashing all terms of one UTF-8 length at once.

    FNV-1a then the splitmix64 finalizer, run lane-wise over one big int per
    length with a lane per term: each byte position costs one XOR of that
    byte column, one multiply and one mask for the whole group.
    """
    by_length: dict[int, list[int]] = {}
    for i, term in enumerate(terms):
        length = len(term) if term.isascii() else len(term.encode("utf-8"))
        by_length.setdefault(length, []).append(i)
    out = [0] * len(terms)
    for length, where in by_length.items():
        n = len(where)
        ones = int.from_bytes(_HASH_LANE * n, "little")
        mask = ones * _MASK64
        h = ones * _FNV_OFFSET
        if length:
            blob = "".join([terms[i] for i in where]).encode("utf-8")
            column = bytearray(16 * n)
            for pos in range(length):
                column[0::16] = blob[pos::length]
                h = (h ^ int.from_bytes(column, "little")) * _FNV_PRIME & mask
        # splitmix64 finalizer; FNV alone diffuses the low bits poorly. Each
        # shift's mask drops the bits it pulls in from the next lane.
        h = (h ^ h >> 30 & mask) * 0xBF58476D1CE4E5B9 & mask
        h = (h ^ h >> 27 & mask) * 0x94D049BB133111EB & mask
        h ^= h >> 31 & mask
        lanes = struct.unpack(f"<{2 * n}Q", h.to_bytes(16 * n, "little"))
        for i, value in zip(where, lanes[0::2]):
            out[i] = value
    return out


def term_hash(term: str) -> int:
    """Stable 64-bit hash of a term; fixed across runs and platforms."""
    return term_hashes([term])[0]


def _signs(hashes: list[int], scaled: list[int]) -> int:
    """SimHash bits of (term hash, scaled weight) pairs with no zero weight.

    With all weights positive and their sum S below 2**64, the set-bit sums
    P_b are tallied in lanes, and bit b is set exactly when 2*P_b > S: when
    adding 2**63 - S//2 - 1 to lane b sets its top bit. Anything else takes
    the bit-by-bit tally.
    """
    if not scaled:
        return 0
    total = sum(scaled)
    if total >= _LANE_LIMIT or min(scaled) < 0:
        return _simhash64_bitwise(list(zip(hashes, scaled)))
    spread = b"".join(
        map(_BYTE_LANES.__getitem__, struct.pack(f"<{len(hashes)}Q", *hashes))
    )
    lanes = [
        int.from_bytes(spread[i : i + 512], "little")
        for i in range(0, len(spread), 512)
    ]
    bias = (2**63 - total // 2 - 1) * _LANE_ONES
    biased = sum(map(operator.mul, lanes, scaled), bias)
    tops = biased.to_bytes(512, "little")[7::8]
    return int(tops.translate(_TOP_BIT_DIGITS)[::-1], 2)


def _simhash_batch(batch: list[Iterable[tuple[str, float]]]) -> list[int]:
    """simhash64 of each weighted-term list, with one term_hashes call for all."""
    terms: list[str] = []
    weights: list[list[int]] = []
    for weighted_terms in batch:
        scaled = []
        for term, weight in weighted_terms:
            micro = round(weight * _WEIGHT_SCALE)
            if micro:
                terms.append(term)
                scaled.append(micro)
        weights.append(scaled)
    hashes = iter(term_hashes(terms))
    return [_signs(list(islice(hashes, len(scaled))), scaled) for scaled in weights]


def simhash64(weighted_terms: Iterable[tuple[str, float]]) -> int:
    """64-bit SimHash over weighted terms.

    Each term's hash pushes its weight onto 64 bit-tallies (+w where the bit
    is set, -w where clear); the sign of each tally becomes one output bit.
    Invariant under input order and zero-weight terms. Empty input gives 0.
    """
    return _simhash_batch([weighted_terms])[0]


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


_NGRAM_WEIGHT = operator.attrgetter("ngram", "weight")


def vector_fingerprints(vectors: Iterable[Iterable[RankedNgram]]) -> list[int]:
    """vector_fingerprint of each vector, hashed _BATCH_VECTORS vectors at a time."""
    out: list[int] = []
    remaining = iter(vectors)
    while batch := [map(_NGRAM_WEIGHT, v) for v in islice(remaining, _BATCH_VECTORS)]:
        out += _simhash_batch(batch)
    return out


def vector_fingerprint(vector: Iterable[RankedNgram]) -> int:
    """SimHash fingerprint of a ranked vector's (ngram, weight) pairs."""
    return vector_fingerprints([vector])[0]
