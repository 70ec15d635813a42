import hashlib
import random

import pytest

from conftest import reference_simhash64, reference_term_hash
from socialqe.signatures import (
    RankedNgram,
    build_vector,
    hamming64,
    simhash64,
    term_hash,
    term_hashes,
    vector_fingerprint,
    vector_fingerprints,
)
from socialqe.votes import NGRAM, ElementKey, VoteRecord


def nv(value, tweet_votes, link_tweet_votes=0):
    key = ElementKey(NGRAM, value)
    return key, VoteRecord(
        tweet_frequency=tweet_votes,
        total_frequency=tweet_votes,
        tweet_votes=tweet_votes,
        total_votes=tweet_votes,
        link_tweet_votes=link_tweet_votes,
    )


class TestTermHash:
    def test_stable_across_runs(self):
        # frozen values: the on-disk fingerprint format depends on these
        pinned = {
            "": 0xF52A15E9A9B5E89B,
            "free": 0x4D5C25D195E613FB,
            "café": 0xE0C13FFC340B758F,
            "free speech": 0xAEA839C210F867DF,
            "🔥": 0xFE6D6451D5B6DCA1,
        }
        for term, value in pinned.items():
            assert term_hash(term) == value
            assert reference_term_hash(term) == value

    def test_unicode_distinct(self):
        assert term_hash("cafe") != term_hash("café")

    def test_batch_matches_scalar(self):
        # 0 to 48 bytes long, several terms per length, in mixed order
        rng = random.Random(11)
        terms = ["".join(rng.choice("ab é中🔥") for _ in range(rng.randint(0, 12)))
                 for _ in range(400)]
        assert term_hashes(terms) == [reference_term_hash(t) for t in terms]
        assert term_hashes([]) == []


class TestSimhash:
    def test_empty_is_zero(self):
        assert simhash64([]) == 0

    def test_zero_weight_terms_ignored(self):
        base = simhash64([("a", 1.0), ("b", 2.0)])
        assert simhash64([("a", 1.0), ("zzz", 0.0), ("b", 2.0)]) == base

    def test_tiny_weight_below_scale_ignored(self):
        base = simhash64([("a", 1.0)])
        assert simhash64([("a", 1.0), ("b", 4e-7)]) == base

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_sums_past_a_lane_exact(self, count):
        # A 64-bit lane holds 2**64 - 1: one term of 2**63 fits, two or more
        # overflow and take the bit-by-bit tally.
        big = 2**63 / 1_000_000
        terms = [("t%d" % i, big) for i in range(count)] + [("small", 1.0), ("neg", -big)]
        assert simhash64(terms) == reference_simhash64(terms)

    def test_order_invariant_exactly(self):
        rng = random.Random(17)
        for _ in range(300):
            terms = [
                ("term%d" % i, rng.uniform(0.0, 3.0))
                for i in range(rng.randint(1, 15))
            ]
            fp = simhash64(terms)
            shuffled = terms[:]
            rng.shuffle(shuffled)
            assert simhash64(shuffled) == fp

    def test_similar_inputs_land_close(self):
        common = [("shared%d" % i, 2.0) for i in range(12)]
        a = simhash64(common + [("only-a", 0.3)])
        b = simhash64(common + [("only-b", 0.3)])
        assert hamming64(a, b) <= 8

    def test_disjoint_inputs_land_far(self):
        a = simhash64([("alpha%d" % i, 1.0) for i in range(10)])
        b = simhash64([("beta%d" % i, 1.0) for i in range(10)])
        assert hamming64(a, b) > 8


class TestHamming:
    def test_identity_symmetry_triangle(self):
        rng = random.Random(4)
        for _ in range(2000):
            x, y, z = (rng.getrandbits(64) for _ in range(3))
            assert hamming64(x, x) == 0
            assert hamming64(x, y) == hamming64(y, x)
            assert hamming64(x, z) <= hamming64(x, y) + hamming64(y, z)

    def test_known_distance(self):
        assert hamming64(0, 0b1011) == 3
        assert hamming64(2**64 - 1, 0) == 64


class TestBuildVector:
    def test_orders_by_weight_desc(self):
        votes = dict([nv("rare", 2), nv("hot", 50), nv("mid", 10)])
        vec = build_vector(votes)
        assert [e.ngram for e in vec] == ["hot", "mid", "rare"]
        assert [e.rank for e in vec] == [1, 2, 3]
        assert vec[0].weight > vec[1].weight > vec[2].weight

    def test_link_votes_break_equal_plain_votes(self):
        votes = dict([nv("plain", 10), nv("linked", 10, link_tweet_votes=10)])
        vec = build_vector(votes)
        assert vec[0].ngram == "linked"

    def test_tie_breaks_on_total_votes_then_ngram(self):
        # same weight by construction: identical counters
        votes = dict([nv("bbb", 5), nv("aaa", 5), nv("ccc", 5)])
        assert [e.ngram for e in build_vector(votes)] == ["aaa", "bbb", "ccc"]

    def test_truncates_to_size(self):
        votes = dict(nv("g%02d" % i, i + 1) for i in range(30))
        vec = build_vector(votes, size=20)
        assert len(vec) == 20
        assert vec[0].ngram == "g29"

    def test_excludes_own_forms(self):
        votes = dict([nv("londonfire", 40), nv("london fire", 40), nv("smoke", 3)])
        vec = build_vector(votes, exclude=frozenset(["londonfire", "london fire"]))
        assert [e.ngram for e in vec] == ["smoke"]

    def test_zero_weight_dropped(self):
        key = ElementKey(NGRAM, "silent")
        votes = {key: VoteRecord()}
        assert build_vector(votes) == []

    def test_weights_rounded_to_six_decimals(self):
        votes = dict([nv("x", 7)])
        (entry,) = build_vector(votes)
        assert entry.weight == round(entry.weight, 6)

    def test_empty_input(self):
        assert build_vector({}) == []


class TestVectorFingerprint:
    def test_depends_on_ngrams_not_ranks(self):
        a = [RankedNgram(1, "x", 1.5), RankedNgram(2, "y", 0.5)]
        b = [RankedNgram(7, "y", 0.5), RankedNgram(9, "x", 1.5)]
        assert vector_fingerprint(a) == vector_fingerprint(b)

    def test_weight_shift_moves_fingerprint(self):
        # with one term a fingerprint is weight-independent (pure sign bits);
        # with several, swinging the dominant weight flips contested bits
        rest = [RankedNgram(i + 2, "bg%d" % i, 0.5) for i in range(6)]
        a = vector_fingerprint([RankedNgram(1, "x", 5.0)] + rest)
        b = vector_fingerprint([RankedNgram(1, "x", 0.01)] + rest)
        assert a != b

    def test_empty_vector(self):
        assert vector_fingerprint([]) == 0

    def test_batches_match_reference(self):
        # 700 vectors span six batches; weights cover zero, below the
        # micro-unit scale, negative, and lane sums past 2**64.
        rng = random.Random(5)
        weights = [0.0, 4e-7, -4e-7, -1.5, 2**63 / 1_000_000, 2**64 / 1_000_000]
        vectors = []
        for _ in range(700):
            vectors.append([
                RankedNgram(r + 1, rng.choice(["fire", "tower fire", "café", "🔥", ""]) + str(r),
                            rng.choice(weights) if rng.random() < 0.1 else rng.uniform(0, 9))
                for r in range(rng.randint(0, 22))
            ])
        want = [reference_simhash64([(e.ngram, e.weight) for e in v]) for v in vectors]
        assert vector_fingerprints(vectors) == want
        assert [vector_fingerprint(v) for v in vectors] == want
        assert vector_fingerprints([]) == []

    # Digests of every hashtag-vector and link-signature fingerprint of the
    # bundled scenarios (seed 7), recorded from the 64-step bit loop before
    # simhash64 tallied lanes; sha256 of the sorted "day kind key fp" lines.
    @pytest.mark.parametrize("name, rows, digest", [
        ("single-event", 30, "5719315ea6270bb1e2b5cd2af738c63e7413143795b0c9251c2630ce74987fca"),
        ("aspect-shift", 54, "9061317c62f5448d6f2c09669bf748a9124ad8480e79bd056a43df788a56e576"),
        ("dominant-event", 18, "338797960d5e829dfe74bd1a543ac838e678941180cbe6c83d89d3f44a4b4b0f"),
        ("false-positive-peak", 12, "fbd31c10141f767d554abeed63d53e1d5f15b6fea7616e97a6994a748a87dcd4"),
    ])
    def test_scenario_fingerprint_digest_unchanged(self, scenario_index, name, rows, digest):
        _, idx = scenario_index(name)
        lines = set()
        for (h, d), entry in idx.entries.items():
            lines.add(f"{d.isoformat()}\tcv\t{h}\t{vector_fingerprint(entry.vector):016x}")
            for assoc in entry.links:
                fp = vector_fingerprint(assoc.signature)
                lines.add(f"{d.isoformat()}\tss\t{assoc.url.full}\t{fp:016x}")
        assert len(lines) == rows
        assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == digest
