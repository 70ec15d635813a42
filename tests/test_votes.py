import math
import random
import time
from collections import defaultdict
from datetime import date

import pytest

from conftest import make_tweet
from socialqe.index import tally_day
from socialqe.ingest import Memo
from socialqe.signatures import tally_vector
from socialqe.votes import (
    HASHTAG,
    LINK,
    NGRAM,
    DailyAggregate,
    ElementKey,
    NgramTally,
    VoteRecord,
    element_weight,
    extract_ngrams,
)

DAY = date(2017, 1, 15)


def rec(**kw):
    """VoteRecord shorthand: frequencies default to matching the vote counts."""
    kw.setdefault("tweet_frequency", kw.get("tweet_votes", 0))
    kw.setdefault("retweet_frequency", kw.get("retweet_votes", 0))
    kw.setdefault("total_frequency", kw["tweet_frequency"] + kw["retweet_frequency"])
    kw.setdefault("total_votes", max(kw.get("tweet_votes", 0), kw.get("retweet_votes", 0)))
    return VoteRecord(**kw)


class TestVoteRecord:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VoteRecord(tweet_frequency=-1, total_frequency=-1)

    def test_rejects_votes_over_frequency(self):
        with pytest.raises(ValueError):
            VoteRecord(tweet_frequency=1, total_frequency=1, tweet_votes=2, total_votes=2)

    def test_rejects_total_votes_outside_union_bounds(self):
        with pytest.raises(ValueError):
            VoteRecord(tweet_frequency=3, retweet_frequency=2, total_frequency=5,
                       tweet_votes=3, retweet_votes=2, total_votes=6)
        with pytest.raises(ValueError):
            VoteRecord(tweet_frequency=3, retweet_frequency=2, total_frequency=5,
                       tweet_votes=3, retweet_votes=2, total_votes=2)

    def test_rejects_link_votes_over_votes(self):
        with pytest.raises(ValueError):
            VoteRecord(tweet_frequency=2, total_frequency=2, tweet_votes=2,
                       total_votes=2, link_tweet_votes=3)


class TestElementWeight:
    def test_all_zero_is_zero(self):
        assert element_weight(VoteRecord()) == 0.0

    def test_frozen_oracle(self):
        r = VoteRecord(tweet_frequency=100, retweet_frequency=50, total_frequency=150,
                       tweet_votes=100, retweet_votes=50, total_votes=120,
                       link_tweet_votes=40, link_retweet_votes=10)
        # (ln(1+100*0.8) + ln(1+50*0.2))*0.35 + (ln(1+40*0.8) + ln(1+10*0.2))*0.5
        assert element_weight(r) == pytest.approx(4.6748804746820785, abs=1e-12)

    def test_matches_log_formula_on_random_counts(self):
        rng = random.Random(5)
        for _ in range(500):
            tv = rng.randrange(0, 5000)
            rv = rng.randrange(0, 5000)
            total = rng.randint(max(tv, rv), tv + rv) if (tv or rv) else 0
            ltv = rng.randint(0, tv)
            lrv = rng.randint(0, rv)
            r = VoteRecord(tweet_frequency=tv, retweet_frequency=rv,
                           total_frequency=tv + rv, tweet_votes=tv, retweet_votes=rv,
                           total_votes=total, link_tweet_votes=ltv, link_retweet_votes=lrv)
            want = (math.log(1 + tv * 0.8) + math.log(1 + rv * 0.2)) * 0.35 \
                 + (math.log(1 + ltv * 0.8) + math.log(1 + lrv * 0.2)) * 0.5
            assert element_weight(r) == pytest.approx(want, abs=1e-9)

    def test_custom_multipliers(self):
        r = VoteRecord(tweet_frequency=3, total_frequency=3, tweet_votes=3, total_votes=3)
        got = element_weight(r, tweet_weight=1.0, retweet_weight=0.0,
                             vote_weight=1.0, link_weight=0.0)
        assert got == pytest.approx(math.log(4.0), abs=1e-12)

    def test_popular_element_outweighs_rare_one(self):
        # 50 distinct accounts vs 5, otherwise identical shape
        big = rec(tweet_votes=50)
        small = rec(tweet_votes=5)
        assert element_weight(big) > element_weight(small)


class TestExtractNgrams:
    def test_two_tokens(self):
        assert extract_ngrams(["free", "speech"]) == ["free", "speech", "free speech"]

    def test_empty(self):
        assert extract_ngrams([]) == []

    def test_five_tokens_count(self):
        toks = list("abcde")
        grams = extract_ngrams(toks)
        assert len(grams) == 5 + 4 + 3 + 2  # sizes 1..4
        assert grams[:5] == toks
        assert grams[-1] == "b c d e"

    def test_max_len_cap(self):
        assert extract_ngrams(["a", "b", "c"], max_len=1) == ["a", "b", "c"]

    def test_matches_window_enumeration(self):
        rng = random.Random(9)
        vocab = ["w%d" % i for i in range(6)]
        for _ in range(100):
            toks = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            want = []
            for size in range(1, 5):
                want.extend(
                    " ".join(toks[i:i + size]) for i in range(len(toks) - size + 1)
                )
            assert extract_ngrams(toks) == want


def random_day_tweets(rng, n_tweets, n_accounts):
    """Pre-tokenized synthetic stream: vocab words only, so text.split() is exact."""
    vocab = ["w%d" % i for i in range(12)]
    tags = ["tag%d" % i for i in range(6)]
    urls = ["http://ex%d.com/p%d" % (i, i) for i in range(5)]
    tweets = []
    for i in range(n_tweets):
        hashtags = rng.sample(tags, rng.randint(0, 2))
        if hashtags and rng.random() < 0.15:
            hashtags.append(hashtags[0])  # duplicate tag inside one post
        links = rng.sample(urls, rng.randint(0, 2))
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 5)))
        is_rt = rng.random() < 0.4
        tweets.append(
            make_tweet(
                "a%d" % rng.randrange(n_accounts),
                text=text,
                hashtags=hashtags,
                urls=links,
                is_retweet=is_rt,
            )
        )
    return tweets


def oracle_counts(tweets):
    """Independent recount: explicit occurrence lists and account sets."""
    freq_t = defaultdict(int)
    freq_r = defaultdict(int)
    acc_t = defaultdict(set)
    acc_r = defaultdict(set)
    link_t = defaultdict(set)
    link_r = defaultdict(set)
    for t in tweets:
        occurrences = [(HASHTAG, h) for h in t.hashtags]
        occurrences += [(LINK, u.full) for u in t.links]
        toks = t.text.split()
        for size in (1, 2, 3, 4):
            for i in range(len(toks) - size + 1):
                occurrences.append((NGRAM, " ".join(toks[i:i + size])))
        has_link = len(t.links) > 0
        for key in occurrences:
            if t.is_retweet:
                freq_r[key] += 1
                acc_r[key].add(t.account_id)
                if has_link:
                    link_r[key].add(t.account_id)
            else:
                freq_t[key] += 1
                acc_t[key].add(t.account_id)
                if has_link:
                    link_t[key].add(t.account_id)
    out = {}
    for key in set(freq_t) | set(freq_r):
        out[key] = (
            freq_t[key],
            freq_r[key],
            freq_t[key] + freq_r[key],
            len(acc_t[key]),
            len(acc_r[key]),
            len(acc_t[key] | acc_r[key]),
            len(link_t[key]),
            len(link_r[key]),
        )
    return out


def as_tuples(finalized):
    return {
        key: (
            r.tweet_frequency, r.retweet_frequency, r.total_frequency,
            r.tweet_votes, r.retweet_votes, r.total_votes,
            r.link_tweet_votes, r.link_retweet_votes,
        )
        for key, r in finalized.items()
    }


class TestDailyAggregate:
    def test_one_account_three_posts_one_vote(self):
        agg = DailyAggregate(DAY)
        for i in range(3):
            agg.accumulate(make_tweet("acct", text="big goal"),
                           stopwords=frozenset())
        r = agg.finalize()[ElementKey(NGRAM, "big goal")]
        assert r.tweet_frequency == 3
        assert r.tweet_votes == 1
        assert r.total_votes == 1

    def test_tweet_and_retweet_same_account_union(self):
        agg = DailyAggregate(DAY)
        agg.accumulate(make_tweet("acct", hashtags=["x"]))
        agg.accumulate(make_tweet("acct", hashtags=["x"], is_retweet=True))
        r = agg.finalize()[ElementKey(HASHTAG, "x")]
        assert (r.tweet_votes, r.retweet_votes, r.total_votes) == (1, 1, 1)

    def test_link_votes_require_link_in_post(self):
        agg = DailyAggregate(DAY)
        agg.accumulate(make_tweet("a1", hashtags=["x"], urls=["http://ex.com/a"]))
        agg.accumulate(make_tweet("a2", hashtags=["x"]))
        r = agg.finalize()[ElementKey(HASHTAG, "x")]
        assert (r.tweet_votes, r.link_tweet_votes) == (2, 1)

    def test_duplicate_tag_in_one_post(self):
        agg = DailyAggregate(DAY)
        agg.accumulate(make_tweet("a1", hashtags=["x", "x"]))
        r = agg.finalize()[ElementKey(HASHTAG, "x")]
        assert (r.tweet_frequency, r.tweet_votes) == (2, 1)

    def test_wrong_day_rejected(self):
        agg = DailyAggregate(DAY)
        with pytest.raises(ValueError):
            agg.accumulate(make_tweet("a1", day="2017-01-16"))

    def test_unknown_kind_rejected(self):
        agg = DailyAggregate(DAY)
        with pytest.raises(ValueError):
            agg.add_elements([ElementKey("emoji", ":)")], "a1", False, False)

    def test_missing_key_has_no_record(self):
        agg = DailyAggregate(DAY)
        agg.accumulate(make_tweet("a1", hashtags=["x"]))
        assert ElementKey(HASHTAG, "nope") not in agg.finalize()

    def test_empty_text_tweet_counts_nothing_textual(self):
        agg = DailyAggregate(DAY)
        agg.accumulate(make_tweet("a1", text=""))
        assert len(agg) == 0

    def test_matches_oracle(self):
        rng = random.Random(21)
        tweets = random_day_tweets(rng, 400, 60)
        agg = DailyAggregate(DAY)
        for t in tweets:
            agg.accumulate(t, stopwords=frozenset())
        assert as_tuples(agg.finalize()) == oracle_counts(tweets)


def counted(tweets):
    """The build's tallies of tweets (a day, or a shard of it), by element.

    tally_day counts them, so merged shards are held to what the build counts.
    """
    day = tally_day(tweets, frozenset(), 4)
    out = {ElementKey(HASHTAG, h): tally for h, tally in day.hashtags.items()}
    out.update((ElementKey(LINK, full), tally) for full, tally in day.links.items())
    return out


def fed(posts):
    """One tally fed (ngrams, account, is_retweet, has_link) posts in order."""
    tally = NgramTally()
    for post in posts:
        tally.add(*post)
    return tally


def merged(shards):
    """The tallies of each element in shards, merged in the given order."""
    out = defaultdict(NgramTally)
    for shard in shards:
        for key, tally in shard.items():
            out[key].merge(tally)
    return out


def tally_answers(tally):
    """All a tally tells: its record, its classes (each sorted), its vector bit for bit."""
    vector = tally_vector(tally, 20, frozenset(), 0.8, 0.2, 0.35, 0.5, Memo(lambda w: w))
    return (
        tally.record(),
        {cls: sorted(grams) for cls, grams in tally.classes().items()},
        [(e.rank, e.ngram, e.weight.hex()) for e in vector],
    )


def answers(by_key):
    return {key: tally_answers(tally) for key, tally in by_key.items()}


class TestMerge:
    def test_empty_is_identity(self):
        tweets = random_day_tweets(random.Random(2), 50, 10)
        want = answers(counted(tweets))
        right = counted(tweets)
        for tally in right.values():
            assert tally.merge(NgramTally()) is tally
        assert answers(right) == want
        assert answers(merged([counted(tweets)])) == want  # merged into empty tallies

    def test_partitioned_equals_single_pass(self):
        rng = random.Random(8)
        tweets = random_day_tweets(rng, 300, 40)
        shards = [counted(tweets[i::4]) for i in range(4)]
        assert answers(merged(rng.sample(shards, 4))) == answers(counted(tweets))

    def test_merge_does_not_alias_source_sets(self):
        posts = [(frozenset({"x"}), "u1", False, True), (frozenset({"z"}), "u2", False, False)]
        a, b = NgramTally(), fed(posts)
        before = tally_answers(b)
        a.merge(b)
        # u1 has a posted and a linked set in a now; neither may be b's.
        extra = (frozenset({"z"}), "u1", False, True)
        a.add(*extra)
        assert tally_answers(b) == before
        assert tally_answers(a) == tally_answers(fed([*posts, extra]))


def flattened(tally: NgramTally) -> list[tuple[str, tuple[int, int, int, int], int]]:
    """(ngram, (tweet, retweet, link tweet, link retweet) votes, total votes) per ngram."""
    return [(g, cls[:4], cls[4]) for cls, grams in tally.classes().items() for g in grams]


class TestNgramTally:
    def test_votes_per_role_deduplicated(self):
        tally = NgramTally()
        tally.add(frozenset({"a", "b"}), "u1", False, True)
        tally.add(frozenset({"a"}), "u1", False, False)
        tally.add(frozenset({"a"}), "u1", True, False)
        tally.add(frozenset({"b"}), "u2", True, True)
        got = {g: (counts, total) for g, counts, total in flattened(tally)}
        assert got == {"a": ((1, 1, 1, 0), 1), "b": ((1, 1, 1, 1), 2)}

    def test_record_counts_the_element_itself(self):
        tally = NgramTally()
        tally.add(frozenset(), "u1", False, True)
        tally.add(frozenset(), "u1", False, True)  # the element twice in one post
        tally.add(frozenset({"a"}), "u1", True, False)
        tally.add(frozenset(), "u2", True, True)
        assert tally.record() == VoteRecord(
            tweet_frequency=2, retweet_frequency=2, total_frequency=4,
            tweet_votes=1, retweet_votes=2, total_votes=2,
            link_tweet_votes=1, link_retweet_votes=1,
        )
        assert NgramTally().record() == VoteRecord()

    def test_many_distinct_posts_by_one_account_cost_linear_time(self):
        # One account posting m distinct texts of g ngrams must cost about
        # g*m set insertions; re-copying its whole set on each post costs
        # g*m*m/2 (about 6e7 here, seconds rather than milliseconds).
        tally = NgramTally()
        posts = [frozenset(f"w{i}_{j}" for j in range(30)) for i in range(2000)]
        started = time.perf_counter()
        for grams in posts:
            tally.add(grams, "bot", False, True)
        votes = flattened(tally)
        elapsed = time.perf_counter() - started
        assert len(votes) == 60_000
        assert all(counts == (1, 0, 1, 0) and total == 1 for _, counts, total in votes)
        assert elapsed < 2.0, f"took {elapsed:.2f}s"
