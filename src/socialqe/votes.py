"""Account-deduplicated vote counting and element weighting.

An *element* is anything counted per UTC day: a hashtag, a canonical link, or
a word ngram. Each account contributes at most one tweet vote and one retweet
vote to an element per day, however many times it posts. Frequencies count
every occurrence; votes count distinct accounts.

The build counts with NgramTally, one per hashtag or link and day; merge()
joins the tallies of shards of a day's posts. DailyAggregate is the plain
counting reference the tests hold the tallies to.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date
from typing import Iterable, NamedTuple

from socialqe.ingest import DEFAULT_STOPWORDS, TweetRecord, normalize_and_tokenize

HASHTAG = "hashtag"
LINK = "link"
NGRAM = "ngram"

_KINDS = frozenset({HASHTAG, LINK, NGRAM})


class ElementKey(NamedTuple):
    """Identity of a counted element: kind is one of hashtag/link/ngram."""

    kind: str
    value: str


@dataclass(frozen=True, slots=True)
class VoteRecord:
    """Finalized per-day counters for one element.

    Frequencies count occurrences; votes count distinct accounts. totalVotes
    is the size of the union of tweeting and retweeting accounts, so it is
    bounded by tweet_votes + retweet_votes but not necessarily their sum.
    Link votes count accounts that posted the element together with a link.
    """

    tweet_frequency: int = 0
    retweet_frequency: int = 0
    total_frequency: int = 0
    tweet_votes: int = 0
    retweet_votes: int = 0
    total_votes: int = 0
    link_tweet_votes: int = 0
    link_retweet_votes: int = 0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"negative counter {name}")
        if self.total_frequency != self.tweet_frequency + self.retweet_frequency:
            raise ValueError("total_frequency must equal tweet + retweet frequency")
        if self.tweet_votes > self.tweet_frequency:
            raise ValueError("tweet_votes exceeds tweet_frequency")
        if self.retweet_votes > self.retweet_frequency:
            raise ValueError("retweet_votes exceeds retweet_frequency")
        if not (
            max(self.tweet_votes, self.retweet_votes)
            <= self.total_votes
            <= self.tweet_votes + self.retweet_votes
        ):
            raise ValueError("total_votes outside the union bounds")
        if self.link_tweet_votes > self.tweet_votes:
            raise ValueError("link_tweet_votes exceeds tweet_votes")
        if self.link_retweet_votes > self.retweet_votes:
            raise ValueError("link_retweet_votes exceeds retweet_votes")


def element_weight(
    votes: VoteRecord,
    tweet_weight: float = 0.8,
    retweet_weight: float = 0.2,
    vote_weight: float = 0.35,
    link_weight: float = 0.5,
) -> float:
    """Dampened importance of an element for one day.

    Tweet votes count for more than retweet votes, and votes made alongside a
    link get their own (higher) multiplier. log1p keeps zero counts at weight
    zero and compresses large ones. Strictly increasing in each vote counter
    while its multiplier is positive; exactly 0 when all four are 0.
    """
    plain = (votes.tweet_votes, votes.retweet_votes)
    linked = (votes.link_tweet_votes, votes.link_retweet_votes)
    weights = (tweet_weight, retweet_weight, vote_weight, link_weight)
    return vote_counts_weight((*plain, *linked), *weights)


def vote_counts_weight(
    votes: tuple[int, int, int, int],
    tweet_weight: float,
    retweet_weight: float,
    vote_weight: float,
    link_weight: float,
) -> float:
    """element_weight of (tweet, retweet, link tweet, link retweet) vote counts."""
    tweet_votes, retweet_votes, link_tweet_votes, link_retweet_votes = votes
    plain = math.log1p(tweet_votes * tweet_weight) + math.log1p(
        retweet_votes * retweet_weight
    )
    linked = math.log1p(link_tweet_votes * tweet_weight) + math.log1p(
        link_retweet_votes * retweet_weight
    )
    return plain * vote_weight + linked * link_weight


def extract_ngrams(tokens: list[str], max_len: int = 4) -> list[str]:
    """Contiguous space-joined ngrams in length-major order.

    All 1-grams first in text order, then 2-grams, and so on up to max_len.
    ["free", "speech"] gives ["free", "speech", "free speech"].
    """
    if max_len < 1:
        return []
    out = list(tokens)
    # A size-gram is a (size - 1)-gram joined to the token after it.
    grams = out
    for size in range(2, min(max_len, len(tokens)) + 1):
        grams = [f"{head} {tail}" for head, tail in zip(grams, tokens[size - 1 :])]
        out += grams
    return out


class _ElementState:
    """Mutable per-element accumulator; exact account sets, no approximation."""

    __slots__ = (
        "tweet_frequency",
        "retweet_frequency",
        "tweet_accounts",
        "retweet_accounts",
        "link_tweet_accounts",
        "link_retweet_accounts",
    )

    def __init__(self):
        self.tweet_frequency = 0
        self.retweet_frequency = 0
        self.tweet_accounts: set[str] = set()
        self.retweet_accounts: set[str] = set()
        self.link_tweet_accounts: set[str] = set()
        self.link_retweet_accounts: set[str] = set()

    def add(self, account_id: str, is_retweet: bool, has_link: bool):
        if is_retweet:
            self.retweet_frequency += 1
            self.retweet_accounts.add(account_id)
            if has_link:
                self.link_retweet_accounts.add(account_id)
        else:
            self.tweet_frequency += 1
            self.tweet_accounts.add(account_id)
            if has_link:
                self.link_tweet_accounts.add(account_id)

    def finalize(self) -> VoteRecord:
        tf = self.tweet_frequency
        rf = self.retweet_frequency
        return VoteRecord(
            tweet_frequency=tf,
            retweet_frequency=rf,
            total_frequency=tf + rf,
            tweet_votes=len(self.tweet_accounts),
            retweet_votes=len(self.retweet_accounts),
            total_votes=len(self.tweet_accounts | self.retweet_accounts),
            link_tweet_votes=len(self.link_tweet_accounts),
            link_retweet_votes=len(self.link_retweet_accounts),
        )


class DailyAggregate:
    """Vote accumulator for a single UTC day.

    accumulate() takes whole tweets and counts their hashtags, links and text
    ngrams; add_elements() counts an explicit element set for one post.
    build_index counts with NgramTally; this is the counting reference the
    tests hold it to.
    """

    __slots__ = ("day", "_elements")

    def __init__(self, day: date):
        self.day = day
        self._elements: dict[ElementKey, _ElementState] = {}

    def __len__(self) -> int:
        return len(self._elements)

    def _state(self, key: ElementKey) -> _ElementState:
        state = self._elements.get(key)
        if state is None:
            state = _ElementState()
            self._elements[key] = state
        return state

    def add_elements(
        self,
        keys: Iterable[ElementKey],
        account_id: str,
        is_retweet: bool,
        has_link: bool,
    ):
        """Count one post's elements.

        A key repeated within one post bumps its frequency once per
        occurrence; the vote side is naturally idempotent (account sets).
        """
        for key in keys:
            if key.kind not in _KINDS:
                raise ValueError(f"unknown element kind {key.kind!r}")
            self._state(key).add(account_id, is_retweet, has_link)

    def accumulate(
        self,
        tweet: TweetRecord,
        stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
        max_ngram: int = 4,
    ):
        """Count a tweet's hashtags, links, and text ngrams for this day."""
        if tweet.day != self.day:
            raise ValueError(f"tweet dated {tweet.day} fed to aggregate {self.day}")
        keys = [ElementKey(HASHTAG, h) for h in tweet.hashtags]
        keys.extend(ElementKey(LINK, u.full) for u in tweet.links)
        tokens = normalize_and_tokenize(tweet.text, stopwords)
        keys.extend(ElementKey(NGRAM, g) for g in extract_ngrams(tokens, max_ngram))
        self.add_elements(keys, tweet.account_id, tweet.is_retweet, bool(tweet.links))

    def finalize(self) -> dict[ElementKey, VoteRecord]:
        """Snapshot current counts as immutable VoteRecords."""
        return {key: state.finalize() for key, state in self._elements.items()}


class NgramTally:
    """A hashtag or a link on one day: its own counters and its posts' ngram votes.

    Each add() is one occurrence of the element: it bumps the element's tweet
    or retweet frequency, and files the post's ngrams under (account,
    is_retweet), and under the same key of the linked posts when the post
    carried a link. Until a post without a link comes, the linked posts are
    all the posts, and the posted sets serve for both. record() reads the
    element's own counters from those keys; classes() reads each ngram's
    votes as the number of sets holding it. Either way an account votes at
    most once per role, exactly as DailyAggregate's account sets count.
    """

    __slots__ = ("frequencies", "_posted", "_linked")

    def __init__(self):
        self.frequencies = [0, 0]  # tweet, retweet
        self._posted: defaultdict[tuple[str, bool], set[str]] = defaultdict(set)
        # None while every post carried a link: the linked sets are the posted ones.
        self._linked: defaultdict[tuple[str, bool], set[str]] | None = None

    def add(
        self, ngrams: Iterable[str], account_id: str, is_retweet: bool, has_link: bool
    ):
        """Count one occurrence and its post's ngrams; one set insertion per ngram."""
        self.frequencies[is_retweet] += 1
        key = (account_id, is_retweet)
        if has_link:
            if self._linked is not None:
                self._linked[key].update(ngrams)
        elif self._linked is None:
            # The first post without a link: every post so far carried one.
            self._linked = defaultdict(set, {k: set(v) for k, v in self._posted.items()})
        self._posted[key].update(ngrams)

    def merge(self, other: NgramTally) -> NgramTally:
        """Fold other into this tally, as if its posts were added here; returns self.

        Frequencies add and each (account, is_retweet) set becomes the union
        of both sides' sets, so merging is associative and commutative, with
        an empty tally as identity, whatever way the posts were split. No set
        of other's is stored here: either tally can take more posts after.
        """
        self.frequencies[0] += other.frequencies[0]
        self.frequencies[1] += other.frequencies[1]
        if self._linked is None and other._linked is not None:
            # other had a post without a link: as add() does on the first one.
            self._linked = defaultdict(set, {k: set(v) for k, v in self._posted.items()})
        if self._linked is not None:
            # While other._linked is None, every post of other carried a link.
            theirs = other._posted if other._linked is None else other._linked
            for key, grams in theirs.items():
                self._linked[key] |= grams
        for key, grams in other._posted.items():
            self._posted[key] |= grams
        return self

    def record(self) -> VoteRecord:
        """The element's own counters, as DailyAggregate.finalize() gives them."""
        (tf, rf), posted = self.frequencies, self._posted
        linked = posted if self._linked is None else self._linked
        rv = sum(is_retweet for _, is_retweet in posted)
        lrv = sum(is_retweet for _, is_retweet in linked)
        total_votes = len({account for account, _ in posted})
        return VoteRecord(tf, rf, tf + rf, len(posted) - rv, rv, total_votes,
                          len(linked) - lrv, lrv)

    def classes(self) -> dict[tuple[int, int, int, int, int], list[str]]:
        """The ngrams grouped by vote-count class.

        A class is (tweet, retweet, link tweet, link retweet votes, total
        votes); each ngram is listed once, under its own class, in no set order.
        """
        posted = self._posted
        tweet, retweet, both = Counter(), Counter(), Counter()
        for (account, is_retweet), grams in posted.items():
            if not is_retweet:
                tweet.update(grams)
                continue
            retweet.update(grams)
            tweeted = posted.get((account, False))
            if tweeted is not None:
                both.update(grams & tweeted)
        if self._linked is None:
            link_tweet, link_retweet = tweet, retweet
        else:
            link_tweet, link_retweet = Counter(), Counter()
            for (_, is_retweet), grams in self._linked.items():
                (link_retweet if is_retweet else link_tweet).update(grams)
        groups: defaultdict[tuple[int, int, int, int, int], list[str]] = defaultdict(list)
        t, r, b = tweet.get, retweet.get, both.get
        lt, lr = link_tweet.get, link_retweet.get
        for ngram in tweet.keys() | retweet.keys():
            tv, rv = t(ngram, 0), r(ngram, 0)
            groups[(tv, rv, lt(ngram, 0), lr(ngram, 0), tv + rv - b(ngram, 0))].append(ngram)
        return groups
