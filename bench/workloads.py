"""Seeded input generators for the benchmark workloads.

Each generator writes a self-contained pipeline input (corpus, metadata,
lexicon, config, evaluate tag list) into a directory and returns what the
benchmark needs to check the program's outputs from outside: the number of
malformed lines injected and the counters `build-index` must print.

Generation is a pure function of (workload, seed, size): the same arguments
give byte-identical files. Counts (tweets and links per hashtag-day, lexicon
size) are fixed functions of popularity rank, and the seed only picks words,
accounts and positions, so different seeds give equally heavy inputs.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from itertools import accumulate
from pathlib import Path

from socialqe.scenarios import performance_scenario
from socialqe.synth import gen_synthetic_corpus

WORKLOADS = ("tall", "wide", "long")


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload plus the outcomes known in advance."""

    workload: str
    corpus: Path
    metadata: Path
    config: Path
    hashtags: tuple[str, ...]
    lines: int
    injected: int
    expected_cli: tuple[str, ...]
    hashtag_days: tuple[tuple[str, str], ...]  # most tweeted first


# --- shared helpers ---


def _zipf_cum(n: int, s: float) -> list[float]:
    return list(accumulate(1.0 / (r**s) for r in range(1, n + 1)))


def zipf_counts(n: int, total: int, s: float = 1.0, floor: int = 0) -> list[int]:
    """`total` items over ranks 1..n: `floor` each plus a Zipf(s) share of
    the rest, rounded by largest remainder so the counts sum to `total`."""
    weights = [1.0 / (r**s) for r in range(1, n + 1)]
    extra = max(0, total - floor * n)
    shares = [extra * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(n), key=lambda i: (counts[i] - shares[i], i))
    for i in by_remainder[: extra - sum(counts)]:
        counts[i] += 1
    return [floor + c for c in counts]


def _make_lexicon(rng: random.Random, size: int) -> list[str]:
    onsets = "b c d f g h j k l m n p r s t v w z br cr dr fl gr pl st tr".split()
    vowels = "a e i o u ai ea io ou".split()
    codas = ["", "", "n", "r", "s", "l", "t", "m"]
    words: set[str] = set()
    while len(words) < size:
        parts = [
            rng.choice(onsets) + rng.choice(vowels)
            for _ in range(rng.randint(2, 3))
        ]
        words.add("".join(parts) + rng.choice(codas))
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


def _make_tags(rng: random.Random, lexicon: list[str], count: int, words: tuple[int, int]) -> list[str]:
    tags: set[str] = set()
    out = []
    while len(out) < count:
        tag = "".join(rng.sample(lexicon, rng.randint(*words)))
        if tag not in tags:
            tags.add(tag)
            out.append(tag)
    return out


def _stamp(day: date, second: int) -> str:
    return f"{day.isoformat()}T{second // 3600:02d}:{second // 60 % 60:02d}:{second % 60:02d}Z"


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def _hashtag_days(tweets: list[dict]) -> tuple[tuple[str, str], ...]:
    """Every (hashtag, YYYY-MM-DD) in the corpus, by tweet count descending."""
    counts: dict[tuple[str, str], int] = {}
    for t in tweets:
        for h in set(t["hashtags"]):
            key = (h, t["created_at"][:10])
            counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts, key=lambda k: (-counts[k], k)))


def _expected_cli(tweets: list[dict], injected: int) -> tuple[str, ...]:
    """The four lines `build-index` prints, computed from the generated tweets."""
    days = sorted({t["created_at"][:10] for t in tweets})
    tags = {h for t in tweets for h in t["hashtags"]}
    links = {u for t in tweets for u in t["urls"]}
    return (
        f"span={days[0]}:{days[-1]}",
        f"hashtags={len(tags)}",
        f"links={len(links)}",
        f"tweets={len(tweets)} skipped={injected}",
    )


def _write_inputs(
    name: str,
    out: Path,
    tweets: list[dict],
    metadata: list[dict],
    lexicon: list[str],
    eval_tags: list[str],
) -> Inputs:
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.jsonl"
    corpus.write_text("".join(_dump(t) + "\n" for t in tweets), encoding="utf-8")
    meta_path = out / "metadata.jsonl"
    meta_path.write_text("".join(_dump(m) + "\n" for m in metadata), encoding="utf-8")
    (out / "lexicon.txt").write_text("".join(w + "\n" for w in sorted(lexicon)), encoding="utf-8")
    (out / "hashtags.txt").write_text("".join(h + "\n" for h in eval_tags), encoding="utf-8")
    config = out / "config.txt"
    config.write_text("lexicon=lexicon.txt\n", encoding="utf-8")
    return Inputs(
        workload=name,
        corpus=corpus,
        metadata=meta_path,
        config=config,
        hashtags=tuple(eval_tags),
        lines=len(tweets),
        injected=0,
        expected_cli=_expected_cli(tweets, 0),
        hashtag_days=_hashtag_days(tweets),
    )


class _Day:
    """Builds one day's tweets: originals, same-day retweets, link attachment."""

    def __init__(self, rng: random.Random, day: date, prefix: str, accounts_cum: list[float]):
        self.rng = rng
        self.day = day
        self.prefix = prefix
        self.accounts_cum = accounts_cum
        self.tweets: list[dict] = []

    def _account(self) -> str:
        a = self.rng.choices(range(len(self.accounts_cum)), cum_weights=self.accounts_cum)[0]
        return f"u{a:05d}"

    def hashtag_day(
        self,
        tag: str,
        count: int,
        retweet_share: float,
        make_text,
        links: list[str],
        co_tags: list[str],
    ):
        """`count` tweets under `tag`; link j rides on original j mod originals."""
        rng = self.rng
        originals: list[dict] = []
        for _ in range(count):
            n = len(self.tweets)
            tid = f"{self.prefix}{self.day.strftime('%m%d')}{n:06d}"
            created = _stamp(self.day, rng.randrange(86400))
            if originals and rng.random() < retweet_share:
                src = rng.choice(originals)
                self.tweets.append(
                    {
                        "created_at": created,
                        "hashtags": src["hashtags"],
                        "id": tid,
                        "is_retweet": True,
                        "retweet_of": src["id"],
                        "text": src["text"],
                        "urls": src["urls"],
                        "user_id": self._account(),
                    }
                )
                continue
            tags = [tag]
            if co_tags and rng.random() < 0.1:
                other = rng.choice(co_tags)
                if other != tag:
                    tags.append(other)
            tweet = {
                "created_at": created,
                "hashtags": tags,
                "id": tid,
                "is_retweet": False,
                "text": make_text() + " #" + tag,
                "urls": [],
                "user_id": self._account(),
            }
            originals.append(tweet)
            self.tweets.append(tweet)
        for j, url in enumerate(links):
            originals[j % len(originals)]["urls"].append(url)


# --- tall: the bundled performance corpus plus skipped lines ---


def _malformed(rng: random.Random, n: int) -> str:
    kind = n % 3
    if kind == 0:
        return '{"id": "bad%d", "text": "unterminated' % n
    obj = {
        "created_at": "2017-03-0%dT12:00:00Z" % rng.randint(1, 9),
        "hashtags": ["load%d" % rng.randrange(10)],
        "text": "stray line",
        "urls": [],
        "user_id": "stray-%d" % n,
    }
    if kind == 1:
        obj["is_retweet"] = False  # no "id"
    else:
        obj["id"] = "bad%d" % n
        obj["is_retweet"] = True  # and no "retweet_of"
    return _dump(obj)


def gen_tall(seed: int, out: Path, size: float = 1.0) -> Inputs:
    """performance-100k, with one malformed line per ~200 inserted at seeded spots.

    The injected kinds are the ones the README promises to skip: bad JSON, a
    missing id, and is_retweet without retweet_of. Deep nesting, year-0001
    timestamps and invalid UTF-8 abort a build today and are left out.
    """
    rng = random.Random(f"tall-{seed}")
    paths = gen_synthetic_corpus(performance_scenario(), seed, out)
    good = paths.corpus.read_text(encoding="utf-8").splitlines()[:: round(1 / size)]
    tweets = [json.loads(line) for line in good]
    injected = max(1, len(good) // 200)
    spots = sorted(rng.sample(range(len(good) + 1), injected))
    lines = []
    prev = 0
    for n, spot in enumerate(spots):
        lines.extend(good[prev:spot])
        lines.append(_malformed(rng, n))
        prev = spot
    lines.extend(good[prev:])
    paths.corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return Inputs(
        workload="tall",
        corpus=paths.corpus,
        metadata=paths.metadata,
        config=paths.config,
        hashtags=tuple(paths.hashtags.read_text(encoding="utf-8").split()),
        lines=len(lines),
        injected=injected,
        expected_cli=_expected_cli(tweets, injected),
        hashtag_days=_hashtag_days(tweets),
    )


# --- wide: few days, very many hashtags, a 20k-word lexicon ---


def gen_wide(seed: int, out: Path, size: float = 1.0) -> Inputs:
    """~2 days x 1,000 hashtags/day of 2-3-word compound tags, retweet-heavy.

    Hashtag popularity, accounts and vocabulary are Zipf-skewed; each hashtag
    has its own topic words; about half of the follow-up tweets retweet a
    same-day original; ~200 links/day with metadata ride on original tweets.
    """
    rng = random.Random(f"wide-{seed}")
    n_days = 2
    tags_per_day = max(10, round(1000 * size))
    lexicon = _make_lexicon(rng, max(200, round(20_000 * size)))
    pool = _make_tags(rng, lexicon, round(tags_per_day * 1.4), (2, 3))
    vocab_cum = _zipf_cum(len(lexicon), 1.05)
    accounts_cum = _zipf_cum(max(50, round(6000 * size)), 0.9)
    topics = {t: rng.sample(lexicon[:4000], 8) for t in pool}
    tweet_counts = zipf_counts(tags_per_day, round(7500 * size), floor=2)
    links_per_day = max(4, round(200 * size))
    link_counts = zipf_counts(tags_per_day, links_per_day, 0.8)

    def words(k: int) -> list[str]:
        return rng.choices(lexicon, cum_weights=vocab_cum, k=k)

    tweets: list[dict] = []
    metadata: list[dict] = []
    start = date(2018, 5, 1)
    for d in range(n_days):
        day = start + timedelta(days=d)
        day_tags = rng.sample(pool, tags_per_day)
        owners = [rank for rank, c in enumerate(link_counts) for _ in range(c)]
        day_links: dict[int, list[str]] = {}
        for j, rank in enumerate(owners):
            tag = day_tags[rank]
            slug = "-".join(rng.sample(topics[tag], 2))
            url = f"http://site{j % 17}.example.com/{day.isoformat()}/{slug}-{j}"
            day_links.setdefault(rank, []).append(url)
            topic = topics[tag]
            metadata.append(
                {
                    "description": " ".join(rng.sample(topic, 3) + words(rng.randint(10, 18))),
                    "title": " ".join(rng.sample(topic, 2) + words(rng.randint(2, 5))),
                    "url": url,
                }
            )
        day_gen = _Day(rng, day, "w", accounts_cum)
        for rank, tag in enumerate(day_tags):
            topic = topics[tag]

            def make_text(topic=topic) -> str:
                return " ".join(rng.choices(topic, k=rng.randint(2, 3)) + words(rng.randint(2, 5)))

            day_gen.hashtag_day(tag, tweet_counts[rank], 0.5, make_text, day_links.get(rank, []), day_tags)
        tweets.extend(day_gen.tweets)
    # Half the evaluate tags are the most tweeted, half are drawn from the rest.
    n_eval = max(4, round(50 * size))
    popular = list(dict.fromkeys(h for h, _ in _hashtag_days(tweets)))[: n_eval // 2]
    rest = sorted(set(pool) - set(popular))
    eval_tags = sorted(popular + rng.sample(rest, n_eval - len(popular)))
    return _write_inputs("wide", out, tweets, metadata, lexicon, eval_tags)


# --- long: many days, few recurring hashtags, drifting vocabulary ---


def gen_long(seed: int, out: Path, size: float = 1.0) -> Inputs:
    """~45 days x 30 of 40 recurring hashtags with day-drifting vocabulary.

    Each hashtag keeps a base topic and switches aspect every few days, so
    local and global expansions differ. ~50 links/day carry metadata with a
    20-40-word description; the lexicon is small (~5k words).
    """
    rng = random.Random(f"long-{seed}")
    n_days = max(3, round(45 * size))
    lexicon = _make_lexicon(rng, max(200, round(5000 * size)))
    pool = _make_tags(rng, lexicon, 40, (1, 2))
    vocab_cum = _zipf_cum(len(lexicon), 1.05)
    accounts_cum = _zipf_cum(max(50, round(3000 * size)), 0.9)
    base = {t: rng.sample(lexicon[:1500], 5) for t in pool}
    aspects = {t: [rng.sample(lexicon[:3000], 4) for _ in range(n_days // 3 + 1)] for t in pool}
    tweet_counts = zipf_counts(30, round(580 * size), floor=3)
    links_per_day = max(4, round(50 * size))
    link_counts = zipf_counts(30, links_per_day, 0.7)

    def words(k: int) -> list[str]:
        return rng.choices(lexicon, cum_weights=vocab_cum, k=k)

    tweets: list[dict] = []
    metadata: list[dict] = []
    start = date(2018, 1, 1)
    for d in range(n_days):
        day = start + timedelta(days=d)
        day_tags = rng.sample(pool, 30)
        owners = [rank for rank, c in enumerate(link_counts) for _ in range(c)]
        day_links: dict[int, list[str]] = {}
        for j, rank in enumerate(owners):
            tag = day_tags[rank]
            aspect = aspects[tag][d // 3]
            url = f"http://news{j % 7}.example.org/{day.isoformat()}/{'-'.join(rng.sample(aspect, 2))}-{j}"
            day_links.setdefault(rank, []).append(url)
            metadata.append(
                {
                    "description": " ".join(
                        rng.sample(aspect, 2) + rng.sample(base[tag], 2) + words(rng.randint(16, 36))
                    ),
                    "title": " ".join(rng.sample(aspect, 2) + words(rng.randint(3, 8))),
                    "url": url,
                }
            )
        day_gen = _Day(rng, day, "l", accounts_cum)
        for rank, tag in enumerate(day_tags):
            aspect = aspects[tag][d // 3]
            topic = base[tag] + aspect

            def make_text(topic=topic) -> str:
                return " ".join(rng.choices(topic, k=rng.randint(2, 3)) + words(rng.randint(1, 4)))

            day_gen.hashtag_day(tag, tweet_counts[rank], 0.3, make_text, day_links.get(rank, []), day_tags)
        tweets.extend(day_gen.tweets)
    eval_tags = sorted(rng.sample(pool, max(4, round(10 * size))))
    return _write_inputs("long", out, tweets, metadata, lexicon, eval_tags)


GENERATORS = {"tall": gen_tall, "wide": gen_wide, "long": gen_long}


def generate(workload: str, seed: int, out: Path, size: float = 1.0) -> Inputs:
    """Write the inputs of `workload` for `seed` into `out`; `size` < 1 shrinks them."""
    return GENERATORS[workload](seed, Path(out), size)


def save_inputs(inputs: Inputs, path: Path):
    path.write_text(json.dumps(asdict(inputs), default=str), encoding="utf-8")


def load_inputs(path: Path) -> Inputs:
    raw = json.loads(path.read_text(encoding="utf-8"))
    for key in ("corpus", "metadata", "config"):
        raw[key] = Path(raw[key])
    for key in ("hashtags", "expected_cli"):
        raw[key] = tuple(raw[key])
    raw["hashtag_days"] = tuple(tuple(hd) for hd in raw["hashtag_days"])
    return Inputs(**raw)


if __name__ == "__main__":
    # PYTHONPATH=src python3 bench/workloads.py WORKLOAD SEED OUT_DIR [SIZE]
    # also writes OUT_DIR/inputs.json. The benchmark generates in a child
    # process: a spawned child starts with its parent's peak RSS as its own
    # ru_maxrss, so the parent must stay smaller than the builds it measures.
    _out = Path(sys.argv[3])
    save_inputs(generate(sys.argv[1], int(sys.argv[2]), _out, float(sys.argv[4]) if len(sys.argv) > 4 else 1.0), _out / "inputs.json")
