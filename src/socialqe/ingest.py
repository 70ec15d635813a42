"""Tweet stream ingestion: parsing, normalization, tokenization, URL and hashtag handling.

Input corpora are UTF-8 line-delimited JSON, one record per line with fields
``id``, ``user_id``, ``created_at`` (ISO-8601, the forms of _TIMESTAMP_RE),
``text``, ``is_retweet``, ``retweet_of`` (required iff is_retweet), ``urls``
and ``hashtags``. Lines may be given as ``str`` or as raw ``bytes`` (a file
opened in binary mode); bytes are decoded one line at a time, so one bad line
never costs the rest.
Everything in this module is pure given its configuration and safe to call
from multiple threads; a stream parser instance is single-consumer.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

# Small general-purpose English list plus the usual Twitter debris (rt, via, amp).
DEFAULT_STOPWORDS = frozenset("""
    a about after again all also am an and any are as at be because been before
    being but by can could did do does doing down for from had has have having
    he her here hers him his how i if in into is it its itself just me more
    most my no nor not of off on once only or other our ours out over own she
    so some such than that the their theirs them then there these they this
    those through to too under until up very was we were what when where which
    while who whom why will with you your yours
    i'm i've i'll it's he's she's that's there's they're we're you're don't
    doesn't didn't isn't aren't wasn't weren't can't won't couldn't shouldn't
    wouldn't
    s t m d ll re ve o y u
    rt via amp
""".split())

# Query parameters stripped during URL canonicalization: these exact names,
# and every name that starts with the prefix.
_TRACKING_PARAMS = frozenset({"fbclid", "gclid"})
_TRACKING_PREFIX = "utm_"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
# Letters/digits only; intra-word apostrophes and hyphens survive, everything
# else separates tokens (underscore included).
_WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")
# File names segment on anything non-alphabetic: digits and punctuation are
# separators, and pure-digit chunks (article ids) vanish outright.
_FILE_WORD_RE = re.compile(r"[^\W\d_]+")
# JSON may escape an unpaired UTF-16 surrogate ("\ud800"); the decoded str
# then holds a code point UTF-8 cannot encode. Escaped pairs decode to one
# astral character and never match.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# The created_at forms read: a subset of what datetime.fromisoformat reads on
# every supported Python (3.11 on reads more, such as 20170115T120000Z):
#   YYYY-MM-DD[(T| )HH[:MM[:SS[.fff[fff]]]][Z|(+|-)HH:MM[:SS[.ffffff]]]]
# A time without an offset is UTC.
_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:Z|[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?"
)
# Longest hashtag kept, in characters after normalization: the tweet limit.
MAX_HASHTAG_LENGTH = 280
# Tags in tweet text are #\w+, but a `hashtags` array entry may hold any
# character. One holding a path separator (of any platform) or a control
# character (Unicode category Cc) could not name an evaluate CSV file or be
# typed as a query, so ingest drops it.
UNSAFE_HASHTAG_RE = re.compile(r"[/\\\x00-\x1f\x7f-\x9f]")


@dataclass(frozen=True, slots=True)
class CanonicalUrl:
    """A normalized absolute URL used as a link identity key.

    ``full`` is the canonical form (lowercased scheme/host, fragment stripped,
    tracking parameters removed); ``file_name`` is the last path segment, empty
    when the path ends in '/'.
    """

    full: str
    host: str
    path: str
    file_name: str


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One post from the stream. ``is_retweet`` is true iff ``retweet_of`` is set."""

    tweet_id: str
    account_id: str
    timestamp: datetime
    text: str
    hashtags: tuple[str, ...]
    links: tuple[CanonicalUrl, ...]
    is_retweet: bool = False
    retweet_of: str | None = None

    @property
    def day(self) -> date:
        ts = self.timestamp
        if ts.tzinfo is not None:
            ts = ts.astimezone(timezone.utc)
        return ts.date()


@dataclass(frozen=True, slots=True)
class LinkMetadata:
    """Crawled title/description for one canonical link. Either field may be empty."""

    url: CanonicalUrl
    title: str = ""
    description: str = ""


@dataclass(slots=True)
class ParseStats:
    """Line accounting for one stream pass: lines == parsed + skipped."""

    lines: int = 0
    parsed: int = 0
    skipped: int = 0


def canonicalize_url(raw: str) -> CanonicalUrl:
    """Normalize an absolute URL into its canonical identity.

    Lowercases scheme and host, strips the fragment, and drops the tracking
    query parameters ``utm_*``, ``fbclid`` and ``gclid``. Idempotent:
    canonicalizing a canonical URL is a no-op.

    Raises ValueError for anything that does not parse as an absolute URL
    or holds an unpaired surrogate (it could not be written as UTF-8).
    """
    raw = raw.strip()
    if _SURROGATE_RE.search(raw):
        raise ValueError(f"unpaired surrogate in URL {raw!r}")
    try:
        parts = urlsplit(raw)
    except ValueError as exc:
        raise ValueError(f"unparseable URL {raw!r}: {exc}") from None
    if not parts.scheme or not parts.netloc:
        raise ValueError(f"not an absolute URL: {raw!r}")
    pairs = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if k not in _TRACKING_PARAMS and not k.startswith(_TRACKING_PREFIX)
    ]
    query = urlencode(pairs)
    netloc = parts.netloc.lower()
    full = urlunsplit((parts.scheme.lower(), netloc, parts.path, query, ""))
    host = parts.hostname or ""
    file_name = parts.path.rsplit("/", 1)[-1]
    return CanonicalUrl(full=full, host=host, path=parts.path, file_name=file_name)


def url_from_canonical(full: str) -> CanonicalUrl:
    """Rebuild a CanonicalUrl from an already-canonical string.

    Used by the index loader: the stored string is trusted as the identity
    and not parsed or filtered again, so a round trip never rewrites it.
    """
    parts = urlsplit(full)
    return CanonicalUrl(
        full=full,
        host=parts.hostname or "",
        path=parts.path,
        file_name=parts.path.rsplit("/", 1)[-1],
    )


def normalize_and_tokenize(
    text: str, stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS
) -> list[str]:
    """Lowercase and tokenize free text, dropping URLs, @-mentions and #tags.

    Unicode is NFC-folded first; non-letter/digit codepoints separate tokens
    except intra-word apostrophes and hyphens. Stopwords are removed, order is
    preserved. Deterministic for equal input and configuration.
    """
    if not text:
        return []
    text = unicodedata.normalize("NFC", text)
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(" ", text)
    text = text.lower()
    return [t for t in _WORD_RE.findall(text) if t not in stopwords]


def file_name_tokens(
    file_name: str, stopwords: frozenset[str] | set[str]
) -> list[str]:
    """Alphabetic word runs of a file name, lowercased, stopwords dropped."""
    name = unicodedata.normalize("NFC", file_name).lower()
    return [t for t in _FILE_WORD_RE.findall(name) if t not in stopwords]


def word_break_hashtag(tag: str, lexicon: frozenset[str]) -> list[str]:
    """Segment a hashtag body into lexicon words.

    Picks the segmentation with the fewest segments, breaking ties by the
    lexicographically smallest token sequence. Falls back to the whole tag as
    a single token when no full segmentation exists (the function is total).
    """
    if not tag:
        return []
    if not lexicon:
        return [tag]
    n = len(tag)
    # best[i] = (segment count, tokens) for tag[:i]; tuple order gives the tie-break.
    best: list[tuple[int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0, ())
    for i in range(1, n + 1):
        chosen = None
        for j in range(i):
            prev = best[j]
            if prev is None:
                continue
            piece = tag[j:i]
            if piece in lexicon:
                cand = (prev[0] + 1, prev[1] + (piece,))
                if chosen is None or cand < chosen:
                    chosen = cand
        best[i] = chosen
    final = best[n]
    if final is None:
        return [tag]
    return list(final[1])


def normalize_hashtag(h: object) -> str | None:
    """A hashtag's indexed form: NFC, leading '#'s stripped, lowercased.

    None for anything that is not a hashtag: a non-string, an empty tag, one
    holding whitespace or an unpaired surrogate, or one longer than
    MAX_HASHTAG_LENGTH characters (a tweet's length limit; word-breaking
    costs grow with the cube of a tag's length).
    """
    if not isinstance(h, str):
        return None
    h = unicodedata.normalize("NFC", h.strip().lstrip("#")).lower()
    if (
        not h
        or len(h) > MAX_HASHTAG_LENGTH
        or any(c.isspace() for c in h)
        or _SURROGATE_RE.search(h)
    ):
        return None
    return h


def _parse_timestamp(value: object) -> datetime | None:
    """created_at as a UTC datetime cut to the second; None unless _TIMESTAMP_RE."""
    if not isinstance(value, str) or _TIMESTAMP_RE.fullmatch(value) is None:
        return None
    if value[-1] == "Z":
        value = value[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(value)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        ts = ts.astimezone(timezone.utc)
    except (ValueError, OverflowError):  # OverflowError: shifted past year 1 or 9999
        return None
    # datetime.replace costs more than the parse: skip it when there is no fraction.
    return ts.replace(microsecond=0) if ts.microsecond else ts


def _json_object(line: str | bytes) -> dict | None:
    """The JSON object on one input line; None for anything else.

    Covers invalid UTF-8, bad JSON, nesting too deep for the parser, numbers
    too long to convert, and JSON values that are not objects.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        obj = json.loads(line.strip())
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    return obj if isinstance(obj, dict) else None


def _parse_line(line: str | bytes) -> TweetRecord | None:
    obj = _json_object(line)
    if obj is None:
        return None
    tweet_id = obj.get("id")
    account_id = obj.get("user_id")
    if not isinstance(tweet_id, str) or not tweet_id:
        return None
    if not isinstance(account_id, str) or not account_id:
        return None
    timestamp = _parse_timestamp(obj.get("created_at"))
    if timestamp is None:
        return None
    text = obj.get("text", "")
    if not isinstance(text, str):
        return None
    is_retweet = obj.get("is_retweet", False)
    if not isinstance(is_retweet, bool):
        return None
    retweet_of = obj.get("retweet_of")
    if retweet_of is not None and not isinstance(retweet_of, str):
        return None
    if is_retweet != bool(retweet_of):
        return None
    raw_tags = obj.get("hashtags", [])
    raw_urls = obj.get("urls", [])
    if not isinstance(raw_tags, list) or not isinstance(raw_urls, list):
        return None
    hashtags = []
    for h in raw_tags:
        norm = normalize_hashtag(h)
        if norm is not None and not UNSAFE_HASHTAG_RE.search(norm):
            hashtags.append(norm)
    links = []
    for u in raw_urls:
        if not isinstance(u, str):
            continue
        try:
            links.append(canonicalize_url(u))
        except ValueError:
            continue  # bad link: drop the link, keep the tweet
    return TweetRecord(
        tweet_id=tweet_id,
        account_id=account_id,
        timestamp=timestamp,
        text=text,
        hashtags=tuple(hashtags),
        links=tuple(links),
        is_retweet=is_retweet,
        retweet_of=retweet_of if is_retweet else None,
    )


def parse_stream(
    lines: Iterable[str | bytes], stats: ParseStats | None = None
) -> Iterator[TweetRecord]:
    """Yield TweetRecords from a line-delimited stream in input order.

    Malformed lines (invalid UTF-8, bad or too deeply nested JSON, missing or
    inconsistent fields, out-of-range timestamps, blank lines) are skipped,
    never fatal; pass a ParseStats to observe the skip count.
    """
    if stats is None:
        stats = ParseStats()
    for line in lines:
        stats.lines += 1
        record = _parse_line(line)
        if record is None:
            stats.skipped += 1
            continue
        stats.parsed += 1
        yield record


def parse_metadata(lines: Iterable[str | bytes]) -> dict[str, LinkMetadata]:
    """Read link metadata JSONL (url/title/description) keyed by canonical URL.

    Malformed lines (as for parse_stream), unparseable URLs and records whose
    title or description holds an unpaired surrogate are skipped; on
    duplicate canonical URLs the last record wins.
    """
    out: dict[str, LinkMetadata] = {}
    for line in lines:
        obj = _json_object(line)
        if obj is None or not isinstance(obj.get("url"), str):
            continue
        try:
            url = canonicalize_url(obj["url"])
        except ValueError:
            continue
        title = obj.get("title", "")
        description = obj.get("description", "")
        if not isinstance(title, str) or not isinstance(description, str):
            continue
        if _SURROGATE_RE.search(title) or _SURROGATE_RE.search(description):
            continue
        out[url.full] = LinkMetadata(url=url, title=title, description=description)
    return out


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-entry-per-line UTF-8 word list (stopwords or lexicon)."""
    words = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            w = line.strip().lower()
            if w:
                words.add(w)
    return frozenset(words)
