"""Tweet stream ingestion: parsing, normalization, tokenization, URL and hashtag handling.

Input corpora are UTF-8 line-delimited JSON, one record per line with fields
``id``, ``user_id``, ``created_at`` (ISO-8601, the forms of _TIMESTAMP_RE),
``text``, ``is_retweet``, ``retweet_of`` (required iff is_retweet), ``urls``
and ``hashtags``. Lines may be given as ``str`` or as raw ``bytes`` (a file
opened in binary mode); bytes are decoded one line at a time, so one bad line
never costs the rest.
Everything in this module is pure given its configuration and safe to call
from multiple threads; a stream parser instance is single-consumer.
parse_stream of a large regular file opened in binary mode parses byte
ranges of it in forked workers, but only in a process with one thread
(forkable_cpus). They run under forked, the one fork helper, which the
index build's day workers also run under.
"""

from __future__ import annotations

import io
import json
import os
import re
import stat
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date, datetime, timezone
from functools import partial
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
# The common form, a valid UTC time to the second: its day is the date text
# alone. Hour 24 and second 60 take the general path, which decides them.
_UTC_SECOND_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[T ](?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]Z"
)
# Longest hashtag kept, in characters after normalization: the tweet limit.
MAX_HASHTAG_LENGTH = 280
# Tags in tweet text are #\w+, but a `hashtags` array entry may hold any
# character. One holding a path separator (of any platform) or a control
# character (Unicode category Cc) could not name an evaluate CSV file or be
# typed as a query, so ingest drops it.
UNSAFE_HASHTAG_RE = re.compile(r"[/\\\x00-\x1f\x7f-\x9f]")
# Entries a Memo holds before it is emptied: a table fed ever-new keys, such
# as one parse_stream call's or a long-lived index's, stays bounded.
MEMO_LIMIT = 65_536

_decode_json = json.JSONDecoder().raw_decode


class Memo(dict):
    """A derive-once table: looking up a missing key stores derive(key).

    None is stored like any other result. A store into a table that already
    holds MEMO_LIMIT entries empties it first, so a key may be derived again
    later, to an equal value. A derive that raises stores nothing.

    Its users: parse_stream's tag, URL, day and identity tables; build_index's
    word breaks, shared vector weights and, per day, text grams; and per
    loaded HashtagIndex, its LinkDocs, broken phrases and rerank candidates.
    """

    __slots__ = ("derive",)

    def __init__(self, derive):
        super().__init__()
        self.derive = derive

    def __missing__(self, key):
        value = self.derive(key)
        if len(self) >= MEMO_LIMIT:
            self.clear()
        self[key] = value
        return value


@dataclass(frozen=True, slots=True)
class CanonicalUrl:
    """A normalized absolute URL used as a link identity key.

    ``full`` is the canonical form (lowercased scheme/host, fragment stripped,
    tracking parameters removed); ``file_name`` is the last path segment, empty
    when the path ends in '/'.
    """

    full: str
    file_name: str


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One post from the stream, as much of it as the index reads.

    ``day`` is the UTC day of ``created_at``; ``links`` are canonical. The
    line's ``id``, ``retweet_of`` and time of day are checked but not kept.
    """

    account_id: str
    day: date
    text: str
    hashtags: tuple[str, ...]
    links: tuple[CanonicalUrl, ...]
    is_retweet: bool = False


# The frozen __init__ stores each field through object.__setattr__; the slot
# descriptors store them at half the cost. Unpacking fails on import if the
# fields change.
_set_account_id, _set_day, _set_text, _set_hashtags, _set_links, _set_is_retweet = (
    getattr(TweetRecord, field.name).__set__ for field in fields(TweetRecord)
)


def _tweet_record(
    account_id: str,
    day: date,
    text: str,
    hashtags: tuple[str, ...],
    links: tuple[CanonicalUrl, ...],
    is_retweet: bool,
) -> TweetRecord:
    """TweetRecord(account_id, day, text, hashtags, links, is_retweet), built faster."""
    record = object.__new__(TweetRecord)
    _set_account_id(record, account_id)
    _set_day(record, day)
    _set_text(record, text)
    _set_hashtags(record, hashtags)
    _set_links(record, links)
    _set_is_retweet(record, is_retweet)
    return record


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
    full = urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path, query, ""))
    return CanonicalUrl(full=full, file_name=parts.path.rsplit("/", 1)[-1])


def url_from_canonical(full: str) -> CanonicalUrl:
    """Rebuild a CanonicalUrl from an already-canonical string.

    Used by the index loader: the stored string is trusted as the identity
    and not parsed or filtered again, so a round trip never rewrites it.
    """
    return CanonicalUrl(full=full, file_name=urlsplit(full).path.rsplit("/", 1)[-1])


def normalize_and_tokenize(
    text: str, stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS
) -> list[str]:
    """Lowercase and tokenize free text, dropping URLs, @-mentions and #tags.

    In order: the text is NFC-normalized; ``http://``, ``https://`` and
    ``www.`` URLs are removed in any letter case, up to the next whitespace
    (other schemes are not); then @-mentions, then #tags; then the text is
    lowercased. Tokens are runs of letters and digits, which may be joined
    inside a word by ``'``, ``’`` or ``-``; everything else separates them,
    underscore included. Stopwords are dropped, order is preserved.
    Deterministic for equal input and configuration.
    """
    if not text:
        return []
    text = kept = unicodedata.normalize("NFC", text)
    lowered = text.lower()
    # Each pattern runs only where its trigger occurs. Case folding gives
    # "https?" variants such as "httpſ" but none of ":" or "/", and lowered
    # holds "www." wherever the pattern could match one.
    if "://" in text or "www." in lowered:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    if text is not kept:
        lowered = text.lower()
    return [t for t in _WORD_RE.findall(lowered) if t not in stopwords]


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


def _parse_timestamp(value: object) -> date | None:
    """created_at's UTC day; None unless _TIMESTAMP_RE."""
    if not isinstance(value, str) or _TIMESTAMP_RE.fullmatch(value) is None:
        return None
    if value[-1] == "Z":
        value = value[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(value)
        if ts.tzinfo is not None:  # a time with no offset is already UTC
            ts = ts.astimezone(timezone.utc)
    except (ValueError, OverflowError):  # OverflowError: shifted past year 1 or 9999
        return None
    return ts.date()


def _json_object(line: str | bytes) -> dict | None:
    """The JSON object on one input line; None for anything else.

    Covers invalid UTF-8, bad JSON, nesting too deep for the parser, numbers
    too long to convert, and JSON values that are not objects. Accepts
    exactly the lines ``json.loads(line.strip())`` accepts: the stripped line
    starts with no whitespace, so the object must end where the line does.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        obj, end = _decode_json(line)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    return obj if end == len(line) and isinstance(obj, dict) else None


def _parse_line(
    line: str | bytes, tags: Memo, urls: Memo, days: Memo, shared: Memo, record=_tweet_record
) -> TweetRecord | None:
    """record(account_id, day, text, hashtags, links, is_retweet) of one line; None to skip it."""
    obj = _json_object(line)
    if obj is None:
        return None
    tweet_id = obj.get("id")
    account_id = obj.get("user_id")
    if not isinstance(tweet_id, str) or not tweet_id:
        return None
    if not isinstance(account_id, str) or not account_id:
        return None
    stamp = obj.get("created_at")
    if isinstance(stamp, str) and _UTC_SECOND_RE.fullmatch(stamp):
        day = days[stamp[:10]]
    else:
        day = _parse_timestamp(stamp)
    if day is None:
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
        if isinstance(h, str):
            kept = tags[h]
            if kept is not None:
                hashtags.append(kept)
    links = []
    for u in raw_urls:
        if isinstance(u, str):
            url = urls[u]
            if url is not None:
                links.append(url)
    return record(
        shared[account_id],
        shared[day],
        shared[text],
        shared[tuple(hashtags)],
        tuple(links),
        is_retweet,
    )


def parse_stream(
    lines: Iterable[str | bytes], stats: ParseStats | None = None
) -> Iterator[TweetRecord]:
    """Yield TweetRecords from a line-delimited stream in input order.

    Malformed lines (invalid UTF-8, bad or too deeply nested JSON, missing or
    inconsistent fields, out-of-range timestamps, blank lines) are skipped,
    never fatal; pass a ParseStats to observe the skip count. A record keeps
    the account, UTC day, text, kept hashtags, canonical links and retweet
    flag; the ``id`` and ``retweet_of`` checks leave nothing behind. Each
    distinct hashtag and URL string is normalized once per call (a Memo
    each). A ``created_at`` of the form ``YYYY-MM-DD(T| )HH:MM:SSZ`` with a
    valid time of day takes its day from a Memo of date texts, so each
    distinct date is read once per call; any other value goes through
    _parse_timestamp, to the same day. Equal accounts, days, texts, kept
    tags, hashtag tuples and CanonicalUrls share the first such object seen.

    A file opened in binary mode on a regular file is parsed by several
    processes when forkable_cpus allows more than one and its unread part
    holds _MIN_WORKER_BYTES per process: it is cut at line starts into one
    byte range each (_byte_ranges), decided when this is called. The records
    and stats are those of one process, in the same order.
    """
    if stats is None:
        stats = ParseStats()
    spans = _byte_ranges(lines)
    if len(spans) > 1:
        return _parse_split(lines.fileno(), spans, stats)
    return _parse_lines(lines, stats, Memo(lambda value: value))


def _parse_lines(
    lines: Iterable[str | bytes], stats: ParseStats, shared: Memo, record=_tweet_record
) -> Iterator[TweetRecord]:
    """parse_stream's serial parse, sharing equal objects through shared.

    Each post is record(account_id, day, text, hashtags, links, is_retweet).
    """

    def kept_tag(raw: str) -> str | None:
        norm = normalize_hashtag(raw)
        if norm is None or UNSAFE_HASHTAG_RE.search(norm):
            return None
        return shared[norm]

    def canonical(raw: str) -> CanonicalUrl | None:
        try:
            url = canonicalize_url(raw)
        except ValueError:
            return None  # bad link: drop the link, keep the tweet
        return shared[url]

    def utc_day(text: str) -> date | None:
        try:
            return date.fromisoformat(text)
        except ValueError:
            return None  # no such date, as 2017-02-30 or year 0

    tags, urls, days = Memo(kept_tag), Memo(canonical), Memo(utc_day)
    for line in lines:
        stats.lines += 1
        post = _parse_line(line, tags, urls, days, shared, record)
        if post is None:
            stats.skipped += 1
            continue
        stats.parsed += 1
        yield post


# A parse forks a worker only for this many corpus bytes or more each. At
# half as many, on the posts measured to gain least from it (`long`'s, whose
# texts are mostly distinct), the fork and the records sent back cost about
# what the worker saves.
_MIN_WORKER_BYTES = 4_000_000
# Bytes read at a time from a corpus cut into ranges.
_READ_BYTES = 1 << 16
# Records a parse worker pickles as one message.
_SENT_RECORDS = 1_024


def _byte_ranges(lines: object) -> list[tuple[int, int]]:
    """The byte ranges a split parse of lines reads, one per process.

    Empty unless lines is a binary file (io.BufferedReader) on a regular
    file whose unread part holds 2 * _MIN_WORKER_BYTES or more and
    forkable_cpus is more than 1. The ranges run from the file's position to
    its end, cut at the first line start at or after each even share; a
    line longer than a share leaves fewer ranges.
    """
    if not isinstance(lines, io.BufferedReader):
        return []
    try:
        fd = lines.fileno()
        status = os.fstat(fd)
    except (OSError, ValueError):  # a buffer without a file descriptor
        return []
    if not stat.S_ISREG(status.st_mode):  # a pipe cannot be read at an offset
        return []
    start, end = lines.tell(), status.st_size
    count = min(forkable_cpus(), (end - start) // _MIN_WORKER_BYTES)
    if count < 2:
        return []
    cuts = [start]
    for i in range(1, count):
        share = start + (end - start) * i // count
        # The line holding the byte before the share ends where a line starts.
        cut = share + len(next(_range_lines(fd, share - 1, end), b""))
        if cuts[-1] < cut < end:
            cuts.append(cut)
    cuts.append(end)
    return list(zip(cuts, cuts[1:]))


def _range_lines(fd: int, start: int, end: int) -> Iterator[bytes]:
    """The lines of file fd from byte start to end, both line starts, less their b"\n".

    Read with os.pread, so the file offset, which forked processes share,
    never moves. A file that ends without a newline yields its last line.
    """
    parts: list[bytes] = []  # the line read so far that no b"\n" has ended
    while start < end:
        block = os.pread(fd, min(_READ_BYTES, end - start), start)
        if not block:
            break  # the file shrank
        start += len(block)
        lines = block.split(b"\n")
        if len(lines) == 1:
            parts.append(block)
            continue
        parts.append(lines[0])
        lines[0] = b"".join(parts)
        parts = [lines.pop()]
        yield from lines
    last = b"".join(parts)
    if last:
        yield last


def _parse_split(
    fd: int, spans: list[tuple[int, int]], stats: ParseStats
) -> Iterator[TweetRecord]:
    """parse_stream over spans of file fd: spans[0] here, each other in a forked worker.

    This process parses its span first, then yields each worker's records in
    file order, sharing equal objects through the one table its own parse
    used.
    """
    shared = Memo(lambda value: value)
    with forked([[span] for span in spans[1:]], partial(_parse_span, fd),
                "parsing", lambda span: f"bytes {span[0]}..{span[1]}") as sent:
        yield from _parse_lines(_range_lines(fd, *spans[0]), stats, shared)
        links = Memo(lambda pair: shared[CanonicalUrl(*pair)])
        tag_tuples = Memo(lambda tags: shared[tuple(map(shared.__getitem__, tags))])
        for _, (posts, lines) in sent:
            for account_id, day, text, hashtags, urls, is_retweet in posts:
                yield _tweet_record(
                    shared[account_id],
                    shared[day],
                    shared[text],
                    tag_tuples[hashtags],
                    tuple(map(links.__getitem__, urls)) if urls else (),
                    is_retweet,
                )
            stats.lines += lines
            stats.parsed += len(posts)
            stats.skipped += lines - len(posts)


def _sent_post(account_id, day, text, hashtags, links, is_retweet) -> tuple:
    """A post as a parse worker sends it: a plain tuple, each link a (full, file_name) pair."""
    if links:
        links = tuple([(url.full, url.file_name) for url in links])
    return account_id, day, text, hashtags, links, is_retweet


def _parse_span(fd: int, span: tuple[int, int]) -> Iterator[tuple[list[tuple], int]]:
    """In a parse worker: its span's posts (_sent_post) in lists, each with
    the number of lines it covers (parsed and skipped)."""
    stats = ParseStats()
    posts: list[tuple] = []
    counted = 0
    shared = Memo(lambda value: value)
    for post in _parse_lines(_range_lines(fd, *span), stats, shared, _sent_post):
        posts.append(post)
        if len(posts) == _SENT_RECORDS:
            yield posts, stats.lines - counted
            posts, counted = [], stats.lines
    yield posts, stats.lines - counted


def forkable_cpus() -> int:
    """How many processes a job may run in: one per CPU this process may use.

    So `taskset` limits it (os.sched_getaffinity). One without os.fork, or
    while another thread is alive: a forked child would hold a copy of every
    lock that thread held, and no thread to release it.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
    except OSError:  # no procfs: the threads cannot be counted
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def forked(shares: list[list], work, verb: str, name):
    """Fork a child per share, which sends what work(unit) yields for each of its units.

    The with block runs here meanwhile, and gets an iterator of (unit, item)
    over every child's items, in share order, which reads a child's pipe
    only when asked for that child's first item. A child pickles each item as
    soon as it is made, so only bytes wait, and writes them all once its
    share is done; it leaves by os._exit, so no atexit handler runs and no
    buffer inherited from this process is flushed. A child's exception is
    raised as a RuntimeError "VERB NAME in a worker: TYPE: MESSAGE", where
    NAME is name(unit); a child that exits before it sent a unit is named by
    that unit. On any exception, or if the block ends first, every child not
    yet reaped is killed, and each is reaped before the with statement ends.
    With no shares it forks nothing and imports neither pickle nor signal.
    """
    if not shares:
        yield iter(())
        return
    import pickle
    import signal

    children: dict[int, tuple] = {}  # pid -> (results file, units) until reaped

    def reaped(pid: int) -> int:
        children.pop(pid)[0].close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def sent():
        for pid, (results, units) in list(children.items()):
            for unit in units:
                while True:
                    try:
                        done, value = pickle.load(results)
                    except (EOFError, pickle.UnpicklingError):
                        raise RuntimeError(f"a worker exited with status {reaped(pid)} "
                                           f"before it sent {name(unit)}") from None
                    if done:
                        break
                    yield unit, value
                if value is not None:
                    raise RuntimeError(f"{verb} {name(unit)} in a worker: {value}")
            reaped(pid)

    try:
        for units in shares:
            read_end, write_end = os.pipe()
            results = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _send(work, units, write_end)
            except BaseException:
                results.close()
                raise
            finally:
                os.close(write_end)
            children[pid] = (results, units)
        yield sent()
    finally:
        for pid, (results, _) in children.items():
            results.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(work, units: list, write_end: int):
    """In a forked child: write what work yields for each unit to write_end, and exit.

    Each message is (False, item), or (True, None) once a unit is done, or
    (True, "TYPE: MESSAGE") for the exception that ends the child's work.
    """
    import pickle

    code = 1
    try:
        messages = []
        for unit in units:
            try:
                for item in work(unit):
                    messages.append(pickle.dumps((False, item), pickle.HIGHEST_PROTOCOL))
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            messages.append(pickle.dumps((True, error), pickle.HIGHEST_PROTOCOL))
            if error is not None:
                break
        with open(write_end, "wb") as out:
            out.writelines(messages)
        code = 0
    finally:
        os._exit(code)


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


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 is a ValueError
    naming the file and line (one more than the newlines before the byte)."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8: {exc}") from None


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-entry-per-line UTF-8 word list (stopwords or lexicon).

    Lines end as in a file opened in text mode. Entries are NFC-normalized,
    then lowercased, as tags and tokens are, so an entry matches however its
    accents were encoded.
    """
    words = set()
    for line in io.StringIO(read_utf8(path), newline=None):
        w = unicodedata.normalize("NFC", line.strip()).lower()
        if w:
            words.add(w)
    return frozenset(words)
