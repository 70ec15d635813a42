"""Engine parameters and the flat key=value config file format.

A config file is UTF-8 text, one `key=value` per line, '#' starts a comment.
Numeric keys map straight onto EngineParams fields; `stopwords` and `lexicon`
name word-list files (resolved relative to the config file), which the index
stores by content. Every other entry is echoed into the index meta file for
provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from socialqe.ingest import read_utf8

# The two expansion strategies: per-day vectors, or vectors merged over a range.
LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True, slots=True)
class EngineParams:
    """Tunable knobs shared by the builder, scorer, and evaluation harness.

    The four weight multipliers feed element_weight; vector_size is how many
    ngrams a stored vector keeps; expansion_size is the per-strategy slice
    used at evaluation time; threshold is the high/low match-count cutoff.
    """

    tweet_weight: float = 0.8
    retweet_weight: float = 0.2
    vote_weight: float = 0.35
    link_weight: float = 0.5
    vector_size: int = 20
    expansion_size: int = 10
    max_ngram: int = 4
    max_distance: int = 8
    threshold: int = 10

    def __post_init__(self):
        # 1e6 is far above the defaults (at most 0.8), and low enough that
        # every element weight stays finite for any vote count.
        for w in ("tweet_weight", "retweet_weight", "vote_weight", "link_weight"):
            if not 0 <= getattr(self, w) <= 1e6:  # NaN fails too
                raise ValueError(f"{w} must be finite and in 0..1e6")
        if self.vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        if self.expansion_size < 1:
            raise ValueError("expansion_size must be >= 1")
        if not 1 <= self.max_ngram <= 8:
            raise ValueError("max_ngram must be in 1..8")
        if not 0 <= self.max_distance <= 64:
            raise ValueError("max_distance must be in 0..64")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    @classmethod
    def from_mapping(cls, entries: Mapping[str, str]) -> "EngineParams":
        """Build params from config entries, ignoring non-parameter keys."""
        kwargs = {}
        for f in fields(cls):
            if f.name in entries:
                conv = float if f.type == "float" else int
                try:
                    kwargs[f.name] = conv(entries[f.name])
                except ValueError:
                    raise ValueError(
                        f"config key {f.name} has non-numeric value "
                        f"{entries[f.name]!r}"
                    ) from None
        return cls(**kwargs)

    def to_entries(self) -> list[tuple[str, str]]:
        """Field order key/value pairs; floats via repr so they parse back exactly."""
        return [(f.name, repr(getattr(self, f.name))) for f in fields(self)]


def parse_config(text: str) -> dict[str, str]:
    """Parse key=value lines; later keys win; comments and blanks ignored."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def load_config(path: str | Path) -> dict[str, str]:
    """Read a config file; `stopwords`/`lexicon` paths resolve against it."""
    path = Path(path)
    entries = parse_config(read_utf8(path))
    for key in ("stopwords", "lexicon"):
        if key in entries:
            entries[key] = str((path.parent / entries[key]).resolve())
    return entries
