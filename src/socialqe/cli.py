"""Command-line front end.

Subcommands: synth-gen (generate a scenario corpus), build-index, verify,
expand, rerank, and evaluate. Every command is deterministic given its inputs and
flags; errors exit nonzero with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date

from socialqe.config import GLOBAL, LOCAL, EngineParams, load_config
from socialqe.index import build_index  # noqa: F401  (bench/tracing.py wraps it)
from socialqe.index import save_index  # noqa: F401  (bench/tracing.py wraps it)
from socialqe.index import build_tree, check_empty_target, iso_day, load_index, verify_index
from socialqe.ingest import (
    DEFAULT_STOPWORDS,
    ParseStats,
    load_wordlist,
    normalize_hashtag,
    parse_metadata,
    parse_stream,
    read_utf8,
)

# The query, evaluation and scenario modules are imported by the commands
# that use them, so a build-index process loads only the build's modules.


def _parse_day(value: str) -> date:
    """A --day or --range end: the one date form index day files are named by."""
    try:
        return iso_day(value)
    except ValueError:
        raise ValueError(f"bad date {value!r}; expected YYYY-MM-DD") from None


def _parse_range(value: str) -> tuple[date, date]:
    first, sep, last = value.partition(":")
    if not sep:
        raise ValueError(f"bad range {value!r}; expected START:END")
    return _parse_day(first), _parse_day(last)


def _require_positive(value: int | None, flag: str):
    if value is not None and value < 1:
        raise ValueError(f"{flag} must be >= 1")


def _parse_hashtag(value: str) -> str:
    """A --hashtag in its indexed form, as evaluate reads its tag file."""
    tag = normalize_hashtag(value)
    if tag is None:
        raise ValueError(f"--hashtag {value!r} is not a hashtag")
    return tag


def cmd_synth_gen(args) -> int:
    from socialqe.scenarios import bundled_names, get_scenario, performance_scenario
    from socialqe.synth import gen_synthetic_corpus

    if args.list:
        for name in bundled_names():
            print(name)
        return 0
    if not args.scenario or not args.out:
        raise ValueError("synth-gen needs --scenario and --out (or --list)")
    if args.scenario == "performance-100k":
        spec = performance_scenario()
    else:
        spec = get_scenario(args.scenario)
    paths = gen_synthetic_corpus(spec, args.seed, args.out)
    for path in paths:
        print(path)
    return 0


def cmd_build_index(args) -> int:
    check_empty_target(args.out)  # before a build that build_tree would refuse
    entries = load_config(args.config) if args.config else {}
    params = EngineParams.from_mapping(entries)
    stopwords = (
        load_wordlist(entries["stopwords"])
        if "stopwords" in entries
        else DEFAULT_STOPWORDS
    )
    lexicon = load_wordlist(entries["lexicon"]) if "lexicon" in entries else frozenset()

    metadata = {}
    if args.metadata:
        with open(args.metadata, "rb") as f:
            metadata = parse_metadata(f)

    stats = ParseStats()
    with open(args.corpus, "rb") as f:
        built = build_tree(
            parse_stream(f, stats),
            args.out,
            metadata=metadata,
            params=params,
            stopwords=stopwords,
            lexicon=lexicon,
            provenance=sorted(entries.items()),
        )
    if built.span is None:
        print("span=empty")
    else:
        print(f"span={built.span[0].isoformat()}:{built.span[1].isoformat()}")
    print(f"hashtags={built.hashtags}")
    print(f"links={built.links}")
    print(f"tweets={stats.parsed} skipped={stats.skipped}")
    return 0


def cmd_verify(args) -> int:
    index = verify_index(args.index)
    print(f"ok days={len(index.days())} entries={len(index.entries)}")
    return 0


def cmd_expand(args) -> int:
    from socialqe.strategy import global_expansions, local_expansions

    _require_positive(args.n, "--n")
    hashtag = _parse_hashtag(args.hashtag)
    index = load_index(args.index)
    day = _parse_day(args.day)
    if args.strategy == LOCAL:
        index.entry(hashtag, day)  # LookupError when there is none
        exp = local_expansions(index, hashtag, day, args.n)
    else:
        day_range = _parse_range(args.range) if args.range else index.span
        if day_range is None:
            raise ValueError("index is empty; nothing to expand")
        exp = global_expansions(index, hashtag, day_range, args.n)
        if not exp.ngrams and not any(h == hashtag for h, _ in index.entries):
            raise LookupError(f"hashtag {hashtag!r} not in index")
    for rank, (ngram, weight) in enumerate(zip(exp.ngrams, exp.weights), 1):
        print(f"{rank}\t{ngram}\t{weight:.6f}")
    return 0


def cmd_rerank(args) -> int:
    from socialqe.retrieval import sprf_rerank

    _require_positive(args.k, "--k")
    hashtag = _parse_hashtag(args.hashtag)
    index = load_index(args.index)
    day = _parse_day(args.day)
    ranked = sprf_rerank(index, hashtag, day, args.k)
    for rank, row in enumerate(ranked, 1):
        t, d, fn = row.field_scores
        parts = ""
        if args.explain:
            parts = f"{row.text_score:.6f}\t{row.social_weight:.6f}\t"
        print(
            f"{rank}\t{row.total:.6f}\t{parts}{t:.6f}\t{d:.6f}\t{fn:.6f}\t{row.url.full}"
        )
    return 0


def cmd_evaluate(args) -> int:
    from socialqe.strategy import (
        CATEGORIES,
        names_csv_file,
        run_comparison,
        write_comparison_csvs,
    )

    _require_positive(args.n, "--n")
    index = load_index(args.index)
    hashtags = []
    lines = read_utf8(args.hashtags).splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        tag = normalize_hashtag(line)
        if tag is None:
            raise ValueError(f"{args.hashtags}: line {lineno}: not a hashtag: {line!r}")
        if not names_csv_file(tag):
            raise ValueError(
                f"{args.hashtags}: line {lineno}: hashtag {tag!r} cannot name a CSV file"
            )
        hashtags.append(tag)
    metadata = None
    if args.metadata:
        with open(args.metadata, "rb") as f:
            metadata = parse_metadata(f)
    day_range = _parse_range(args.range) if args.range else None
    result = run_comparison(
        index,
        hashtags,
        day_range=day_range,
        n=args.n,
        metadata=metadata,
        threshold=args.tau,
    )
    write_comparison_csvs(result, args.out)
    tallies = {tag: dict.fromkeys(CATEGORIES, 0) for tag in result.series}
    for (tag, _), verdict in result.verdicts.items():
        tallies[tag][verdict.category] += 1
    for tag in sorted(tallies):
        counts = " ".join(f"{cat}={tallies[tag][cat]}" for cat in CATEGORIES)
        print(f"{tag} {counts}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialqe",
        description="Temporal social query expansion over tweet corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic scenario corpus")
    p.add_argument("--scenario", help="scenario name (see --list)")
    p.add_argument("--seed", type=int, default=7, help="generation seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--list", action="store_true", help="list bundled scenarios")
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("build-index", help="aggregate a corpus into an index")
    p.add_argument("--corpus", required=True, help="tweet JSONL file")
    p.add_argument("--metadata", help="link metadata JSONL file")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="index output directory")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("verify", help="check an index, its vector and ngram sizes, and "
                       "recompute its fingerprints, neighbours and link order")
    p.add_argument("--index", required=True, help="index directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="print expansions for a hashtag")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--hashtag", required=True,
                   help="hashtag, with or without '#', in any case")
    p.add_argument("--day", required=True, help="YYYY-MM-DD")
    p.add_argument("--n", type=int, default=10, help="expansion count")
    p.add_argument("--strategy", choices=(LOCAL, GLOBAL), default=LOCAL)
    p.add_argument("--range", help="START:END for the global strategy")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("rerank", help="rerank a hashtag-day's links")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--hashtag", required=True,
                   help="hashtag, with or without '#', in any case")
    p.add_argument("--day", required=True, help="YYYY-MM-DD")
    p.add_argument("--k", type=int, default=10, help="result count")
    p.add_argument(
        "--explain",
        action="store_true",
        help="also print each row's text score and social weight after its total",
    )
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("evaluate", help="run the local-vs-global comparison")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--hashtags", required=True, help="file with one hashtag per line")
    p.add_argument("--metadata", help="metadata JSONL (default: stored in index)")
    p.add_argument("--range", help="START:END (default: index span)")
    p.add_argument("--n", type=int, default=None, help="expansions per strategy")
    p.add_argument("--tau", type=int, default=None, help="high/low threshold")
    p.add_argument("--out", required=True, help="CSV output directory")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
