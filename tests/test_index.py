import dataclasses
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import sys
import threading
import time
import warnings
import zlib
from datetime import date, timedelta
from itertools import repeat
from unittest import mock

import pytest

import socialqe.index
import socialqe.ingest
from conftest import (
    assert_no_child_left,
    build_scenario_index,
    counted_forks,
    day_rows_of,
    make_tweet,
    multi_day_corpus,
    reference_neighbours,
    reference_simhash64,
    relist,
    rewrite_index_file,
    signed_meta,
    tree_bytes,
)
from socialqe.cli import main
from socialqe.config import EngineParams
from socialqe.index import (
    HashtagIndex,
    IndexFormatError,
    NeighbourSearch,
    build_index,
    load_index,
    save_index,
    similar_hashtags,
    verify_index,
)
from socialqe.ingest import LinkMetadata, canonicalize_url, parse_metadata, parse_stream
from socialqe.scenarios import bundled_names, get_scenario
from socialqe.signatures import hamming64, vector_fingerprint
from socialqe.synth import iter_tweet_objects, scenario_metadata
from socialqe.votes import LINK, ElementKey

D1 = date(2017, 6, 14)

# A mutated tree's byte edits: each puts one of EDIT_BYTES at a seeded place.
# They are bytes a row holds (digits, hex, separators, framing), so an edit
# often keeps the row well formed.
EDITS_PER_SCENARIO = 60
EDIT_BYTES = b"\t\n #.-0123456789=abcefz"


def write_listed(root, saved, file, data):
    """Write data as root/file, and meta as in saved, which has {name: bytes} of a tree.

    meta's manifest lists file with data's row count and CRC-32, and meta's
    crc= row is recomputed; when file is meta, data is re-signed so.
    """
    if file == "meta":
        (root / "meta").write_bytes(signed_meta(data))
    else:
        (root / "meta").write_bytes(signed_meta(saved["meta"], [(file, data)]))
        (root / file).write_bytes(data)


def two_link_corpus():
    """One day, one hashtag, two links with 30 and 12 sharing accounts."""
    tweets = []
    for i in range(30):
        tweets.append(make_tweet(f"acct-a{i}", day="2017-06-14",
                                 text="tower fire", hashtags=["grenfell"],
                                 urls=["http://news.ex/story-a"]))
    for i in range(12):
        tweets.append(make_tweet(f"acct-b{i}", day="2017-06-14",
                                 text="tower fire", hashtags=["grenfell"],
                                 urls=["http://news.ex/story-b"]))
    return tweets


def two_tag_corpus():
    """One day: five accounts post the same text with two tags and one link."""
    return [make_tweet(f"acct{i}", day="2017-06-14", text="tower fire",
                       hashtags=["grenfell", "london"], urls=["http://news.ex/a"])
            for i in range(5)]


def replace_in_meta(meta, old, new):
    """Replace old with new in the rows of the index file meta, re-signed to match."""
    rewrite_index_file(meta.parent, "meta", lambda rows: [row.replace(old, new) for row in rows])


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def write_version_3(root):
    """Rewrite a saved tree in index format version 3, four files per day.

    A day's counter rows go to aggregates/DAY, its cv and ss rows to
    vectors/DAY, and its ln and nb rows, less their kind, to links/DAY and
    similar/DAY; a day has its aggregates file always, the others only with
    rows. meta lists the day files alone and has no crc= row.
    """
    sections = {"hashtag": "aggregates", "link": "aggregates", "cv": "vectors",
                "ss": "vectors", "ln": "links", "nb": "similar"}
    listed = {}

    def write(path, section, rows):
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join([f"#socialqe\t{section}\t3", *rows, f"#end\t{len(rows)}", ""]),
                        encoding="utf-8")
        return f"{len(rows)} {zlib.crc32(path.read_bytes()):08x}"

    # Version 4's day files share their directory with version 3's vectors
    # files, so all are read before any is written.
    days = {path.name: path.read_text(encoding="utf-8").split("\n")[1:-2]
            for path in sorted((root / "vectors").iterdir())}
    shutil.rmtree(root / "vectors")
    for day, rows in days.items():
        by_section = {"aggregates": []}
        for row in rows:
            kind, rest = row.split("\t", 1)
            by_section.setdefault(sections[kind], []).append(
                rest if kind in ("ln", "nb") else row)
        for section, section_rows in by_section.items():
            listed[f"{section}/{day}"] = write(root / section / day, section, section_rows)
    for name in ("stopwords.txt", "lexicon.txt", "metadata.jsonl", "meta"):
        header, *rows, footer, end = (root / name).read_text(encoding="utf-8").split("\n")
        if name == "meta":
            rows = [row for row in rows if not row.startswith(("file.", "crc="))]
            rows += [f"file.{file}={listed[file]}" for file in sorted(listed)]
        write(root / name, header.split("\t")[1], rows)


def write_version_2(root):
    """Rewrite a version 3 tree (write_version_3) in version 2, which stored facts twice.

    Each day-file row leads with its day, a links row repeats the link's
    aggregates counters, a similar row ends with the distance, and meta lists
    each day file's row count alone.
    """
    rows_of = {}
    for path in (p for p in root.rglob("*") if p.is_file()):
        header, *rows, footer, end = path.read_text(encoding="utf-8").split("\n")
        rows_of[path] = header.replace("\t3", "\t2"), rows
    for path, (header, rows) in rows_of.items():
        day = path.name
        if path.name == "meta":
            rows = [row.split(" ")[0] if row.startswith("file.") else row for row in rows]
        elif path.parent.name == "links":
            counters = {f[1]: f[2:] for f in (r.split("\t") for r in
                                              rows_of[root / "aggregates" / day][1])}
            rows = [f"{day}\t{row}\t" + "\t".join(counters[row.split("\t")[1]])
                    for row in rows]
        elif path.parent.name == "similar":
            prints = {f[1]: int(f[-1], 16) for f in (r.split("\t") for r in
                                                     rows_of[root / "vectors" / day][1])
                      if f[0] == "cv"}
            rows = [f"{day}\t{a}\t{b}\t{hamming64(prints[a], prints[b])}"
                    for a, b in (row.split("\t") for row in rows)]
        elif path.parent.name in ("aggregates", "vectors"):
            rows = [f"{day}\t{row}" for row in rows]
        path.write_text("\n".join([header, *rows, f"#end\t{len(rows)}", ""]),
                        encoding="utf-8")


class TestBuild:
    def test_two_links_ranked_by_weight(self):
        idx = build_index(two_link_corpus())
        entry = idx.entry("grenfell", D1)
        assert [l.url.full for l in entry.links] == [
            "http://news.ex/story-a", "http://news.ex/story-b",
        ]
        a, b = entry.links
        assert a.votes.tweet_votes == 30
        assert a.votes.link_tweet_votes == 30
        assert b.votes.tweet_votes == 12

    def test_vector_content_and_tie_order(self):
        idx = build_index(two_link_corpus())
        vec = idx.entry("grenfell", D1).vector
        # all three ngrams share identical counters: alphabetical tie order
        assert [e.ngram for e in vec] == ["fire", "tower", "tower fire"]
        assert vec[0].weight == vec[2].weight

    def test_vector_excludes_surface_and_broken_forms(self):
        tweets = [
            make_tweet(f"a{i}", text="london fire spreads",
                       hashtags=["londonfire"])
            for i in range(5)
        ]
        idx = build_index(tweets, lexicon=frozenset(["london", "fire"]))
        grams = {e.ngram for e in idx.entry("londonfire", D1.replace(month=1, day=15)).vector}
        assert "london fire" not in grams
        assert "londonfire" not in grams
        assert {"london", "fire", "spreads", "fire spreads"} <= grams

    def test_retweet_only_hashtag_still_indexed(self):
        t = make_tweet("a1", text="echo", hashtags=["quiet"], is_retweet=True)
        idx = build_index([t])
        entry = idx.entry("quiet", t.day)
        assert entry.vector[0].ngram == "echo"
        rec = idx.day_records[t.day][ElementKey("hashtag", "quiet")]
        assert (rec.tweet_votes, rec.retweet_votes) == (0, 1)

    def test_textual_noise_does_not_change_index(self):
        base = two_link_corpus()
        noisy = base + [
            make_tweet(f"noise{i}", day="2017-06-14", text="lunch again")
            for i in range(20)
        ]
        assert build_index(noisy) == build_index(base)

    def test_shuffle_invariant(self):
        rng = random.Random(13)
        base = two_link_corpus()
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert build_index(shuffled) == build_index(base)

    def test_metadata_restricted_to_corpus_links(self):
        meta = {
            "http://news.ex/story-a": LinkMetadata(
                canonicalize_url("http://news.ex/story-a"), "A", ""),
            "http://other.ex/x": LinkMetadata(
                canonicalize_url("http://other.ex/x"), "unrelated", ""),
        }
        idx = build_index(two_link_corpus(), metadata=meta)
        assert set(idx.metadata) == {"http://news.ex/story-a"}

    def test_one_association_per_link_and_day(self, tmp_path):
        idx = build_index(two_tag_corpus())
        save_index(idx, tmp_path / "idx")
        for index in (idx, load_index(tmp_path / "idx")):
            (shared,) = index.entry("grenfell", D1).links
            assert index.entry("london", D1).links[0] is shared

    def test_day_records_hold_no_ngrams(self):
        idx = build_index(two_link_corpus())
        kinds = {k.kind for k in idx.day_records[D1]}
        assert kinds == {"hashtag", "link"}

    def test_span_inferred(self):
        tweets = [make_tweet("a", day="2017-01-03", hashtags=["x"]),
                  make_tweet("a", day="2017-01-07", hashtags=["x"])]
        idx = build_index(tweets)
        assert idx.span == (date(2017, 1, 3), date(2017, 1, 7))

    def test_span_longer_than_a_year_rejected(self):
        # One valid tweet a day past 366 refuses the build; it is not skipped.
        tweets = [make_tweet("a", day="2017-01-01", hashtags=["x"]),
                  make_tweet("b", day="2018-01-02", hashtags=["x"])]
        with pytest.raises(ValueError) as exc:
            build_index(tweets)
        assert str(exc.value) == (
            "corpus spans 2017-01-01..2018-01-02 (367 days), longer than 366"
        )

    def test_span_of_366_days_builds(self):
        tweets = [make_tweet("a", day="2016-01-01", hashtags=["x"]),
                  make_tweet("b", day="2016-12-31", hashtags=["x"])]
        assert build_index(tweets).span == (date(2016, 1, 1), date(2016, 12, 31))

    def test_empty_corpus(self):
        idx = build_index([])
        assert idx.span is None
        assert idx.entries == {}
        assert idx.days() == []

    def test_lookups(self):
        idx = build_index(two_link_corpus())
        assert idx.entry("grenfell", D1).day == D1
        with pytest.raises(LookupError, match="no entry for hashtag 'grenfell' on 2017-06-15"):
            idx.entry("grenfell", D1 + timedelta(days=1))
        assert idx.hashtags_on(D1) == ["grenfell"]
        assert idx.links_on(D1) == ["http://news.ex/story-a", "http://news.ex/story-b"]
        with pytest.raises(LookupError):
            idx.entry("nope", D1)

    @pytest.mark.parametrize(
        "name", ["false-positive-peak", "aspect-shift", "dominant-event", "single-event"]
    )
    def test_per_day_lookups_equal_full_scan(self, scenario_index, name):
        _, idx = scenario_index(name)
        outside = [idx.span[0] - timedelta(days=1), idx.span[1] + timedelta(days=1)]
        for day in idx.days() + outside:
            tags = idx.hashtags_on(day)
            assert tags == sorted(h for (h, d) in idx.entries if d == day)
            tags.append("mutated")
            assert "mutated" not in idx.hashtags_on(day)


class TestSimilar:
    def test_near_duplicates_found(self, scenario_index):
        _, idx = scenario_index("dominant-event")
        day = date(2016, 12, 20)
        assert similar_hashtags(idx, "starwars", day) == [("rogueone", 1)]
        assert similar_hashtags(idx, "rogueone", day) == [("starwars", 1)]

    def test_unrelated_tag_is_far(self, scenario_index):
        _, idx = scenario_index("dominant-event")
        day = date(2016, 12, 20)
        stored = dict(similar_hashtags(idx, "berlin", day))
        assert "starwars" not in stored
        wide = dict(similar_hashtags(idx, "berlin", day, max_distance=64))
        assert wide["starwars"] > 8

    def test_radius_zero(self, scenario_index):
        _, idx = scenario_index("dominant-event")
        assert similar_hashtags(idx, "starwars", date(2016, 12, 20), max_distance=0) == []

    def test_missing_entry_raises(self, scenario_index):
        _, idx = scenario_index("dominant-event")
        with pytest.raises(LookupError):
            similar_hashtags(idx, "starwars", date(2016, 12, 25))

    def test_empty_vectors_neither_have_nor_are_neighbours(self, tmp_path):
        # Five text-free tags once each listed the other four at distance 0:
        # an empty vector's fingerprint is 0.
        tweets = [make_tweet(f"acct-e{i}", text="", hashtags=[f"empty{i}"])
                  for i in range(5)]
        tweets += [make_tweet(f"acct-t{i}", text="tower fire", hashtags=[tag])
                   for i, tag in enumerate(["grenfell", "london"])]
        idx = build_index(tweets)
        day = date(2017, 1, 15)
        empty = [f"empty{i}" for i in range(5)]
        assert [h for h in idx.hashtags_on(day) if not idx.entry(h, day).vector] == empty
        want = {"grenfell": [("london", 0)], "london": [("grenfell", 0)]}
        for h in idx.hashtags_on(day):
            assert list(idx.entry(h, day).similar) == want.get(h, [])
            for radius in (8, 64):
                assert similar_hashtags(idx, h, day, max_distance=radius) == want.get(h, [])
        save_index(idx, tmp_path / "idx")
        assert load_index(tmp_path / "idx") == idx

    def test_never_contains_self(self, scenario_index):
        _, idx = scenario_index("dominant-event")
        day = date(2016, 12, 20)
        for h in idx.hashtags_on(day):
            assert h not in dict(similar_hashtags(idx, h, day, max_distance=64))

    @pytest.mark.parametrize("name", [
        "single-event", "aspect-shift", "dominant-event", "false-positive-peak",
    ])
    def test_any_radius_matches_all_pairs(self, scenario_index, name):
        _, idx = scenario_index(name)
        for day in idx.days():
            fps = {h: vector_fingerprint(idx.entry(h, day).vector) for h in idx.hashtags_on(day)}
            for h in fps:
                want = reference_neighbours(fps, h, 8)
                assert list(idx.entry(h, day).similar) == similar_hashtags(idx, h, day) == want
                for radius in (0, 1, 3, 16, 40, 64):
                    got = similar_hashtags(idx, h, day, max_distance=radius)
                    assert got == reference_neighbours(fps, h, radius)

    def test_fingerprints_filled_by_day_equal_per_vector(self, tmp_path, scenario_index):
        _, built = scenario_index("aspect-shift")
        save_index(built, tmp_path / "idx")
        idx = load_index(tmp_path / "idx")
        for (h, day), entry in sorted(idx.entries.items()):
            want = reference_simhash64([(e.ngram, e.weight) for e in entry.vector])
            assert idx.fingerprint(h, day) == want
        with pytest.raises(LookupError):
            idx.fingerprint("absent", day)

    @pytest.mark.parametrize("name", bundled_names())
    def test_stored_fingerprints_equal_reference(self, tmp_path, scenario_index, name):
        _, built = scenario_index(name)
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.entries.keys() == built.entries.keys()
        for key, entry in loaded.entries.items():
            want = reference_simhash64([(e.ngram, e.weight) for e in entry.vector])
            assert entry.fingerprint == built.entries[key].fingerprint == want

    def test_no_radius_searches_at_the_params_radius(self, scenario_index):
        # Not the stored list: with it replaced, the search still answers.
        _, built = scenario_index("dominant-event")
        day = date(2016, 12, 20)
        key = ("starwars", day)
        stale = dataclasses.replace(built.entries[key], similar=(("berlin", 40),))
        idx = dataclasses.replace(built, entries={**built.entries, key: stale})
        assert similar_hashtags(idx, "starwars", day) == [("rogueone", 1)]
        assert similar_hashtags(idx, "starwars", day) == similar_hashtags(
            idx, "starwars", day, max_distance=idx.params.max_distance)

    def test_radius_past_the_range_clamped(self, scenario_index):
        _, idx = scenario_index("dominant-event")
        day = date(2016, 12, 20)
        assert similar_hashtags(idx, "berlin", day, max_distance=1000) == similar_hashtags(
            idx, "berlin", day, max_distance=64)
        assert similar_hashtags(idx, "berlin", day, max_distance=-5) == []

    def test_concurrent_readers_fill_caches_consistently(self):
        # A fresh index with a 100-tag day (past the scan-only size): eight
        # threads race to fill its fingerprint and neighbour-search caches.
        tweets = [
            make_tweet(f"a{j}", text=f"w{i % 10} v{i % 4} shared text x{j}",
                       hashtags=[f"tag{i:03d}"])
            for i in range(100) for j in range(3)
        ]
        idx = build_index(tweets)
        (day,) = idx.days()
        fps = {h: vector_fingerprint(idx.entry(h, day).vector) for h in idx.hashtags_on(day)}
        want = {h: reference_neighbours(fps, h, 8) for h in fps}
        assert any(want.values())
        errors = []

        def read():
            try:
                for h in sorted(fps):
                    if similar_hashtags(idx, h, day, max_distance=8) != want[h]:
                        errors.append(h)
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_blocks_prune_a_big_day(self, monkeypatch):
        # 400 tags in clusters of near-copies: up to the default radius the
        # block search checks under a tenth of all pairs, and at every radius
        # it finds exactly what they would.
        rng = random.Random(3)
        bases = [rng.getrandbits(64) for _ in range(40)]
        fps = {}
        for i in range(400):
            fp = rng.choice(bases)
            for bit in rng.sample(range(64), rng.randint(0, 6)):
                fp ^= 1 << bit
            fps[f"t{i:03d}"] = fp
        calls = []
        hamming = socialqe.index.hamming64
        monkeypatch.setattr(socialqe.index, "hamming64", lambda a, b: calls.append(1) or hamming(a, b))
        for radius in (0, 4, 8, 12):
            search = NeighbourSearch(dict(fps), radius)
            calls.clear()
            for tag in fps:
                assert search.near(tag) == reference_neighbours(fps, tag, radius)
            if radius <= 8:
                assert len(calls) < 400 * 399 // 10


class TestPersistence:
    def test_round_trip_small(self, tmp_path):
        meta = {"http://news.ex/story-a": LinkMetadata(
            canonicalize_url("http://news.ex/story-a"), "Story A", "desc")}
        idx = build_index(two_link_corpus(), metadata=meta,
                          provenance=(("corpus", "unit"),))
        save_index(idx, tmp_path / "idx")
        assert load_index(tmp_path / "idx") == idx

    def test_word_list_paths_left_out_of_provenance(self, tmp_path):
        # The lists are stored by content; any other key is echoed unchanged.
        idx = build_index(two_link_corpus(), provenance=[
            ("stopwords", "/a/stop.txt"), ("lexicon", "/a/lex.txt"), ("zeta", "1"),
            ("corpus", "unit"),
        ])
        assert idx.provenance == (("corpus", "unit"), ("zeta", "1"))
        save_index(idx, tmp_path / "idx")
        meta = (tmp_path / "idx" / "meta").read_text(encoding="utf-8")
        assert "\nconfig.corpus=unit\nconfig.zeta=1\n" in meta
        assert "config.stopwords" not in meta and "config.lexicon" not in meta
        assert load_index(tmp_path / "idx") == idx

    def test_round_trip_scenario(self, tmp_path, scenario_index):
        _, idx = scenario_index("aspect-shift")
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded == idx
        assert loaded.params == idx.params

    def test_round_trip_empty_index(self, tmp_path):
        idx = build_index([])
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.span is None
        assert loaded == idx

    def test_resave_is_byte_identical(self, tmp_path):
        idx = build_index(two_link_corpus())
        save_index(idx, tmp_path / "one")
        save_index(load_index(tmp_path / "one"), tmp_path / "two")
        assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")

    def test_signed_zero_weights_resave_byte_identical(self, tmp_path, scenario_index):
        # Load accepts both zeros, and 0.0 == -0.0: a weight's text is not
        # looked up by its value for them.
        _, idx = scenario_index("dominant-event")
        one = tmp_path / "one"
        save_index(idx, one)

        def signed_zeros(rows):
            for kind, zeros in (("cv", ["0.000000", "-0.000000"]),
                                ("ss", ["-0.000000", "0.000000"])):
                at = next(i for i, row in enumerate(rows)
                          if row.startswith(kind + "\t") and int(row.split("\t")[2]) >= 2)
                fields = rows[at].split("\t")
                end = 3 + 2 * int(fields[2])
                fields[end - 3:end:2] = zeros
                rows[at] = "\t".join(fields)
            return rows

        rewrite_index_file(one, "vectors/2016-12-20", signed_zeros)
        save_index(load_index(one), tmp_path / "two")
        written = tree_bytes(tmp_path / "two")
        assert written == tree_bytes(one)
        vectors = written["vectors/2016-12-20"].decode()
        assert "\t0.000000\t" in vectors and "\t-0.000000\t" in vectors

    def test_texts_of_links_never_posted_with_a_hashtag_change_no_byte(self, tmp_path):
        # Every post that names a hashtag or a link has its text's grams
        # counted. A link only ever posted without a hashtag gets a record but
        # no signature, so blanking the texts of its posts changes no byte.
        rng = random.Random(41)
        vocab = ["tower", "fire", "smoke", "crowd", "rescue", "night"]
        tags = ["grenfell", "london", "fire"]
        shared = ["http://news.ex/a", "http://news.ex/b"]
        lonely = ["http://blog.ex/x", "http://blog.ex/y"]
        for stream in range(20):
            posted, blanked = [], []
            for _ in range(rng.randint(20, 80)):
                account = f"acct{rng.randrange(12)}"
                kw = dict(day=f"2017-06-{rng.randint(14, 16)}",
                          is_retweet=rng.random() < 0.3)
                text = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
                if rng.random() < 0.3:
                    urls = rng.sample(lonely, rng.randint(1, 2))
                    posted.append(make_tweet(account, text=text, urls=urls, **kw))
                    blanked.append(make_tweet(account, text="", urls=urls, **kw))
                else:
                    tweet = make_tweet(account, text=text,
                                       hashtags=rng.sample(tags, rng.randint(0, 2)),
                                       urls=rng.sample(shared, rng.randint(0, 2)), **kw)
                    posted.append(tweet)
                    blanked.append(tweet)
            built = build_index(posted)
            assert any(  # the lonely links are counted
                key.value in lonely for recs in built.day_records.values() for key in recs
            )
            save_index(built, tmp_path / str(stream) / "posted")
            save_index(build_index(blanked), tmp_path / str(stream) / "blanked")
            assert tree_digest(tmp_path / str(stream) / "posted") == tree_digest(
                tmp_path / str(stream) / "blanked"
            )

    # Digests of the saved trees of the bundled scenarios (seed 7). The first
    # was recorded at format version 2 (stored fingerprints and the meta
    # manifest), the second at version 3 (each fact once, a CRC-32 per day
    # file), and the third at version 4 (one file per day, every file
    # guarded). Each still holds for the tree rewritten in its layout: the
    # three formats store the same facts. A build optimisation must leave
    # them alone; an intentional format change adds one and says so in
    # CHANGES.md.
    SCENARIO_TREE_DIGESTS = [
        ("single-event", "471d3d070de1acb44a8848c6d4a3842dfe8bffb834593df6bcc4b5bcc3d7aafc",
         "aae33f056829991ee74012a95eaf4bc2af191c99e104d89d87dd64ce27c074f6",
         "c6be84b7355df0a8965c45e88499212421e0a1c4c02140c9d5eb2d89d1d0480b"),
        ("aspect-shift", "d8f0966f2ad3ead554ad83f390c1ca9a94187c510ed5dae77bfb2babb2b21083",
         "0fb7fa42cbc5d7838e38c93cae3e2e8389fa24c8664e3ca0c18da4f13edf61af",
         "c2c9aa9ad5af64e9f1b68970f692be0e63d149aa174c047e3612e06a4fe5f0ec"),
        ("dominant-event", "b8868d0a82beede6fd3c23e8f70897d3bf114b92265641b639240ec6dbcc9aa4",
         "ab742690ddf9e80436ada146a0738c11681b385e3a06a54def0d09f25fbaae8f",
         "df68c75009618525b3ad49ef9a0d8ab2e6fe577a3921878310f27016a8034f6f"),
        ("false-positive-peak", "2d1870ca21afe480320ab07ae8211413c330abc31bbe3b9f422efe1ba96a1654",
         "078b80989d1dea71923c6b150a3fb935381b145f1e40cdbb7bdc9c4a08809d63",
         "53b25d79aee3e5c635643d3c90e4658a709640fab684026b682fd443e2f46107"),
    ]

    @pytest.mark.parametrize("name, version_2_digest, version_3_digest, digest",
                             SCENARIO_TREE_DIGESTS)
    def test_scenario_tree_digest_unchanged(
        self, tmp_path, scenario_index, name, version_2_digest, version_3_digest, digest
    ):
        _, idx = scenario_index(name)
        save_index(idx, tmp_path / "idx")
        assert tree_digest(tmp_path / "idx") == digest
        write_version_3(tmp_path / "idx")
        assert tree_digest(tmp_path / "idx") == version_3_digest
        write_version_2(tmp_path / "idx")
        assert tree_digest(tmp_path / "idx") == version_2_digest

    @pytest.mark.parametrize("name, version_2_digest, version_3_digest, digest",
                             SCENARIO_TREE_DIGESTS)
    def test_scenario_tree_digest_unchanged_when_memos_empty(
        self, tmp_path, name, version_2_digest, version_3_digest, digest
    ):
        # At a limit of 4 the parse tables and the build's per-day text memo
        # are emptied many times over; a value derived again is equal.
        with mock.patch.object(socialqe.ingest, "MEMO_LIMIT", 4):
            _, idx = build_scenario_index(name)
        save_index(idx, tmp_path / "idx")
        assert tree_digest(tmp_path / "idx") == digest

    def test_refuses_nonempty_target(self, tmp_path):
        target = tmp_path / "idx"
        target.mkdir()
        (target / "stale").write_text("x")
        with pytest.raises(ValueError):
            save_index(build_index([]), target)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_save_leaves_no_partial_tree(self, tmp_path, monkeypatch, existing):
        target = tmp_path / "idx"
        if existing:
            target.mkdir()
        idx = build_index(two_tag_corpus())  # its own tree is written before the patch
        written = []
        write = socialqe.index._write_section

        def fail_fifth(path, section, rows):
            if len(written) == 4:
                raise OSError("disk full")
            written.append(path)
            return write(path, section, rows)

        monkeypatch.setattr(socialqe.index, "_write_section", fail_fifth)
        with pytest.raises(OSError, match="disk full"):
            save_index(idx, target)
        assert len(written) == 4
        assert [p.name for p in tmp_path.iterdir()] == (["idx"] if existing else [])
        assert not existing or not any(target.iterdir())

    def test_save_through_a_link_keeps_the_link(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        idx = build_index(two_tag_corpus())
        save_index(idx, tmp_path / "link")
        assert (tmp_path / "link").is_symlink()
        assert load_index(tmp_path / "real") == idx

    def test_custom_params_survive(self, tmp_path):
        params = EngineParams(vector_size=7, max_distance=3, threshold=4)
        idx = build_index(two_link_corpus(), params=params)
        save_index(idx, tmp_path / "idx")
        assert load_index(tmp_path / "idx").params == params

    def test_version_mismatch_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        lines = meta.read_text().splitlines()
        lines[0] = lines[0].replace("\t4", "\t99")
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "idx")

    def assert_refused_naming_build_index(self, root, version, capsys):
        want = (f"{root / 'meta'}: line 1: unsupported format version '{version}', "
                "this socialqe reads 4: rebuild the index with `socialqe build-index`")
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == want
        args = ["--hashtag", "grenfell", "--day", "2017-06-14"]
        assert main(["expand", "--index", str(root), *args]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_version_1_tree_refused_naming_build_index(self, tmp_path, capsys):
        # Version 1 is version 2 with no fingerprint column in cv rows and no
        # manifest in meta.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        write_version_3(root)
        write_version_2(root)
        for path in (p for p in root.rglob("*") if p.is_file()):
            header, *rows, footer, end = path.read_text(encoding="utf-8").split("\n")
            rows = [row.rsplit("\t", 1)[0] if row.split("\t")[1:2] == ["cv"] else row
                    for row in rows if not row.startswith("file.")]
            path.write_text("\n".join([header.replace("\t2", "\t1"), *rows,
                                       f"#end\t{len(rows)}", end]), encoding="utf-8")
        self.assert_refused_naming_build_index(root, 1, capsys)

    def test_version_2_tree_refused_naming_build_index(self, tmp_path, capsys):
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        write_version_3(root)
        write_version_2(root)
        assert (root / "links" / "2017-06-14").read_text(encoding="utf-8").split("\n")[1] == (
            "2017-06-14\tgrenfell\thttp://news.ex/a\t5\t0\t5\t5\t0\t5\t5\t0")
        self.assert_refused_naming_build_index(root, 2, capsys)

    def test_version_3_tree_refused_naming_build_index(self, tmp_path, capsys):
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        write_version_3(root)
        assert sorted(p.name for p in root.iterdir()) == [
            "aggregates", "lexicon.txt", "links", "meta", "metadata.jsonl", "similar",
            "stopwords.txt", "vectors"]
        self.assert_refused_naming_build_index(root, 3, capsys)
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: {root / 'meta'}: line 1: unsupported format version '3', this socialqe "
            "reads 4: rebuild the index with `socialqe build-index`\n")

    # Each of these day-file edits loaded, and passed verify, at format
    # version 2: no other row repeats what it changes, or load did not check
    # it. The day file's rows: hashtag rows 0-2, link rows 3-6, cv rows 7-9,
    # ss rows 10-13, ln rows 14-17 and nb rows 18-19. Each side-file edit
    # loaded, and passed verify (`ok days=5 entries=7`), at version 3, whose
    # manifest listed the day files alone.
    @pytest.mark.parametrize("name, edit", [
        ("vectors/2016-12-20", lambda rows: [*rows[:16], rows[17], rows[16], *rows[18:]]),
        ("vectors/2016-12-20",
         lambda rows: [*rows[:13], rows[13].replace("\tcity\t", "\ttown\t"), *rows[14:]]),
        ("vectors/2016-12-20",
         lambda rows: [rows[0].replace("\t570\t0\t570\t195\t0\t195\t195\t0",
                                       "\t600\t0\t600\t200\t0\t200\t200\t0"), *rows[1:]]),
        ("vectors/2016-12-20",
         lambda rows: [*rows[:7], rows[7].replace("\t4.230224\t", "\t4.2302240\t", 1),
                       *rows[8:]]),
        ("vectors/2016-12-20", lambda rows: [*rows[:7], rows[8], rows[7], *rows[9:]]),
        ("meta", lambda rows: [row.replace("threshold=10", "threshold=3") for row in rows]),
        ("metadata.jsonl",
         lambda rows: [rows[0].replace('"title": "', '"title": "Edited: ', 1), *rows[1:]]),
        ("stopwords.txt", lambda rows: sorted([*rows, "zebra"])),
    ], ids=["links rows swapped", "ss ngram renamed", "hashtag counters replaced",
            "weight respelled", "cv rows swapped", "threshold in meta", "title rewritten",
            "stopword added"])
    def test_edit_that_meta_does_not_mirror_refused(
        self, tmp_path, capsys, scenario_index, name, edit
    ):
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        path = root / name
        header, *rows, footer, end = path.read_text(encoding="utf-8").split("\n")
        edited = edit(rows)
        assert edited != rows
        path.write_text("\n".join([header, *edited, f"#end\t{len(edited)}", end]),
                        encoding="utf-8")
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value).startswith(f"{path}: CRC-32 ")
        assert str(caught.value).endswith(": the file changed after it was saved")
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    # Each repeated row once loaded. All but the nb row also passed verify: a
    # repeated counter or vector row replaced the row before it, and a
    # repeated ln row listed the link twice, which sprf_rerank then returned
    # twice.
    @pytest.mark.parametrize("at, change, message", [
        (0, lambda row: row, "repeats the row of hashtag 'berlin'"),
        (4,
         lambda row: row.replace("\t540\t0\t540\t180\t0\t180\t180\t0",
                                 "\t1080\t0\t1080\t360\t0\t360\t360\t0"),
         "repeats the row of link 'http://news.example.com/berlin/police-manhunt-latest'"),
        (8, lambda row: row, "repeats the cv row of 'rogueone'"),
        (13, lambda row: row,
         "repeats the ss row of 'http://travel.example.com/berlin/christmas-market-guide'"),
        (14, lambda row: row,
         "repeats the row of 'berlin' and 'http://news.example.com/berlin/breitscheidplatz-vigil'"),
        (18, lambda row: row, "repeats the row of 'rogueone' and 'starwars'"),
    ], ids=["hashtag counters", "link counters doubled", "cv", "ss", "links", "similar"])
    def test_repeated_key_refused_naming_file_and_line(
        self, tmp_path, scenario_index, at, change, message
    ):
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        name = "vectors/2016-12-20"
        rewrite_index_file(root, name, lambda rows: [*rows[:at + 1], change(rows[at]), *rows[at + 1:]])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{root / name}: line {at + 3}: {message}"

    # Load leaves this to verify. Such a cv row once passed verify, and
    # local_expansions then listed its ngram twice. at counts the day's
    # vector rows alone.
    @pytest.mark.parametrize("at, kind, key", [
        (0, "cv", "berlin"), (6, "ss", "http://travel.example.com/berlin/christmas-market-guide"),
    ])
    def test_vector_repeating_an_ngram_refused_by_verify(
        self, tmp_path, capsys, scenario_index, at, kind, key
    ):
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        name = "vectors/2016-12-20"

        def copy_first_ngram(rows):
            row = day_rows_of(rows, "cv", "ss")[at]
            fields = rows[row].split("\t")
            assert fields[:2] == [kind, key] and fields[3] != fields[5]
            fields[5] = fields[3]
            if kind == "cv":  # the fingerprint follows the edit
                pairs = zip(fields[3:-1:2], map(float, fields[4:-1:2]))
                fields[-1] = f"{reference_simhash64(pairs):016x}"
            return [*rows[:row], "\t".join(fields), *rows[row + 1:]]

        rewrite_index_file(root, name, copy_first_ngram)
        load_index(root)
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: {root / name}: the {kind} vector of {key!r} repeats an ngram\n")

    # Load leaves these to verify too: such a tree, which no build writes
    # under its meta's params, once passed verify.
    @pytest.mark.parametrize("key, value, problem", [
        ("vector_size", "2", "has 9 pairs, past vector_size 2"),
        ("max_ngram", "1", "has the 2-token ngram 'christmas market', past max_ngram 1"),
    ], ids=["vector_size", "max_ngram"])
    def test_vector_past_the_stored_params_refused_by_verify(
        self, tmp_path, capsys, scenario_index, key, value, problem
    ):
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        saved = (root / "meta").read_text(encoding="utf-8")
        rewrite_index_file(root, "meta", lambda rows: [
            f"{key}={value}" if row.startswith(f"{key}=") else row for row in rows])
        assert (root / "meta").read_text(encoding="utf-8") != saved
        load_index(root)
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: {root / 'vectors/2016-12-19'}: the cv vector of 'berlin' {problem}\n")

    def test_weight_respelled_with_meta_rewritten_refused_by_verify(
        self, tmp_path, capsys, scenario_index
    ):
        # Such a tree loaded, and passed verify: the weight reads as the same float.
        _, idx = scenario_index("single-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        name = "vectors/2016-12-27"
        lines = []

        def respell(rows):
            at = day_rows_of(rows, "cv")[0]
            fields = rows[at].split("\t")
            assert fields[:5] == ["cv", "carriefisher", fields[2], "carrie", "2.972031"]
            fields[4] = "2.9720310"
            lines.append(at + 2)
            return [*rows[:at], "\t".join(fields), *rows[at + 1:]]

        rewrite_index_file(root, name, respell)
        assert load_index(root) == idx
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == (f"error: {root / name}: line {lines[0]}: "
                                           "field 5 is '2.9720310', save writes '2.972031'\n")

    def test_empty_day_file_refused_by_verify(self, tmp_path, capsys, scenario_index):
        # meta does not list it, so load never reads it: verify refuses it.
        _, idx = scenario_index("single-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        path = root / "vectors" / "2016-01-01"
        path.write_text("#socialqe\tday\t4\n#end\t0\n", encoding="utf-8")
        assert load_index(root) == idx
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: save writes no such file or directory\n")

    def test_file_or_directory_save_does_not_write_refused_by_verify(
        self, tmp_path, capsys, scenario_index
    ):
        # Such a tree passed verify (`ok days=5 entries=7`) at format version 3.
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        (root / "junk.txt").write_text("junk\n", encoding="utf-8")
        (root / "extra").mkdir()
        assert load_index(root) == idx
        for stray, remove in ((root / "extra", os.rmdir), (root / "junk.txt", os.unlink)):
            assert main(["verify", "--index", str(root)]) == 2
            assert capsys.readouterr().err == (
                f"error: {stray}: save writes no such file or directory\n")
            remove(stray)
        assert main(["verify", "--index", str(root)]) == 0
        assert capsys.readouterr().out == "ok days=5 entries=7\n"

    # Each of these edits loads as an index equal to the saved one, so only
    # verify's comparison with save's rendering refuses it.
    @pytest.mark.parametrize("name, edit, problem", [
        ("vectors/2016-12-20", lambda rows: [*rows[:7], rows[8], rows[7], *rows[9:]],
         "line 9: field 2 is 'rogueone', save writes 'berlin'"),
        ("stopwords.txt", lambda rows: [rows[1], rows[0], *rows[2:]],
         "line 2: field 1 is 'about', save writes 'a'"),
        ("lexicon.txt", lambda rows: [*rows, rows[-1]], "line 7: save writes no row here"),
        ("metadata.jsonl", lambda rows: [rows[0].replace('", "', '","', 1), *rows[1:]],
         "line 2: field 1 is '{\"description\": \"Mourners gather for the vigil.\",\"title\""),
        ("meta", lambda rows: [row.replace("threshold=10", "threshold=010") for row in rows],
         "line 12: field 1 is 'threshold=010', save writes 'threshold=10'"),
    ], ids=["cv rows swapped", "stopwords unsorted", "lexicon row repeated",
            "metadata respaced", "parameter respelled"])
    def test_file_that_save_would_not_write_refused_by_verify(
        self, tmp_path, capsys, scenario_index, name, edit, problem
    ):
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        rewrite_index_file(root, name, edit)
        assert load_index(root) == idx
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {root / name}: {problem}")

    def test_links_out_of_rank_order_refused_by_verify(self, tmp_path, capsys, scenario_index):
        # Such a tree loaded, and passed verify: load keeps a hashtag's links in file order.
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        name = "vectors/2016-12-20"

        def swap_first_two(rows):
            first, second = day_rows_of(rows, "ln")[:2]
            assert [rows[i].split("\t")[1] for i in (first, second)] == ["berlin", "berlin"]
            return [*rows[:first], rows[second], rows[first], *rows[second + 1:]]

        rewrite_index_file(root, name, swap_first_two)
        load_index(root)
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: {root / name}: links of 'berlin' are not in rank order\n")

    # Each edit has meta's manifest and crc= row rewritten to match, so only
    # load's other checks and verify's can object. Swapping two distinct rows of a day file
    # always changes what save would write, so verify must refuse it. Load and
    # verify read each day alone, so the swaps run on the tree saved from the
    # scenario's index cut to one day: refused there exactly when refused in
    # the whole tree, at a fraction of the cost. A single-byte edit anywhere
    # in the whole tree must be refused, or leave save's own rendering of
    # what the tree loads as.
    @pytest.mark.parametrize("name", bundled_names())
    def test_mutated_tree_refused_by_verify_or_saved_unchanged(
        self, tmp_path, scenario_index, name
    ):
        _, idx = scenario_index(name)
        swaps = 0
        for day in idx.days():
            root = tmp_path / day.isoformat()
            save_index(dataclasses.replace(
                idx, day_records={day: idx.day_records[day]},
                entries={key: e for key, e in idx.entries.items() if key[1] == day},
            ), root)
            verify_index(root)
            saved = tree_bytes(root)
            for file in (f for f in saved if "/" in f):
                header, *rows, footer, end = saved[file].split(b"\n")
                for i, j in itertools.combinations(range(len(rows)), 2):
                    if rows[i] != rows[j]:
                        swapped = rows.copy()
                        swapped[i], swapped[j] = rows[j], rows[i]
                        write_listed(root, saved, file,
                                     b"\n".join([header, *swapped, footer, end]))
                        with pytest.raises(IndexFormatError):
                            verify_index(root)
                        swaps += 1
                write_listed(root, saved, file, saved[file])
        assert swaps > 50

        root, resaved = tmp_path / "idx", tmp_path / "resaved"
        save_index(idx, root)
        saved = tree_bytes(root)
        files, rng, kept = sorted(saved), random.Random(name), 0
        for _ in range(EDITS_PER_SCENARIO):
            file = rng.choice(files)
            data = bytearray(saved[file])
            at = rng.randrange(len(data))
            data[at] = rng.choice([b for b in EDIT_BYTES if b != data[at]])
            write_listed(root, saved, file, bytes(data))
            try:
                verify_index(root)
            except IndexFormatError:
                pass
            else:
                save_index(load_index(root), resaved)
                assert tree_bytes(resaved) == tree_bytes(root), (file, at)
                shutil.rmtree(resaved)
                kept += 1
            write_listed(root, saved, file, saved[file])
        assert kept < EDITS_PER_SCENARIO

    def test_lost_aggregates_file_of_a_link_only_day_rejected(self, tmp_path):
        # A day with links but no hashtags has its counter rows alone; without
        # them the day once vanished from the loaded index.
        tweets = two_tag_corpus() + [
            make_tweet("acct-x", day="2017-06-15", urls=["http://news.ex/b"])]
        root = tmp_path / "idx"
        save_index(build_index(tweets), root)
        lost = root / "vectors" / "2017-06-15"
        assert [p for p in root.glob("*/2017-06-15")] == [lost]
        lost.unlink()
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{lost}: listed in meta but missing"

    def test_unlisted_day_file_rejected(self, tmp_path, capsys):
        # Load reads the days that meta lists; verify refuses any other file.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        rewrite_index_file(root, "meta", lambda rows: [
            row for row in rows if not row.startswith("file.vectors/")])
        assert load_index(root).days() == []
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: {root / 'vectors' / '2017-06-14'}: save writes no such file or directory\n")

    def test_listed_day_outside_the_span_rejected(self, tmp_path):
        # Every day a build writes is a day of its corpus, so inside the span.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        shutil.copy(root / "vectors" / "2017-06-14", root / "vectors" / "2017-06-15")
        rewrite_index_file(root, "meta", lambda rows: [*rows, *(
            row.replace("2017-06-14", "2017-06-15") for row in rows
            if row.startswith("file.vectors/"))])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == (
            f"{root / 'vectors' / '2017-06-15'}: day outside the span in {root / 'meta'}")

    def test_day_file_without_counter_rows_rejected(self, tmp_path):
        # A build writes a day only if its posts count something.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        rewrite_index_file(root, "vectors/2017-06-14", lambda rows: [])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{root / 'vectors' / '2017-06-14'}: no hashtag or link row"

    def test_span_without_a_day_file_loads(self, tmp_path):
        # A post naming no hashtag and no link counts nothing, so its day has
        # no file, though the span holds it.
        idx = build_index([make_tweet("acct", day="2017-06-14", text="tower fire")])
        assert (idx.span, idx.days()) == ((D1, D1), [])
        save_index(idx, tmp_path / "idx")
        assert verify_index(tmp_path / "idx") == idx

    def test_side_file_not_listed_in_meta_rejected(self, tmp_path):
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        rewrite_index_file(root, "meta", lambda rows: [
            row for row in rows if not row.startswith("file.lexicon.txt=")])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{root / 'lexicon.txt'}: not listed in meta"

    def test_row_count_differing_from_manifest_rejected(self, tmp_path):
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        assert "\nfile.vectors/2017-06-14=10 " in (root / "meta").read_text(encoding="utf-8")
        rewrite_index_file(root, "meta", lambda rows: [
            row.replace("file.vectors/2017-06-14=10 ", "file.vectors/2017-06-14=11 ") for row in rows])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == (
            f"{root / 'vectors' / '2017-06-14'}: #end count 10, meta lists 11")

    def test_truncated_section_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        agg = tmp_path / "idx" / "vectors" / "2017-06-14"
        lines = agg.read_text().splitlines(keepends=True)
        agg.write_text("".join(lines[:1] + lines[2:]))  # drop a data row
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "idx")

    def test_footer_with_a_field_after_its_count_rejected(self, tmp_path, capsys):
        # Such a lexicon once loaded, and verify passed it. meta follows the
        # edit, so only the footer check can refuse it.
        root = tmp_path / "idx"
        lexicon = frozenset({"fire", "grenfell", "news", "story", "tower"})
        save_index(build_index(two_link_corpus(), lexicon=lexicon), root)
        path = root / "lexicon.txt"
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n#end\t5\n")
        path.write_text(text[:-1] + "\tjunk\n", encoding="utf-8")
        relist(root, "lexicon.txt")
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{path}: line 7: footer '#end\\t5\\tjunk', not '#end\\t5'"
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    # A second row of a key once replaced the first, and verify passed it
    # (threshold=3 after threshold=10 loaded threshold 3). meta's crc= row
    # follows the edit here.
    @pytest.mark.parametrize("key, value", [
        ("threshold", "3"), ("config.seed", "8"), ("file.vectors/2017-06-14", None),
    ], ids=["parameter", "config", "manifest"])
    def test_repeated_meta_key_refused_naming_the_line(self, tmp_path, capsys, key, value):
        root = tmp_path / "idx"
        save_index(build_index(two_link_corpus(), provenance=[("seed", "7")]), root)
        meta = root / "meta"

        def repeat(rows):
            (at,) = [i for i, row in enumerate(rows) if row.startswith(f"{key}=")]
            return [*rows[:at + 1], rows[at] if value is None else f"{key}={value}",
                    *rows[at + 1:]]

        rewrite_index_file(root, "meta", repeat)
        lines = meta.read_text(encoding="utf-8").split("\n")
        second = [i for i, row in enumerate(lines) if row.startswith(f"{key}=")][1]
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{meta}: line {second + 1}: repeats the key {key!r}"
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    def test_stray_day_file_rejected(self, tmp_path, capsys):
        root = tmp_path / "idx"
        save_index(build_index(two_link_corpus()), root)
        junk = root / "vectors" / "not-a-date"
        junk.write_text("#socialqe\tday\t4\n#end\t0\n")
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err == f"error: {junk}: save writes no such file or directory\n"
        junk.unlink()
        # From Python 3.11 date.fromisoformat also reads the basic format, so
        # a copy named 20170614 once loaded as a second file of that day.
        day_file = root / "vectors" / "2017-06-14"
        junk = day_file.with_name("20170614")
        junk.write_bytes(day_file.read_bytes())
        rewrite_index_file(root, "meta", lambda rows: [*rows, *(
            row.replace("vectors/2017-06-14", "vectors/20170614")
            for row in rows if row.startswith("file.vectors/2017-06-14="))])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{junk}: not a YYYY-MM-DD day file"

    def test_span_in_basic_format_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        replace_in_meta(meta, "span_end=2017-06-14", "span_end=20170614")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        # Python 3.10 itself refuses the form; 3.11 on reads it as 2017-06-14.
        assert str(caught.value).startswith(f"{meta}: bad span: ")
        assert "'20170614'" in str(caught.value)

    def test_span_start_without_span_end_named(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        replace_in_meta(meta, "span_end=", "span_stop=")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == f"{meta}: bad span: span_start without span_end"

    def test_meta_without_span_keys_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        replace_in_meta(meta, "span_start=", "begin=")
        replace_in_meta(meta, "span_end=", "end=")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == f"{meta}: bad span: no span_start"

    def test_span_of_none_and_a_day_rejected(self, tmp_path):
        # Only both `none` (an empty index) or two days are what save writes.
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        replace_in_meta(meta, "span_start=2017-06-14", "span_start=none")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value).startswith(f"{meta}: bad span: ")
        assert "'none'" in str(caught.value)

    def test_weight_multiplier_of_nan_in_meta_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        replace_in_meta(meta, "tweet_weight=0.8", "tweet_weight=nan")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == f"{meta}: tweet_weight must be finite and in 0..1e6"

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises((IndexFormatError, OSError)):
            load_index(tmp_path / "absent")

    def test_missing_days_directory_rejected(self, tmp_path):
        # A lost section directory was once a bare FileNotFoundError.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        shutil.rmtree(root / "vectors")
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{root / 'vectors' / '2017-06-14'}: listed in meta but missing"

    # Each format version 3 section directory, and the day-file row kinds
    # that now hold what it held.
    @pytest.mark.parametrize("section, kinds, message", [
        ("aggregates", ("hashtag", "link"), "line 2: 'grenfell' has no hashtag row"),
        ("vectors", ("cv", "ss"), "line 5: 'grenfell' has no cv row"),
        ("links", ("ln",), "no ln row for link 'http://news.ex/a'"),
        ("similar", ("nb",), "neighbours of 'grenfell' differ from a search at radius 8"),
    ], ids=["aggregates", "vectors", "links", "similar"])
    def test_missing_section_directory_rejected(self, tmp_path, section, kinds, message):
        # Every row the section held is dropped and meta follows, so no CRC-32
        # refuses it. load refuses the first three; lost nb rows leave a day
        # that loads, and verify's neighbour search refuses it.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        rewrite_index_file(root, "vectors/2017-06-14", lambda rows: [
            row for row in rows if row.split("\t")[0] not in kinds])
        with pytest.raises(IndexFormatError) as caught:
            verify_index(root)
        assert str(caught.value) == f"{root / 'vectors' / '2017-06-14'}: {message}"

    # The first parameter names the format version 3 file that held the
    # edited row; that file's rows lacked the ln and nb kinds.
    @pytest.mark.parametrize("section, edit, message", [
        ("aggregates", lambda f: f[:-1], "expected 10 fields"),
        ("aggregates", lambda f: ["tag", *f[1:]], "bad kind"),
        ("aggregates", lambda f: ["ngram", *f[1:]], "bad kind 'ngram'"),
        ("aggregates", lambda f: [*f[:2], "x", *f[3:]], "invalid literal"),
        ("vectors", lambda f: f[:2], "short vector row"),
        ("vectors", lambda f: [*f[:2], "many", *f[3:]], "bad entry count"),
        ("vectors", lambda f: f[:-1], "(ngram, weight) pairs"),
        ("vectors", lambda f: [*f[:4], "heavy", *f[5:]], "bad weight"),
        # A weight is finite and not negative, as save_index writes it.
        ("vectors", lambda f: [*f[:4], "inf", *f[5:]], "bad weight 'inf'"),
        ("vectors", lambda f: [*f[:4], "1e400", *f[5:]], "bad weight '1e400'"),
        ("vectors", lambda f: [*f[:4], "nan", *f[5:]], "bad weight 'nan'"),
        ("vectors", lambda f: [*f[:4], "-3.000000", *f[5:]], "bad weight '-3.000000'"),
        # Each finite, but their sum is not: named where the running sum overflows.
        ("vectors", lambda f: [*f[:4], "1e308", f[5], "1e308", *f[7:]], "bad weight '1e308'"),
        ("vectors", lambda f: ["zz", *f[1:]], "bad kind"),
        ("links", lambda f: f[:-1], "expected 3 fields"),
        ("links", lambda f: [f[0], "http://elsewhere.ex/z"], "has no ss row"),
        ("similar", lambda f: f[:-1], "expected 3 fields"),
        ("similar", lambda f: [f[0], f[0]], "'grenfell' lists itself"),
        ("vectors", lambda f: [f[0], "paris", *f[2:]], "'paris' has no hashtag row"),
        ("links", lambda f: ["paris", f[1]], "'paris' has no cv row"),
        ("similar", lambda f: ["paris", f[1]], "'paris' has no cv row"),
        ("similar", lambda f: [f[0], "rome"], "'rome' has no cv row"),
        # A fingerprint is exactly 16 lowercase hex digits.
        ("vectors", lambda f: [*f[:-1], "0123456789abcde"],
         "bad fingerprint '0123456789abcde'"),
        ("vectors", lambda f: [*f[:-1], "0123456789ABCDEF"],
         "bad fingerprint '0123456789ABCDEF'"),
    ])
    def test_corrupt_row_named_by_file_and_line(self, tmp_path, section, edit, message):
        # meta follows the edit: otherwise the file's CRC-32 refuses it first.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        kind = {"aggregates": "hashtag", "vectors": "cv", "links": "ln", "similar": "nb"}[section]
        lines = []

        def edit_first(rows):
            at = day_rows_of(rows, kind)[0]
            fields = rows[at].split("\t")
            fields = [kind, *edit(fields[1:])] if kind in ("ln", "nb") else edit(fields)
            lines.append(at + 2)
            return [*rows[:at], "\t".join(fields), *rows[at + 1:]]

        rewrite_index_file(root, "vectors/2017-06-14", edit_first)
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value).startswith(f"{root / 'vectors' / '2017-06-14'}: line {lines[0]}: ")
        assert message in str(caught.value)

    @staticmethod
    def flip_grenfell(bits):
        """A rewrite_index_file edit XOR-ing bits into grenfell's fingerprint."""
        def edit(rows):
            at = day_rows_of(rows, "cv")[0]
            fields = rows[at].split("\t")
            assert fields[:2] == ["cv", "grenfell"]
            fields[-1] = f"{int(fields[-1], 16) ^ bits:016x}"
            return [*rows[:at], "\t".join(fields), *rows[at + 1:]]
        return edit

    @pytest.mark.parametrize("kind", ["cv", "ss"])
    def test_increasing_weights_rejected(self, tmp_path, kind):
        # expand_query divides by the first weight as the peak: swapped weights
        # would give query terms above 1.0. meta follows the edit, so only the
        # order check can refuse it.
        tweets = [make_tweet(f"acct{i}", day="2017-06-14",
                             text="tower fire" if i < 3 else "tower",
                             hashtags=["grenfell"], urls=["http://news.ex/a"])
                  for i in range(5)]
        root = tmp_path / "idx"
        save_index(build_index(tweets), root)
        name = "vectors/2017-06-14"
        swapped = []

        def swap(rows):
            # The row's first two adjacent weights that differ trade places.
            for at, row in enumerate(rows):
                fields = row.split("\t")
                if fields[0] != kind:
                    continue
                for i in range(4, 2 + 2 * int(fields[2]), 2):
                    if fields[i] != fields[i + 2]:
                        fields[i], fields[i + 2] = fields[i + 2], fields[i]
                        swapped.append((at + 2, fields[i], fields[i + 2]))
                        return [*rows[:at], "\t".join(fields), *rows[at + 1 :]]
            raise AssertionError(f"no {kind} row with two distinct weights")

        rewrite_index_file(root, name, swap)
        ((lineno, first, second),) = swapped
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == (
            f"{root / name}: line {lineno}: weight {second!r} is above the {first!r} before it")

    def test_fingerprint_contradicting_a_distance_rejected(self, tmp_path, capsys):
        # A neighbour's distance is not stored: load reads 2 from the
        # fingerprints, still within the radius, and verify recomputes them.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        rewrite_index_file(root, "vectors/2017-06-14", self.flip_grenfell(0b101))
        assert load_index(root).entry("grenfell", D1).similar == (("london", 2),)
        assert main(["verify", "--index", str(root)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {root / 'vectors' / '2017-06-14'}: fingerprint of 'grenfell' is ")

    def test_neighbour_past_max_distance_rejected(self, tmp_path):
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        rewrite_index_file(root, "vectors/2017-06-14", self.flip_grenfell(0x1FF))
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == (
            f"{root / 'vectors' / '2017-06-14'}: line 10: the fingerprints of "
            "'grenfell' and 'london' are 9 bits apart, past max_distance 8")

    def test_non_utf8_byte_named_by_file(self, tmp_path):
        save_index(build_index(two_tag_corpus()), tmp_path / "idx")
        path = tmp_path / "idx" / "vectors" / "2017-06-14"
        data = path.read_bytes()
        path.write_bytes(data.replace(b"tower", b"tow\xffer", 1))
        relist(tmp_path / "idx", "vectors/2017-06-14")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value).startswith(f"{path}: not UTF-8: ")

    def test_ss_row_needs_an_aggregates_link_row(self, tmp_path):
        save_index(build_index(two_tag_corpus()), tmp_path / "idx")
        path = tmp_path / "idx" / "vectors" / "2017-06-14"
        text = path.read_text(encoding="utf-8")
        assert text.split("\n")[6].split("\t")[:2] == ["ss", "http://news.ex/a"]
        path.write_text(text.replace("\nss\thttp://news.ex/a\t", "\nss\thttp://ex.org/z\t"),
                        encoding="utf-8")
        relist(tmp_path / "idx", "vectors/2017-06-14")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == (
            f"{path}: line 7: 'http://ex.org/z' has no link row")

    def test_hashtag_row_needs_a_cv_row(self, tmp_path):
        # meta follows the edit: otherwise the file's CRC-32 refuses it first.
        save_index(build_index(two_tag_corpus()), tmp_path / "idx")
        path = tmp_path / "idx" / "vectors" / "2017-06-14"

        def drop_london(rows):
            # and the ln and nb rows that name london, or they are refused first
            kept = [row for row in rows if row.split("\t")[0] in ("hashtag", "link", "ss")
                    or "london" not in row.split("\t")[1:3]]
            assert len(kept) == len(rows) - 4
            return kept

        rewrite_index_file(tmp_path / "idx", "vectors/2017-06-14", drop_london)
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == f"{path}: no cv row for hashtag 'london'"

    def test_ss_row_needs_a_links_row(self, tmp_path, scenario_index):
        # Without its links file a day once loaded with its links silently gone.
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        rewrite_index_file(root, "vectors/2016-12-20", lambda rows: [
            row for row in rows if not row.startswith("ln\t")])
        path = root / "vectors" / "2016-12-20"
        rows = path.read_text(encoding="utf-8").split("\n")
        url = next(row.split("\t")[1] for row in rows if row.split("\t")[:1] == ["ss"])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{path}: no ln row for link {url!r}"


def test_build_scenario_dominant_has_expected_days():
    _, idx = build_scenario_index("dominant-event")
    assert idx.span == (date(2016, 12, 19), date(2016, 12, 23))
    assert idx.days() == [date(2016, 12, 19) + timedelta(days=i) for i in range(5)]


# A fork while another thread is alive warns on Python 3.12 on, but os.fork
# drops that warning when a filter makes it an error. So the builds here
# record every warning, and the tests require none (the mark covers others).
@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestWorkerBuild:
    @staticmethod
    def build(*args, **kwargs):
        """build_index(*args, **kwargs) and the number of workers it forked."""
        with counted_forks() as forked, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = build_index(*args, **kwargs)
        assert [str(w.message) for w in caught] == []
        return index, len(forked)

    @pytest.mark.parametrize("name", [*bundled_names(), "nine-day"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_equals_the_serial_build(self, tmp_path, cpus, name, workers):
        if name == "nine-day":
            tweets, kwargs = multi_day_corpus(), {}
        else:
            spec = get_scenario(name)
            tweets = list(parse_stream(json.dumps(o) for o in iter_tweet_objects(spec, 7)))
            kwargs = dict(
                metadata=parse_metadata(json.dumps(o) for o in scenario_metadata(spec)),
                lexicon=frozenset(spec.lexicon))
        cpus(1)
        serial, forks = self.build(tweets, **kwargs)
        assert forks == 0
        cpus(workers)
        forked, forks = self.build(tweets, **kwargs)
        assert forks == min(workers, len({t.day for t in tweets})) - 1
        assert forked == serial
        for day in forked.days():
            assocs = [a for h in forked.hashtags_on(day) for a in forked.entry(h, day).links]
            assert len({id(a) for a in assocs}) == len({a.url.full for a in assocs})
        # Over the whole index, equal weights are one float: load reads them
        # through one Memo(float).
        weights = [
            r.weight
            for day in forked.days()
            for e in map(forked.entry, forked.hashtags_on(day), repeat(day))
            for vector in (e.vector, *(a.signature for a in e.links))
            for r in vector
        ]
        assert weights or name != "nine-day"
        assert len(set(map(id, weights))) == len(set(weights))
        save_index(serial, tmp_path / "serial")
        save_index(forked, tmp_path / "forked")
        assert tree_bytes(tmp_path / "forked") == tree_bytes(tmp_path / "serial")

    def test_worker_count(self, cpus, monkeypatch):
        cpus(4)
        monkeypatch.setattr(socialqe.index, "_MIN_WORKER_POSTS", 1_000)
        count = socialqe.index._worker_count
        assert [count(9, 10**6), count(2, 10**6), count(9, 2_500), count(9, 999), count(0, 0)] \
            == [4, 2, 2, 1, 1]
        monkeypatch.delattr(socialqe.index.os, "fork")
        assert count(9, 10**6) == 1

    def test_no_fork_while_another_thread_is_alive(self, cpus, monkeypatch):
        cpus(4)
        want = build_index(multi_day_corpus())

        def no_fork():
            raise AssertionError("forked with a second thread alive")

        monkeypatch.setattr(socialqe.index.os, "fork", no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert socialqe.index._worker_count(9, 10**6) == 1
            assert build_index(multi_day_corpus()) == want
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    @staticmethod
    def in_workers(monkeypatch, act):
        """Make _build_day call act(day) first in a forked worker."""
        build_day, parent = socialqe.index._build_day, os.getpid()

        def build_day_in_worker(by_day, day, **kwargs):
            if os.getpid() != parent:
                act(day)
            return build_day(by_day, day, **kwargs)

        monkeypatch.setattr(socialqe.index, "_build_day", build_day_in_worker)

    def test_worker_exception_names_the_day(self, cpus, monkeypatch):
        cpus(2)

        def fail(day):
            raise ValueError(f"no posts wanted on {day}")

        self.in_workers(monkeypatch, fail)
        with pytest.raises(RuntimeError) as caught:
            self.build(multi_day_corpus())
        assert re.fullmatch(r"building (\S+) in a worker: ValueError: no posts wanted on \1",
                            str(caught.value))
        assert_no_child_left()

    @pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "build process"])
    def test_day_that_load_refuses_is_left_to_verify(self, tmp_path, cpus, monkeypatch, in_worker):
        # No process parses a day it wrote to check it, whichever built it: a
        # day that load refuses (here, a cv vector whose weights increase)
        # completes the build, and verify refuses the tree naming its file.
        cpus(2)
        build_day, parent = socialqe.index._build_day, os.getpid()
        reversed_day = tmp_path / "reversed-day"

        def unranked(by_day, day, **kwargs):
            built = build_day(by_day, day, **kwargs)
            if (os.getpid() != parent) == in_worker and built and not reversed_day.exists():
                entries = built[1]
                for i, e in enumerate(entries):
                    if e.vector and e.vector[0].weight > e.vector[-1].weight:
                        entries[i] = dataclasses.replace(e, vector=e.vector[::-1])
                        reversed_day.write_text(day.isoformat())
                        break
            return built

        monkeypatch.setattr(socialqe.index, "_build_day", unranked)
        root = tmp_path / "idx"
        with counted_forks() as forked:
            socialqe.index.build_tree(multi_day_corpus(), root)
        assert len(forked) == 1
        assert_no_child_left()
        with pytest.raises(IndexFormatError) as caught:
            verify_index(root)
        name = root / "vectors" / reversed_day.read_text()
        assert re.fullmatch(
            rf"{re.escape(str(name))}: line \d+: weight '[\d.]+' is above the '[\d.]+' before it",
            str(caught.value))

    def test_worker_that_dies_is_named_by_its_first_day(self, cpus, monkeypatch):
        cpus(2)
        self.in_workers(monkeypatch, lambda day: os._exit(3))
        with pytest.raises(RuntimeError) as caught:
            self.build(multi_day_corpus())
        assert re.fullmatch(r"a worker exited with status 3 before it sent 2017-06-\d\d",
                            str(caught.value))
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_workers(self, cpus, monkeypatch):
        # The workers would sleep for a minute; the interrupt ends the build at once.
        cpus(3)
        self.in_workers(monkeypatch, lambda day: time.sleep(60))
        build_day, parent = socialqe.index._build_day, os.getpid()

        def interrupted(by_day, day, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return build_day(by_day, day, **kwargs)

        monkeypatch.setattr(socialqe.index, "_build_day", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.build(multi_day_corpus())
        assert time.monotonic() - started < 30
        assert_no_child_left()

    @pytest.fixture
    def cli_build(self, tmp_path, capsys):
        """build-index's arguments for single-event's corpus, and the --out they name."""
        inputs = tmp_path / "inputs"
        assert main(["synth-gen", "--scenario", "single-event", "--out", str(inputs)]) == 0
        capsys.readouterr()
        out = tmp_path / "out" / "idx"
        return ["build-index", "--corpus", str(inputs / "corpus.jsonl"), "--out", str(out)], out

    @staticmethod
    def assert_nothing_left(out):
        assert not out.exists()
        assert list(out.parent.glob(f".{out.name}.*.partial")) == []
        assert_no_child_left()

    def test_worker_exception_leaves_nothing(self, cpus, monkeypatch, cli_build):
        cpus(2)

        def fail(day):
            raise ValueError("no posts wanted")

        self.in_workers(monkeypatch, fail)
        args, out = cli_build
        with pytest.raises(RuntimeError, match=r"in a worker: ValueError: no posts wanted"):
            main(args)
        self.assert_nothing_left(out)

    def test_build_process_exception_leaves_nothing(self, cpus, monkeypatch, capsys, cli_build):
        # The build process's second day file fails to write, with its workers running.
        cpus(2)
        write, parent, written = socialqe.index._write_section, os.getpid(), []

        def fail_second(path, section, rows):
            if os.getpid() == parent:
                written.append(path)
                if len(written) == 2:
                    raise OSError("disk full")
            return write(path, section, rows)

        monkeypatch.setattr(socialqe.index, "_write_section", fail_second)
        args, out = cli_build
        assert main(args) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert written[0].parent.parent.name.endswith(".partial")
        self.assert_nothing_left(out)

    def test_interrupted_build_leaves_nothing(self, cpus, monkeypatch, cli_build):
        cpus(3)
        self.in_workers(monkeypatch, lambda day: time.sleep(60))
        build_day, parent = socialqe.index._build_day, os.getpid()

        def interrupted(by_day, day, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return build_day(by_day, day, **kwargs)

        monkeypatch.setattr(socialqe.index, "_build_day", interrupted)
        args, out = cli_build
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(args)
        assert time.monotonic() - started < 30
        self.assert_nothing_left(out)

    def test_out_filled_during_the_build_is_refused_at_the_rename(
        self, cpus, monkeypatch, capsys, cli_build
    ):
        cpus(2)
        args, out = cli_build
        build_day, parent = socialqe.index._build_day, os.getpid()

        def fill_out(by_day, day, **kwargs):
            if os.getpid() == parent:
                out.mkdir(exist_ok=True)
                (out / "stale").write_text("x")
            return build_day(by_day, day, **kwargs)

        monkeypatch.setattr(socialqe.index, "_build_day", fill_out)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: refusing to write index into non-empty {out}\n"
        assert [p.name for p in out.parent.iterdir()] == ["idx"]
        assert [p.name for p in out.iterdir()] == ["stale"]
        assert_no_child_left()
