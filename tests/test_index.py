import hashlib
import random
import shutil
import sys
import threading
from datetime import date, timedelta

import pytest

import socialqe.index
from conftest import (
    build_scenario_index,
    make_tweet,
    reference_neighbours,
    reference_simhash64,
)
from socialqe.config import EngineParams
from socialqe.index import (
    HashtagIndex,
    IndexFormatError,
    NeighbourSearch,
    build_index,
    load_index,
    save_index,
    similar_hashtags,
)
from socialqe.ingest import LinkMetadata, canonicalize_url
from socialqe.signatures import vector_fingerprint
from socialqe.votes import LINK, ElementKey

D1 = date(2017, 6, 14)


def two_link_corpus():
    """One day, one hashtag, two links with 30 and 12 sharing accounts."""
    tweets = []
    for i in range(30):
        tweets.append(make_tweet(f"a{i}", f"acct-a{i}", day="2017-06-14",
                                 text="tower fire", hashtags=["grenfell"],
                                 urls=["http://news.ex/story-a"]))
    for i in range(12):
        tweets.append(make_tweet(f"b{i}", f"acct-b{i}", day="2017-06-14",
                                 text="tower fire", hashtags=["grenfell"],
                                 urls=["http://news.ex/story-b"]))
    return tweets


def two_tag_corpus():
    """One day: five accounts post the same text with two tags and one link."""
    return [make_tweet(f"t{i}", f"acct{i}", day="2017-06-14", text="tower fire",
                       hashtags=["grenfell", "london"], urls=["http://news.ex/a"])
            for i in range(5)]


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


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
            make_tweet(f"t{i}", f"a{i}", text="london fire spreads",
                       hashtags=["londonfire"])
            for i in range(5)
        ]
        idx = build_index(tweets, lexicon=frozenset(["london", "fire"]))
        grams = {e.ngram for e in idx.entry("londonfire", D1.replace(month=1, day=15)).vector}
        assert "london fire" not in grams
        assert "londonfire" not in grams
        assert {"london", "fire", "spreads", "fire spreads"} <= grams

    def test_retweet_only_hashtag_still_indexed(self):
        t = make_tweet("t1", "a1", text="echo", hashtags=["quiet"],
                       is_retweet=True, retweet_of="t0")
        idx = build_index([t])
        entry = idx.entry("quiet", t.day)
        assert entry.vector[0].ngram == "echo"
        rec = idx.day_records[t.day][ElementKey("hashtag", "quiet")]
        assert (rec.tweet_votes, rec.retweet_votes) == (0, 1)

    def test_textual_noise_does_not_change_index(self):
        base = two_link_corpus()
        noisy = base + [
            make_tweet(f"n{i}", f"noise{i}", day="2017-06-14", text="lunch again")
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
        tweets = [make_tweet("t1", "a", day="2017-01-03", hashtags=["x"]),
                  make_tweet("t2", "a", day="2017-01-07", hashtags=["x"])]
        idx = build_index(tweets)
        assert idx.span == (date(2017, 1, 3), date(2017, 1, 7))

    def test_out_of_span_tweet_is_fatal_and_named(self):
        tweets = [make_tweet("late99", "a", day="2017-02-01", hashtags=["x"])]
        with pytest.raises(ValueError, match="late99"):
            build_index(tweets, span=(date(2017, 1, 1), date(2017, 1, 31)))

    def test_span_longer_than_a_year_rejected(self):
        with pytest.raises(ValueError, match="366"):
            build_index([], span=(date(2017, 1, 1), date(2018, 6, 1)))

    def test_inverted_span_rejected(self):
        with pytest.raises(ValueError):
            build_index([], span=(date(2017, 2, 1), date(2017, 1, 1)))

    def test_empty_corpus(self):
        idx = build_index([])
        assert idx.span is None
        assert idx.entries == {}
        assert idx.days() == []

    def test_lookups(self):
        idx = build_index(two_link_corpus())
        assert idx.has_entry("grenfell", D1)
        assert not idx.has_entry("grenfell", D1 + timedelta(days=1))
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
                assert similar_hashtags(idx, h, day) == reference_neighbours(fps, h, 8)
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
            make_tweet(f"t{i}-{j}", f"a{j}", text=f"w{i % 10} v{i % 4} shared text x{j}",
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

    def test_shuffled_corpus_saves_identical_bytes(self, tmp_path):
        rng = random.Random(31)
        base = two_link_corpus()
        shuffled = base[:]
        rng.shuffle(shuffled)
        save_index(build_index(base), tmp_path / "one")
        save_index(build_index(shuffled), tmp_path / "two")
        assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")

    # Digests of the saved trees of the bundled scenarios (seed 7), recorded
    # before the restricted ngram tally replaced per-context DailyAggregates.
    # A build optimisation must leave them alone; an intentional format change
    # updates them and says so in CHANGES.md.
    @pytest.mark.parametrize("name, digest", [
        ("single-event", "db1d06974840e76b4157deb7179ab6ee9f5b353a3bf9f6fcd11f313bc0b24b7b"),
        ("aspect-shift", "41ba83d61c9e14dc4386638cf033ff0f241b74ddbcb6a9713e5f1ccad97d7f67"),
        ("dominant-event", "1b2b995c4596810b506a5d6a8fbc5f9dc9768430f693d89637e27a3dd8d92118"),
        ("false-positive-peak", "d72f1f5660eb5147778397a816e14dda4ea1dabebc23713e01c775b1921059e8"),
    ])
    def test_scenario_tree_digest_unchanged(self, tmp_path, scenario_index, name, digest):
        _, idx = scenario_index(name)
        save_index(idx, tmp_path / "idx")
        assert tree_digest(tmp_path / "idx") == digest

    def test_refuses_nonempty_target(self, tmp_path):
        target = tmp_path / "idx"
        target.mkdir()
        (target / "stale").write_text("x")
        with pytest.raises(ValueError):
            save_index(build_index([]), target)

    def test_custom_params_survive(self, tmp_path):
        params = EngineParams(vector_size=7, max_distance=3, threshold=4)
        idx = build_index(two_link_corpus(), params=params)
        save_index(idx, tmp_path / "idx")
        assert load_index(tmp_path / "idx").params == params

    def test_version_mismatch_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        lines = meta.read_text().splitlines()
        lines[0] = lines[0].replace("\t1", "\t99")
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "idx")

    def test_truncated_section_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        agg = tmp_path / "idx" / "aggregates" / "2017-06-14"
        lines = agg.read_text().splitlines(keepends=True)
        agg.write_text("".join(lines[:1] + lines[2:]))  # drop a data row
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "idx")

    def test_stray_day_file_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        junk = tmp_path / "idx" / "aggregates" / "not-a-date"
        junk.write_text("#socialqe\taggregates\t1\n#end\t0\n")
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "idx")
        junk.unlink()
        # From Python 3.11 date.fromisoformat also reads the basic format, so
        # a copy named 20170614 once loaded as a second file of that day.
        day_file = tmp_path / "idx" / "vectors" / "2017-06-14"
        junk = day_file.with_name("20170614")
        junk.write_bytes(day_file.read_bytes())
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == f"{junk}: not a YYYY-MM-DD day file"

    def test_span_in_basic_format_rejected(self, tmp_path):
        save_index(build_index(two_link_corpus()), tmp_path / "idx")
        meta = tmp_path / "idx" / "meta"
        meta.write_text(meta.read_text().replace("span_end=2017-06-14", "span_end=20170614"))
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        # Python 3.10 itself refuses the form; 3.11 on reads it as 2017-06-14.
        assert str(caught.value).startswith(f"{meta}: bad span: ")
        assert "'20170614'" in str(caught.value)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises((IndexFormatError, OSError)):
            load_index(tmp_path / "absent")

    @pytest.mark.parametrize("section", ["aggregates", "vectors", "links", "similar"])
    def test_missing_section_directory_rejected(self, tmp_path, section):
        # Once a bare FileNotFoundError from the day scan.
        root = tmp_path / "idx"
        save_index(build_index(two_tag_corpus()), root)
        shutil.rmtree(root / section)
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{root / section}: missing section directory"

    @pytest.mark.parametrize("section, edit, message", [
        ("aggregates", lambda f: f[:-1], "expected 11 fields"),
        ("aggregates", lambda f: ["2017-06-15", *f[1:]], "day mismatch"),
        ("aggregates", lambda f: [f[0], "tag", *f[2:]], "bad kind"),
        ("aggregates", lambda f: [f[0], "ngram", *f[2:]], "bad kind 'ngram'"),
        ("aggregates", lambda f: [*f[:3], "x", *f[4:]], "invalid literal"),
        ("vectors", lambda f: f[:3], "short vector row"),
        ("vectors", lambda f: [*f[:3], "many", *f[4:]], "bad entry count"),
        ("vectors", lambda f: f[:-1], "(ngram, weight) pairs"),
        ("vectors", lambda f: [*f[:5], "heavy", *f[6:]], "bad weight"),
        ("vectors", lambda f: [f[0], "zz", *f[2:]], "bad kind"),
        ("links", lambda f: f[:-1], "expected 11 fields"),
        ("links", lambda f: [*f[:2], "http://elsewhere.ex/z", *f[3:]], "has no ss row"),
        ("similar", lambda f: f[:-1], "expected 4 fields"),
        ("similar", lambda f: [*f[:3], "near"], "bad distance"),
        # Each of these three once loaded into entry.similar with no error.
        ("similar", lambda f: [*f[:3], "99"], "distance 99 outside 0..8"),
        ("similar", lambda f: [*f[:3], " -1"], "bad distance ' -1'"),
        ("similar", lambda f: [f[0], f[1], f[1], f[3]], "'grenfell' lists itself"),
        ("vectors", lambda f: [*f[:2], "paris", *f[3:]], "'paris' has no aggregates row"),
        ("links", lambda f: [f[0], "paris", *f[2:]], "'paris' has no cv row"),
        ("similar", lambda f: [f[0], "paris", *f[2:]], "'paris' has no cv row"),
        ("similar", lambda f: [*f[:2], "rome", f[3]], "'rome' has no cv row"),
        # Still a valid VoteRecord, so it once loaded and changed the link's weight.
        ("links", lambda f: [*f[:3], *(str(int(v) + 5 * (i in (0, 2, 3, 5, 6)))
                                       for i, v in enumerate(f[3:]))],
         "counters of 'http://news.ex/a' differ from its aggregates row"),
    ])
    def test_corrupt_row_named_by_file_and_line(self, tmp_path, section, edit, message):
        save_index(build_index(two_tag_corpus()), tmp_path / "idx")
        path = tmp_path / "idx" / section / "2017-06-14"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1] = "\t".join(edit(lines[1].split("\t")))  # the first data row
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value).startswith(f"{path}: line 2: ")
        assert message in str(caught.value)

    def test_non_utf8_byte_named_by_file(self, tmp_path):
        save_index(build_index(two_tag_corpus()), tmp_path / "idx")
        path = tmp_path / "idx" / "vectors" / "2017-06-14"
        data = path.read_bytes()
        path.write_bytes(data.replace(b"tower", b"tow\xffer", 1))
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value).startswith(f"{path}: not UTF-8: ")

    def test_ss_row_needs_an_aggregates_link_row(self, tmp_path):
        save_index(build_index(two_tag_corpus()), tmp_path / "idx")
        path = tmp_path / "idx" / "vectors" / "2017-06-14"
        text = path.read_text(encoding="utf-8")
        assert text.split("\n")[3].split("\t")[1:3] == ["ss", "http://news.ex/a"]
        path.write_text(text.replace("\tss\thttp://news.ex/a\t", "\tss\thttp://ex.org/z\t"),
                        encoding="utf-8")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == (
            f"{path}: line 4: 'http://ex.org/z' has no aggregates row")

    def test_hashtag_row_needs_a_cv_row(self, tmp_path):
        save_index(build_index(two_tag_corpus()), tmp_path / "idx")
        path = tmp_path / "idx" / "vectors" / "2017-06-14"
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[2].split("\t")[1:3] == ["cv", "london"]
        lines[-2] = "#end\t2"
        path.write_text("\n".join(lines[:2] + lines[3:]), encoding="utf-8")
        with pytest.raises(IndexFormatError) as caught:
            load_index(tmp_path / "idx")
        assert str(caught.value) == f"{path}: no cv row for hashtag 'london'"

    def test_day_without_vector_and_link_files_rejected(self, tmp_path, scenario_index):
        # Such a tree once loaded 6 of its 7 entries, with no error.
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        assert not (root / "similar" / "2016-12-19").exists()
        for section in ("vectors", "links"):
            (root / section / "2016-12-19").unlink()
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value).startswith(f"{root / 'vectors' / '2016-12-19'}: no cv row ")

    def test_ss_row_needs_a_links_row(self, tmp_path, scenario_index):
        # Without its links file a day once loaded with its links silently gone.
        _, idx = scenario_index("dominant-event")
        root = tmp_path / "idx"
        save_index(idx, root)
        links = root / "links" / "2016-12-20"
        links.unlink()
        rows = (root / "vectors" / "2016-12-20").read_text(encoding="utf-8").split("\n")
        url = next(row.split("\t")[2] for row in rows if row.split("\t")[1:2] == ["ss"])
        with pytest.raises(IndexFormatError) as caught:
            load_index(root)
        assert str(caught.value) == f"{links}: no links row for link {url!r}"


def test_build_scenario_dominant_has_expected_days():
    _, idx = build_scenario_index("dominant-event")
    assert idx.span == (date(2016, 12, 19), date(2016, 12, 23))
    assert idx.days() == [date(2016, 12, 19) + timedelta(days=i) for i in range(5)]
