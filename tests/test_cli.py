import hashlib
import json
import shutil
from datetime import date

import pytest

import socialqe
from conftest import rewrite_index_file, run_python, tree_bytes
from socialqe.cli import main
from socialqe.index import load_index, save_index
from socialqe.retrieval import sprf_rerank


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """single-event corpus generated and indexed once through the CLI."""
    root = tmp_path_factory.mktemp("cliws")
    corpus_dir = root / "corpus"
    index_dir = root / "index"
    rc = main(["synth-gen", "--scenario", "single-event", "--seed", "7",
               "--out", str(corpus_dir)])
    assert rc == 0
    rc = main([
        "build-index",
        "--corpus", str(corpus_dir / "corpus.jsonl"),
        "--metadata", str(corpus_dir / "metadata.jsonl"),
        "--config", str(corpus_dir / "config.txt"),
        "--out", str(index_dir),
    ])
    assert rc == 0
    return {"root": root, "corpus": corpus_dir, "index": index_dir}


class TestPackage:
    def test_exports_resolve_on_first_use(self):
        for name in socialqe.__all__:
            assert getattr(socialqe, name) is not None
        assert socialqe.sprf_rerank is sprf_rerank
        assert "sprf_rerank" in dir(socialqe)
        with pytest.raises(AttributeError):
            socialqe.no_such_name


class TestSynthGen:
    def test_list(self, capsys):
        assert main(["synth-gen", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "single-event" in out
        assert "false-positive-peak" in out

    def test_missing_args(self, capsys):
        assert main(["synth-gen", "--scenario", "single-event"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys, tmp_path):
        rc = main(["synth-gen", "--scenario", "wat", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: unknown scenario 'wat'; bundled: aspect-shift, dominant-event, "
            "false-positive-peak, single-event\n"
        )

    def test_prints_written_paths(self, capsys, tmp_path):
        rc = main(["synth-gen", "--scenario", "single-event",
                   "--out", str(tmp_path / "c")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corpus.jsonl" in out
        assert "metadata.jsonl" in out


class TestBuildIndex:
    def test_summary_lines(self, workspace, capsys, tmp_path):
        corpus = workspace["corpus"]
        rc = main(["build-index", "--corpus", str(corpus / "corpus.jsonl"),
                   "--out", str(tmp_path / "idx")])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "span=2016-12-27:2016-12-31"
        assert out[1] == "hashtags=1"
        assert out[2] == "links=5"
        assert out[3].startswith("tweets=") and out[3].endswith("skipped=0")

    def test_loads_only_the_build_modules(self, workspace, tmp_path):
        corpus = workspace["corpus"]
        child = (
            "import sys\n"
            "from socialqe.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('socialqe'))))\n"
            "print('pickle' in sys.modules, 'signal' in sys.modules)\n"
        )
        out = run_python("-c", child, "build-index",
                         "--corpus", corpus / "corpus.jsonl", "--out", tmp_path / "idx")
        *_, modules, forking = out.splitlines()
        assert modules.split() == [
            "socialqe", "socialqe.cli", "socialqe.config", "socialqe.index",
            "socialqe.ingest", "socialqe.signatures", "socialqe.votes",
        ]
        # 460 posts build in one process, which needs neither module.
        assert forking == "False False"

    def test_missing_corpus_file(self, capsys, tmp_path):
        rc = main(["build-index", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "idx")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_refuses_existing_output_before_opening_the_corpus(self, capsys, tmp_path):
        out = tmp_path / "idx"
        out.mkdir()
        (out / "junk").write_text("x")
        rc = main(["build-index", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: refusing to write index into non-empty {out}\n"

    def test_refuses_existing_output(self, workspace, capsys, tmp_path):
        out = tmp_path / "idx"
        out.mkdir()
        (out / "junk").write_text("x")
        rc = main(["build-index",
                   "--corpus", str(workspace["corpus"] / "corpus.jsonl"),
                   "--out", str(out)])
        assert rc == 2

    def test_config_applies_params(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "params.txt"
        cfg.write_text("vector_size=5\nthreshold=3\n")
        rc = main(["build-index",
                   "--corpus", str(workspace["corpus"] / "corpus.jsonl"),
                   "--config", str(cfg),
                   "--out", str(tmp_path / "idx")])
        assert rc == 0
        idx = load_index(tmp_path / "idx")
        assert idx.params.vector_size == 5
        assert idx.params.threshold == 3
        for entry in idx.entries.values():
            assert len(entry.vector) <= 5

    def test_tree_does_not_depend_on_where_the_inputs_live(self, workspace, capsys, tmp_path):
        # Its config names a lexicon; the tree stores the lexicon's words.
        shutil.copytree(workspace["corpus"], tmp_path / "a")
        with open(tmp_path / "a" / "config.txt", "a", encoding="utf-8") as f:
            f.write("note=kept as written\n")
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        trees, outs = [], []
        for side in ("a", "b"):
            inputs = tmp_path / side
            assert main(["build-index", "--corpus", str(inputs / "corpus.jsonl"),
                         "--metadata", str(inputs / "metadata.jsonl"),
                         "--config", str(inputs / "config.txt"),
                         "--out", str(tmp_path / f"idx-{side}")]) == 0
            outs.append(capsys.readouterr().out)
            trees.append(tree_bytes(tmp_path / f"idx-{side}"))
        assert outs[0] == outs[1]
        assert trees[0] == trees[1]
        meta = trees[0]["meta"].decode("utf-8").splitlines()
        assert "config.note=kept as written" in meta
        assert not [row for row in meta if row.startswith("config.lexicon")]

    def test_span_longer_than_a_year_exits_2_naming_both_days(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"y{n}", "user_id": "u", "text": "fire news",
                        "created_at": stamp, "hashtags": ["fire"]}) + "\n"
            for n, stamp in enumerate(["2016-01-01T10:00:00Z", "2017-06-01T10:00:00Z"])
        ), encoding="utf-8")
        rc = main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "idx")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: corpus spans 2016-01-01..2017-06-01 (518 days), longer than 366\n"
        )
        assert not (tmp_path / "idx").exists()

    def test_invalid_utf8_lines_skipped(self, workspace, capsys, tmp_path):
        corpus, metadata = tmp_path / "corpus.jsonl", tmp_path / "metadata.jsonl"
        for path in (corpus, metadata):
            lines = (workspace["corpus"] / path.name).read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join([lines[0], b'{"id": "\xff"}\n', *lines[1:]]))
        rc = main(["build-index", "--corpus", str(corpus), "--metadata", str(metadata),
                   "--out", str(tmp_path / "idx")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[3].endswith(" skipped=1")
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n")
        rc = main(["evaluate", "--index", str(tmp_path / "idx"), "--hashtags", str(tags),
                   "--metadata", str(metadata), "--out", str(tmp_path / "eval")])
        assert rc == 0

    @pytest.mark.parametrize("field", ["hashtag", "url", "title"])
    def test_lone_surrogate_dropped_pair_kept(self, workspace, capsys, tmp_path, field):
        # json.dumps escapes both as \uXXXX: a lone surrogate, and an emoji as a pair
        corpus, metadata = tmp_path / "corpus.jsonl", tmp_path / "metadata.jsonl"
        tweets, metas = [], []
        for n, ch in enumerate(["\ud800", "\U0001F600"]):
            url = f"http://ex.com/{n}" + (ch if field == "url" else "")
            tweets.append({"id": f"sur{n}", "user_id": "sur", "text": "hi",
                           "created_at": "2016-12-28T10:00:00Z", "urls": [url],
                           "hashtags": ["sur" + (ch if field == "hashtag" else "")]})
            metas.append({"url": url, "title": "t" + (ch if field == "title" else "")})
        for path, extra in ((corpus, tweets), (metadata, metas)):
            original = (workspace["corpus"] / path.name).read_text(encoding="utf-8")
            path.write_text(original + "".join(json.dumps(o) + "\n" for o in extra),
                            encoding="utf-8")
        rc = main(["build-index", "--corpus", str(corpus), "--metadata", str(metadata),
                   "--out", str(tmp_path / "idx")])
        assert rc == 0, capsys.readouterr().err
        idx = load_index(tmp_path / "idx")
        kept = {
            "hashtag": {h for h, _ in idx.entries},
            "url": {k.value for records in idx.day_records.values() for k in records},
            "title": {m.title for m in idx.metadata.values()},
        }[field]
        lone = {"hashtag": "sur", "url": "http://ex.com/0", "title": "t"}[field] + "\ud800"
        pair = {"hashtag": "sur", "url": "http://ex.com/1", "title": "t"}[field] + "\U0001F600"
        assert pair in kept
        assert lone not in kept

    def test_hashtag_with_path_separator_dropped(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"s{n}", "user_id": f"u{n}", "text": "fire news",
                        "created_at": "2016-12-28T10:00:00Z", "urls": [],
                        "hashtags": ["a/b", "fire"]}) + "\n"
            for n in range(3)
        ), encoding="utf-8")
        rc = main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "idx")])
        assert rc == 0, capsys.readouterr().err
        assert capsys.readouterr().out.splitlines()[1] == "hashtags=1"
        assert {h for h, _ in load_index(tmp_path / "idx").entries} == {"fire"}


    @pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
    def test_weight_multiplier_refused_before_the_corpus_is_read(self, capsys, tmp_path, value):
        cfg = tmp_path / "params.txt"
        cfg.write_text(f"tweet_weight={value}\n")
        rc = main(["build-index", "--corpus", str(tmp_path / "absent.jsonl"),
                   "--config", str(cfg), "--out", str(tmp_path / "idx")])
        assert rc == 2
        assert capsys.readouterr().err == "error: tweet_weight must be finite and in 0..1e6\n"
        assert not (tmp_path / "idx").exists()

    def test_config_not_utf8_named(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "params.txt"
        cfg.write_bytes(b"vector_size=5\n# caf\xe9\n")
        rc = main(["build-index", "--corpus", str(workspace["corpus"] / "corpus.jsonl"),
                   "--config", str(cfg), "--out", str(tmp_path / "idx")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: line 2: not UTF-8: ")

    @pytest.mark.parametrize("key", ["lexicon", "stopwords"])
    def test_word_list_not_utf8_named(self, workspace, capsys, tmp_path, key):
        words = tmp_path / "words.txt"
        words.write_bytes(b"tower\nfire\n\xff\n")
        cfg = tmp_path / "params.txt"
        cfg.write_text(f"{key}=words.txt\n")
        rc = main(["build-index", "--corpus", str(workspace["corpus"] / "corpus.jsonl"),
                   "--config", str(cfg), "--out", str(tmp_path / "idx")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {words.resolve()}: line 3: not UTF-8: ")


class TestVerify:
    def test_sound_index_exits_0(self, workspace, capsys):
        assert main(["verify", "--index", str(workspace["index"])]) == 0
        assert capsys.readouterr().out == "ok days=5 entries=5\n"

    @pytest.fixture
    def dominant(self, tmp_path, scenario_index):
        _, idx = scenario_index("dominant-event")
        save_index(idx, tmp_path / "idx")
        return tmp_path / "idx"

    def test_tampered_fingerprint_exits_2(self, dominant, capsys):
        # berlin has no neighbours that day, so no distance lets load see it.
        def flip_berlin(rows):
            fields = [row.split("\t") for row in rows]
            for f in fields:
                if f[:2] == ["cv", "berlin"]:
                    f[-1] = f"{int(f[-1], 16) ^ 1:016x}"
            return ["\t".join(f) for f in fields]

        rewrite_index_file(dominant, "vectors/2016-12-20", flip_berlin)
        load_index(dominant)
        assert main(["verify", "--index", str(dominant)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {dominant / 'vectors' / '2016-12-20'}: fingerprint of 'berlin' is ")

    @pytest.mark.parametrize("weight", ["inf", "1e400", "nan", "-3.000000"])
    def test_bad_weight_exits_2_naming_the_file(self, dominant, capsys, weight):
        # The CRC-32 in meta follows the edit, so only the weight check refuses it.
        def edit(rows):
            fields = rows[0].split("\t")
            fields[4] = weight
            return ["\t".join(fields), *rows[1:]]

        rewrite_index_file(dominant, "vectors/2016-12-20", edit)
        assert main(["verify", "--index", str(dominant)]) == 2
        assert capsys.readouterr().err == (
            f"error: {dominant / 'vectors' / '2016-12-20'}: line 2: bad weight '{weight}'\n")

    # Such rows once loaded, died with a traceback, or were refused naming no field.
    @pytest.mark.parametrize("row, problem", [
        ('{"url": 5, "title": "", "description": ""}', "field 'url' is not a string"),
        ('{"url": "u", "title": 5, "description": ""}', "field 'title' is not a string"),
        ('{"url": "u", "description": ""}', "field 'title' is missing"),
        ('{"url": "u", "title": "", "description": null}', "field 'description' is not a string"),
        ('["u", "", ""]', "not a JSON object"),
    ])
    def test_bad_metadata_row_exits_2_naming_line_and_field(self, dominant, capsys, row, problem):
        path = dominant / "metadata.jsonl"
        header, _, *rest = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n".join([header, row, *rest]), encoding="utf-8")
        assert main(["verify", "--index", str(dominant)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: {problem}\n"

    # A meta lacking span_start once loaded as an index with no span.
    @pytest.mark.parametrize("edit, problem", [
        (("span_start=", "span_begin="), "span_end without span_start"),
        (("span_end=", "span_stop="), "span_start without span_end"),
    ])
    def test_meta_lacking_a_span_key_exits_2_naming_it(self, dominant, capsys, edit, problem):
        meta = dominant / "meta"
        meta.write_text(meta.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        assert main(["verify", "--index", str(dominant)]) == 2
        assert capsys.readouterr().err == f"error: {meta}: bad span: {problem}\n"

    # A second row for one url once replaced the first, title and all.
    @pytest.mark.parametrize("order", ["repeated", "swapped"])
    def test_metadata_rows_out_of_url_order_exit_2_naming_the_line(self, dominant, capsys, order):
        path = dominant / "metadata.jsonl"
        header, *rows, _, end = path.read_text(encoding="utf-8").split("\n")
        if order == "repeated":
            rows.insert(1, json.dumps({**json.loads(rows[0]), "title": "Edited"}, sort_keys=True))
        else:
            rows[0], rows[1] = rows[1], rows[0]
        path.write_text("\n".join([header, *rows, f"#end\t{len(rows)}", end]), encoding="utf-8")
        first, second = (json.loads(row)["url"] for row in rows[:2])
        assert main(["verify", "--index", str(dominant)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: url {second!r} does not sort after the {first!r} before it\n")

    def test_tampered_neighbour_row_exits_2(self, dominant, capsys):
        rewrite_index_file(dominant, "similar/2016-12-20", lambda rows: rows[1:])
        load_index(dominant)
        assert main(["verify", "--index", str(dominant)]) == 2
        assert capsys.readouterr().err == (
            f"error: {dominant / 'similar' / '2016-12-20'}: neighbours of 'rogueone' "
            "differ from a search at radius 8\n")


class TestExpand:
    def test_local_output_shape(self, workspace, capsys):
        rc = main(["expand", "--index", str(workspace["index"]),
                   "--hashtag", "carriefisher", "--day", "2016-12-28", "--n", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert 0 < len(lines) <= 4
        for i, line in enumerate(lines, 1):
            rank, ngram, weight = line.split("\t")
            assert int(rank) == i
            assert ngram
            float(weight)

    def test_weights_nonincreasing(self, workspace, capsys):
        main(["expand", "--index", str(workspace["index"]),
              "--hashtag", "carriefisher", "--day", "2016-12-28"])
        weights = [float(l.split("\t")[2])
                   for l in capsys.readouterr().out.splitlines()]
        assert weights == sorted(weights, reverse=True)

    def test_global_one_day_equals_local(self, workspace, capsys):
        main(["expand", "--index", str(workspace["index"]),
              "--hashtag", "carriefisher", "--day", "2016-12-28"])
        local_out = capsys.readouterr().out
        main(["expand", "--index", str(workspace["index"]),
              "--hashtag", "carriefisher", "--day", "2016-12-28",
              "--strategy", "global", "--range", "2016-12-28:2016-12-28"])
        assert capsys.readouterr().out == local_out

    def test_global_defaults_to_span(self, workspace, capsys):
        rc = main(["expand", "--index", str(workspace["index"]),
                   "--hashtag", "carriefisher", "--day", "2016-12-28",
                   "--strategy", "global"])
        assert rc == 0
        assert capsys.readouterr().out

    def test_unknown_hashtag(self, workspace, capsys):
        rc = main(["expand", "--index", str(workspace["index"]),
                   "--hashtag", "ghost", "--day", "2016-12-28"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no entry for hashtag 'ghost' on 2016-12-28\n")

    def test_bad_day(self, workspace, capsys):
        rc = main(["expand", "--index", str(workspace["index"]),
                   "--hashtag", "carriefisher", "--day", "yesterday"])
        assert rc == 2

    # From Python 3.11 date.fromisoformat reads both as 2016-12-28; --day and
    # --range take the one form that names index day files, on every Python.
    @pytest.mark.parametrize("other_form", ["20161228", "2016-W52-3"])
    @pytest.mark.parametrize("flags", [
        ["--day", "{}"],
        ["--day", "2016-12-28", "--strategy", "global", "--range", "{}:2016-12-28"],
        ["--day", "2016-12-28", "--strategy", "global", "--range", "2016-12-28:{}"],
    ], ids=["day", "range start", "range end"])
    def test_day_in_another_iso_form_rejected(self, workspace, capsys, flags, other_form):
        rc = main(["expand", "--index", str(workspace["index"]), "--hashtag", "carriefisher",
                   *(flag.format(other_form) for flag in flags)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: bad date {other_form!r}; expected YYYY-MM-DD\n")


class TestCountFlags:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command, flag, extra", [
        ("expand", "--n", ["--hashtag", "carriefisher", "--day", "2016-12-28"]),
        ("expand", "--n", ["--hashtag", "carriefisher", "--day", "2016-12-28",
                           "--strategy", "global"]),
        ("rerank", "--k", ["--hashtag", "carriefisher", "--day", "2016-12-28"]),
        ("evaluate", "--n", ["--hashtags", "TAGS", "--out", "OUT"]),
    ], ids=["expand-local", "expand-global", "rerank", "evaluate"])
    def test_below_one_exits_2_naming_the_flag(self, workspace, capsys, tmp_path,
                                               command, flag, extra, value):
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n")
        extra = [{"TAGS": str(tags), "OUT": str(tmp_path / "eval")}.get(a, a) for a in extra]
        rc = main([command, "--index", str(workspace["index"]), *extra, flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 1\n"
        assert not (tmp_path / "eval").exists()

    def test_evaluate_tau_zero_exits_2(self, workspace, capsys, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n")
        rc = main(["evaluate", "--index", str(workspace["index"]), "--hashtags", str(tags),
                   "--tau", "0", "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert capsys.readouterr().err == "error: threshold must be >= 1\n"
        assert not (tmp_path / "eval").exists()


class TestRerank:
    def test_output_shape(self, workspace, capsys):
        rc = main(["rerank", "--index", str(workspace["index"]),
                   "--hashtag", "carriefisher", "--day", "2016-12-28", "--k", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        totals = []
        for i, line in enumerate(lines, 1):
            rank, total, t, d, fn, url = line.split("\t")
            assert int(rank) == i
            totals.append(float(total))
            assert url.startswith("http")
        assert totals == sorted(totals, reverse=True)

    def test_explain_adds_text_score_and_social_weight(self, workspace, capsys):
        args = ["rerank", "--index", str(workspace["index"]),
                "--hashtag", "carriefisher", "--day", "2016-12-28"]
        assert main(args) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main([*args, "--explain"]) == 0
        explained = capsys.readouterr().out.splitlines()
        assert len(explained) == len(plain) > 1
        index = load_index(workspace["index"])
        rows = sprf_rerank(index, "carriefisher", date(2016, 12, 28))
        for line, plain_line, row in zip(explained, plain, rows):
            fields = line.split("\t")
            # Dropping the two new columns gives the plain row.
            assert "\t".join(fields[:2] + fields[4:]) == plain_line
            assert fields[2:4] == [f"{row.text_score:.6f}", f"{row.social_weight:.6f}"]

    def test_missing_day(self, workspace, capsys):
        rc = main(["rerank", "--index", str(workspace["index"]),
                   "--hashtag", "carriefisher", "--day", "2017-06-01"])
        assert rc == 2


class TestEvaluate:
    def test_runs_and_writes_csvs(self, workspace, capsys, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n")
        out = tmp_path / "eval"
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags), "--out", str(out)])
        assert rc == 0
        assert (out / "carriefisher.csv").exists()
        assert (out / "totals.csv").exists()
        summary = capsys.readouterr().out
        assert summary.startswith("carriefisher ")
        for cat in ("GLOBAL_ONLY_HIGH", "LOCAL_ONLY_HIGH", "BOTH_HIGH", "BOTH_LOW"):
            assert f"{cat}=" in summary

    def test_empty_hashtag_file(self, workspace, capsys, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("\n")
        out = tmp_path / "eval"
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags), "--out", str(out)])
        assert rc == 0
        assert (out / "totals.csv").exists()

    def test_range_and_tau_flags(self, workspace, capsys, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n")
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags),
                   "--range", "2016-12-28:2016-12-29", "--tau", "1",
                   "--out", str(tmp_path / "eval")])
        assert rc == 0
        lines = (tmp_path / "eval" / "carriefisher.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 days

    def test_bad_range_rejected(self, workspace, capsys, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n")
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags), "--range", "2016-12-28",
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "START:END" in capsys.readouterr().err

    def test_hashtag_lines_normalized_like_corpus_tags(self, workspace, capsys, tmp_path):
        printed = []
        for n, line in enumerate(["carriefisher", "#CarrieFisher"]):
            tags = tmp_path / f"tags{n}.txt"
            tags.write_text(line + "\n")
            rc = main(["evaluate", "--index", str(workspace["index"]), "--tau", "1",
                       "--hashtags", str(tags), "--out", str(tmp_path / f"eval{n}")])
            assert rc == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == "carriefisher GLOBAL_ONLY_HIGH=0 LOCAL_ONLY_HIGH=0 BOTH_HIGH=5 BOTH_LOW=0\n"
        assert printed[1] == printed[0]
        assert ((tmp_path / "eval1" / "carriefisher.csv").read_bytes()
                == (tmp_path / "eval0" / "carriefisher.csv").read_bytes())

    def test_hashtag_file_not_utf8_named(self, workspace, capsys, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_bytes(b"carriefisher\n\xffghost\n")
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags), "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {tags}: line 2: not UTF-8: ")
        assert not (tmp_path / "eval").exists()

    def test_non_hashtag_line_named(self, workspace, capsys, tmp_path):
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n\ncarrie fisher\n")
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags), "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("line", ["../escaped", "a/b", "totals", "a\\b", "x\x01y"])
    def test_tag_that_cannot_name_a_csv_rejected(self, workspace, capsys, tmp_path, line):
        tags = tmp_path / "tags.txt"
        tags.write_text(f"carriefisher\n{line}\n")
        out = tmp_path / "work" / "eval"
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "cannot name a CSV file" in err
        assert not (tmp_path / "work").exists()

    def test_csv_name_checked_before_evaluating(self, workspace, monkeypatch, tmp_path):
        def must_not_run(*args, **kwargs):
            raise AssertionError("evaluated a hashtag list with a bad line")

        monkeypatch.setattr("socialqe.strategy.run_comparison", must_not_run)
        tags = tmp_path / "tags.txt"
        tags.write_text("carriefisher\n../escaped\n")
        rc = main(["evaluate", "--index", str(workspace["index"]),
                   "--hashtags", str(tags), "--out", str(tmp_path / "eval")])
        assert rc == 2


ALL_SCENARIO_TAGS = "carriefisher\nbasketofdeplorables\nberlin\nrogueone\nstarwars\neuro2016\nghost\n"


def evaluate_output_digest(root, capsys, scenario):
    """sha256 over evaluate's stdout and CSVs for one bundled scenario (seed 7).

    Every bundled scenario's tags are evaluated on each index, so each run
    covers several tags, absent ones included, at the index's defaults and at
    --tau 1 --n 3.
    """
    corpus = root / "corpus"
    assert main(["synth-gen", "--scenario", scenario, "--seed", "7", "--out", str(corpus)]) == 0
    assert main(["build-index", "--corpus", str(corpus / "corpus.jsonl"),
                 "--metadata", str(corpus / "metadata.jsonl"),
                 "--config", str(corpus / "config.txt"), "--out", str(root / "idx")]) == 0
    tags = root / "tags.txt"
    tags.write_text(ALL_SCENARIO_TAGS)
    capsys.readouterr()
    h = hashlib.sha256()
    for n, flags in enumerate([[], ["--tau", "1", "--n", "3"]]):
        out = root / f"eval{n}"
        assert main(["evaluate", "--index", str(root / "idx"), "--hashtags", str(tags),
                     "--out", str(out), *flags]) == 0
        h.update(capsys.readouterr().out.encode())
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class TestEvaluateOutputUnchanged:
    # Recorded before evaluate's matching was restructured to visit each link
    # once per day. A matching optimisation must leave them alone.
    @pytest.mark.parametrize("scenario, digest", [
        ("single-event", "7ffdba2c24841336545805c5172dcf2adfeba9755d0af58de68f092c1105b534"),
        ("aspect-shift", "3815ead8be87a2fb94663f0b3da98cbf8d9e52de357441ebd2b0c7ffd171028e"),
        ("dominant-event", "f7b9b6b97fe0a5558f6bc2d5ef860ebbda80c26ae7f408064918e9766ab7c1c2"),
        ("false-positive-peak", "a46f8288e3c224e8115b41fb7535630ea0ad8cbcee2cb0f7919ab3d9f6626447"),
    ])
    def test_stdout_and_csvs(self, tmp_path, capsys, scenario, digest):
        assert evaluate_output_digest(tmp_path, capsys, scenario) == digest
