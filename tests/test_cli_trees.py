"""A tree that `python -m socialqe.cli build-index` writes depends only on its corpus.

Each bundled scenario is built in fresh interpreters under PYTHONHASHSEED=0,
then under PYTHONHASHSEED=1 (the build's memos decide which of several equal
objects records share), from its lines shuffled, and with every "Z" of
created_at written "+00:00" (so no line takes the parser's day table for
UTC-second stamps). Stdout and tree bytes must equal the first build's. The
tree, the stdout and the library's index must also be the same for any
number of build processes, with the parse split or not.
"""

import json
import random
import re
import sys
from pathlib import Path

import pytest

import socialqe.ingest
from conftest import counted_forks, multi_day_corpus, run_python, tree_bytes
from socialqe.cli import main
from socialqe.config import EngineParams, load_config
from socialqe.index import build_index, load_index, save_index, verify_index
from socialqe.ingest import DEFAULT_STOPWORDS, load_wordlist, parse_metadata, parse_stream
from socialqe.scenarios import bundled_names


def build(inputs, corpus, out, hash_seed=0):
    stdout = run_python("-m", "socialqe.cli", "build-index", "--corpus", corpus,
                        "--metadata", inputs / "metadata.jsonl",
                        "--config", inputs / "config.txt", "--out", out, hash_seed=hash_seed)
    return stdout, tree_bytes(out)


@pytest.fixture(scope="module", params=bundled_names())
def scenario(request, tmp_path_factory):
    """The scenario's inputs directory, and its first build's stdout and tree."""
    inputs = tmp_path_factory.mktemp(request.param) / "inputs"
    assert main(["synth-gen", "--scenario", request.param, "--out", str(inputs)]) == 0
    return inputs, build(inputs, inputs / "corpus.jsonl", inputs.parent / "index")


def shuffled(data):
    lines = data.splitlines(keepends=True)
    random.Random(13).shuffle(lines)
    return b"".join(lines)


def utc_offsets(data):
    rewritten, n = re.subn(rb'("created_at": "[^"]*)Z"', rb'\1+00:00"', data)
    assert n == data.count(b"\n")
    return rewritten


@pytest.mark.parametrize("hash_seed, rewrite", [
    (1, lambda data: data), (0, shuffled), (0, utc_offsets),
], ids=["hash seed 1", "shuffled lines", "+00:00 offsets"])
def test_tree_depends_only_on_the_corpus(scenario, tmp_path, hash_seed, rewrite):
    inputs, first = scenario
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(rewrite((inputs / "corpus.jsonl").read_bytes()))
    assert build(inputs, corpus, tmp_path / "index", hash_seed) == first


def test_verify_accepts_the_tree(scenario):
    index = scenario[0].parent / "index"
    assert run_python("-m", "socialqe.cli", "verify", "--index", index).startswith("ok days=")


def test_cross_version_script_accepts_this_interpreter():
    # The script needs no pytest; here it compares this interpreter with itself.
    script = Path(__file__).resolve().parents[1] / "tools" / "cross_version.py"
    assert run_python(script, sys.executable).splitlines() == [
        f"{name} {sys.executable}: ok" for name in [*bundled_names(), "performance-100k"]]


def write_nine_day_corpus(path):
    """multi_day_corpus() as corpus lines, one post per line."""
    lines = [
        json.dumps({"created_at": f"{t.day.isoformat()}T12:00:00Z", "hashtags": list(t.hashtags),
                    "id": f"t{i}", "is_retweet": t.is_retweet, "text": t.text,
                    "urls": [u.full for u in t.links], "user_id": t.account_id})
        for i, t in enumerate(multi_day_corpus())
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def library_index(corpus, inputs):
    """build_index over the corpus lines, with the inputs' metadata and config, as the CLI."""
    metadata, entries = {}, {}
    if (inputs / "config.txt").exists():
        metadata = parse_metadata((inputs / "metadata.jsonl").read_bytes().splitlines())
        entries = load_config(inputs / "config.txt")
    return build_index(
        parse_stream(corpus.read_bytes().splitlines()),
        metadata=metadata,
        params=EngineParams.from_mapping(entries),
        stopwords=DEFAULT_STOPWORDS,
        lexicon=load_wordlist(entries["lexicon"]) if "lexicon" in entries else frozenset(),
        provenance=sorted(entries.items()),
    )


# (processes, parse split): one process, the days forked with the parse in
# one process, and both forked.
PROCESSES = [(1, False), (2, False), (3, False), (2, True), (3, True)]


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("name", [*bundled_names(), "nine-day"])
def test_tree_is_the_same_in_any_number_of_processes(tmp_path, capsys, monkeypatch, cpus, name):
    inputs = tmp_path / "inputs"
    if name == "nine-day":
        inputs.mkdir()
        write_nine_day_corpus(inputs / "corpus.jsonl")
        args = []
    else:
        assert main(["synth-gen", "--scenario", name, "--out", str(inputs)]) == 0
        capsys.readouterr()
        args = ["--metadata", str(inputs / "metadata.jsonl"),
                "--config", str(inputs / "config.txt")]
    corpus = inputs / "corpus.jsonl"
    builds = []
    for count, split in PROCESSES:
        cpus(count)
        monkeypatch.setattr(socialqe.ingest, "_MIN_WORKER_BYTES", 1 if split else 10**12)
        out = tmp_path / f"index-{count}-{split}"
        with counted_forks() as forks:
            assert main(["build-index", "--corpus", str(corpus), *args, "--out", str(out)]) == 0
        assert len(forks) >= (count - 1) * (1 + split)
        builds.append((capsys.readouterr().out, tree_bytes(out)))
        verify_index(out)
    assert builds[0][0].startswith("span=")
    assert all(build == builds[0] for build in builds[1:])

    index = library_index(corpus, inputs)
    tree = tmp_path / f"index-{PROCESSES[0][0]}-{PROCESSES[0][1]}"
    assert index == load_index(tree)
    save_index(index, tmp_path / "saved")
    assert tree_bytes(tmp_path / "saved") == builds[0][1]
