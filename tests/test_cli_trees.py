"""A tree that `python -m socialqe.cli build-index` writes depends only on its corpus.

Each bundled scenario is built in fresh interpreters under PYTHONHASHSEED=0,
then under PYTHONHASHSEED=1 (the build's memos decide which of several equal
objects records share), from its lines shuffled, and with every "Z" of
created_at written "+00:00" (so no line takes the parser's day table for
UTC-second stamps). Stdout and tree bytes must equal the first build's.
"""

import random
import re
import sys
from pathlib import Path

import pytest

from conftest import run_python, tree_bytes
from socialqe.cli import main
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
