"""Self-tests of the benchmark on tiny instances of each workload.

    python3 -m pytest bench

Not part of the repository's tier-1 suite (pytest's testpaths is `tests`).
"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.02
INPUT_FILES = ("corpus.jsonl", "metadata.jsonl", "lexicon.txt", "hashtags.txt", "config.txt")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    a = workloads.generate(workload, 5, tmp_path / "a", TINY)
    b = workloads.generate(workload, 5, tmp_path / "b", TINY)
    c = workloads.generate(workload, 6, tmp_path / "c", TINY)
    for name in INPUT_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (tmp_path / "c" / "corpus.jsonl").read_bytes()
    assert replace(a, corpus=b.corpus, metadata=b.metadata, config=b.config) == b
    workloads.save_inputs(a, tmp_path / "a.json")
    assert workloads.load_inputs(tmp_path / "a.json") == a


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_output_check_passes_on_a_tiny_instance(workload, trace):
    record = run.run(workload, 3, seconds=0, trace=trace, size=TINY)
    assert record["ops_failed"] == 0, record["problems"]
    assert record["ops_attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(record["metrics"]) == list(expected)
    for name, metric in record["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["samples"] >= 1, name


def test_same_seed_gives_the_same_digest_traced_or_not():
    digests = {run.run("wide", 4, seconds=0, trace=t, size=TINY)["digest"] for t in (False, False, True)}
    assert len(digests) == 1
    assert run.run("wide", 5, seconds=0, trace=False, size=TINY)["digest"] not in digests


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tree_comparison_catches_a_changed_byte(tmp_path):
    inputs = workloads.generate("long", 1, tmp_path / "in", TINY)
    _, tweets, _ = checks.rebuild(inputs, 1, tmp_path / "one")
    checks.rebuild(inputs, 2, tmp_path / "two")
    assert checks.compare_trees(tmp_path / "one", tmp_path / "two") == []
    day_file = sorted((tmp_path / "two" / "vectors").iterdir())[0]
    data = bytearray(day_file.read_bytes())
    last_digit = max(i for i, c in enumerate(data[:-20]) if chr(c).isdigit())  # in the last row's weights
    data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    day_file.write_bytes(bytes(data))
    assert checks.compare_trees(tmp_path / "one", tmp_path / "two")


def test_vector_oracle_catches_a_wrong_vector(tmp_path):
    inputs = workloads.generate("long", 1, tmp_path / "in", TINY)
    built, tweets, _ = checks.rebuild(inputs, 1, tmp_path / "idx")
    key = sorted(built.entries)[0]
    assert checks.check_vectors(built, tweets, [(key[0], key[1])]) == []
    entry = built.entries[key]
    built.entries[key] = replace(entry, vector=entry.vector[1:])
    assert checks.check_vectors(built, tweets, [(key[0], key[1])])


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tall", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_log_scales_an_interval_by_the_probes_around_it():
    log = hostspeed.SpeedLog([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0, 1.0])
    # [2.2, 2.8] lies between the probes at 2 and 3, which both took 2 ms: half speed.
    assert log.scaled(2.2, 2.8) == pytest.approx(0.6 * hostspeed.REFERENCE_MS / 2.0)
    # [0.5, 3.5] is widened to the probes at 0 and 4: mean 1.4 ms.
    assert log.scaled(0.5, 3.5) == pytest.approx(3.0 * hostspeed.REFERENCE_MS / 1.4)


def test_monitor_probes_until_stopped(tmp_path):
    monitor = hostspeed.Monitor(tmp_path / "probes.txt")
    time.sleep(0.35)
    log = monitor.stop()
    assert monitor.child.returncode == 0
    assert len(log.probes) >= 2
    assert log.times == sorted(log.times)
