"""Build every bundled scenario under other Pythons and compare with this one's trees.

    python tools/cross_version.py python3.10 python3.12 python3.13

It needs no pytest, so it runs on interpreters that have only the standard
library. For each bundled scenario, and for `performance-100k`, this
interpreter writes the inputs with `synth-gen` and builds the reference tree
with `build-index`. The bundled corpora are under 1.1 MB; `performance-100k`'s
18 MB corpus is parsed in more than one process wherever the build may use
more than one CPU (see the README's `build-index` paragraph). Then each named
interpreter builds the same inputs with `python -m socialqe.cli`, with this
checkout's src first on PYTHONPATH. Its stdout and tree bytes must equal the
reference's, and its own `verify` must accept its tree. A line per scenario
and interpreter says which held. The exit status is 1 if any differed or
failed, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def cli(python: str, *args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    return subprocess.run([python, "-m", "socialqe.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def build(python: str, inputs: Path, out: Path) -> subprocess.CompletedProcess:
    return cli(python, "build-index", "--corpus", inputs / "corpus.jsonl",
               "--metadata", inputs / "metadata.jsonl",
               "--config", inputs / "config.txt", "--out", out)


def check(python: str, inputs: Path, out: Path, want: tuple[str, dict]) -> str:
    """'ok', or what differed when python built inputs into out."""
    done = build(python, inputs, out)
    if done.returncode != 0:
        return f"build-index exited {done.returncode}: {done.stderr.strip()}"
    if done.stdout != want[0]:
        return f"stdout {done.stdout!r}, want {want[0]!r}"
    got = tree_bytes(out)
    if got != want[1]:
        differ = sorted(name for name in got.keys() | want[1].keys()
                        if got.get(name) != want[1].get(name))
        return f"{len(differ)} files differ, first {differ[0]}"
    verified = cli(python, "verify", "--index", out)
    if verified.returncode != 0:
        return f"verify exited {verified.returncode}: {verified.stderr.strip()}"
    return "ok"


def main(pythons: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from socialqe.scenarios import bundled_names

    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for name in [*bundled_names(), "performance-100k"]:
            inputs = Path(work, name, "inputs")
            made = cli(sys.executable, "synth-gen", "--scenario", name, "--out", inputs)
            reference = build(sys.executable, inputs, inputs.parent / "reference")
            if made.returncode or reference.returncode:
                print(f"{name}: reference build failed: {made.stderr}{reference.stderr}")
                failed += 1
                continue
            want = (reference.stdout, tree_bytes(inputs.parent / "reference"))
            for i, python in enumerate(pythons):
                result = check(python, inputs, inputs.parent / f"built-{i}", want)
                failed += result != "ok"
                print(f"{name} {python}: {result}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
