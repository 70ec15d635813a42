"""The package imports only itself and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "socialqe").glob("*.py"))


def imported_roots(tree):
    """(line, top-level module) of each absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "index.py", "votes.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_socialqe_and_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        f"{path.name}:{line}: {root}"
        for line, root in imported_roots(tree)
        if root != "socialqe" and root not in sys.stdlib_module_names
    ]
    assert outside == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import numpy as np\nfrom json import dumps\nfrom . import votes\n")
    assert [root for _, root in imported_roots(tree)] == ["numpy", "json"]
    assert "numpy" not in sys.stdlib_module_names
