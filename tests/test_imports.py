import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polarlex").glob("*.py"))


def imported_names(tree):
    """The name each import binds, except those of `from __future__ import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_score_layer_imports_without_numpy(src_env):
    # scoring, the communication network and evaluation run on the standard
    # library alone; only graph building and propagation need numpy and scipy
    code = (
        "import sys, polarlex.polarity, polarlex.commnet, polarlex.evalkit\n"
        "print(*sorted({'numpy', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
