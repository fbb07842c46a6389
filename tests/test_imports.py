import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from polarlex.cli import main

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
    # scoring, the communication network, evaluation and the CLI run on the
    # standard library alone; only graph building, the random walk and the
    # synth generator need numpy, and only graph building scipy
    code = (
        "import sys, polarlex.polarity, polarlex.commnet, polarlex.evalkit,"
        " polarlex.proplabel, polarlex.synthgen, polarlex.cli\n"
        "print(*sorted({'numpy', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


# Runs each argv through cli.main in one process and prints, per command, its
# exit code and the numpy and scipy modules loaded by then.
LIGHT_RUNNER = """
import json, sys
from polarlex import cli
results = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    results.append([argv[0], code, sorted({'numpy', 'scipy'} & set(sys.modules))])
print(json.dumps(results))
"""


def test_light_subcommands_run_without_numpy(tmp_path, src_env):
    synth, out = tmp_path / "synth", tmp_path / "run"
    corpus = ["--corpus", str(synth / "corpus.jsonl")]
    assert main(["synth", "--out-dir", str(synth), "--n-users", "30", "--n-tweets", "400",
                 "--hashtags-per-community", "12", "--rng-seed", "3"]) == 0
    # the graph and the lexicon come from the stages that need numpy
    for argv in (["ingest", *corpus],
                 ["build-graph"],
                 ["propagate", "--seed-file", str(synth / "seeds_community.tsv"),
                  "--gamma", "2"]):
        assert main([*argv, "--out-dir", str(out)]) == 0, argv[0]
    light = [
        ["--version"],
        ["ingest", *corpus, "--out-dir", str(out)],
        ["score", *corpus, "--seed-file", str(synth / "seeds_community.tsv"),
         "--out-dir", str(out)],
        ["timeseries", *corpus, "--out-dir", str(out)],
        ["commnet", *corpus, "--kcore-k", "2", "--out-dir", str(out)],
        ["eval", "--gold", str(synth / "gold_users.tsv"), "--out-dir", str(out)],
    ]
    run = subprocess.run(
        [sys.executable, "-c", LIGHT_RUNNER, json.dumps(light)],
        env=src_env, capture_output=True, text=True, check=True,
    )
    results = json.loads(run.stdout.splitlines()[-1])
    assert results == [[argv[0], 0, []] for argv in light]
