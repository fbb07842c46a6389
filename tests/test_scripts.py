import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_synthetic_pipeline_script(tmp_path, src_env):
    out = tmp_path / "demo"
    result = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "run_synthetic_pipeline.py"),
            "--n-users", "30", "--n-tweets", "400", "--hashtags-per-community", "12",
            "--kcore-k", "2", "--out-dir", str(out),
        ],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for name in ("corpus.jsonl", "seeds.tsv", "graph.edges.tsv", "graph.nodes.tsv",
                 "lexicon.tsv", "eval_poles.csv", "eval_overall.csv", "commnet.graphml"):
        assert (out / name).stat().st_size > 0, name
    # the tally table that format_tally prints
    assert "class\tusers\ttweets" in result.stdout
    assert "accuracy=" in result.stdout
