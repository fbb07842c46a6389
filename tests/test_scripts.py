import json
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


def test_bench_json_pairs_runs_by_workload_and_seed(tmp_path):
    def result(wall, failed=0):
        metrics = {"wall_s": wall, "tweets_per_s": 100 / wall, "peak_rss_mb": 50.0,
                   "user_accuracy": 1.0, "setup_s": 0.5}
        return {"result": {"attempted": 4, "failed": failed, "metrics": {
            name: {"value": value, "unit": "x"} for name, value in metrics.items()}}}

    sides = {"parent": {101: 5.0, 102: 6.0, 103: 4.0, 104: 9.0},
             "change": {101: 4.0, 102: 6.0, 103: 4.5, 105: 1.0}}
    for side, walls in sides.items():
        (tmp_path / side).mkdir()
        for seed, wall in walls.items():
            name = f"hashtag-100k-seed{seed}-trace0.json"
            (tmp_path / side / name).write_text(json.dumps(result(wall, failed=seed == 103)))
        (tmp_path / side / "hashtag-100k-seed101-trace1.json").write_text("{}")
    out = tmp_path / "BENCH_pr9.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_json.py"), "--pr", "9",
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert summary["pr"] == 9
    entry = summary["workloads"]["hashtag-100k"]
    assert entry["seeds"] == [101, 102, 103]
    assert entry["unpaired_seeds"] == {"parent": [104], "change": [105]}
    assert entry["failed"] == {"parent": 1, "change": 1}
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 5.0, "q1": 4.5, "q3": 5.5, "n": 3}
    assert wall["change"] == {"median": 4.5, "q1": 4.25, "q3": 5.25, "n": 3}
    assert (wall["change_wins"], wall["change_losses"], wall["ties"]) == (1, 1, 1)
    tweets = entry["metrics"]["tweets_per_s"]
    assert (tweets["change_wins"], tweets["change_losses"]) == (1, 1)
