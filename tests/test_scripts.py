import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from polarlex import cli

ROOT = Path(__file__).resolve().parents[1]


def run_demo(src_env, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_pipeline.py"), *args],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )


def test_run_synthetic_pipeline_script(tmp_path, src_env):
    out = tmp_path / "demo"
    result = run_demo(
        src_env, "--n-users", "30", "--n-tweets", "400", "--hashtags-per-community", "12",
        "--gamma", "3", "--out-dir", str(out),
    )
    assert result.returncode == 0, result.stderr
    # every flag but --out-dir reaches each step; the demo's defaults fill the rest
    config = json.loads((out / "run" / "manifest.json").read_text())["config"]
    assert (config["gamma"], config["kcore_k"], config["rng_seed"], config["n_users"]) == (
        3, 5, 7, 30)
    for name in ("corpus.jsonl", "seeds_community.tsv", "gold_users.tsv", "gold_hashtags.tsv",
                 "run/graph.edges.tsv", "run/graph.nodes.tsv", "run/lexicon_community.tsv",
                 "run/tally.csv", "run/eval_poles.csv", "run/eval_overall.csv",
                 "run/commnet.graphml", "run/homophily.csv"):
        assert (out / name).stat().st_size > 0, name
    assert "hashtag sign recovery: " in result.stdout
    # the tally and overall evaluation tables of the run
    assert "dimension,class,n_users,pct_users,n_tweets,pct_tweets" in result.stdout
    assert "dimension,accuracy,soft_accuracy" in result.stdout
    # a failing step ends the demo with the CLI's exit code
    assert run_demo(src_env, "--seed-fraction", "7", "--out-dir", str(tmp_path / "bad")).returncode == 1


def bench_result(wall, failed=0, digests=None):
    """A polarbench result file's details, with digests if given."""
    metrics = {"wall_s": wall, "tweets_per_s": 100 / wall, "peak_rss_mb": 50.0,
               "user_accuracy": 1.0, "setup_s": 0.5}
    details = {"result": {"attempted": 4, "failed": failed, "metrics": {
        name: {"value": value, "unit": "x"} for name, value in metrics.items()}}}
    if digests is not None:
        details["digests"] = digests
    return details


def run_bench_json(tmp_path, pr):
    """The summary bench_json.py writes for tmp_path/parent and tmp_path/change."""
    out = tmp_path / f"BENCH_pr{pr}.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_json.py"), "--pr", str(pr),
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_bench_json_pairs_runs_by_workload_and_seed(tmp_path):
    sides = {"parent": {101: 5.0, 102: 6.0, 103: 4.0, 104: 9.0},
             "change": {101: 4.0, 102: 6.0, 103: 4.5, 105: 1.0}}
    for side, walls in sides.items():
        (tmp_path / side).mkdir()
        for seed, wall in walls.items():
            name = f"hashtag-100k-seed{seed}-trace0.json"
            (tmp_path / side / name).write_text(
                json.dumps(bench_result(wall, failed=seed == 103)))
        (tmp_path / side / "hashtag-100k-seed101-trace1.json").write_text("{}")
    summary = run_bench_json(tmp_path, 9)
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


def test_bench_json_counts_pairs_that_wrote_the_same_bytes(tmp_path):
    digests = {"parent": {101: {"a.tsv": "1", "b.csv": "2"}, 102: {"a.tsv": "3"}},
               "change": {101: {"a.tsv": "1", "b.csv": "2"}, 102: {"a.tsv": "4"}}}
    for side, by_seed in digests.items():
        (tmp_path / side).mkdir()
        for seed, files in by_seed.items():
            (tmp_path / side / f"token-zipf-seed{seed}-trace0.json").write_text(
                json.dumps(bench_result(2.0, digests=files)))
    entry = run_bench_json(tmp_path, 18)["workloads"]["token-zipf"]
    assert entry["digests_identical"] == {"pairs": 1, "of": 2}


def test_bench_json_gives_regression_and_gain_verdicts(tmp_path):
    parent = [5.0 + 0.1 * i for i in range(10)]  # median 5.45, q3 - q1 = 0.45
    change = {
        "hashtag-100k": [w - 1.0 for w in parent[:9]] + parent[9:],  # 9 wins, 1 tie
        "token-zipf": [w - 0.01 for w in parent],  # 10 wins by less than q3 - q1
        "embedding-knn": [w - 1.0 for w in parent[:8]] + [w + 1.0 for w in parent[8:]],
    }
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    for workload, walls in change.items():
        for seed, (p, c) in enumerate(zip(parent, walls)):
            name = f"{workload}-seed{seed}-trace0.json"
            (tmp_path / "parent" / name).write_text(json.dumps(bench_result(p)))
            (tmp_path / "change" / name).write_text(json.dumps(bench_result(c)))
    workloads = run_bench_json(tmp_path, 19)["workloads"]
    met = {w: workloads[w]["metrics"]["wall_s"]["gain_rule_met"] for w in change}
    assert met == {"hashtag-100k": True, "token-zipf": False, "embedding-knn": False}
    wall = workloads["hashtag-100k"]["metrics"]["wall_s"]
    assert wall["bound"] == 0.25
    assert wall["worse_by"] == pytest.approx((4.45 - 5.45) / 5.45)
    tweets = workloads["hashtag-100k"]["metrics"]["tweets_per_s"]
    assert tweets["gain_rule_met"] and tweets["worse_by"] < 0
    slower = workloads["embedding-knn"]["metrics"]["tweets_per_s"]
    assert slower["worse_by"] == pytest.approx(1 - slower["change"]["median"]
                                               / slower["parent"]["median"])
    rss = workloads["hashtag-100k"]["metrics"]["peak_rss_mb"]
    assert (rss["bound"], rss["worse_by"], rss["gain_rule_met"]) == (0.1, 0.0, False)


def test_bench_json_marks_metrics_whose_runs_spread_wider_than_the_bound(tmp_path):
    tight = [5.0 + 0.1 * i for i in range(10)]  # (q3 - q1) / median = 0.45 / 5.45
    wide = [1.0 + i for i in range(10)]  # (q3 - q1) / median = 4.5 / 5.5
    sides = {
        "hashtag-100k": (tight, [w - 0.01 for w in tight]),
        "token-zipf": (wide, [w + 0.1 for w in wide]),
        "embedding-knn": (wide, [0.5] * 10),  # every change run beats every parent run
        "hashtag-staged": (tight, wide),
    }
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    for workload, walls in sides.items():
        for seed, (p, c) in enumerate(zip(*walls)):
            name = f"{workload}-seed{seed}-trace0.json"
            (tmp_path / "parent" / name).write_text(json.dumps(bench_result(p)))
            (tmp_path / "change" / name).write_text(json.dumps(bench_result(c)))
    workloads = run_bench_json(tmp_path, 20)["workloads"]
    unresolved = {w: workloads[w]["metrics"]["wall_s"]["unresolved"] for w in sides}
    assert unresolved == {"hashtag-100k": False, "token-zipf": True, "embedding-knn": False,
                          "hashtag-staged": True}
    # the same bound holds for a higher-is-better metric
    assert workloads["token-zipf"]["metrics"]["tweets_per_s"]["unresolved"]
    assert not workloads["embedding-knn"]["metrics"]["tweets_per_s"]["unresolved"]
    # runs that all read the same value are never unresolved
    assert not workloads["token-zipf"]["metrics"]["peak_rss_mb"]["unresolved"]


def test_benchmark_tracer_wraps_and_restores_cli(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "polarbench"))
    spans = importlib.import_module("spans")
    synth = tmp_path / "synth"
    assert cli.main(["synth", "--out-dir", str(synth), "--n-users", "20", "--n-tweets", "200",
                     "--hashtags-per-community", "8", "--seed-fraction", "0.2"]) == 0
    patched = [(importlib.import_module(f"polarlex.{module}"), function)
               for module, function in spans.LIBRARY_CALLS]
    patched += [(cli, "sha256_file"), (cli, "STAGE_BY_NAME"), (cli, "PIPELINE_STAGES")]
    originals = [getattr(owner, attr) for owner, attr in patched]

    def traced_pipeline(out, *flags):
        tracer = spans.Tracer(out)
        undo = tracer.install(cli)
        try:
            code = cli.main(["pipeline", "--corpus", str(synth / "corpus.jsonl"),
                             "--out-dir", str(tmp_path / out), "--kcore-k", "2", *flags])
        finally:
            tracer.restore(undo)
        assert code == 0
        for (owner, attr), original in zip(patched, originals):
            assert getattr(owner, attr) is original, attr
        return tracer

    tracer = traced_pipeline("run", "--seed-file", str(synth / "seeds_community.tsv"))
    names = {span[0] for span in tracer.spans}
    assert {"cli.stage.ingest", "corpus.load_corpus"} <= names
    # the k-NN build and the walk, whose results the tracer counts by name;
    # the synth hashtags, each community near its own axis, seeded on [0, 1]
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"h{c}{i:04d} {1 - x + 0.01 * i} {x + 0.02 * i}\n"
                           for c, x in (("a", 0), ("b", 1)) for i in range(8)))
    seeds = tmp_path / "seeds_01.tsv"
    seeds.write_text((synth / "seeds_community.tsv").read_text()
                     .replace("value_b=-1.", "value_b=0.", 1))
    tracer = traced_pipeline("emb_run", "--seed-file", str(seeds), "--mode", "embedding",
                             "--embeddings", str(emb), "--knn-k", "2")
    metrics = tracer.metrics()
    assert metrics["lexgraph.load_embeddings.calls"] == 1
    assert metrics["lexgraph.build_knn_graph.calls"] == 1
    assert metrics["proplabel.propagate_random_walk.calls"] == 1
    for name in ("lexgraph.nodes", "lexgraph.edges", "proplabel.labeled"):
        assert metrics[name] > 0, name


STUB_RUN = """
import argparse, json, sys
from pathlib import Path

ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
args = ap.parse_args()
checkout = Path.cwd()
with open(checkout.parent / "calls.log", "a") as fh:
    fh.write(f"{checkout.name} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
if (checkout / f"fail-{args.seed}").exists():
    sys.exit(3)
out = Path(".polarbench/out")
out.mkdir(parents=True, exist_ok=True)
metrics = {"wall_s": {"value": float(args.seed), "unit": "s"}}
(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
    json.dumps({"side": checkout.name, "result": {"metrics": metrics}}))
"""


def test_bench_pair_alternates_sides_and_collects_results(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "polarbench").mkdir(parents=True)
        (tmp_path / side / "polarbench" / "run.py").write_text(STUB_RUN)
    (tmp_path / "change" / "fail-102").write_text("")
    out = tmp_path / "pairs"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pair.py"),
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--workload", "token-zipf", "--pairs", "3", "--seed", "101", "--seconds", "2.5",
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "pair 1, change, seed 102: exit code 3" in proc.stderr
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert calls == [f"{side} token-zipf {seed} 2.5 0" for side, seed in [
        ("parent", 101), ("change", 101), ("change", 102), ("parent", 102),
        ("parent", 103), ("change", 103)]]
    for side, seeds in (("parent", [101, 102, 103]), ("change", [101, 103])):
        results = sorted(p.name for p in (out / side).glob("*.json"))
        assert results == [f"token-zipf-seed{seed}-trace0.json" for seed in seeds]
        for name in results:
            assert json.loads((out / side / name).read_text())["side"] == side
