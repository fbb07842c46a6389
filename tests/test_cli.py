import csv
import gc
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from polarlex import cli, proplabel
from polarlex.cli import main
from polarlex.polarity import read_score_csv

SYNTH_ARGS = [
    "--n-users", "30",
    "--n-tweets", "400",
    "--hashtags-per-community", "12",
    "--seed-fraction", "0.2",
    "--within", "0.9",
    "--cross", "0.1",
    "--rng-seed", "3",
]


def run_synth(out_dir):
    assert main(["synth", "--out-dir", str(out_dir), *SYNTH_ARGS]) == 0


def run_pipeline(out_dir, corpus, seeds, extra=()):
    return main(
        [
            "pipeline",
            "--corpus", str(corpus),
            "--seed-file", str(seeds),
            "--out-dir", str(out_dir),
            "--gamma", "2",
            "--kcore-k", "2",
            *extra,
        ]
    )


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    run_synth(out)
    return out


def test_synth_writes_artifacts(synth_dir):
    for name in ("corpus.jsonl", "gold_users.tsv", "gold_hashtags.tsv",
                 "seeds_community.tsv", "manifest.json"):
        assert (synth_dir / name).is_file(), name


def test_pipeline_produces_all_artifacts(tmp_path, synth_dir):
    out = tmp_path / "run"
    code = run_pipeline(out, synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv")
    assert code == 0
    expected = [
        "tokenized.tsv",
        "graph.edges.tsv",
        "graph.nodes.tsv",
        "lexicon_community.tsv",
        "tweet_scores.csv",
        "user_scores.csv",
        "tally.csv",
        "daily_series_community.csv",
        "commnet.graphml",
        "commnet_edges.csv",
        "homophily.csv",
        "manifest.json",
    ]
    for name in expected:
        assert (out / name).is_file(), name
    manifest = json.loads((out / "manifest.json").read_text())
    declared = set(manifest["outputs"])
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert on_disk <= declared


def test_pipeline_deterministic_reruns(tmp_path, synth_dir):
    out = tmp_path / "run"
    corpus = synth_dir / "corpus.jsonl"
    seeds = synth_dir / "seeds_community.tsv"
    assert run_pipeline(out, corpus, seeds) == 0
    snapshot = {
        p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
    }
    first_manifest = json.loads((out / "manifest.json").read_text())
    assert run_pipeline(out, corpus, seeds) == 0
    for name, blob in snapshot.items():
        assert (out / name).read_bytes() == blob, name
    second_manifest = json.loads((out / "manifest.json").read_text())
    first_manifest.pop("timestamp")
    second_manifest.pop("timestamp")
    assert first_manifest == second_manifest


def test_build_graph_without_ingest_exit_one(tmp_path, capsys):
    code = main(["build-graph", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "tokenized.tsv" in capsys.readouterr().err


def test_score_without_lexicons_exit_one(tmp_path, synth_dir, capsys):
    code = main(
        [
            "score",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--seed-file", str(synth_dir / "seeds_community.tsv"),
            "--out-dir", str(tmp_path / "empty"),
        ]
    )
    assert code == 1
    assert "lexicon" in capsys.readouterr().err


def test_score_without_seed_file_exit_one(tmp_path, synth_dir, capsys):
    # the seed files name the dimensions score scores
    out = tmp_path / "run"
    assert run_pipeline(out, synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv") == 0
    capsys.readouterr()
    assert main(["score", "--corpus", str(synth_dir / "corpus.jsonl"),
                 "--out-dir", str(out)]) == 1
    assert "config error: seed_files: no file given" in capsys.readouterr().err


def test_propagate_missing_seed_file_exit_one(tmp_path, capsys):
    code = main(
        ["propagate", "--out-dir", str(tmp_path), "--seed-file", str(tmp_path / "nope.tsv")]
    )
    assert code == 1
    assert "nope.tsv" in capsys.readouterr().err


def test_missing_subcommand_exit_one(capsys):
    assert main([]) == 1


def test_version_and_help_return_ok(capsys):
    # argparse exits from these; main returns like every other path
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("polarlex ")
    for argv in (["--help"], ["ingest", "--help"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: polarlex")
        assert all(f"--{f.name.replace('_', '-')}" in out
                   for f in fields(cli.RunConfig) if f.name != "seed_files"), argv


def test_bad_flag_value_exit_one(tmp_path, capsys):
    code = main(["synth", "--out-dir", str(tmp_path), "--seed-fraction", "7"])
    assert code == 1
    assert "seed_fraction" in capsys.readouterr().err


def test_unknown_flag_exit_one(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "o"), "--no-such-flag", "1"]) == 1
    assert "config error: unrecognized arguments: --no-such-flag 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_synth_value_out_of_range_fails_every_subcommand(tmp_path, synth_dir, capsys):
    out = tmp_path / "out"
    code = main(["ingest", "--corpus", str(synth_dir / "corpus.jsonl"), "--within", "2",
                 "--out-dir", str(out)])
    assert code == 1
    assert "config error: within must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


# The synth flags of each spec, and the sha256 of each output it writes; the
# manifest's without its timestamp, as json.dumps with sorted keys gives it.
SYNTH_SPECS = {
    "defaults": [],
    "every-flag": ["--n-users", "40", "--n-tweets", "600", "--hashtags-per-community", "15",
                   "--seed-fraction", "0.25", "--within", "0.8", "--cross", "0.1",
                   "--neutral-hashtags", "6", "--days", "4", "--rng-seed", "17"],
}
SYNTH_DIGESTS = {
    "defaults": {
        "corpus.jsonl": "2a406d02573dc09db55588094de3fd0060e76e8681cd95030e97d3eed1d84d15",
        "gold_hashtags.tsv": "ace5ab60d316c49f1604e7fac1108895c0a3d2d653c8fe63f697a80e29307752",
        "gold_users.tsv": "596b0b8906ba896c684060d9a2d68f3819bd3b3162954cc2d1481c142d1cd596",
        "manifest.json": "d9657c4dd7053eb29435061f34e0c3816201c36aef1eb75540f69fe4f49f7d3b",
        "seeds_community.tsv":
            "540c37fb95e6ca2eb1085d2dfd6cb1fba13f13294a992f696cc0bc6a08612d57",
    },
    "every-flag": {
        "corpus.jsonl": "058eb1fd8b8b0ba4ca9c720a2e7a631250ee294f70fc06552304fa0cadefa949",
        "gold_hashtags.tsv": "abafbabd8ac4678c801282fa0fba5008ad330500f92f12dc04441978f91f6390",
        "gold_users.tsv": "1579915f726af2d00f893fb3af4e5cbafc539439e7f29d6e9e32597b65a142bb",
        "manifest.json": "9ad1ab1c6aa5fcb4be36489b32eb6276bbcbf643a4ffb8584853c56ba396e087",
        "seeds_community.tsv":
            "61bb55203ee2aa4f32daf6d5becd399b1ca6c244befb3330748175715036d824",
    },
}


@pytest.mark.parametrize("spec", sorted(SYNTH_SPECS))
def test_synth_golden_bytes(tmp_path, monkeypatch, spec):
    # a relative out_dir, so that the manifest's config is the same in any tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLARLEX_CONFIG", raising=False)
    assert main(["synth", "--out-dir", "out", *SYNTH_SPECS[spec]]) == 0
    blobs = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    manifest = json.loads(blobs["manifest.json"])
    del manifest["timestamp"]
    blobs["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    assert {name: hashlib.sha256(blob).hexdigest()
            for name, blob in blobs.items()} == SYNTH_DIGESTS[spec]


def test_tally_classes_the_written_scores(tmp_path):
    # The tweet's mean, 1e-9 / 3, is written as 0.000000000, the scale's
    # midpoint: tally.csv must class it and its user as the score files do.
    out = tmp_path / "run"
    out.mkdir()
    (out / "lexicon_x.tsv").write_text(
        "#dimension=x\tscale=-1.000000000,1.000000000\n"
        "a\t0.000000001\tpropagated\nb\t0.000000000\tpropagated\n"
        "c\t0.000000000\tpropagated\nd\t1.000000000\tseed\ne\t-1.000000000\tseed\n"
    )
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"tweet_id": "t1", "user_id": "u1", '
                      '"timestamp": "2020-01-01T00:00:00Z", "text": "#a #b #c"}\n')
    seeds = tmp_path / "seeds_x.tsv"
    seeds.write_text("#dimension=x\tvalue_a=1.000000000\tvalue_b=-1.000000000\nd\tA\ne\tB\n")
    assert main(["score", "--corpus", str(corpus), "--seed-file", str(seeds),
                 "--out-dir", str(out)]) == 0
    assert read_score_csv(out / "tweet_scores.csv")["x"]["t1"].value == 0.0
    assert read_score_csv(out / "user_scores.csv")["x"]["u1"].value == 0.0
    with open(out / "tally.csv", encoding="utf-8", newline="") as fh:
        counts = {row["class"]: (row["n_users"], row["n_tweets"]) for row in csv.DictReader(fh)}
    assert counts["neutral"] == ("1", "1")
    assert counts["pole_a"] == ("0", "0")


def test_lexicon_naming_another_dimension_exit_two(tmp_path, capsys):
    # score reads lexicon_x.tsv for the seeds' dimension x; its header must agree
    out = tmp_path / "run"
    out.mkdir()
    lexicon = out / "lexicon_x.tsv"
    lexicon.write_text("#dimension=y\tscale=-1.000000000,1.000000000\nh\t1.000000000\tseed\n")
    seeds = tmp_path / "seeds_x.tsv"
    seeds.write_text("#dimension=x\tvalue_a=1.000000000\tvalue_b=-1.000000000\nh\tA\ni\tB\n")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"tweet_id": "t1", "user_id": "u1", '
                      '"timestamp": "2020-01-01T00:00:00Z", "text": "#h"}\n')
    argv = ["score", "--corpus", str(corpus), "--seed-file", str(seeds), "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"data error: {lexicon}: line 1: names dimension 'y', not 'x'" in err
    assert not (out / "tweet_scores.csv").exists()


def test_corrupt_corpus_exit_two(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    tab_id = '{"tweet_id": "t\\t1", "user_id": "u", "timestamp": "2020-01-01", "text": "x"}\n'
    int_retweet = (
        '{"tweet_id": "t1", "user_id": "u", "timestamp": "2020-01-01", "text": "#a #b"}\n'
        '{"tweet_id": "t2", "user_id": "u", "timestamp": "2020-01-01", "text": "#a #b",'
        ' "retweet_of_user": 42}\n'
    )
    not_objects = [(f"{value}\n", 1) for value in ("5", "null", '"t1"')]
    # a null mention once became a user named None; "false" once made a retweet
    typed = [
        (int_retweet.replace('"retweet_of_user": 42', field), message)
        for field, message in [
            ('"retweet_of_user": 42', "retweet_of_user must be a string"),
            ('"mentions": [null, ["x"]]', "each mention must be a string"),
            ('"is_retweet": "false"', "is_retweet must be true, false or null"),
        ]
    ]
    # json.loads decodes a \ud800 escape to a lone surrogate, which no writer encodes
    typed += [
        (int_retweet.replace('"text": "#a #b", "retweet_of_user": 42', '"text": "#b\\ud800"'),
         "text holds a lone surrogate"),
        (int_retweet.replace('"t2", "user_id": "u"', '"t2", "user_id": "u\\ud800"')
         .replace(', "retweet_of_user": 42', ""), "user_id holds a lone surrogate"),
    ]
    for text, line in [("{not json\n", 1), (tab_id, 1), *not_objects]:
        corpus.write_text(text)
        code = main(["ingest", "--corpus", str(corpus), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"line {line}" in capsys.readouterr().err
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("#dimension=d\tvalue_a=1\tvalue_b=-1\na\tA\nb\tB\n")
    for text, message in typed:
        corpus.write_text(text)
        code = main(["ingest", "--corpus", str(corpus), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"line 2: {message}" in capsys.readouterr().err
        assert run_pipeline(tmp_path / "p", corpus, seeds) == 2
        assert f"line 2: {message}" in capsys.readouterr().err


def test_integer_ids_are_read_as_decimal_strings(tmp_path):
    # a line not in write_corpus's layout is read by json.loads
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"tweet_id": 12345, "user_id": 7, "timestamp": "2020-01-01", "text": "#a #b"}\n'
        '{"text": "#b #c", "timestamp": "2020-01-02", "tweet_id": "t2", "user_id": "u"}\n'
    )
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("#dimension=d\tvalue_a=1\tvalue_b=-1\na\tA\nc\tB\n")
    out = tmp_path / "run"
    assert run_pipeline(out, corpus, seeds) == 0
    assert (out / "tokenized.tsv").read_text().splitlines()[0] == "12345\ta b\ta b"
    users = [line.split(",")[0] for line in (out / "user_scores.csv").read_text().splitlines()]
    assert users == ["user_id", "7", "u"]


def test_invalid_utf8_corpus_exit_two(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    line = '{"tweet_id": "t1", "user_id": "u", "timestamp": "2020-01-01", "text": "#a"}\n'
    second = line.replace("t1", "t2").encode().replace(b"#a", b"#\xff")
    corpus.write_bytes(line.encode() + second)
    assert main(["ingest", "--corpus", str(corpus), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"{corpus}: line 2: not valid UTF-8" in capsys.readouterr().err


def test_failed_run_removes_partial_outputs(tmp_path):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(
        '{"tweet_id": "t1", "user_id": "u", "timestamp": "2020-01-01T00:00:00Z", "text": "x"}\n'
        "{broken\n"
    )
    out = tmp_path / "o"
    assert main(["ingest", "--corpus", str(corpus), "--out-dir", str(out)]) == 2
    assert not (out / "tokenized.tsv").exists()
    assert not (out / "manifest.json").exists()


def tree(path):
    """Each file under path with its bytes, and each directory, by relative path."""
    return {
        str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
        for p in path.rglob("*")
    }


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A synth corpus in synth/ and a pipeline run on it in out/."""
    root = tmp_path_factory.mktemp("finished")
    run_synth(root / "synth")
    synth = root / "synth"
    assert run_pipeline(root / "out", synth / "corpus.jsonl", synth / "seeds_community.tsv") == 0
    return root


def test_failed_rerun_leaves_the_previous_run_whole(tmp_path, finished, capsys):
    # a rerun that fails in its fifth stage, on a membership file naming one
    # user twice, must leave every artifact and the manifest of the run before
    out = tmp_path / "out"
    shutil.copytree(finished / "out", out)
    before = tree(out)
    synth = finished / "synth"
    membership = tmp_path / "membership.tsv"
    membership.write_text("u00000\tx\nu00000\ty\n")
    fresh = tmp_path / "new" / "out"
    for out_dir in (out, fresh):
        code = run_pipeline(out_dir, synth / "corpus.jsonl", synth / "seeds_community.tsv",
                            ["--membership", str(membership)])
        assert code == 2
        assert f"{membership}: line 2: duplicate user 'u00000'" in capsys.readouterr().err
    assert tree(out) == before
    # nor does a failed run leave the directories it made for its outputs
    assert not (tmp_path / "new").exists()


def test_commit_failing_partway_leaves_no_manifest(tmp_path, finished, capsys):
    # a directory where the previous run had homophily.csv stops the rerun's
    # commit after it has moved some of its outputs in; no manifest may then
    # vouch for the mix of the two runs
    out = tmp_path / "out"
    shutil.copytree(finished / "out", out)
    (out / "homophily.csv").unlink()
    (out / "homophily.csv").mkdir()
    synth = finished / "synth"
    code = run_pipeline(out, synth / "corpus.jsonl", synth / "seeds_community.tsv",
                        ["--kcore-k", "8"])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert not (out / ".staging").exists()


def test_run_clears_a_staging_directory_left_by_a_killed_run(tmp_path, finished):
    out = tmp_path / "out"
    (out / ".staging").mkdir(parents=True)
    (out / ".staging" / "lexicon_stale.tsv").write_text("stale\n")
    corpus = finished / "synth" / "corpus.jsonl"
    assert main(["ingest", "--corpus", str(corpus), "--out-dir", str(out)]) == 0
    assert sorted(tree(out)) == ["manifest.json", "tokenized.tsv"]
    assert (out / "tokenized.tsv").read_bytes() == (finished / "out/tokenized.tsv").read_bytes()


# Each value RunConfig.validate rejects: every choice, through a config file
# since the flags' own choices would reject it first, and every range at its edge.
BAD_VALUES = [
    *((name, "bogus") for name in cli.CHOICES),
    *((name, 0) for name in ("gamma", "max_outer", "vocab_cap", "knn_k", "kcore_k", "max_iter")),
    ("restart_prob", 0.0),
    ("restart_prob", 1.0),
    ("tol", 0.0),
]


# Each synth flag at the first value SynthSpec.validate rejects, and its message.
BAD_SYNTH_FLAGS = [
    ("--n-tweets", "0", "n_tweets must be >= 1"),
    ("--hashtags-per-community", "0", "hashtags_per_community must be >= 1"),
    ("--neutral-hashtags", "-1", "neutral_hashtags must be >= 0"),
    ("--days", "0", "days must be >= 1"),
]


@pytest.mark.parametrize("flag, value, message", BAD_SYNTH_FLAGS,
                         ids=[flag[2:] for flag, _, _ in BAD_SYNTH_FLAGS])
def test_invalid_synth_flag_is_named(tmp_path, capsys, flag, value, message):
    out = tmp_path / "o"
    assert main(["synth", "--out-dir", str(out), flag, value]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_community_without_hashtags_exit_one(tmp_path, capsys):
    # with within = cross = 0 every tweet draws only neutral hashtags
    out = tmp_path / "o"
    assert main(["synth", "--out-dir", str(out), "--within", "0", "--cross", "0",
                 "--neutral-hashtags", "3", "--n-tweets", "50"]) == 1
    assert ("config error: community pole_a has no hashtags in the generated corpus"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("name, value", BAD_VALUES)
def test_invalid_value_is_named_and_leaves_out_dir(tmp_path, finished, capsys, name, value):
    out = tmp_path / "out"
    shutil.copytree(finished / "out", out)
    before = tree(out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: value}))
    synth = finished / "synth"
    code = main(["pipeline", "--config", str(config), "--out-dir", str(out),
                 "--corpus", str(synth / "corpus.jsonl"),
                 "--seed-file", str(synth / "seeds_community.tsv")])
    assert code == 1
    assert f"config error: invalid value for {name}: {value!r}" in capsys.readouterr().err
    assert tree(out) == before


# A subcommand, the inputs it is given and the input it lacks. Inputs are
# config fields, given as the synth run's files; other flags pass as they are.
LACKING = [
    *(((sub,), "corpus") for sub in ("ingest", "score", "timeseries", "commnet")),
    (("pipeline", "seed_files"), "corpus"),
    (("eval", "gold", "--eval-unit", "user_day"), "corpus"),
    (("propagate",), "seed_files"),
    (("pipeline", "corpus"), "seed_files"),
    (("build-graph", "--mode", "embedding"), "embeddings"),
    (("pipeline", "corpus", "seed_files", "--mode", "embedding"), "embeddings"),
    (("eval",), "gold"),
]
# Inputs that are optional, so only a given file can be absent.
OPTIONAL = [
    (("eval", "gold"), "annotations"),
    (("timeseries", "corpus"), "membership"),
    (("pipeline", "corpus", "seed_files"), "membership"),
]
INPUT_CASES = [
    *((argv, field, absent) for argv, field in LACKING for absent in (False, True)),
    *((argv, field, True) for argv, field in OPTIONAL),
]


def input_flag(field):
    return "--seed-file" if field == "seed_files" else "--" + field.replace("_", "-")


def input_case_id(argv, field, absent):
    values = [a for a in argv if a in ("user_day", "embedding")]
    return "-".join([argv[0], *values, field, "absent" if absent else "none"])


@pytest.mark.parametrize(
    "argv, field, absent", INPUT_CASES, ids=[input_case_id(*case) for case in INPUT_CASES]
)
def test_lacking_input_is_named_and_leaves_out_dir(tmp_path, finished, capsys, argv, field,
                                                   absent):
    out = tmp_path / "out"
    shutil.copytree(finished / "out", out)
    before = tree(out)
    synth = finished / "synth"
    files = {"corpus": "corpus.jsonl", "seed_files": "seeds_community.tsv",
             "gold": "gold_users.tsv"}
    sub, *given = argv
    args = [sub, "--out-dir", str(out), "--gamma", "2", "--kcore-k", "2"]
    for arg in given:
        args += [input_flag(arg), str(synth / files[arg])] if arg in files else [arg]
    missing = tmp_path / "absent.txt"
    if absent:
        args += [input_flag(field), str(missing)]
    assert main(args) == 1
    want = f"{field}: file not found: {missing}" if absent else f"{field}: no file given"
    assert f"config error: {want}" in capsys.readouterr().err
    assert tree(out) == before


@pytest.mark.parametrize("sub", ["synth", "ingest", "pipeline"])
def test_out_dir_that_is_a_file_exit_two(tmp_path, finished, capsys, sub):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    synth = finished / "synth"
    code = main([sub, "--out-dir", str(out), "--corpus", str(synth / "corpus.jsonl"),
                 "--seed-file", str(synth / "seeds_community.tsv"), "--gamma", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_main_turns_gc_off_for_the_run_and_restores_it(tmp_path, synth_dir, monkeypatch):
    ingest = cli.STAGE_BY_NAME["ingest"]
    seen = []

    def watched_ingest(run):
        seen.append(gc.isenabled())
        ingest(run)

    def failing_ingest(run):
        raise RuntimeError("stage failed")

    corrupt = tmp_path / "bad.jsonl"
    corrupt.write_text("{broken\n")
    corpus = str(synth_dir / "corpus.jsonl")
    exits = {
        0: ["ingest", "--corpus", corpus, "--out-dir", str(tmp_path / "ok")],
        1: ["synth", "--out-dir", str(tmp_path / "o"), "--seed-fraction", "7"],
        2: ["ingest", "--corpus", str(corrupt), "--out-dir", str(tmp_path / "bad")],
    }
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            for code, argv in exits.items():
                (gc.enable if enabled else gc.disable)()
                monkeypatch.setitem(cli.STAGE_BY_NAME, "ingest", watched_ingest)
                assert main(argv) == code
                assert gc.isenabled() is enabled
                monkeypatch.setitem(cli.STAGE_BY_NAME, "ingest", failing_ingest)
                with pytest.raises(RuntimeError):
                    main(exits[0])
                assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen and not any(seen)


def test_cyclic_garbage_of_a_run_does_not_grow_with_the_corpus(tmp_path):
    # what a run leaves for the cycle collector has one size for 200 and
    # 2,000 tweets, so a run can keep automatic collection off
    unreachable = []
    for n_tweets in (200, 2000):
        synth = tmp_path / f"synth{n_tweets}"
        synth_args = [*SYNTH_ARGS, "--n-tweets", str(n_tweets)]
        assert main(["synth", "--out-dir", str(synth), *synth_args]) == 0
        gc.collect()
        gc.disable()
        try:
            code = run_pipeline(
                tmp_path / f"run{n_tweets}", synth / "corpus.jsonl", synth / "seeds_community.tsv"
            )
            unreachable.append(gc.collect())
        finally:
            gc.enable()
        assert code == 0
    assert unreachable[0] == unreachable[1]


def test_eval_against_synth_gold(tmp_path, synth_dir):
    out = tmp_path / "run"
    assert run_pipeline(out, synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv") == 0
    code = main(
        [
            "eval",
            "--out-dir", str(out),
            "--gold", str(synth_dir / "gold_users.tsv"),
        ]
    )
    assert code == 0
    poles = (out / "eval_poles.csv").read_text().splitlines()
    assert poles[0] == "dimension,pole,precision,recall,pct_unknown,pct_incorrect"
    assert len(poles) == 3
    # planted communities are easy; both poles should recall most users
    for line in poles[1:]:
        recall = float(line.split(",")[3])
        assert recall > 0.5


def test_eval_warns_of_gold_units_absent_from_the_corpus(tmp_path, synth_dir, caplog):
    out = tmp_path / "run"
    assert run_pipeline(out, synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv") == 0
    gold = tmp_path / "gold.tsv"
    gold.write_text((synth_dir / "gold_users.tsv").read_text() + "nobody\tpole_a\n")
    caplog.clear()
    assert main(["eval", "--out-dir", str(out), "--gold", str(gold)]) == 0
    assert "community: 1 gold units absent from the corpus, skipped" in caplog.messages
    assert len((out / "eval_poles.csv").read_text().splitlines()) == 3


def test_eval_user_day_unit(tmp_path, synth_dir):
    from polarlex.corpus import group_by_user_day, load_corpus

    out = tmp_path / "run"
    assert run_pipeline(out, synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv") == 0
    records = load_corpus(synth_dir / "corpus.jsonl")
    labels = dict(
        line.split("\t") for line in (synth_dir / "gold_users.tsv").read_text().splitlines()
    )
    gold = tmp_path / "gold_days.tsv"
    rows = []
    for key in list(group_by_user_day(records))[:40]:
        rows.append(f"{key}\t{labels[key.rpartition('@')[0]]}")
    gold.write_text("\n".join(rows) + "\n")
    code = main(
        [
            "eval",
            "--out-dir", str(out),
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--gold", str(gold),
            "--eval-unit", "user_day",
        ]
    )
    assert code == 0
    assert (out / "eval_overall.csv").is_file()
    overall = (out / "eval_overall.csv").read_text().splitlines()[1]
    accuracy = float(overall.split(",")[1])
    assert accuracy > 0.5


# sha256 of eval_poles.csv and eval_overall.csv on the synth run, per unit
EVAL_DIGESTS = {
    "account": ("a27bc9b227d0dbb524e1bac44bd0c1128dc6bc6a6256ad78752a2405422fe6e0",
                "f20c07f76e2d64aedfca669db91cba4bda0d9a2643c79d523f28dfde065f33f3"),
    "user_day": ("fcc9bd63e47cd4e2f5be366e6aa3ebca949b43b68891003b76dff50556124c32",
                 "729af317252a2804e2c700bff3ef0acdac0dcf72c64fa13dd9dd30df56c9aef6"),
}


@pytest.mark.parametrize("unit, extra", [("account", []),
                                         ("user_day", ["--weighting", "by_tweet"])])
def test_eval_golden_bytes(tmp_path, synth_dir, unit, extra):
    from polarlex.corpus import load_corpus

    out = tmp_path / "run"
    corpus = synth_dir / "corpus.jsonl"
    assert run_pipeline(out, corpus, synth_dir / "seeds_community.tsv") == 0
    gold = synth_dir / "gold_users.tsv"
    if unit == "user_day":
        labels = dict(line.split("\t") for line in gold.read_text().splitlines())
        days = sorted({(r.user_id, r.day().isoformat()) for r in load_corpus(corpus)})
        gold = tmp_path / "gold_days.tsv"
        gold.write_text("".join(f"{user}@{day}\t{labels[user]}\n" for user, day in days))
    argv = ["eval", "--out-dir", str(out), "--corpus", str(corpus), "--gold", str(gold)]
    assert main([*argv, "--eval-unit", unit, *extra]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("eval_poles.csv", "eval_overall.csv"))
    assert got == EVAL_DIGESTS[unit]


def test_eval_user_day_without_a_tweet_score_names_it(tmp_path, synth_dir, capsys):
    # timeseries reads the same file and must reject it the same way
    out = tmp_path / "run"
    assert run_pipeline(out, synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv") == 0
    scores = out / "tweet_scores.csv"
    header, first, *rest = scores.read_text().splitlines(keepends=True)
    scores.write_text(header + "".join(rest))
    gold = tmp_path / "gold_days.tsv"
    gold.write_text("u0000@2020-01-01\tpole_a\n")
    corpus = ["--corpus", str(synth_dir / "corpus.jsonl")]
    capsys.readouterr()
    for argv in (["eval", "--gold", str(gold), "--eval-unit", "user_day"], ["timeseries"]):
        code = main([*argv, *corpus, "--out-dir", str(out)])
        assert code == 2, argv[0]
        tweet_id = first.split(",")[0]
        err = capsys.readouterr().err
        assert f"{scores}: no 'community' row for tweet {tweet_id!r}" in err, argv[0]


# Score rows that read_score_csv must reject: a stage that sums them would
# divide by a zero item count, add inf to -inf, overflow a sum, or overflow
# the square of a difference from the mean.
UNSUMMABLE = {
    "zero-items": ("t1,d,1.000000000,1\nt2,d,-1.000000000,-1\n", "line 3: n_items is negative"),
    "inf": ("t1,d,inf,1\nt2,d,-inf,1\n", "line 2: value is not finite"),
    "huge": ("t1,d,1e308,1\nt2,d,1e308,1\n", "line 2: value is not finite"),
    "far-apart": ("t1,d,1e200,1\nt2,d,-1e200,1\n", "line 2: value is not finite"),
}


@pytest.mark.parametrize("rows, subcommand", [("zero-items", "eval"), ("inf", "eval"),
                                              ("inf", "timeseries"), ("huge", "eval"),
                                              ("huge", "timeseries"),
                                              ("far-apart", "timeseries")])
def test_unsummable_tweet_scores_exit_two(tmp_path, capsys, rows, subcommand):
    text, message = UNSUMMABLE[rows]
    out = tmp_path / "run"
    out.mkdir()
    scores = out / "tweet_scores.csv"
    scores.write_text("tweet_id,dimension,value,n_items\n" + text)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        f'{{"tweet_id": "{t}", "user_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
        f'"text": "#h"}}\n' for t in ("t1", "t2")
    ))
    gold = tmp_path / "gold_days.tsv"
    gold.write_text("u1@2020-01-01\tpole_a\n")
    argv = [subcommand, "--corpus", str(corpus), "--out-dir", str(out)]
    if subcommand == "eval":
        argv += ["--gold", str(gold), "--eval-unit", "user_day"]
    assert main(argv) == 2
    assert f"data error: {scores}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("texts", [["#a #b"], ["#a", "#b"]], ids=["one-tweet", "two-tweets"])
def test_lexicon_scale_past_the_value_bound_exit_two(tmp_path, capsys, texts):
    # finite scores whose sum overflows: two items in one tweet, or two
    # one-item tweets of one user
    out = tmp_path / "run"
    out.mkdir()
    lexicon = out / "lexicon_d.tsv"
    lexicon.write_text("#dimension=d\tscale=-1e308,1e308\na\t1e308\tseed\nb\t1e308\tseed\n")
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("#dimension=d\tvalue_a=1\tvalue_b=-1\na\tA\nc\tB\n")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        f'{{"tweet_id": "t{i}", "user_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
        f'"text": "{text}"}}\n' for i, text in enumerate(texts)
    ))
    assert main(["score", "--corpus", str(corpus), "--seed-file", str(seeds),
                 "--out-dir", str(out)]) == 2
    assert f"data error: {lexicon}: line 1: bad scale '-1e308,1e308'" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, synth_dir):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "corpus": str(synth_dir / "corpus.jsonl"),
                "seed_files": [str(synth_dir / "seeds_community.tsv")],
                "out_dir": str(tmp_path / "from_config"),
                "gamma": 2,
                "kcore_k": 2,
            }
        )
    )
    assert main(["pipeline", "--config", str(config)]) == 0
    assert (tmp_path / "from_config" / "tweet_scores.csv").is_file()
    override = tmp_path / "override"
    assert main(["pipeline", "--config", str(config), "--out-dir", str(override)]) == 0
    assert (override / "tweet_scores.csv").is_file()


def test_config_file_missing_or_not_an_object_exit_one(tmp_path, capsys):
    config = tmp_path / "config.json"
    argv = ["synth", "--config", str(config), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 1
    assert f"config error: config: file not found: {config}" in capsys.readouterr().err
    config.write_text('[{"gamma": 2}]')
    assert main(argv) == 1
    assert f"config: {config}: expected a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"no_such_knob": 1}')
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    assert "no_such_knob" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("gamma", "5"),
        ("gamma", 2.0),
        ("gamma", True),
        ("restart_prob", "0.2"),
        ("include_retweets", "no"),
        ("include_retweets", 1),
        ("seed_files", "x.tsv"),
        ("seed_files", [1]),
        ("corpus", 3),
        ("corpus", None),
    ],
)
def test_config_value_of_wrong_type_is_named(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    assert f"config: {config}: {key}: expected" in capsys.readouterr().err


def test_config_int_for_float_field_accepted_unconverted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cross": 0, "n_tweets": 50}))
    out = tmp_path / "o"
    assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["cross"] == 0
    assert isinstance(manifest["config"]["cross"], int)


def test_env_var_selects_config(tmp_path, synth_dir, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "envout"), **{
        "n_users": 10, "n_tweets": 50, "hashtags_per_community": 5, "rng_seed": 1,
    }}))
    monkeypatch.setenv("POLARLEX_CONFIG", str(config))
    assert main(["synth"]) == 0
    assert (tmp_path / "envout" / "corpus.jsonl").is_file()


def test_console_entry_point(src_env):
    result = subprocess.run(
        [sys.executable, "-m", "polarlex.cli", "--version"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert result.returncode == 0
    assert "polarlex" in result.stdout


def test_embedding_mode_stages(tmp_path, synth_dir, capsys):
    # embedding-similarity graph + random-walk propagation on the [0,1] scale
    emb = tmp_path / "emb.txt"
    rows = []
    for i in range(12):
        base = [1.0, 0.0] if i % 2 == 0 else [0.0, 1.0]
        rows.append(f"w{i:02d} {base[0] + 0.01 * i} {base[1] + 0.02 * i}")
    emb.write_text("\n".join(rows) + "\n")
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text(
        "#dimension=axis\tvalue_a=1.000000000\tvalue_b=0.000000000\n"
        "w00\tA\nw01\tB\n"
    )
    out = tmp_path / "emb_run"
    common = ["--out-dir", str(out), "--mode", "embedding", "--embeddings", str(emb)]
    assert main(["build-graph", *common, "--knn-k", "3"]) == 0
    assert (out / "graph.edges.tsv").is_file()
    # a graph's kind is told from its node frequencies, which no k-NN node counts
    assert main(["propagate", "--out-dir", str(out), "--seed-file", str(seeds)]) == 1
    assert (f"{out / 'graph.edges.tsv'} holds a graph built with --mode embedding, not hashtag"
            in capsys.readouterr().err)
    assert main(["propagate", *common, "--seed-file", str(seeds)]) == 0
    lexicon = (out / "lexicon_axis.tsv").read_text().splitlines()
    assert lexicon[0].endswith("scale=0.000000000,1.000000000")
    assert len(lexicon) == 13


def test_embedding_whose_norm_overflows_exit_two(tmp_path, capsys):
    # finite values whose norm is not: its unit vector would be zero, tied
    # with every other token at cosine 0
    vectors = np.random.default_rng(1).standard_normal((40, 4))
    vectors[7] = 1e308
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(
        f"t{i:02d} " + " ".join(map(str, row)) + "\n" for i, row in enumerate(vectors.tolist())
    ))
    out = tmp_path / "run"
    assert main(["build-graph", "--mode", "embedding", "--embeddings", str(emb),
                 "--knn-k", "2", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"data error: {emb}: token 't07': vector norm is not finite" in err
    assert not out.exists()


def test_token_mode_pipeline(tmp_path, synth_dir):
    out = tmp_path / "token_run"
    code = run_pipeline(
        out,
        synth_dir / "corpus.jsonl",
        synth_dir / "seeds_community.tsv",
        extra=["--mode", "token", "--vocab-cap", "50"],
    )
    assert code == 0
    scores = read_score_csv(out / "tweet_scores.csv")
    assert "community" in scores


PIPELINE_STAGES = ["ingest", "build-graph", "propagate", "score", "timeseries", "commnet"]


def mode_args(tmp_path, synth_dir, mode):
    """Flags of a pipeline run on the synth corpus in one graph mode.

    Embedding mode gets random vectors for the corpus hashtags plus 2000
    filler tokens, and seeds on the [0, 1] scale the random walk needs.
    """
    seeds = synth_dir / "seeds_community.tsv"
    extra = ["--vocab-cap", "20"] if mode == "token" else []
    if mode == "embedding":
        hashtags = [line.split("\t")[0]
                    for line in (synth_dir / "gold_hashtags.tsv").read_text().splitlines()]
        vocab = hashtags + [f"w{i:04d}" for i in range(2000)]
        vectors = np.random.default_rng(5).standard_normal((len(vocab), 8))
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(
            token + "".join(f" {x:.6f}" for x in row) + "\n" for token, row in zip(vocab, vectors)
        ))
        _, rows = seeds.read_text().split("\n", 1)
        seeds = tmp_path / "seeds_walk.tsv"
        seeds.write_text(
            "#dimension=community\tvalue_a=1.000000000\tvalue_b=0.000000000\n" + rows
        )
        extra = ["--embeddings", str(emb), "--knn-k", "10"]
    return [
        "--corpus", str(synth_dir / "corpus.jsonl"), "--seed-file", str(seeds),
        "--gamma", "2", "--kcore-k", "2", "--mode", mode, *extra,
    ]


def artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"}


def assert_pipeline_matches_stages(tmp_path, args):
    # pipeline hands values from stage to stage in memory; each kept value
    # must equal what its artifact file reads back as
    assert main(["pipeline", "--out-dir", str(tmp_path / "piped"), *args]) == 0
    for stage in PIPELINE_STAGES:
        assert main([stage, "--out-dir", str(tmp_path / "staged"), *args]) == 0, stage
    piped = artifact_bytes(tmp_path / "piped")
    staged = artifact_bytes(tmp_path / "staged")
    assert sorted(piped) == sorted(staged)
    for name in piped:
        assert piped[name] == staged[name], name


@pytest.mark.parametrize("mode", ["hashtag", "token", "embedding"])
def test_pipeline_matches_single_stages(tmp_path, synth_dir, mode):
    assert_pipeline_matches_stages(tmp_path, mode_args(tmp_path, synth_dir, mode))


@pytest.mark.parametrize("mode", ["hashtag", "token"])
def test_two_dimensions_through_pipeline(tmp_path, synth_dir, mode):
    # The synth seeds, and the same seeds with poles A and B swapped. Swapping
    # negates every product and fsum of greedy exactly, and the synth scale
    # is symmetric, so every score of the second negates the first's. (The
    # walk's 1 - x on [0, 1] is not exact, so embedding mode is left out.)
    seeds = synth_dir / "seeds_community.tsv"
    header, *rows = seeds.read_text().splitlines()
    swapped = tmp_path / "seeds_swapped.tsv"
    swapped.write_text("\n".join([
        header.replace("#dimension=community", "#dimension=swapped"),
        *(row[:-1] + {"A": "B", "B": "A"}[row[-1]] for row in rows),
    ]) + "\n")
    args = [*mode_args(tmp_path, synth_dir, mode), "--seed-file", str(swapped)]
    assert_pipeline_matches_stages(tmp_path, args)
    out = tmp_path / "piped"
    lexicon = proplabel.read_lexicon(out / "lexicon_community.tsv")
    mirror = proplabel.read_lexicon(out / "lexicon_swapped.tsv")
    assert mirror.status == lexicon.status
    assert mirror.scores == {item: -score for item, score in lexicon.scores.items()}
    assert proplabel.STATUS_PROPAGATED in lexicon.status.values()
    users = read_score_csv(out / "user_scores.csv")
    negated = {user: (None if s.value is None else -s.value, s.n_items)
               for user, s in users["community"].items()}
    assert {user: (s.value, s.n_items) for user, s in users["swapped"].items()} == negated


def test_pipeline_matches_single_stages_without_tweets(tmp_path, synth_dir):
    # an embedding graph needs no tweets, so scoring can run on none; its
    # empty score files then name no dimension
    args = mode_args(tmp_path, synth_dir, "embedding")
    corpus = tmp_path / "retweets.jsonl"
    corpus.write_text(
        '{"tweet_id": "t1", "user_id": "u", "timestamp": "2020-01-01T00:00:00Z",'
        ' "text": "#a", "is_retweet": true, "retweet_of_user": "v"}\n'
    )
    args[args.index("--corpus") + 1] = str(corpus)
    assert_pipeline_matches_stages(tmp_path, [*args, "--no-include-retweets"])
    assert not list((tmp_path / "piped").glob("daily_series_*.csv"))


def test_pipeline_reads_no_file_it_wrote(tmp_path, synth_dir):
    out = tmp_path / "run"
    args = mode_args(tmp_path, synth_dir, "hashtag")
    assert main(["pipeline", "--out-dir", str(out), *args]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["inputs"]) == sorted(
        [str(synth_dir / "corpus.jsonl"), str(synth_dir / "seeds_community.tsv")]
    )


# What each single stage reads and writes, as its manifest lists them: an
# input by the config field that names it, or by its name in the run
# directory. In embedding mode build-graph reads the embeddings instead.
STAGE_FILES = {
    "ingest": (["corpus"], ["tokenized.tsv"]),
    "build-graph": (["tokenized.tsv"], ["graph.edges.tsv", "graph.nodes.tsv"]),
    "propagate": (["graph.edges.tsv", "graph.nodes.tsv", "seed_files"],
                  ["lexicon_community.tsv"]),
    "score": (["corpus", "lexicon_community.tsv", "seed_files"],
              ["tally.csv", "tweet_scores.csv", "user_scores.csv"]),
    "timeseries": (["corpus", "membership", "tweet_scores.csv"],
                   ["daily_series_community.csv"]),
    "commnet": (["corpus", "lexicon_community.tsv", "user_scores.csv"],
                ["commnet.graphml", "commnet_edges.csv", "homophily.csv"]),
    "eval": (["annotations", "gold", "lexicon_community.tsv", "user_scores.csv"],
             ["eval_overall.csv", "eval_poles.csv"]),
    "eval user_day": (["annotations", "corpus", "gold", "lexicon_community.tsv",
                       "tweet_scores.csv"], ["eval_overall.csv", "eval_poles.csv"]),
}


def manifest_files(out_dir):
    """The inputs and outputs of out_dir's manifest, inputs named as in STAGE_FILES."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    config = manifest["config"]
    given = {value: name for name, value in config.items() if isinstance(value, str)}
    given.update(dict.fromkeys(config["seed_files"], "seed_files"))
    inputs = [given.get(path) or str(Path(path).relative_to(out_dir))
              for path in manifest["inputs"]]
    return sorted(inputs), manifest["outputs"]


@pytest.mark.parametrize("mode", ["hashtag", "token", "embedding"])
def test_each_stage_reads_and_writes_its_files(tmp_path, synth_dir, mode):
    from polarlex.corpus import group_by_user_day, load_corpus

    gold = synth_dir / "gold_users.tsv"
    labels = dict(line.split("\t") for line in gold.read_text().splitlines())
    # a copy, so that the manifest tells the membership file from the gold file
    membership = tmp_path / "membership.tsv"
    shutil.copy(gold, membership)
    annotations = tmp_path / "annotations.tsv"
    annotations.write_text("".join(f"{user}\t{g}\t{g}\n" for user, g in labels.items()))
    days = group_by_user_day(load_corpus(synth_dir / "corpus.jsonl"))
    day_gold = tmp_path / "gold_days.tsv"
    day_gold.write_text("".join(f"{key}\t{labels[key.partition('@')[0]]}\n" for key in days))
    out = tmp_path / "run"
    args = [*mode_args(tmp_path, synth_dir, mode), "--out-dir", str(out),
            "--membership", str(membership), "--annotations", str(annotations)]
    for stage, (reads, writes) in STAGE_FILES.items():
        subcommand, _, unit = stage.partition(" ")
        argv = [subcommand, *args]
        if subcommand == "eval":
            argv += ["--gold", str(day_gold if unit else gold), "--eval-unit", unit or "account"]
        if mode == "embedding" and stage == "build-graph":
            reads = ["embeddings"]
        assert main(argv) == 0, stage
        assert manifest_files(out) == (reads, writes), stage


def test_pipeline_scores_only_its_own_lexicons(tmp_path, synth_dir):
    corpus = synth_dir / "corpus.jsonl"
    seeds = synth_dir / "seeds_community.tsv"
    other = tmp_path / "seeds_other.tsv"
    other.write_text(seeds.read_text().replace("#dimension=community", "#dimension=other", 1))
    out = tmp_path / "run"
    assert run_pipeline(out, corpus, other) == 0
    assert run_pipeline(out, corpus, seeds) == 0
    assert set(read_score_csv(out / "tweet_scores.csv")) == {"community"}
    assert set(read_score_csv(out / "user_scores.csv")) == {"community"}


def test_scored_dimension_without_lexicon_exit_one(tmp_path, synth_dir, capsys):
    # user_scores.csv still scores "community" after its lexicon is replaced
    # by one for "other"; commnet and eval must name the lexicon and the stage
    corpus = synth_dir / "corpus.jsonl"
    seeds = synth_dir / "seeds_community.tsv"
    other = tmp_path / "seeds_other.tsv"
    other.write_text(seeds.read_text().replace("#dimension=community", "#dimension=other", 1))
    out = tmp_path / "run"
    assert run_pipeline(out, corpus, seeds) == 0
    (out / "lexicon_community.tsv").unlink()
    assert main(["propagate", "--seed-file", str(other), "--gamma", "2",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    for argv in (["commnet", "--corpus", str(corpus), "--kcore-k", "2"],
                 ["eval", "--gold", str(synth_dir / "gold_users.tsv")]):
        assert main([*argv, "--out-dir", str(out)]) == 1, argv[0]
        err = capsys.readouterr().err
        assert "config error" in err and str(out / "lexicon_community.tsv") in err, argv[0]
        assert "run propagate" in err, argv[0]


def test_score_scores_only_its_seed_files_dimensions(tmp_path, synth_dir):
    # lexicon_other.tsv, left by an earlier pipeline run, is not scored
    corpus = synth_dir / "corpus.jsonl"
    seeds = synth_dir / "seeds_community.tsv"
    other = tmp_path / "seeds_other.tsv"
    other.write_text(seeds.read_text().replace("#dimension=community", "#dimension=other", 1))
    out = tmp_path / "run"
    assert run_pipeline(out, corpus, other) == 0
    for argv in (["propagate", "--gamma", "2"], ["score", "--corpus", str(corpus)]):
        assert main([*argv, "--seed-file", str(seeds), "--out-dir", str(out)]) == 0, argv[0]
    assert (out / "lexicon_other.tsv").is_file()
    assert set(read_score_csv(out / "tweet_scores.csv")) == {"community"}
    assert set(read_score_csv(out / "user_scores.csv")) == {"community"}


def test_score_skips_a_lexicon_no_seed_file_names(tmp_path, synth_dir):
    out = tmp_path / "run"
    corpus, seeds = synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv"
    assert run_pipeline(out, corpus, seeds) == 0
    lexicon = (out / "lexicon_community.tsv").read_text()
    (out / "lexicon_stale.tsv").write_text(
        lexicon.replace("#dimension=community", "#dimension=stale", 1)
    )
    assert main(["score", "--corpus", str(corpus), "--seed-file", str(seeds),
                 "--out-dir", str(out)]) == 0
    assert set(read_score_csv(out / "user_scores.csv")) == {"community"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(out / "lexicon_stale.tsv") not in manifest["inputs"]


@pytest.mark.parametrize(
    ("built", "mode"),
    [
        pytest.param("hashtag", "token", id="token"),
        pytest.param("hashtag", "embedding", id="embedding"),
        # token and k-NN graph files both say #mode=token; only the node
        # frequencies, 0 for every k-NN node, tell them apart
        pytest.param("token", "embedding", id="token-graph-embedding"),
        pytest.param("embedding", "token", id="knn-graph-token"),
    ],
)
def test_propagate_on_a_graph_of_another_mode_exit_one(tmp_path, synth_dir, capsys, built, mode):
    out = tmp_path / "run"
    corpus, seeds = synth_dir / "corpus.jsonl", synth_dir / "seeds_community.tsv"
    if mode == "embedding":  # seeds on the walk's scale, so only the graph is refused
        text = seeds.read_text().replace("value_b=-1.", "value_b=0.", 1)
        seeds = tmp_path / "seeds_01.tsv"
        seeds.write_text(text)
    if built == "embedding":
        # the synth hashtags, each community near its own axis
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"h{c}{i:04d} {1 - x + 0.01 * i} {x + 0.02 * i}\n"
                               for c, x in (("a", 0), ("b", 1)) for i in range(12)))
        stages = [["build-graph", "--mode", "embedding", "--embeddings", str(emb),
                   "--knn-k", "2"]]
    else:
        stages = [["ingest", "--corpus", str(corpus)], ["build-graph", "--mode", built]]
    for argv in stages:
        assert main([*argv, "--out-dir", str(out)]) == 0, argv[0]
    capsys.readouterr()
    assert main(["propagate", "--mode", mode, "--gamma", "2", "--seed-file", str(seeds),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {out / 'graph.edges.tsv'}" in err and "build-graph" in err
    assert not list(out.glob("lexicon_*.tsv"))


def test_dimension_name_with_comma_is_quoted_in_homophily_csv(tmp_path, synth_dir):
    seeds_text = (synth_dir / "seeds_community.tsv").read_text()
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text(seeds_text.replace("#dimension=community", "#dimension=a,b", 1))
    out = tmp_path / "run"
    assert run_pipeline(out, synth_dir / "corpus.jsonl", seeds) == 0
    with open(out / "homophily.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["dimension", "a,b"]
    assert all(len(row) == 2 for row in rows)


def test_seed_files_naming_one_dimension_exit_two(tmp_path, synth_dir, capsys):
    seeds = synth_dir / "seeds_community.tsv"
    again = tmp_path / "seeds_again.tsv"
    again.write_bytes(seeds.read_bytes())
    out = tmp_path / "run"
    code = run_pipeline(out, synth_dir / "corpus.jsonl", seeds, ["--seed-file", str(again)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(seeds) in err and str(again) in err
    assert not out.exists()


def test_bad_seed_or_annotation_file_is_named(tmp_path, capsys):
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("#dimension=d\tvalue_a=1\tvalue_b=-1\na\tA\na\tB\n")
    assert main(["propagate", "--seed-file", str(seeds), "--out-dir", str(tmp_path)]) == 2
    assert f"{seeds}: d: seed items in both poles: ['a']" in capsys.readouterr().err
    gold = tmp_path / "gold.tsv"
    gold.write_text("u1\tpole_a\nu2\tpole_b\n")
    annotations = tmp_path / "annotations.tsv"
    annotations.write_text("u1\tpole_a\tpole_a\nu2\tpole_b\tmaybe\n")
    code = main(["eval", "--gold", str(gold), "--annotations", str(annotations),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{annotations}: line 2: unknown label 'maybe'" in capsys.readouterr().err


# a value other than the default for each field whose flag takes one of a fixed set
CHOICE_SAMPLES = {"mode": "token", "weighting": "by_tweet", "eval_unit": "user_day"}


def flag_sample(f):
    """A non-default value for config field f, the argv that sets it, and its options."""
    if f.name == "seed_files":
        argv = ["--seed-file", "a.tsv", "--seed-file", "b.tsv"]
        return ["a.tsv", "b.tsv"], argv, {"--seed-file"}
    flag = "--" + f.name.replace("_", "-")
    negated = "--no-" + flag[2:]
    if isinstance(f.default, bool):
        return not f.default, [negated if f.default else flag], {flag, negated}
    if f.name in CHOICE_SAMPLES:
        value = CHOICE_SAMPLES[f.name]
    elif f.default is None or isinstance(f.default, str):
        value = "x.txt"
    elif isinstance(f.default, int):
        value = f.default + 1
    else:
        value = f.default / 2
    return value, [flag, str(value)], {flag}


def test_run_config_takes_proplabel_defaults():
    defaults = cli.RunConfig()
    assert defaults.gamma == proplabel.DEFAULT_GAMMA
    assert defaults.max_outer == proplabel.DEFAULT_MAX_OUTER
    assert defaults.restart_prob == proplabel.DEFAULT_RESTART_PROB
    assert defaults.tol == proplabel.DEFAULT_TOL
    assert defaults.max_iter == proplabel.DEFAULT_MAX_ITER


def test_every_config_field_is_a_flag(monkeypatch):
    monkeypatch.delenv("POLARLEX_CONFIG", raising=False)
    parser = cli._build_parser()
    (subcommand,) = (a for a in parser._actions if not a.option_strings)
    assert tuple(subcommand.choices) == cli.SUBCOMMANDS
    expected_options = {"-h", "--help", "--version", "--config"}
    for f in fields(cli.RunConfig):
        value, argv, options = flag_sample(f)
        expected_options |= options
        assert value != f.default, f.name
        for sub in cli.SUBCOMMANDS:
            for args in ([sub, *argv], [*argv, sub]):
                parsed = parser.parse_args(args)
                assert parsed.subcommand == sub, args
                assert cli.build_config(parsed) == cli.RunConfig(**{f.name: value}), args
    assert {s for a in parser._actions for s in a.option_strings} == expected_options
    # the RunConfig flags, then help, version, the subcommand and config
    assert len(parser._actions) == len(fields(cli.RunConfig)) + 4


# sha256 of every pipeline artifact but manifest.json; a change to any stage
# must keep them unless it sets out to change the output
GOLDEN_DIGESTS = {
    "embedding": {
        "commnet.graphml":
            "2fc04f316b82f12dfa8bb602d26e9e7c89a2739122b9dd7bb3bea6bb29ecba30",
        "commnet_edges.csv":
            "29ecfe0748a30ec5ef118ba525ce82c1e6d6104e47e9a4e800414c1548ee37a1",
        "daily_series_community.csv":
            "108c21c800ecb8f723431e2f2c70fa824fb7a320cb4a555b39a42638c8b184df",
        "graph.edges.tsv":
            "24c060b0bdef7cc0e0faeae79ec50491f6316f32638489ef9ea4f8fddc147893",
        "graph.nodes.tsv":
            "ec7309624cf8dfbe4a9ce2fddbb54fc991deb0cdc0f2beeb4a63efe9994c2a97",
        "homophily.csv":
            "7cd13dc8677cf767445e38f858e6f225e706727ae5a446501708ca226844d410",
        "lexicon_community.tsv":
            "564365647d293faae9e5c0a694763e6ddb52756515c8fb881b1682494180899d",
        "tally.csv":
            "7fc9f5df1eaec3e56a3887d2e743b2dfa6f91bd9886cad7d910dcd43e5bab31e",
        "tokenized.tsv":
            "abf272edec4770980a10a19d9385a4346f73faec22072512b9362de71254a607",
        "tweet_scores.csv":
            "07a35141bc162851a73961e9ba317a78765496f92108a81f009407c5d0ea5369",
        "user_scores.csv":
            "ef7c35c580f112d971301e91b222d16048c7ecfcf9278b4712ce75af4e5a8eeb",
    },
    "hashtag": {
        "commnet.graphml":
            "034e7f5d1d00ce777e817d5d13ad697a9bd75a2f9da5a22f72abfeb2a5eceee7",
        "commnet_edges.csv":
            "29ecfe0748a30ec5ef118ba525ce82c1e6d6104e47e9a4e800414c1548ee37a1",
        "daily_series_community.csv":
            "deef2bac3e523814d2c02660a27ee7bf0e5b85b15141d12206f8b20ee460c6ee",
        "graph.edges.tsv":
            "801df20b6c172f1c049cfc1feb6fac22ab81f27c050f3e2860cb249d9f3cd2f5",
        "graph.nodes.tsv":
            "28ab9f109a1e2646eb697af7fba38aa6b5859ca09169b717b33cf66fb714b4c6",
        "homophily.csv":
            "b84bdfe13cd3bda3952d8f41930bbfaadd90af538a4045b507c4c7acdf0e3fb7",
        "lexicon_community.tsv":
            "8a99056f88f8685f69d78e1f6c87e4c9309bf0424dd9b5938a701264c17e50e4",
        "tally.csv":
            "08b94c756fc0c1fc61896b6ae7a47530046327f1034fb79286684808f2ab381f",
        "tokenized.tsv":
            "abf272edec4770980a10a19d9385a4346f73faec22072512b9362de71254a607",
        "tweet_scores.csv":
            "5b600e8dab148fc5f8c5ab8a6f2d1cb28060bfc9fc0102ad8b4c0aa38107f6f2",
        "user_scores.csv":
            "1e4ba716eb0826f17e3cda6438a9c437a2d8c6992060b549820485b55bc618a7",
    },
    "token": {
        "commnet.graphml":
            "1a2c00a5454e6dc9bcf5e185ba94f4a620552d3ef8503f9e1d460be5eadac0de",
        "commnet_edges.csv":
            "29ecfe0748a30ec5ef118ba525ce82c1e6d6104e47e9a4e800414c1548ee37a1",
        "daily_series_community.csv":
            "43293559efabec219bb33e66e49f3fb395883b12ada14f97d001accfca01760b",
        "graph.edges.tsv":
            "c907f7b33e716d04833f188429c52eda959d9078367788cbf1079130bb54a455",
        "graph.nodes.tsv":
            "b8d134722656cc70c7608ed7e3c58138248fcbc40be9e8824fbeb0b020f9fbbf",
        "homophily.csv":
            "b84bdfe13cd3bda3952d8f41930bbfaadd90af538a4045b507c4c7acdf0e3fb7",
        "lexicon_community.tsv":
            "96d4e72aa2cbcc3d0795eddb1a1c7bdbb7de55363b0b964234e4a7c1f594745c",
        "tally.csv":
            "799c5d353a582a13faac494610a0f529b0081d2dbaece19ded48c5b2a00dd35d",
        "tokenized.tsv":
            "abf272edec4770980a10a19d9385a4346f73faec22072512b9362de71254a607",
        "tweet_scores.csv":
            "f07a06c9c43b7eacda26f84524fb76ba1e10a121992516fc909aebf9fd792e47",
        "user_scores.csv":
            "ff49117bc0857c816ac857278e58ea22acc594506e4eb5dcc7c6ed01e6804b50",
    },
}


# The hashtag run on a weighted 4-core of the network without mentions: 74
# edges, of which the core keeps 65 between 26 of the 30 users.
CORE_ARGS = ["--kcore-k", "4", "--kcore-weighted", "--drop-mentions"]
GOLDEN_DIGESTS["hashtag-core"] = {
    **GOLDEN_DIGESTS["hashtag"],
    "commnet.graphml":
        "f4763362c3868ed8d3d0219b309934dcf103250d48b071570629258c6a203762",
    "commnet_edges.csv":
        "9e0e17670f8a96b40e0c530894a2b9e1c6c27acc39173f3e4e9b662ca2b087f4",
    "homophily.csv":
        "630fb8d7d0771e251114a61f63544ed7a763d32bbad50b8231a2b71fd13d29cb",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_pipeline_golden_bytes(tmp_path, synth_dir, case):
    mode = case.removesuffix("-core")
    args = mode_args(tmp_path, synth_dir, mode) + (CORE_ARGS if case != mode else [])
    out = tmp_path / f"{case}_run"
    assert main(["pipeline", "--out-dir", str(out), *args]) == 0
    digests = {
        name: hashlib.sha256(blob).hexdigest() for name, blob in artifact_bytes(out).items()
    }
    assert digests == GOLDEN_DIGESTS[case]


def test_repeated_hashtag_in_tokenized_file_propagates(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "tokenized.tsv").write_text("t1\ta a b\t\nt2\tb c\t\n")
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text(
        "#dimension=dim\tvalue_a=1.000000000\tvalue_b=-1.000000000\na\tA\nc\tB\n"
    )
    assert main(["build-graph", "--out-dir", str(out)]) == 0
    assert (out / "graph.edges.tsv").read_text() == (
        "#mode=hashtag\na\tb\t1.000000000\nb\tc\t1.000000000\n"
    )
    assert (out / "graph.nodes.tsv").read_text() == "a\t1\nb\t2\nc\t1\n"
    assert main(["propagate", "--out-dir", str(out), "--seed-file", str(seeds)]) == 0
    assert "b\t0.000000000\tpropagated" in (out / "lexicon_dim.tsv").read_text()
