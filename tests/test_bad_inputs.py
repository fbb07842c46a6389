"""Every file the CLI reads, under a fixed set of mutations.

Each case copies one small run directory, mutates one file and runs, in
process, the subcommand that reads it. A mutation that breaks the file must
end in exit 1 or 2 with the file named on stderr; the others must leave the
run working. No case may let an exception out of main. A second table edits
one field that only its reader's own checks reject, such as an unknown
lexicon status.
"""

import json
import shutil
from dataclasses import dataclass

import pytest

from polarlex.cli import main


@dataclass(frozen=True)
class Kind:
    path: str  # relative to the run directory
    argv: tuple[str, ...]  # the subcommand that reads the file, and its flags
    sep: str | None  # None for JSON
    first: int = 0  # index of the first data line: after a header or comment
    # (line, field) of a number to make nan, inf or 1e308; line None: the first
    # data line from the second on whose field is not blank
    number: tuple[int | None, int] | None = None


SEEDS = ("--seed-file", "seeds.tsv")
GOLD = ("--gold", "gold.tsv")
KINDS = {
    "corpus": Kind("corpus.jsonl", ("ingest",), None),
    "tokenized": Kind("out/tokenized.tsv", ("build-graph",), "\t"),
    "graph-edges": Kind("out/graph.edges.tsv", ("propagate", *SEEDS), "\t", 1, (None, 2)),
    "graph-nodes": Kind("out/graph.nodes.tsv", ("propagate", *SEEDS), "\t", 0, (None, 1)),
    "lexicon": Kind("out/lexicon_community.tsv", ("score", *SEEDS), "\t", 1, (None, 1)),
    "seeds": Kind("seeds.tsv", ("propagate", *SEEDS), "\t", 1, (0, 1)),
    "tweet-scores": Kind("out/tweet_scores.csv", ("timeseries",), ",", 1, (None, 2)),
    "user-scores": Kind("out/user_scores.csv", ("eval", *GOLD), ",", 1, (None, 2)),
    "membership": Kind("membership.tsv", ("timeseries", "--membership", "membership.tsv"),
                       "\t", 1),
    "gold": Kind("gold.tsv", ("eval", *GOLD), "\t", 1),
    "annotations": Kind("annotations.tsv",
                        ("eval", *GOLD, "--annotations", "annotations.tsv"), "\t", 1),
    "embeddings": Kind("emb.txt", ("build-graph", "--mode", "embedding", "--embeddings",
                                   "emb.txt", "--knn-k", "2"), " ", 0, (None, 1)),
    "config": Kind("config.json", ("eval", *GOLD, "--config", "config.json"), None),
}
MUTATIONS = ("empty", "no-header", "extra-field", "missing-field", "nan", "inf", "1e308",
             "invalid-utf8", "blank-line")
HEADERS = {"graph-edges", "lexicon", "seeds", "tweet-scores", "user-scores"}
NUMBERS = {"nan", "inf", "1e308"}
# Mutations that leave a valid file: whitespace-only lines are skipped, a
# corpus object may carry other keys, every config key is optional, an empty
# corpus, tokenized file or membership file holds no rows, and 1e308 is a
# valid tol.
ACCEPTED = {
    *((kind, "blank-line") for kind in KINDS),
    ("corpus", "empty"), ("tokenized", "empty"), ("membership", "empty"),
    ("corpus", "extra-field"), ("config", "missing-field"), ("config", "1e308"),
}
CASES = [
    (kind, mutation)
    for kind in KINDS
    for mutation in MUTATIONS
    if (mutation != "no-header" or kind in HEADERS)
    and (mutation not in NUMBERS or KINDS[kind].number or kind == "config")
]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A run directory after synth and pipeline, plus the hand-written inputs."""
    root = tmp_path_factory.mktemp("base")
    synth = ["--n-users", "30", "--n-tweets", "400", "--hashtags-per-community", "12",
             "--seed-fraction", "0.2", "--within", "0.9", "--cross", "0.1", "--rng-seed", "3"]
    assert main(["synth", "--out-dir", str(root), *synth]) == 0
    (root / "seeds_community.tsv").rename(root / "seeds.tsv")
    gold = (root / "gold_users.tsv").read_text()
    (root / "gold.tsv").write_text("# user<TAB>label\n" + gold)
    (root / "membership.tsv").write_text("# user<TAB>group\n" + gold)
    pairs = [line.split("\t") for line in gold.splitlines()[:6]]
    (root / "annotations.tsv").write_text(
        "# item<TAB>label<TAB>label\n" + "".join(f"{u}\t{g}\t{g}\n" for u, g in pairs)
    )
    (root / "emb.txt").write_text(
        "".join(f"w{i:02d} {1.0 + 0.01 * i} {0.02 * i * (i % 2)}\n" for i in range(12))
    )
    (root / "config.json").write_text(
        json.dumps({"gamma": 2, "kcore_k": 2, "tol": 1e-8}, indent=1) + "\n"
    )
    assert main(["pipeline", *common_flags(root), "--seed-file", str(root / "seeds.tsv")]) == 0
    return root


def common_flags(run):
    return ["--out-dir", str(run / "out"), "--corpus", str(run / "corpus.jsonl"),
            "--gamma", "2", "--kcore-k", "2"]


def mutate(kind: Kind, mutation: str, text: str) -> bytes:
    """text with one mutation applied to its second data line, or its whole."""
    lines = text.splitlines(keepends=True)
    at = kind.first + 1
    if mutation == "empty":
        return b""
    if mutation == "no-header":
        lines = lines[1:]
    elif mutation == "invalid-utf8":
        head = "".join(lines[:at]) + lines[at][:2]
        return head.encode() + b"\xff" + "".join([lines[at][2:], *lines[at + 1:]]).encode()
    elif mutation == "blank-line":
        lines.insert(at, " \t \n")
    elif kind.sep is None:
        whole = kind.path == "config.json"
        obj = json.loads(text if whole else lines[at])
        if mutation == "extra-field":
            obj["no_such_key"] = 1
        elif mutation == "missing-field":
            del obj["gamma" if whole else "text"]
        else:
            obj["tol"] = float(mutation)
        if whole:
            return json.dumps(obj, indent=1).encode()
        lines[at] = json.dumps(obj) + "\n"
    else:
        if mutation in NUMBERS:
            line, field = kind.number
            if line is None:
                line = next(i for i in range(at, len(lines))
                            if lines[i].rstrip("\n").split(kind.sep)[field])
        else:
            line = at
        fields = lines[line].rstrip("\n").split(kind.sep)
        if mutation == "extra-field":
            fields.append("1")
        elif mutation == "missing-field":
            fields.pop()
        else:
            name, eq, _ = fields[field].rpartition("=")
            fields[field] = name + eq + mutation
        lines[line] = kind.sep.join(fields) + "\n"
    return "".join(lines).encode()


def run_edited(tmp_path, capsys, base, kind: Kind, edit) -> tuple[int, str, object]:
    """Exit code and stderr of kind's subcommand on a copy of base whose file
    of that kind holds edit(its text), and that file's path."""
    run = tmp_path / "run"
    shutil.copytree(base, run)
    path = run / kind.path
    path.write_bytes(edit(path.read_text()))
    argv = [kind.argv[0], *common_flags(run),
            *(str(run / a) if (run / a).is_file() else a for a in kind.argv[1:])]
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err, path


@pytest.mark.parametrize("kind_name, mutation", CASES, ids=[f"{k}-{m}" for k, m in CASES])
def test_bad_input(tmp_path, capsys, base, kind_name, mutation):
    kind = KINDS[kind_name]
    code, err, path = run_edited(
        tmp_path, capsys, base, kind, lambda text: mutate(kind, mutation, text)
    )
    if (kind_name, mutation) in ACCEPTED:
        assert code == 0, err
        return
    assert code in (1, 2), err
    assert str(path) in err
    if mutation == "invalid-utf8":
        assert f"{path}: line {kind.first + 2}: not valid UTF-8" in err


# Edits that only one reader's own checks reject: (kind, id, line index, the
# field to set, by index or JSON key, its new value or None to drop the fields
# from there on, and the message after the file's path).
EDITS = [
    ("corpus", "lone-surrogate", 1, "text", "#b\ud800", "line 2: text holds a lone surrogate"),
    ("corpus", "tweet-id-float", 1, "tweet_id", 3.5,
     "line 2: tweet_id must be a string or an integer"),
    ("corpus", "user-id-bool", 1, "user_id", True,
     "line 2: user_id must be a string or an integer"),
    ("corpus", "user-id-array", 1, "user_id", ["u", 1],
     "line 2: user_id must be a string or an integer"),
    ("corpus", "timestamp-number", 1, "timestamp", 20190214, "line 2: timestamp must be a string"),
    ("corpus", "text-object", 1, "text", {"x": "#d"}, "line 2: text must be a string"),
    ("lexicon", "bad-header", 0, 1, "scale=x", "line 1: bad scale 'x'"),
    ("lexicon", "scale-renamed", 0, 1, "range=-1.000000000,1.000000000",
     "line 1: expected the header '#dimension=<dimension>\\tscale=<scale>'"),
    ("lexicon", "slash-in-dimension", 0, 0, "#dimension=a/b",
     "line 1: dimension name holds '/' or NUL: 'a/b'"),
    ("lexicon", "duplicate-item", 2, 0, "ha0000", "line 3: duplicate item 'ha0000'"),
    ("lexicon", "unknown-status", 1, 2, "maybe", "line 2: unknown status 'maybe'"),
    ("lexicon", "bad-score", 1, 1, "x", "line 2: bad score"),
    ("seeds", "bad-header", 0, 1, "value_a=x", "line 1: bad endpoint value"),
    ("seeds", "slash-in-dimension", 0, 0, "#dimension=a/b",
     "line 1: dimension name holds '/' or NUL: 'a/b'"),
    ("seeds", "nul-in-dimension", 0, 0, "#dimension=a\0b",
     "line 1: dimension name holds '/' or NUL: 'a\\x00b'"),
    ("graph-edges", "unknown-mode", 0, 0, "#mode=foo", "line 1: mode must be hashtag or token"),
    ("graph-edges", "bad-weight", 1, 2, "x", "line 2: bad weight"),
    ("graph-nodes", "negative-frequency", 1, 1, "-1", "line 2: frequency is negative"),
    ("embeddings", "no-values", 1, 1, None, "line 2: expected token and values"),
    # a line that starts with a space would give the graph a node named ''
    ("embeddings", "empty-token", 1, 0, "", "line 2: empty token"),
    # the graph and lexicon files hold one tab-separated token per row
    ("embeddings", "tab-in-token", 1, 0, "w\tfive", "line 2: token 'w\\tfive' holds a tab"),
    # every square underflows, so the norm is 0 though the vector is not zero
    ("embeddings", "norm-underflow", 2, 1, "1e-170", "token 'w02': vector norm underflows to zero"),
    ("gold", "duplicate-key", 2, 0, "u00000", "line 3: duplicate key 'u00000'"),
    ("annotations", "duplicate-key", 2, 0, "u00000", "line 3: duplicate key 'u00000'"),
    ("tweet-scores", "bad-value", 1, 2, "x", "line 2: bad numeric field"),
    ("tweet-scores", "slash-in-dimension", 1, 1, "a/b",
     "line 2: dimension name holds '/' or NUL: 'a/b'"),
    ("tweet-scores", "negative-n-items", 1, 3, "-1", "line 2: n_items is negative"),
    ("user-scores", "negative-n-items", 1, 3, "-1", "line 2: n_items is negative"),
]


def set_field(kind: Kind, line: int, field, value, text: str) -> bytes:
    lines = text.splitlines(keepends=True)
    if kind.sep is None:
        obj = json.loads(lines[line])
        obj[field] = value
        lines[line] = json.dumps(obj) + "\n"  # a lone surrogate becomes its \ud800 escape
    else:
        fields = lines[line].rstrip("\n").split(kind.sep)
        fields[field:] = [] if value is None else [value, *fields[field + 1:]]
        lines[line] = kind.sep.join(fields) + "\n"
    return "".join(lines).encode()


@pytest.mark.parametrize("kind_name, line, field, value, message",
                         [edit[:1] + edit[2:] for edit in EDITS],
                         ids=[f"{edit[0]}-{edit[1]}" for edit in EDITS])
def test_bad_edit(tmp_path, capsys, base, kind_name, line, field, value, message):
    kind = KINDS[kind_name]
    code, err, path = run_edited(
        tmp_path, capsys, base, kind, lambda text: set_field(kind, line, field, value, text)
    )
    assert code == 2, err
    assert f"{path}: {message}" in err


def swap_endpoints(text: str) -> str:
    header, rest = text.split("\n", 1)
    dimension, value_a, value_b = header.split("\t")
    return f"{dimension}\t{value_b}\t{value_a}\n{rest}"


def repeat_line_2(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join([*lines[:2], *lines[1:]])


def repeat_user_id(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n")[:-1] + ', "user_id": "zzz"}\n'
    return "".join(lines)


def repeat_kcore_k(text: str) -> str:
    return text.replace("{", '{"kcore_k": 50, ', 1)


# Edits of whole lines: (kind, id, the edit, and the message after the file's path).
LINE_EDITS = [
    ("corpus", "repeated-key", repeat_user_id, "line 2: duplicate key 'user_id'"),
    ("config", "repeated-key", repeat_kcore_k, "duplicate key 'kcore_k'"),
    ("seeds", "endpoints-swapped", swap_endpoints,
     "line 1: expected the header "
     "'#dimension=<dimension>\\tvalue_a=<value_a>\\tvalue_b=<value_b>'"),
    ("tweet-scores", "row-repeated", repeat_line_2,
     "line 3: duplicate tweet_id 't0000000' in 'community'"),
]


@pytest.mark.parametrize("kind_name, edit, message", [e[:1] + e[2:] for e in LINE_EDITS],
                         ids=[f"{e[0]}-{e[1]}" for e in LINE_EDITS])
def test_bad_line_edit(tmp_path, capsys, base, kind_name, edit, message):
    code, err, path = run_edited(
        tmp_path, capsys, base, KINDS[kind_name], lambda text: edit(text).encode()
    )
    assert code == (1 if kind_name == "config" else 2), err
    assert f"{path}: {message}" in err
