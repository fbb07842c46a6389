"""Command-line pipeline: config-driven, deterministic, manifest-stamped runs."""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import shutil
import sys
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, commnet, corpus, evalkit, polarity, proplabel, synthgen
from .errors import ConfigError, DataError
from .ioutil import open_text, sha256_file, unique_keys

# lexgraph loads numpy and scipy at import, so only the stages that use it
# import it; the other subcommands start without either.
if TYPE_CHECKING:
    from .lexgraph import CooccurrenceGraph

log = logging.getLogger(__name__)

CONFIG_ENV_VAR = "POLARLEX_CONFIG"

# The allowed values of the RunConfig fields that take one of a fixed set;
# both the flags' choices and RunConfig.validate read them from here.
CHOICES = {
    "mode": ("hashtag", "token", "embedding"),
    "weighting": (polarity.BY_ITEM, polarity.BY_TWEET),
    "eval_unit": ("account", "user_day"),
}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


@dataclass
class RunConfig(synthgen.SynthSpec):
    corpus: str | None = None
    seed_files: list[str] = field(default_factory=list)
    embeddings: str | None = None
    membership: str | None = None
    gold: str | None = None
    annotations: str | None = None
    out_dir: str = "out"
    mode: str = "hashtag"
    gamma: int = proplabel.DEFAULT_GAMMA
    max_outer: int = proplabel.DEFAULT_MAX_OUTER
    vocab_cap: int = 50_000
    knn_k: int = 25
    restart_prob: float = proplabel.DEFAULT_RESTART_PROB
    tol: float = proplabel.DEFAULT_TOL
    max_iter: int = proplabel.DEFAULT_MAX_ITER
    kcore_k: int = 30
    kcore_weighted: bool = False
    weighting: str = "by_item"
    include_retweets: bool = True
    drop_mentions: bool = False
    eval_unit: str = "account"

    @property
    def item_mode(self) -> str:
        """What the run's graph joins and its scores count: hashtags or tokens."""
        return corpus.HASHTAG_MODE if self.mode == "hashtag" else corpus.TOKEN_MODE

    def validate(self) -> None:
        """Checks each value against its choices or range; inputs are checked as read."""
        super().validate()
        checks = [
            *((name, getattr(self, name) in allowed) for name, allowed in CHOICES.items()),
            ("gamma", self.gamma >= 1),
            ("max_outer", self.max_outer >= 1),
            ("vocab_cap", self.vocab_cap >= 1),
            ("knn_k", self.knn_k >= 1),
            ("restart_prob", 0.0 < self.restart_prob < 1.0),
            ("tol", self.tol > 0.0),
            ("max_iter", self.max_iter >= 1),
            ("kcore_k", self.kcore_k >= 1),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for {name}: {getattr(self, name)!r}")


# The type of each RunConfig field's values, which both its flag and a config
# file value are held to: its default's, str for a None default.
KINDS = {
    f.name: list if f.name == "seed_files" else str if f.default is None else type(f.default)
    for f in fields(RunConfig)
}


class _Runner:
    """One run: checks and hashes each input as a stage reads it, and stages its
    outputs inside out_dir until every stage has succeeded.

    Keeps the values its stages make for its later stages to take from memory.
    """

    def __init__(self, config: RunConfig, subcommand: str) -> None:
        self.config = config
        self.subcommand = subcommand
        self.out_dir = Path(config.out_dir)
        self.staging = self.out_dir / ".staging"
        self.inputs: dict[str, str] = {}
        self.outputs: list[Path] = []
        self.kept: dict[str, object] = {}

    def get(self, name: str, load):
        """The value kept under name, else load(self), kept for later stages."""
        if name not in self.kept:
            self.kept[name] = load(self)
        return self.kept[name]

    def take(self, name: str, load):
        """Like get, for a value's last consumer: the run keeps it no longer."""
        return self.kept.pop(name) if name in self.kept else load(self)

    def read(self, path: str | Path | None, field: str | None = None) -> Path:
        """path, hashed for the manifest; field names the config field that gave
        it, or is None for a file in the run directory."""
        if not path:
            raise ConfigError(f"{field}: no file given")
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"{field}: file not found: {path}" if field
                              else f"input not found: {path}")
        self.inputs[str(path)] = sha256_file(path)
        return path

    def write(self, name: str) -> Path:
        path = self.staging / name
        self.outputs.append(path)
        return path

    def run(self, stages) -> None:
        """Runs stages, then moves their outputs into out_dir, the manifest last.

        A run that fails before that move leaves out_dir as it found it: it
        removes the staging directory and any directory it made to hold it.
        The old manifest goes before the first move, so a move that fails
        partway leaves no manifest to vouch for a mix of two runs.
        """
        made = [d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()]
        try:
            shutil.rmtree(self.staging, ignore_errors=True)  # left by a killed run
            self.staging.mkdir(parents=True)
            for stage in stages:
                stage(self)
            manifest = self.write_manifest()
            (self.out_dir / manifest.name).unlink(missing_ok=True)
            for path in [*self.outputs, manifest]:
                os.replace(path, self.out_dir / path.name)
            self.staging.rmdir()
        except BaseException:
            shutil.rmtree(self.staging, ignore_errors=True)
            for directory in made:
                with contextlib.suppress(OSError):
                    directory.rmdir()
            raise

    def write_manifest(self) -> Path:
        manifest = {
            "tool": "polarlex",
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "subcommand": self.subcommand,
            "config": asdict(self.config),
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": sorted(p.name for p in self.outputs),
        }
        path = self.staging / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


# ---------------------------------------------------------------------------
# loaders: what a stage reads when no earlier stage of its run kept the value

def _read_records(run: _Runner) -> list[corpus.TweetRecord]:
    return corpus.load_corpus(
        run.read(run.config.corpus, "corpus"), include_retweets=run.config.include_retweets
    )


def _read_tokenized(run: _Runner) -> list[corpus.TokenizedTweet]:
    return corpus.read_tokenized(run.read(run.out_dir / "tokenized.tsv"))


def _read_graph(run: _Runner) -> CooccurrenceGraph:
    from . import lexgraph

    return lexgraph.read_graph(
        run.read(run.out_dir / "graph.edges.tsv"), run.read(run.out_dir / "graph.nodes.tsv")
    )


def _read_seeds(run: _Runner) -> list[proplabel.SeedLexicon]:
    """The seed files in order; two files may not name the same dimension."""
    paths = run.config.seed_files or [None]  # None: read names the missing field
    seed_sets = [proplabel.read_seed_lexicon(run.read(path, "seed_files")) for path in paths]
    dims = [seeds.dimension_name for seeds in seed_sets]
    for i, dim in enumerate(dims):
        if dim in dims[:i]:
            first = paths[dims.index(dim)]
            raise DataError(f"seed files {first} and {paths[i]} both name dimension {dim!r}")
    return seed_sets


def _read_lexicon(run: _Runner, dim: str) -> proplabel.PolarityLexicon:
    """lexicon_<dim>.tsv, which propagate writes for dimension dim."""
    path = run.out_dir / f"lexicon_{dim}.tsv"
    if not path.is_file():
        raise ConfigError(f"input not found: {path}; run propagate for dimension {dim!r}")
    lexicon = proplabel.read_lexicon(run.read(path))
    if lexicon.dimension_name != dim:
        raise DataError(f"{path}: line 1: names dimension {lexicon.dimension_name!r}, not {dim!r}")
    return lexicon


def _lexicon_scales(run: _Runner, scored: dict) -> dict[str, tuple[float, float]]:
    """The scale of each scored dimension, from its lexicon."""
    lexicons = run.get("lexicons", lambda _: [_read_lexicon(run, dim) for dim in sorted(scored)])
    return {lex.dimension_name: lex.scale for lex in lexicons}


def _read_user_scores(run: _Runner) -> dict[str, dict[str, polarity.PolarityScore]]:
    return polarity.read_score_csv(run.read(run.out_dir / "user_scores.csv"))


def _read_tweet_scores(run: _Runner) -> dict[str, dict[str, polarity.PolarityScore]]:
    """tweet_scores.csv, which must score every corpus tweet in each dimension."""
    path = run.out_dir / "tweet_scores.csv"
    scores = polarity.read_score_csv(run.read(path))
    records = run.get("records", _read_records)
    for dim, by_tweet in sorted(scores.items()):
        unscored = next((r.tweet_id for r in records if r.tweet_id not in by_tweet), None)
        if unscored is not None:
            raise DataError(f"{path}: no {dim!r} row for tweet {unscored!r}")
    return scores


# ---------------------------------------------------------------------------
# stages

def stage_ingest(run: _Runner) -> None:
    records = run.get("records", _read_records)
    run.kept["tweets"] = corpus.tokenize(records)
    corpus.write_tokenized(run.kept["tweets"], run.write("tokenized.tsv"))
    log.info("ingested %d tweets", len(records))


def stage_build_graph(run: _Runner) -> None:
    from . import lexgraph

    cfg = run.config
    if cfg.mode == "embedding":
        table = lexgraph.load_embeddings(run.read(cfg.embeddings, "embeddings"), cfg.vocab_cap)
        graph = lexgraph.build_knn_graph(table, cfg.knn_k)
    else:
        tweets = run.get("tweets", _read_tokenized)
        graph = lexgraph.build_cooccurrence(tweets, mode=cfg.mode, vocab_cap=cfg.vocab_cap)
    # A kept value is what its file reads back as, or pipeline would write other
    # bytes than the single-stage subcommands; each writer returns that value.
    graph = run.kept["graph"] = lexgraph.write_graph(
        graph, run.write("graph.edges.tsv"), run.write("graph.nodes.tsv")
    )
    log.info("graph: %d nodes, %d edges", graph.num_nodes, graph.num_edges)


def stage_propagate(run: _Runner) -> None:
    cfg = run.config
    seed_sets = _read_seeds(run)
    graph = run.take("graph", _read_graph)
    # every co-occurrence node is in a tweet, and no k-NN node counts tweets
    kind = "embedding" if graph.nodes and max(graph.frequency) <= 0 else graph.mode
    if kind != cfg.mode:
        raise ConfigError(f"{run.out_dir / 'graph.edges.tsv'} holds a graph built with --mode "
                          f"{kind}, not {cfg.mode}; run build-graph with --mode {cfg.mode}")
    lexicons = run.kept["lexicons"] = []
    for seeds in seed_sets:
        if cfg.mode == "embedding":
            lexicon = proplabel.propagate_random_walk(
                graph, seeds,
                restart_prob=cfg.restart_prob, tol=cfg.tol, max_iter=cfg.max_iter,
            )
        else:
            lexicon = proplabel.propagate_greedy(
                graph, seeds, gamma=cfg.gamma, max_outer=cfg.max_outer
            )
        path = run.write(f"lexicon_{seeds.dimension_name}.tsv")
        lexicons.append(proplabel.write_lexicon(lexicon, path))
        log.info("%s: labeled %d of %d nodes",
                 seeds.dimension_name, len(lexicon.scores), graph.num_nodes)


def stage_score(run: _Runner) -> None:
    cfg = run.config
    records = run.get("records", _read_records)
    tweets = run.take("tweets", lambda _: corpus.tokenize(records))
    # the seed files name the dimensions a run scores
    lexicons = run.get(
        "lexicons", lambda _: [_read_lexicon(run, s.dimension_name) for s in _read_seeds(run)]
    )
    tweet_scores: dict[str, dict[str, polarity.PolarityScore]] = {}
    user_scores: dict[str, dict[str, polarity.PolarityScore]] = {}
    for lexicon in lexicons:
        dim = lexicon.dimension_name
        tweet_scores[dim] = polarity.score_tweets(tweets, lexicon, mode=cfg.item_mode)
        user_scores[dim] = polarity.score_users(records, tweet_scores[dim], cfg.weighting)
    order = [r.tweet_id for r in records]
    run.kept["tweet_scores"] = polarity.write_score_csv(
        tweet_scores, run.write("tweet_scores.csv"), "tweet_id", order
    )
    run.kept["user_scores"] = polarity.write_score_csv(
        user_scores, run.write("user_scores.csv"), "user_id"
    )
    # after the writes, which round each score in place to what later stages read
    tallies: dict[str, list[polarity.TallyRow]] = {}
    for lexicon in lexicons:
        dim = lexicon.dimension_name
        tallies[dim] = polarity.overall_tally(user_scores[dim], tweet_scores[dim], lexicon.scale)
    polarity.write_tally_csv(tallies, run.write("tally.csv"))


def stage_timeseries(run: _Runner) -> None:
    cfg = run.config
    records = run.get("records", _read_records)
    if cfg.membership:
        membership = polarity.read_membership(run.read(cfg.membership, "membership"))
    else:
        membership = {r.user_id: "all" for r in records}
    tweet_scores = run.take("tweet_scores", _read_tweet_scores)
    for dim in sorted(tweet_scores):
        series = polarity.daily_series(records, tweet_scores[dim], membership)
        polarity.write_daily_series_csv(series, run.write(f"daily_series_{dim}.csv"))


def stage_commnet(run: _Runner) -> None:
    cfg = run.config
    records = run.get("records", _read_records)
    user_scores = run.get("user_scores", _read_user_scores)
    scales = _lexicon_scales(run, user_scores)
    graph = commnet.build_comm_graph(
        records, user_scores, scales, include_mentions=not cfg.drop_mentions
    )
    core = commnet.k_core(graph, cfg.kcore_k, weighted=cfg.kcore_weighted)
    commnet.export_graph(core, run.write("commnet.graphml"), "graphml")
    commnet.export_graph(core, run.write("commnet_edges.csv"), "edge_csv")
    commnet.write_homophily_csv(core, run.write("homophily.csv"))
    log.info(
        "commnet: %d nodes, %d edges; %d-core: %d nodes",
        len(graph.nodes), len(graph.edges), cfg.kcore_k, len(core.nodes),
    )


def stage_eval(run: _Runner) -> None:
    cfg = run.config
    gold = evalkit.read_gold(run.read(cfg.gold, "gold"))
    annotations = None
    if cfg.annotations:
        annotations = evalkit.read_annotations(run.read(cfg.annotations, "annotations"))
    # per dimension, the score of each unit the gold file may name
    if cfg.eval_unit == "account":
        scores_by_dim = run.get("user_scores", _read_user_scores)
    else:
        days = corpus.group_by_user_day(run.get("records", _read_records))
        scores_by_dim = {
            dim: {key: polarity.score_aggregate(ids, scores, cfg.weighting)
                  for key, ids in days.items()}
            for dim, scores in run.get("tweet_scores", _read_tweet_scores).items()
        }
    scales = _lexicon_scales(run, scores_by_dim)
    reports = []
    for dim in sorted(scores_by_dim):
        scale = scales[dim]
        predictions = {unit: polarity.ternarize(s.value, scale)
                       for unit, s in scores_by_dim[dim].items()}
        covered = {k: v for k, v in gold.labels.items() if k in predictions}
        dropped = len(gold.labels) - len(covered)
        if dropped:
            log.warning("%s: %d gold units absent from the corpus, skipped", dim, dropped)
        if not covered:
            raise DataError(f"{cfg.gold}: no gold unit is in the scored corpus ({dim})")
        subset = evalkit.GoldLabelSet(labels=covered)
        reports.append(evalkit.evaluate_predictions(predictions, subset, dim, annotations))
    evalkit.write_eval_reports(
        reports, run.write("eval_poles.csv"), run.write("eval_overall.csv")
    )


def stage_synth(run: _Runner) -> None:
    records, truth = synthgen.generate(run.config)
    corpus.write_corpus(records, run.write("corpus.jsonl"))
    evalkit.write_gold(truth.user_labels, run.write("gold_users.tsv"))
    evalkit.write_gold(truth.hashtag_labels, run.write("gold_hashtags.tsv"))
    proplabel.write_seed_lexicon(truth.seeds, run.write(f"seeds_{synthgen.DIMENSION}.tsv"))
    log.info("synthesized %d tweets from %d users", len(records), run.config.n_users)


# Each stage's subcommand, its function, and whether pipeline runs it; pipeline
# runs its stages in this order.
_STAGES = (
    ("ingest", stage_ingest, True),
    ("build-graph", stage_build_graph, True),
    ("propagate", stage_propagate, True),
    ("score", stage_score, True),
    ("timeseries", stage_timeseries, True),
    ("commnet", stage_commnet, True),
    ("eval", stage_eval, False),
    ("synth", stage_synth, False),
)
STAGE_BY_NAME = {name: stage for name, stage, _ in _STAGES}
PIPELINE_STAGES = tuple(stage for _, stage, piped in _STAGES if piped)
SUBCOMMANDS = (*STAGE_BY_NAME, "pipeline")


# ---------------------------------------------------------------------------
# argument handling

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _build_parser() -> _ArgumentParser:
    """One parser for every subcommand: each takes every flag, before or after it."""
    parser = _ArgumentParser(
        prog="polarlex",
        description="Polarity scoring for short-text corpora via graph label propagation.",
    )
    parser.add_argument("--version", action="version", version=f"polarlex {__version__}")
    parser.add_argument("subcommand", nargs="?", choices=SUBCOMMANDS,
                        metavar="|".join(SUBCOMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    for f in fields(RunConfig):
        kind = KINDS[f.name]
        if kind is list:
            parser.add_argument("--seed-file", action="append", dest=f.name, default=None)
            continue
        if kind is bool:
            options = {"action": argparse.BooleanOptionalAction}
        else:
            options = {"type": kind, "choices": CHOICES.get(f.name)}
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, **options)
    return parser


def _not_a_json_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_config_file(path: str) -> dict:
    if not Path(path).is_file():
        raise ConfigError(f"config: file not found: {path}")
    try:
        with open_text(path) as fh:
            data = json.load(fh, parse_constant=_not_a_json_number,
                             object_pairs_hook=unique_keys)
    except DataError as exc:  # not UTF-8
        raise ConfigError(f"config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config: {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config: {path}: expected a JSON object")
    unknown = set(data) - set(KINDS)
    if unknown:
        raise ConfigError(f"config: {path}: unknown keys: {sorted(unknown)}")
    for key, value in data.items():
        # json gives exact types, so a bool is no int here; an int is kept as is
        kind = KINDS[key]
        accepted = (float, int) if kind is float else (kind,)
        if type(value) not in accepted or kind is list and any(type(v) is not str for v in value):
            raise ConfigError(f"config: {path}: {key}: expected {kind.__name__}, got {value!r}")
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file values, then flags; flags win."""
    values: dict = {}
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        values.update(_load_config_file(config_path))
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    gc_was_enabled = gc.isenabled()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help and --version exit once printed; bad flags raise ConfigError
            return EXIT_OK
        # A run's records and tweets live until it ends, and the cyclic garbage
        # it leaves does not grow with them, so automatic collection would only
        # rescan that growing heap; the caller's setting comes back below.
        gc.disable()
        if not args.subcommand:
            raise ConfigError("a subcommand is required: " + ", ".join(SUBCOMMANDS))
        config = build_config(args)
        config.validate()
        if args.subcommand in STAGE_BY_NAME:
            stages = (STAGE_BY_NAME[args.subcommand],)
        else:  # pipeline
            stages = PIPELINE_STAGES
        _Runner(config, args.subcommand).run(stages)
    except ConfigError as exc:
        print(f"polarlex: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"polarlex: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"polarlex: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if gc_was_enabled:
            gc.enable()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
