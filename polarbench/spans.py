"""In-memory span tracing around polarlex's public functions.

For one traced run, the tracer replaces the public functions of polarlex's
modules and the CLI's stage functions with timing wrappers, and puts the
originals back afterwards; polarlex itself holds no tracing code. Timed runs
are separate processes that never install the wrappers. Spans stay in
memory and are written out once, when the run ends.

A span's self time is its duration minus the part of it that its child spans
cover, so cli.stage.<name>.self_s is the stage's own file glue: the time not
spent inside a wrapped library call.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs wrapped in a traced run. Library spans are named
# "<module>.<function>"; export_graph is split by its format argument.
LIBRARY_CALLS = (
    ("corpus", "load_corpus"),
    ("corpus", "tokenize"),
    ("lexgraph", "build_cooccurrence"),
    ("lexgraph", "load_embeddings"),
    ("lexgraph", "build_knn_graph"),
    ("lexgraph", "write_graph"),
    ("lexgraph", "read_graph"),
    ("proplabel", "propagate_greedy"),
    ("proplabel", "propagate_random_walk"),
    ("proplabel", "write_lexicon"),
    ("proplabel", "read_lexicon"),
    ("polarity", "score_tweets"),
    ("polarity", "score_users"),
    ("polarity", "daily_series"),
    ("polarity", "write_score_csv"),
    ("polarity", "read_score_csv"),
    ("commnet", "build_comm_graph"),
    ("commnet", "k_core"),
    ("commnet", "export_graph"),
    ("commnet", "homophily_index"),
    ("evalkit", "read_gold"),
    ("evalkit", "evaluate_predictions"),
)
EXPORT_FORMATS = ("graphml", "edge_csv")
STAGES = ("ingest", "build-graph", "propagate", "score", "timeseries", "commnet", "eval")

# Counts taken from the last value a call returned, computed after the run so
# that counting is not timed inside any span.
RESULT_COUNTS = {
    "lexgraph.nodes": (("build_cooccurrence", "build_knn_graph", "read_graph"),
                       lambda g: g.num_nodes),
    "lexgraph.edges": (("build_cooccurrence", "build_knn_graph", "read_graph"),
                       lambda g: g.num_edges),
    "proplabel.labeled": (("propagate_greedy", "propagate_random_walk"),
                          lambda lex: len(lex.scores)),
    "proplabel.labeled_ratio": (("propagate_greedy", "propagate_random_walk"),
                                lambda lex: len(lex.scores) / max(1, len(lex.status))),
    "polarity.classified_ratio": (("score_tweets",),
                                  lambda s: sum(v.classified for v in s.values()) / max(1, len(s))),
    "commnet.core_nodes": (("k_core",), lambda g: len(g.nodes)),
    "commnet.core_edges": (("k_core",), lambda g: len(g.edges)),
}

COUNTED_RESULTS = {key for keys, _ in RESULT_COUNTS.values() for key in keys}


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, function in LIBRARY_CALLS:
        if function == "export_graph":
            for fmt in EXPORT_FORMATS:
                out += [(f"commnet.export_graph.{fmt}.s", "s", "lower"),
                        (f"commnet.export_graph.{fmt}.calls", "count", "lower")]
        else:
            out += [(f"{module}.{function}.s", "s", "lower"),
                    (f"{module}.{function}.calls", "count", "lower")]
    out += [("ioutil.sha256_file.s", "s", "lower"),
            ("ioutil.sha256_file.calls", "count", "lower"),
            ("ioutil.sha256_file.bytes", "bytes", "lower"),
            ("corpus.records_parsed", "count", "lower")]
    for name in RESULT_COUNTS:
        unit = "fraction" if name.endswith("_ratio") else "count"
        out.append((name, unit, "higher"))
    for stage in STAGES:
        out += [(f"cli.stage.{stage}.s", "s", "lower"),
                (f"cli.stage.{stage}.self_s", "s", "lower")]
    out += [("cli.process_start.s", "s", "lower"),
            ("cli.cpu_s", "s", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.unstaged_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    """Records (name, start, end, parent, run id) spans of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.last_result: dict[str, object] = {}
        self.records_parsed = 0
        self.hashed_bytes = 0

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, key: str | None = None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if key is not None:
                self.last_result[key] = result
            return result
        return traced

    def install(self, cli) -> list:
        """Patch polarlex for tracing; returns the undo list for restore()."""
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for module_name, function in LIBRARY_CALLS:
            module = importlib.import_module(f"polarlex.{module_name}")
            original = getattr(module, function)
            if function == "export_graph":
                patch(module, function, self._export_wrapper(original))
            elif function == "load_corpus":
                patch(module, function, self._load_corpus_wrapper(original))
            else:
                key = function if function in COUNTED_RESULTS else None
                patch(module, function, self.wrap(f"{module_name}.{function}", original, key))
        patch(cli, "sha256_file", self._sha_wrapper(cli.sha256_file))

        wrapped = {name: self.wrap(f"cli.stage.{name}", fn)
                   for name, fn in cli.STAGE_BY_NAME.items()}
        by_function = {fn: wrapped[name] for name, fn in cli.STAGE_BY_NAME.items()}
        patch(cli, "PIPELINE_STAGES", tuple(by_function[fn] for fn in cli.PIPELINE_STAGES))
        patch(cli, "STAGE_BY_NAME", wrapped)
        return undo

    @staticmethod
    def restore(undo: list) -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    def _export_wrapper(self, fn):
        def traced(graph, path, format="graphml", *args, **kwargs):
            return self.call(f"commnet.export_graph.{format}", fn, graph, path, format,
                             *args, **kwargs)
        return traced

    def _load_corpus_wrapper(self, fn):
        def traced(*args, **kwargs):
            records = self.call("corpus.load_corpus", fn, *args, **kwargs)
            self.records_parsed += len(records)
            return records
        return traced

    def _sha_wrapper(self, fn):
        def traced(path):
            digest = self.call("ioutil.sha256_file", fn, path)
            self.hashed_bytes += os.path.getsize(path)
            return digest
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def metrics(self) -> dict[str, float]:
        """Summed span seconds and call counts per name, plus the result counts."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), self_s in zip(self.spans, self.self_times()):
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
        out: dict[str, float] = {}
        for name, unit, _ in per_layer_names():
            if name.endswith(".calls"):
                out[name] = calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                out[name] = own.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".s") and not name.startswith(("cli.process", "trace.")):
                out[name] = total.get(name[: -len(".s")], 0.0)
        for name, (keys, count) in RESULT_COUNTS.items():
            result = next((self.last_result[k] for k in keys if k in self.last_result), None)
            out[name] = count(result) if result is not None else 0
        out["corpus.records_parsed"] = self.records_parsed
        out["ioutil.sha256_file.bytes"] = self.hashed_bytes
        return out

    def stage_seconds(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans
                   if name.startswith("cli.stage."))

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent,
                                     self.run_id]) + "\n")
