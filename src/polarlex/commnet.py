"""User-level communication network: construction, k-cores, homophily, export."""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import TweetRecord
from .errors import ConfigError, DataError
from .ioutil import fmt9
from .polarity import UNCLASSIFIED, PolarityScore, ternarize

@dataclass
class EdgeStat:
    """Interaction counts for one unordered user pair (a < b)."""

    count: int
    a_to_b: int
    b_to_a: int


@dataclass
class CommGraph:
    """Undirected interaction-count graph with per-dimension node polarity."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], EdgeStat] = field(default_factory=dict)
    polarity: dict[str, dict[str, float | None]] = field(default_factory=dict)
    label: dict[str, dict[str, str]] = field(default_factory=dict)

    def dimensions(self) -> list[str]:
        return sorted(self.polarity)

    def neighbors(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            out[a].add(b)
            out[b].add(a)
        return out


def _interaction_targets(record: TweetRecord, include_mentions: bool) -> list[str]:
    targets: list[str] = []
    if record.retweet_of_user:
        targets.append(record.retweet_of_user)
    if include_mentions:
        targets.extend(record.mentions)
    if record.reply_to_user:
        targets.append(record.reply_to_user)
    return targets


def build_comm_graph(
    corpus: Sequence[TweetRecord],
    user_scores: Mapping[str, Mapping[str, PolarityScore]],
    scales: Mapping[str, tuple[float, float]],
    include_mentions: bool = True,
) -> CommGraph:
    """One undirected edge per interacting user pair, weighted by event count.

    Every retweet, mention, and reply event increments the pair;
    self-interactions are dropped. Nodes carry polarity/ternary attributes
    for each dimension in user_scores; users without a score are kept and
    labeled unclassified.
    """
    graph = CommGraph()
    for record in corpus:
        graph.nodes.add(record.user_id)
        for target in _interaction_targets(record, include_mentions):
            if not target or target == record.user_id:
                continue
            graph.nodes.add(target)
            a, b = (record.user_id, target) if record.user_id < target else (target, record.user_id)
            stat = graph.edges.get((a, b))
            if stat is None:
                stat = graph.edges[(a, b)] = EdgeStat(0, 0, 0)
            stat.count += 1
            if record.user_id == a:
                stat.a_to_b += 1
            else:
                stat.b_to_a += 1
    for dim in sorted(user_scores):
        scale = scales[dim]
        scores = user_scores[dim]
        graph.polarity[dim] = {}
        graph.label[dim] = {}
        for node in graph.nodes:
            s = scores.get(node)
            graph.polarity[dim][node] = s.value if s is not None else None
            graph.label[dim][node] = ternarize(s, scale) if s is not None else UNCLASSIFIED
    return graph


def _subgraph(graph: CommGraph, keep: set[str]) -> CommGraph:
    return CommGraph(
        nodes=set(keep),
        edges={
            pair: EdgeStat(stat.count, stat.a_to_b, stat.b_to_a)
            for pair, stat in graph.edges.items()
            if pair[0] in keep and pair[1] in keep
        },
        polarity={
            dim: {n: v for n, v in vals.items() if n in keep}
            for dim, vals in graph.polarity.items()
        },
        label={
            dim: {n: v for n, v in vals.items() if n in keep}
            for dim, vals in graph.label.items()
        },
    )


def k_core(graph: CommGraph, k: int, weighted: bool = False) -> CommGraph:
    """Maximal subgraph where every node keeps degree >= k, by iterative peeling.

    Degree counts distinct neighbors by default; weighted=True sums
    interaction counts instead.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    neighbors = graph.neighbors()
    if weighted:
        pair_weight = {pair: stat.count for pair, stat in graph.edges.items()}

        def edge_value(a: str, b: str) -> float:
            return pair_weight[(a, b) if a < b else (b, a)]

    else:

        def edge_value(a: str, b: str) -> float:
            return 1

    deg = {n: sum(edge_value(n, m) for m in nbrs) for n, nbrs in neighbors.items()}
    alive = set(graph.nodes)
    queue = [n for n in alive if deg[n] < k]
    while queue:
        node = queue.pop()
        if node not in alive:
            continue
        alive.discard(node)
        for nbr in neighbors[node]:
            if nbr in alive:
                deg[nbr] -= edge_value(node, nbr)
                if deg[nbr] < k:
                    queue.append(nbr)
    return _subgraph(graph, alive)


def homophily_index(graph: CommGraph, dimension: str) -> float:
    """(same-label - cross-label) / total over edges between classified nodes."""
    labels = graph.label.get(dimension)
    if labels is None:
        raise ConfigError(f"graph has no dimension {dimension!r}")
    same = cross = 0
    for a, b in graph.edges:
        la, lb = labels.get(a, UNCLASSIFIED), labels.get(b, UNCLASSIFIED)
        if la == UNCLASSIFIED or lb == UNCLASSIFIED:
            continue
        if la == lb:
            same += 1
        else:
            cross += 1
    total = same + cross
    if total == 0:
        raise DataError("no classified edges")
    return (same - cross) / total


# ---------------------------------------------------------------------------
# export / import

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def _key_element(root: ET.Element, key_id: str, target: str, name: str, kind: str) -> None:
    ET.SubElement(
        root,
        "key",
        {"id": key_id, "for": target, "attr.name": name, "attr.type": kind},
    )


def _graphml_tree(graph: CommGraph) -> ET.ElementTree:
    root = ET.Element("graphml", {"xmlns": GRAPHML_NS})
    dims = graph.dimensions()
    for idx, dim in enumerate(dims):
        _key_element(root, f"dp{idx}", "node", f"polarity_{dim}", "double")
        _key_element(root, f"dl{idx}", "node", f"label_{dim}", "string")
    for key_id, name in (("ec", "count"), ("ea", "count_src_to_dst"), ("eb", "count_dst_to_src")):
        _key_element(root, key_id, "edge", name, "int")
    gr = ET.SubElement(root, "graph", {"id": "G", "edgedefault": "undirected"})
    for node in sorted(graph.nodes):
        el = ET.SubElement(gr, "node", {"id": node})
        for idx, dim in enumerate(dims):
            value = graph.polarity[dim].get(node)
            if value is not None:
                d = ET.SubElement(el, "data", {"key": f"dp{idx}"})
                d.text = fmt9(value)
            d = ET.SubElement(el, "data", {"key": f"dl{idx}"})
            d.text = graph.label[dim].get(node, UNCLASSIFIED)
    for (a, b) in sorted(graph.edges):
        stat = graph.edges[(a, b)]
        el = ET.SubElement(gr, "edge", {"source": a, "target": b})
        for key_id, value in (("ec", stat.count), ("ea", stat.a_to_b), ("eb", stat.b_to_a)):
            d = ET.SubElement(el, "data", {"key": key_id})
            d.text = str(value)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    return tree


def _write_edge_csv(graph: CommGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_a", "user_b", "count", "count_a_to_b", "count_b_to_a"])
        for (a, b) in sorted(graph.edges):
            stat = graph.edges[(a, b)]
            writer.writerow([a, b, stat.count, stat.a_to_b, stat.b_to_a])


def export_graph(
    graph: CommGraph,
    path: str | Path,
    format: str = "graphml",
) -> None:
    """Write the graph as graphml or edge_csv with deterministic ordering."""
    if format == "graphml":
        _graphml_tree(graph).write(path, encoding="unicode", xml_declaration=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
    elif format == "edge_csv":
        _write_edge_csv(graph, path)
    else:
        raise ConfigError(f"unknown export format {format!r}")


def read_graphml(path: str | Path) -> CommGraph:
    """Round-trip reader for graphs written by export_graph(format='graphml')."""
    ns = {"g": GRAPHML_NS}
    root = ET.parse(path).getroot()
    keys: dict[str, tuple[str, str]] = {}
    for el in root.findall("g:key", ns):
        keys[el.get("id")] = (el.get("attr.name"), el.get("for"))
    graph = CommGraph()
    gr = root.find("g:graph", ns)
    if gr is None:
        raise DataError(f"{path}: no <graph> element")
    dims = sorted(
        name[len("polarity_") :]
        for name, target in keys.values()
        if target == "node" and name.startswith("polarity_")
    )
    for dim in dims:
        graph.polarity[dim] = {}
        graph.label[dim] = {}
    for el in gr.findall("g:node", ns):
        node = el.get("id")
        graph.nodes.add(node)
        for dim in dims:
            graph.polarity[dim][node] = None
            graph.label[dim][node] = UNCLASSIFIED
        for d in el.findall("g:data", ns):
            name, _ = keys[d.get("key")]
            if name.startswith("polarity_"):
                graph.polarity[name[len("polarity_") :]][node] = float(d.text)
            elif name.startswith("label_"):
                graph.label[name[len("label_") :]][node] = d.text
    for el in gr.findall("g:edge", ns):
        a, b = el.get("source"), el.get("target")
        values = {"count": 0, "count_src_to_dst": 0, "count_dst_to_src": 0}
        for d in el.findall("g:data", ns):
            name, _ = keys[d.get("key")]
            values[name] = int(d.text)
        graph.edges[(a, b)] = EdgeStat(
            values["count"], values["count_src_to_dst"], values["count_dst_to_src"]
        )
    return graph


def read_edge_csv(path: str | Path) -> CommGraph:
    graph = CommGraph()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["user_a", "user_b", "count"]:
            raise DataError(f"{path}: malformed edge csv header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataError(f"{path}: line {lineno}: expected 5 fields")
            a, b, count, ab, ba = row
            graph.nodes.update((a, b))
            graph.edges[(a, b)] = EdgeStat(int(count), int(ab), int(ba))
    return graph
