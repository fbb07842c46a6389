"""User-level communication network: construction, k-cores, homophily, export."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import TweetRecord
from .errors import ConfigError, DataError
from .ioutil import csv_field, fmt9, write_csv
from .polarity import UNCLASSIFIED, PolarityScore, ternarize


@dataclass
class CommGraph:
    """Undirected interaction-count graph with per-dimension user polarity.

    edges maps each pair (a, b) of nodes with a < b to [a_to_b, b_to_a] event
    counts; polarity[dim] holds only the users that have a score, on the
    scales[dim] scale.
    """

    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    polarity: dict[str, dict[str, float]] = field(default_factory=dict)
    scales: dict[str, tuple[float, float]] = field(default_factory=dict)

    def dimensions(self) -> list[str]:
        return sorted(self.polarity)

    def label(self, dim: str, node: str) -> str:
        return ternarize(self.polarity[dim].get(node), self.scales[dim])


def build_comm_graph(
    corpus: Sequence[TweetRecord],
    user_scores: Mapping[str, Mapping[str, PolarityScore]],
    scales: Mapping[str, tuple[float, float]],
    include_mentions: bool = True,
) -> CommGraph:
    """One undirected edge per interacting user pair, weighted by event count.

    Every retweet, mention, and reply event increments the pair;
    self-interactions are dropped. Nodes carry the polarity of each dimension
    in user_scores; users without a score are kept and labeled unclassified.
    """
    graph = CommGraph()
    for record in corpus:
        user = record.user_id
        graph.nodes.add(user)
        targets = [record.retweet_of_user, *(record.mentions if include_mentions else ()),
                   record.reply_to_user]
        for target in targets:
            if not target or target == user:
                continue
            graph.nodes.add(target)
            pair, way = ((user, target), 0) if user < target else ((target, user), 1)
            graph.edges.setdefault(pair, [0, 0])[way] += 1
    for dim in sorted(user_scores):
        graph.scales[dim] = scales[dim]
        graph.polarity[dim] = {
            user: s.value for user, s in user_scores[dim].items() if s.value is not None
        }
    return graph


def k_core(graph: CommGraph, k: int, weighted: bool = False) -> CommGraph:
    """Maximal subgraph where every node keeps degree >= k, by iterative peeling.

    Degree counts distinct neighbors by default; weighted=True sums
    interaction counts instead. The core shares the input's polarity and scales.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    weights: dict[str, dict[str, int]] = {n: {} for n in graph.nodes}
    for (a, b), counts in graph.edges.items():
        weights[a][b] = weights[b][a] = sum(counts) if weighted else 1
    deg = {n: sum(nbrs.values()) for n, nbrs in weights.items()}
    alive = set(graph.nodes)
    queue = [n for n in alive if deg[n] < k]
    while queue:
        node = queue.pop()
        if node not in alive:
            continue
        alive.discard(node)
        for nbr, w in weights[node].items():
            if nbr in alive:
                deg[nbr] -= w
                if deg[nbr] < k:
                    queue.append(nbr)
    edges = {pair: c for pair, c in graph.edges.items() if pair[0] in alive and pair[1] in alive}
    return CommGraph(alive, edges, graph.polarity, graph.scales)


def homophily_index(graph: CommGraph, dimension: str) -> float:
    """(same-label - cross-label) / total over edges between classified nodes."""
    if dimension not in graph.polarity:
        raise ConfigError(f"graph has no dimension {dimension!r}")
    labels = {node: graph.label(dimension, node) for node in graph.nodes}
    same = cross = 0
    for a, b in graph.edges:
        la, lb = labels[a], labels[b]
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
# export

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# The escapes ElementTree applies, so the bytes match its serializer.
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})


def _write_graphml(graph: CommGraph, path: str | Path) -> None:
    """Stream the document ElementTree would write after ET.indent, byte for byte.

    Two-space indentation, ` />` on empty elements, sorted nodes then sorted
    edges, and `polarity_<dim>` data omitted for users without a score.
    """
    dims = graph.dimensions()
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write(f"<?xml version='1.0' encoding='utf-8'?>\n<graphml xmlns=\"{GRAPHML_NS}\">\n")
        for idx, dim in enumerate(dims):
            name = dim.translate(_ATTR_ESCAPES)
            fh.write(
                f'  <key id="dp{idx}" for="node" attr.name="polarity_{name}" attr.type="double" />\n'
                f'  <key id="dl{idx}" for="node" attr.name="label_{name}" attr.type="string" />\n'
            )
        fh.write(
            '  <key id="ec" for="edge" attr.name="count" attr.type="int" />\n'
            '  <key id="ea" for="edge" attr.name="count_src_to_dst" attr.type="int" />\n'
            '  <key id="eb" for="edge" attr.name="count_dst_to_src" attr.type="int" />\n'
        )
        if not graph.nodes and not graph.edges:
            fh.write('  <graph id="G" edgedefault="undirected" />\n</graphml>\n')
            return
        fh.write('  <graph id="G" edgedefault="undirected">\n')
        ids: dict[str, str] = {}
        for node in sorted(graph.nodes):
            ids[node] = node_id = node.translate(_ATTR_ESCAPES)
            if not dims:
                fh.write(f'    <node id="{node_id}" />\n')
                continue
            fh.write(f'    <node id="{node_id}">\n')
            for idx, dim in enumerate(dims):
                value = graph.polarity[dim].get(node)
                if value is not None:
                    fh.write(f'      <data key="dp{idx}">{fmt9(value)}</data>\n')
                fh.write(f'      <data key="dl{idx}">{graph.label(dim, node)}</data>\n')
            fh.write("    </node>\n")
        for (a, b), (ab, ba) in sorted(graph.edges.items()):
            fh.write(
                f'    <edge source="{ids[a]}" target="{ids[b]}">\n'
                f'      <data key="ec">{ab + ba}</data>\n'
                f'      <data key="ea">{ab}</data>\n'
                f'      <data key="eb">{ba}</data>\n'
                "    </edge>\n"
            )
        fh.write("  </graph>\n</graphml>\n")


def _write_edge_csv(graph: CommGraph, path: str | Path) -> None:
    """One row per edge in write_csv's dialect, each user quoted once."""
    names = {user: csv_field(user) for user in graph.nodes}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("user_a,user_b,count,count_a_to_b,count_b_to_a\n")
        fh.writelines(
            f"{names[a]},{names[b]},{ab + ba},{ab},{ba}\n"
            for (a, b), (ab, ba) in sorted(graph.edges.items())
        )


def export_graph(
    graph: CommGraph,
    path: str | Path,
    format: str = "graphml",
) -> None:
    """Write the graph as graphml or edge_csv with deterministic ordering."""
    if format == "graphml":
        _write_graphml(graph, path)
    elif format == "edge_csv":
        _write_edge_csv(graph, path)
    else:
        raise ConfigError(f"unknown export format {format!r}")


def write_homophily_csv(graph: CommGraph, path: str | Path) -> None:
    """One row per dimension; the homophily cell is blank with no classified edge."""
    rows = []
    for dim in graph.dimensions():
        try:
            rows.append([dim, homophily_index(graph, dim)])
        except DataError:
            rows.append([dim, None])
    write_csv(path, ["dimension", "homophily"], rows)
