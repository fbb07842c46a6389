"""User-level communication network: construction, k-cores, homophily, export."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import TweetRecord
from .errors import ConfigError, DataError
from .ioutil import fmt9, write_csv
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
            value = graph.polarity[dim][node] = s.value if s is not None else None
            graph.label[dim][node] = ternarize(value, scale)
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
# export

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# The escapes ElementTree applies, so the bytes match its serializer.
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


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
        for node in sorted(graph.nodes):
            node_id = node.translate(_ATTR_ESCAPES)
            if not dims:
                fh.write(f'    <node id="{node_id}" />\n')
                continue
            fh.write(f'    <node id="{node_id}">\n')
            for idx, dim in enumerate(dims):
                value = graph.polarity[dim].get(node)
                if value is not None:
                    fh.write(f'      <data key="dp{idx}">{fmt9(value)}</data>\n')
                label = graph.label[dim].get(node, UNCLASSIFIED).translate(_TEXT_ESCAPES)
                fh.write(f'      <data key="dl{idx}">{label}</data>\n')
            fh.write("    </node>\n")
        for (a, b), stat in sorted(graph.edges.items()):
            source, target = a.translate(_ATTR_ESCAPES), b.translate(_ATTR_ESCAPES)
            fh.write(
                f'    <edge source="{source}" target="{target}">\n'
                f'      <data key="ec">{stat.count}</data>\n'
                f'      <data key="ea">{stat.a_to_b}</data>\n'
                f'      <data key="eb">{stat.b_to_a}</data>\n'
                "    </edge>\n"
            )
        fh.write("  </graph>\n</graphml>\n")


def _write_edge_csv(graph: CommGraph, path: str | Path) -> None:
    write_csv(
        path,
        ["user_a", "user_b", "count", "count_a_to_b", "count_b_to_a"],
        (
            [a, b, stat.count, stat.a_to_b, stat.b_to_a]
            for (a, b), stat in sorted(graph.edges.items())
        ),
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
