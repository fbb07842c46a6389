"""Build and read back the package's graph types in tests.

Converts between CooccurrenceGraph and the {(a, b): weight} edge dicts the
oracles use, and reads the communication-network exports back into a CommGraph.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from pathlib import Path

import scipy.sparse as sp

from polarlex.commnet import GRAPHML_NS, CommGraph
from polarlex.errors import DataError
from polarlex.lexgraph import CooccurrenceGraph


def graph_of(edges: dict[tuple[str, str], float], extra_nodes=()) -> CooccurrenceGraph:
    """Graph over the edge endpoints plus extra_nodes, every node with frequency 1."""
    nodes = sorted(set(extra_nodes).union(*edges))
    index = {node: i for i, node in enumerate(nodes)}
    rows = [index[a] for a, _ in edges]
    cols = [index[b] for _, b in edges]
    data = [float(w) for w in edges.values()]
    weights = sp.csr_matrix(
        (data * 2, (rows + cols, cols + rows)), shape=(len(nodes), len(nodes))
    )
    weights.sort_indices()
    return CooccurrenceGraph("hashtag", nodes, [1] * len(nodes), weights)


def edge_dict(graph: CooccurrenceGraph) -> dict[tuple[str, str], float]:
    """Every edge once, keyed (a, b) with a < b."""
    upper = sp.triu(graph.weights, k=1).tocoo()
    return {
        (graph.nodes[i], graph.nodes[j]): w
        for i, j, w in zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist())
    }


def adjacency(graph: CooccurrenceGraph) -> dict[str, list[str]]:
    """Neighbor names of every node, in name order."""
    w = graph.weights
    return {
        node: [graph.nodes[j] for j in w.indices[w.indptr[i] : w.indptr[i + 1]]]
        for i, node in enumerate(graph.nodes)
    }


def read_graphml(path: str | Path) -> tuple[CommGraph, dict[str, dict[str, str]]]:
    """Round-trip reader for graphs written by export_graph(format='graphml').

    Returns the graph without scales, which the document does not hold, and
    the label text of every node per dimension.
    """
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
    labels: dict[str, dict[str, str]] = {dim: {} for dim in dims}
    for dim in dims:
        graph.polarity[dim] = {}
    for el in gr.findall("g:node", ns):
        node = el.get("id")
        graph.nodes.add(node)
        for d in el.findall("g:data", ns):
            name, _ = keys[d.get("key")]
            if name.startswith("polarity_"):
                graph.polarity[name[len("polarity_") :]][node] = float(d.text)
            elif name.startswith("label_"):
                labels[name[len("label_") :]][node] = d.text
    for el in gr.findall("g:edge", ns):
        values = {"count": 0, "count_src_to_dst": 0, "count_dst_to_src": 0}
        for d in el.findall("g:data", ns):
            name, _ = keys[d.get("key")]
            values[name] = int(d.text)
        add_edge(graph, path, el.get("source"), el.get("target"), values["count"],
                 values["count_src_to_dst"], values["count_dst_to_src"])
    return graph, labels


def read_edge_csv(path: str | Path) -> CommGraph:
    """Round-trip reader for graphs written by export_graph(format='edge_csv')."""
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
            add_edge(graph, path, a, b, int(count), int(ab), int(ba))
    return graph


def add_edge(graph: CommGraph, path, a: str, b: str, count: int, ab: int, ba: int) -> None:
    """Add the edge a-b with its direction counts; count must be their sum."""
    if count != ab + ba:
        raise DataError(f"{path}: edge {a}-{b}: count {count} is not {ab} + {ba}")
    graph.edges[(a, b)] = [ab, ba]
