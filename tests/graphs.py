"""Convert between CooccurrenceGraph and the {(a, b): weight} edge dicts the oracles use."""

from __future__ import annotations

import scipy.sparse as sp

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
