"""Independent reference implementations the main code is checked against.

These deliberately favor the most literal, brute-force formulation of each
operation and share no code with the package.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import logging
import math
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import chain, combinations

import numpy as np
import scipy.sparse as sp

from polarlex.corpus import HASHTAG_MODE, TOKEN_MODE, record_from_json
from polarlex.errors import DataError
from polarlex.ioutil import MAX_MAGNITUDE, read_rows
from polarlex.lexgraph import CooccurrenceGraph

log = logging.getLogger(__name__)


def reference_propagate(
    nodes: list[str],
    edges: dict[tuple[str, str], float],
    seed_values: dict[str, float],
    endpoints: tuple[float, float],
    gamma: int,
    max_outer: int,
) -> dict[str, float]:
    """Pass-by-pass greedy spreading, transcribed as naively as possible.

    Every pass scans all nodes in ascending order; slack = pass_index // gamma;
    an unlabeled node with c >= 1 labeled neighbors and c + slack >= degree
    takes the weighted average of its labeled neighbors, visible to later
    nodes in the same pass. Stops on a no-change pass once slack >= max degree.
    """
    adj: dict[str, dict[str, float]] = {n: {} for n in nodes}
    for (a, b), w in edges.items():
        adj[a][b] = w
        adj[b][a] = w
    labels = {n: v for n, v in seed_values.items() if n in adj}
    lo, hi = min(endpoints), max(endpoints)
    max_deg = max((len(v) for v in adj.values()), default=0)
    i = 0
    while i < max_outer:
        slack = i // gamma
        i += 1
        changed = False
        for n in sorted(nodes):
            if n in labels:
                continue
            neighbors = adj[n]
            labeled = [j for j in sorted(neighbors) if j in labels]
            if len(labeled) >= 1 and len(labeled) + slack >= len(neighbors):
                score = math.fsum(labels[j] * neighbors[j] for j in labeled)
                total = math.fsum(neighbors[j] for j in labeled)
                labels[n] = min(hi, max(lo, score / total))
                changed = True
        if not changed and slack >= max_deg:
            break
    return labels


def sweep_all_greedy(
    nodes: list[str],
    indptr: list[int],
    indices: list[int],
    data: list[float],
    seed_values: dict[str, float],
    endpoints: tuple[float, float],
    gamma: int,
    max_outer: int,
) -> tuple[dict[str, float], dict[str, str]]:
    """Greedy spreading over CSR rows, re-heaping every candidate each sweep.

    Each sweep pops every node with a labeled neighbor in ascending order and
    skips the ineligible ones; a node that gets its first labeled neighbor
    during the sweep joins it if its name sorts after that neighbor. Passes
    that cannot label anything are skipped by jumping to the first pass whose
    slack reaches some candidate. Returns the scores and the
    seed/propagated/unlabeled status of every node.
    """
    index = {node: i for i, node in enumerate(nodes)}
    labels = {index[n]: v for n, v in seed_values.items() if n in index}
    lo, hi = min(endpoints), max(endpoints)
    status = {node: "unlabeled" for node in nodes}
    for i in labels:
        status[nodes[i]] = "seed"

    deg = np.diff(indptr).tolist()
    max_deg = max(deg, default=0)
    labeled_count = [0] * len(nodes)
    for n in labels:
        for nbr in indices[indptr[n] : indptr[n + 1]]:
            labeled_count[nbr] += 1
    candidates = {n for n, c in enumerate(labeled_count) if c >= 1 and n not in labels}

    i = 0
    while i < max_outer and candidates:
        slack = i // gamma
        heap = sorted(candidates)
        pending = set(heap)
        changed = False
        while heap:
            n = heapq.heappop(heap)
            pending.discard(n)
            c = labeled_count[n]
            if c < 1 or c + slack < deg[n]:
                continue
            start, stop = indptr[n], indptr[n + 1]
            nbrs = list(zip(indices[start:stop], data[start:stop]))
            num = math.fsum(labels[j] * w for j, w in nbrs if j in labels)
            den = math.fsum(w for j, w in nbrs if j in labels)
            labels[n] = min(hi, max(lo, num / den))
            status[nodes[n]] = "propagated"
            changed = True
            candidates.discard(n)
            for nbr, _ in nbrs:
                labeled_count[nbr] += 1
                if nbr not in labels:
                    candidates.add(nbr)
                    if nbr > n and nbr not in pending:
                        heapq.heappush(heap, nbr)
                        pending.add(nbr)
        i += 1
        if not changed:
            if slack >= max_deg:
                break
            # every remaining pass at this slack is a no-op; jump to the
            # first pass index whose slack makes some candidate eligible
            target = min(deg[n] - labeled_count[n] for n in candidates)
            i = max(i, min(target * gamma, max_outer))

    return {nodes[n]: value for n, value in labels.items()}, status


def brute_force_pairs(item_sets: list[list[str]]) -> Counter:
    """Per-tweet unordered pair counts over deduplicated item sets."""
    counts: Counter[tuple[str, str]] = Counter()
    for items in item_sets:
        for a, b in combinations(sorted(set(items)), 2):
            counts[(a, b)] += 1
    return counts


def brute_force_knn(
    vocab: list[str], vectors: np.ndarray, k: int
) -> dict[tuple[str, str], float]:
    """All-pairs cosine ranking; union of each node's k best neighbors."""
    edges: dict[tuple[str, str], float] = {}
    n = len(vocab)
    for i in range(n):
        sims = []
        for j in range(n):
            if i == j:
                continue
            vi, vj = vectors[i], vectors[j]
            cos = float(np.dot(vi, vj) / (np.linalg.norm(vi) * np.linalg.norm(vj)))
            sims.append((-cos, j))
        sims.sort()
        for neg_cos, j in sims[:k]:
            cos = min(1.0, max(-1.0, -neg_cos))
            w = max(1e-6, 1.0 - math.acos(cos) / math.pi)
            key = (vocab[i], vocab[j]) if vocab[i] < vocab[j] else (vocab[j], vocab[i])
            edges[key] = max(edges.get(key, 0.0), w)
    return edges


def fixed_order_knn(
    vocab: list[str], unit_rows: list[list[float]], k: int
) -> dict[tuple[str, str], float]:
    """Each row's k best neighbours by the dot product of unit rows, summed
    one multiply and one add per dimension, in dimension order, ties to the
    earlier row; union of those relations, keeping the larger angular weight."""
    edges: dict[tuple[str, str], float] = {}
    for i, x in enumerate(unit_rows):
        ranked = []
        for j, y in enumerate(unit_rows):
            if i == j:
                continue
            cos = 0.0
            for a, b in zip(x, y):
                cos += a * b
            ranked.append((-cos, j))
        ranked.sort()
        for neg_cos, j in ranked[:k]:
            cos = min(1.0, max(-1.0, -neg_cos))
            w = max(1e-6, 1.0 - math.acos(cos) / math.pi)
            key = (vocab[i], vocab[j]) if vocab[i] < vocab[j] else (vocab[j], vocab[i])
            edges[key] = max(edges.get(key, 0.0), w)
    return edges


def dense_restart_walk(
    nodes: list[str],
    edges: dict[tuple[str, str], float],
    seed_nodes: list[str],
    restart_prob: float,
    tol: float,
    max_iter: int,
) -> dict[str, float]:
    """Dense-matrix power iteration of the degree-normalized restart walk."""
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    W = np.zeros((n, n))
    for (a, b), w in edges.items():
        W[index[a], index[b]] = w
        W[index[b], index[a]] = w
    degree = W.sum(axis=1)
    T = np.zeros((n, n))
    s = np.zeros(n)
    for seed in seed_nodes:
        s[index[seed]] = 1.0 / len(seed_nodes)
    for j in range(n):
        if degree[j] > 0:
            T[:, j] = W[:, j] / degree[j]
        else:
            T[:, j] = s
    p = s.copy()
    for _ in range(max_iter):
        p_next = (1.0 - restart_prob) * (T @ p) + restart_prob * s
        delta = float(np.max(np.abs(p_next - p)))
        p = p_next
        if delta < tol:
            break
    return {node: float(p[index[node]]) for node in nodes}


def naive_k_core(
    nodes: set[str], edges: set[tuple[str, str]], k: int
) -> set[str]:
    """Fixed-point peeling by full rescans until no node falls below k."""
    alive = set(nodes)
    while True:
        deg = {n: 0 for n in alive}
        for a, b in edges:
            if a in alive and b in alive:
                deg[a] += 1
                deg[b] += 1
        doomed = {n for n in alive if deg[n] < k}
        if not doomed:
            return alive
        alive -= doomed


def unitwise_alpha(values_a: list[str], values_b: list[str]) -> float:
    """Krippendorff alpha from per-unit disagreements, not a coincidence matrix."""
    units = list(zip(values_a, values_b))
    n = 2 * len(units)

    def delta(x: str, y: str) -> float:
        return 0.0 if x == y else 1.0

    observed = 0.0
    for a, b in units:
        pair_sum = delta(a, b) + delta(b, a)
        observed += pair_sum / (2 - 1)
    observed /= n

    pooled = [v for unit in units for v in unit]
    expected = 0.0
    for x in pooled:
        for y in pooled:
            expected += delta(x, y)
    expected /= n * (n - 1)
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected



def unitwise_pole_metrics(
    predictions: dict[str, str], gold: dict[str, str], pole: str
) -> tuple[float | None, float, float, float]:
    """(precision, recall, pct_unknown, pct_incorrect) of one pole, counted by
    one pass over the gold units per count."""
    opposite = "pole_b" if pole == "pole_a" else "pole_a"
    in_pole = [k for k, v in gold.items() if v == pole]
    n_hit = sum(1 for k in in_pole if predictions[k] == pole)
    n_unknown = sum(1 for k in in_pole if predictions[k] in ("neutral", "unclassified"))
    n_incorrect = sum(1 for k in in_pole if predictions[k] == opposite)
    n_predicted = sum(1 for k in gold if predictions[k] == pole)
    return (
        n_hit / n_predicted if n_predicted else None,
        n_hit / len(in_pole),
        n_unknown / len(in_pole),
        n_incorrect / len(in_pole),
    )


def unitwise_accuracy_soft(
    predictions: dict[str, str], gold: dict[str, str]
) -> tuple[float, float]:
    """(exact accuracy, soft accuracy) by one pass over the gold units: an
    unclassified prediction matches gold neutral, and only a polar opposite
    counts against the soft accuracy."""
    n_exact = n_opposite = 0
    for key, truth in gold.items():
        pred = predictions[key]
        if pred == truth or (pred == "unclassified" and truth == "neutral"):
            n_exact += 1
        if {pred, truth} == {"pole_a", "pole_b"}:
            n_opposite += 1
    n = len(gold)
    return n_exact / n, (n - n_opposite) / n


def unitwise_agreement(values_a: list[str], values_b: list[str]) -> tuple[float, float]:
    """(percent agreement, polar-opposite agreement) by one pass over the items."""
    n = len(values_a)
    n_exact = sum(1 for a, b in zip(values_a, values_b) if a == b)
    n_opposite = sum(1 for a, b in zip(values_a, values_b) if {a, b} == {"pole_a", "pole_b"})
    return n_exact / n, (n - n_opposite) / n


def unitwise_tally(
    user_values: list[float | None], tweet_values: list[float | None], scale: tuple[float, float]
) -> list[tuple[str, int, float, int, float]]:
    """(label, users, % users, tweets, % tweets) per ternary class, each value
    classed against the scale's midpoint by hand."""
    mid = (scale[0] + scale[1]) / 2.0

    def label(value: float | None) -> str:
        if value is None:
            return "unclassified"
        return "pole_b" if value < mid else "pole_a" if value > mid else "neutral"

    rows = []
    for name in ("pole_a", "pole_b", "neutral", "unclassified"):
        n_users = sum(1 for v in user_values if label(v) == name)
        n_tweets = sum(1 for v in tweet_values if label(v) == name)
        rows.append((
            name,
            n_users,
            100.0 * n_users / len(user_values) if user_values else 0.0,
            n_tweets,
            100.0 * n_tweets / len(tweet_values) if tweet_values else 0.0,
        ))
    return rows


def event_scan_edges(records) -> Counter:
    """Undirected interaction pair counts by a direct scan of record fields."""
    counts: Counter[tuple[str, str]] = Counter()
    for r in records:
        targets = []
        if r.retweet_of_user:
            targets.append(r.retweet_of_user)
        targets.extend(r.mentions)
        if r.reply_to_user:
            targets.append(r.reply_to_user)
        for t in targets:
            if t and t != r.user_id:
                counts[tuple(sorted((r.user_id, t)))] += 1
    return counts


def reference_graphml(graph) -> bytes:
    """A CommGraph's GraphML document built as an ElementTree, indented and serialized.

    Reads only the graph's attributes; each label is derived here from the
    score and its scale's midpoint, and each count from the direction counts.
    """
    root = ET.Element("graphml", {"xmlns": "http://graphml.graphdrawing.org/xmlns"})

    def key(key_id: str, target: str, name: str, kind: str) -> None:
        attrib = {"id": key_id, "for": target, "attr.name": name, "attr.type": kind}
        ET.SubElement(root, "key", attrib)

    dims = sorted(graph.polarity)
    for idx, dim in enumerate(dims):
        key(f"dp{idx}", "node", f"polarity_{dim}", "double")
        key(f"dl{idx}", "node", f"label_{dim}", "string")
    for key_id, name in (("ec", "count"), ("ea", "count_src_to_dst"), ("eb", "count_dst_to_src")):
        key(key_id, "edge", name, "int")
    gr = ET.SubElement(root, "graph", {"id": "G", "edgedefault": "undirected"})
    for node in sorted(graph.nodes):
        el = ET.SubElement(gr, "node", {"id": node})
        for idx, dim in enumerate(dims):
            value = graph.polarity[dim].get(node)
            if value is not None:
                ET.SubElement(el, "data", {"key": f"dp{idx}"}).text = f"{value:.9f}"
            lo, hi = graph.scales[dim]
            mid = (lo + hi) / 2.0
            if value is None:
                label = "unclassified"
            else:
                label = "pole_b" if value < mid else "pole_a" if value > mid else "neutral"
            ET.SubElement(el, "data", {"key": f"dl{idx}"}).text = label
    for (a, b) in sorted(graph.edges):
        ab, ba = graph.edges[(a, b)]
        el = ET.SubElement(gr, "edge", {"source": a, "target": b})
        for key_id, value in (("ec", ab + ba), ("ea", ab), ("eb", ba)):
            ET.SubElement(el, "data", {"key": key_id}).text = str(value)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    out = io.BytesIO()
    tree.write(out, encoding="utf-8", xml_declaration=True)
    return out.getvalue() + b"\n"


# The tokenizer before pieces were memoized, verbatim: tokenize_text and its
# two helpers.
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_piece(piece: str) -> str:
    """Strip leading/trailing punctuation, keeping a leading '#' or '@' marker."""
    end = len(piece)
    while end > 0 and _is_punct(piece[end - 1]):
        end -= 1
    start = 0
    while start < end and _is_punct(piece[start]):
        if piece[start] in "#@":
            break
        start += 1
    return piece[start:end]


def tokenize_text(text: str) -> tuple[list[str], list[str]]:
    """Split on Unicode whitespace and normalize; returns (hashtags, tokens).

    A hashtag's name is the token that the text after its '#'s gives, so
    '#:0' is '0' and '#@a' is dropped. Hashtags are deduplicated in first-seen
    order; every hashtag occurrence also counts as a token. Mentions and URLs
    are dropped entirely.
    """
    hashtags: list[str] = []
    seen_tags: set[str] = set()
    tokens: list[str] = []
    for raw in text.split():
        piece = _strip_piece(raw)
        if not piece or piece.startswith("@"):
            continue
        if piece.casefold().startswith(("http://", "https://")):
            continue
        if piece.startswith("#"):
            # the text after the '#'s holds no whitespace: one token at most
            name = "".join(tokenize_text(piece.lstrip("#"))[1])
            if not name:
                continue
            tokens.append(name)
            if name not in seen_tags:
                seen_tags.add(name)
                hashtags.append(name)
        else:
            tokens.append(piece.casefold())
    return hashtags, tokens


def per_line_graph_files(graph) -> tuple[str, str]:
    """The edge and node file texts of a CooccurrenceGraph, one line per edge.

    Walks the CSR rows for the j > i entries and formats every weight with
    9 decimals, as write_graph did line by line.
    """
    w = graph.weights
    edges = [f"#mode={graph.mode}\n"]
    for i, a in enumerate(graph.nodes):
        for k in range(w.indptr[i], w.indptr[i + 1]):
            j = int(w.indices[k])
            if j > i:
                edges.append(f"{a}\t{graph.nodes[j]}\t{float(w.data[k]):.9f}\n")
    nodes = [f"{node}\t{freq}\n" for node, freq in zip(graph.nodes, graph.frequency)]
    return "".join(edges), "".join(nodes)


# The graph reader before edges were kept in flat arrays, verbatim except
# that the symmetric weights are built inline and that edges must come in
# write_graph's layout: one dict entry per edge, so a duplicate is found at
# its own line, and the CSR is one_way + one_way.T.
def reference_read_graph(edges_path, nodes_path) -> CooccurrenceGraph:
    """Read write_graph's files.

    Line 1 of the edge file is the '#mode=' header. Rejects duplicate node
    rows, negative frequencies, duplicate edges, edges between nodes the
    node file lacks, and edges that are not a < b or come before the
    previous line's pair in (a, b) order.
    """
    frequency: dict[str, int] = {}
    for lineno, (node, raw_freq) in read_rows(nodes_path, "\t", 2, key="node"):
        try:
            freq = frequency[node] = int(raw_freq)
        except ValueError as exc:
            raise DataError(f"{nodes_path}: line {lineno}: bad frequency") from exc
        if freq < 0:
            raise DataError(f"{nodes_path}: line {lineno}: frequency is negative")
    nodes = sorted(frequency)
    index = {node: i for i, node in enumerate(nodes)}
    edge_rows = read_rows(edges_path, "\t", 3, header=("mode",))
    _, (mode,) = next(edge_rows)
    if mode not in (HASHTAG_MODE, TOKEN_MODE):
        raise DataError(f"{edges_path}: line 1: mode must be {HASHTAG_MODE} or {TOKEN_MODE}")
    edges: dict[tuple[int, int], float] = {}
    previous = (-1, -1)
    for lineno, (a, b, raw_w) in edge_rows:
        try:
            w = float(raw_w)
        except ValueError as exc:
            raise DataError(f"{edges_path}: line {lineno}: bad weight") from exc
        if a == b:
            raise DataError(f"{edges_path}: line {lineno}: self-loop {a!r}")
        if not 0 < w <= MAX_MAGNITUDE:
            raise DataError(f"{edges_path}: line {lineno}: weight not in (0, {MAX_MAGNITUDE:g}]")
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            missing = a if i is None else b
            raise DataError(f"{edges_path}: line {lineno}: node {missing!r} not in {nodes_path}")
        pair = (i, j)
        if i > j or pair < previous:
            raise DataError(f"{edges_path}: line {lineno}: edge {a!r} {b!r} out of order")
        if pair in edges:
            raise DataError(f"{edges_path}: line {lineno}: duplicate edge {a!r} {b!r}")
        edges[pair] = w
        previous = pair
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    upper = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    one_way = sp.csr_matrix((upper, (ends[0::2], ends[1::2])), shape=(len(nodes),) * 2)
    weights = one_way + one_way.T
    weights.sort_indices()
    return CooccurrenceGraph(mode=mode, nodes=nodes, frequency=[frequency[n] for n in nodes],
                             weights=weights)


# The embedding loader before rows were parsed into one float64 buffer,
# verbatim except that it raises ValueError for DataError and returns
# (vocabulary, vectors) for an EmbeddingTable.
def list_load_embeddings(path, vocab_cap: int | None = None) -> tuple[list[str], np.ndarray]:
    """Read a token-per-line embedding file, keeping the first vocab_cap entries.

    The dimension is fixed by the first line; zero vectors are dropped with a
    logged count. A token must be nonempty and hold no tab.
    """
    vocab: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    dim: int | None = None
    n_zero = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if vocab_cap is not None and len(vocab) >= vocab_cap:
                break
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise ValueError(f"{path}: line {lineno}: expected token and values")
            token = parts[0]
            if not token:
                raise ValueError(f"{path}: line {lineno}: empty token")
            if "\t" in token:
                raise ValueError(f"{path}: line {lineno}: token {token!r} holds a tab")
            try:
                values = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from exc
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(values)}"
                )
            if token in seen:
                log.warning("duplicate embedding token %r ignored (line %d)", token, lineno)
                continue
            if not any(values):
                n_zero += 1
                continue
            seen.add(token)
            vocab.append(token)
            rows.append(values)
    if n_zero:
        log.warning("dropped %d zero vectors from %s", n_zero, path)
    vectors = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, dim or 0))
    return vocab, vectors


# The corpus loader before write_corpus's layout got its own pattern, verbatim:
# every line through json.loads and the package's record_from_json, which the
# pattern path must agree with.
def json_load_corpus(path, include_retweets: bool = True) -> list:
    """Read a JSONL tweet corpus file, preserving input order.

    Rejects duplicate tweet_ids and malformed lines, naming the offender.
    """
    records = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                record = record_from_json(obj)
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if record.tweet_id in seen:
                raise DataError(
                    f"{path}: line {lineno}: duplicate tweet_id {record.tweet_id!r}"
                )
            seen.add(record.tweet_id)
            if record.is_retweet and not include_retweets:
                continue
            records.append(record)
    return records


def csv_write_score_csv(scores_by_dim, path, key_column: str) -> None:
    """write_score_csv as one csv.writer row per score, each value formatted
    twice: rounded to its 9-decimal text and back to a float, then formatted
    again as it is written. Leaves the scores as they are.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([key_column, "dimension", "value", "n_items"])
        for dim in sorted(scores_by_dim):
            scores = scores_by_dim[dim]
            for key, score in scores.items():
                value, n_items = score.value, score.n_items
                if value is not None:
                    value = f"{float(f'{value:.9f}'):.9f}"
                writer.writerow([key, dim, value, n_items])
