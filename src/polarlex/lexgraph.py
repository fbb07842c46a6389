"""Graphs that labels propagate over: co-occurrence networks and embedding k-NN graphs."""

from __future__ import annotations

import array
import logging
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice, pairwise
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import HASHTAG_MODE, TOKEN_MODE, TokenizedTweet
from .errors import ConfigError, DataError
from .ioutil import MAX_MAGNITUDE, fmt9, read_lines, read_rows

log = logging.getLogger(__name__)

# floor for k-NN edge weights so angular similarity never hits zero
MIN_KNN_WEIGHT = 1e-6
# bytes of the float32 similarity block in build_knn_graph: a block holds
# KNN_BLOCK_BYTES // (4 * n) rows of n similarities, at least one
KNN_BLOCK_BYTES = 16 << 20


@dataclass
class CooccurrenceGraph:
    """Weighted undirected graph over vocabulary items.

    nodes is sorted and frequency[i] is the number of tweets containing
    nodes[i] (0 for k-NN graphs). weights is a symmetric CSR matrix with
    sorted indices, positive entries and an empty diagonal, so row i lists
    the neighbors of nodes[i] in name order.
    """

    mode: str
    nodes: list[str]
    frequency: list[int]
    weights: sp.csr_matrix

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return self.weights.nnz // 2


@dataclass
class EmbeddingTable:
    """Token vocabulary with one fixed-dimension unit vector per token.

    Construction divides each row by its norm. A table with no rows is a
    DataError, as is the first row whose norm is not finite or underflows to
    zero, or that is a zero vector: the error names its token.
    """

    vocabulary: list[str]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        # an overflowing norm is rejected below, so numpy need not warn of it
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.vectors, axis=1)
        if not len(norms):
            raise DataError("no nonzero vectors")
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
        if bad.size:
            i = bad[0]
            reason = ("norm is not finite" if not np.isfinite(norms[i]) else
                      "norm underflows to zero" if self.vectors[i].any() else "is zero")
            raise DataError(f"token {self.vocabulary[i]!r}: vector {reason}")
        self.vectors = self.vectors / norms[:, None]


def build_cooccurrence(
    tweets: Sequence[TokenizedTweet],
    mode: str = HASHTAG_MODE,
    vocab_cap: int | None = None,
) -> CooccurrenceGraph:
    """Count, per tweet, every unordered pair of distinct items.

    Hashtag mode pairs the tweet's distinct hashtags; token mode pairs the
    tweet's distinct tokens, restricted to the vocab_cap most frequent tokens
    (ties broken lexicographically). With X the binary tweet x item incidence
    matrix, weights are the off-diagonal entries of X^T X and frequencies its
    diagonal. Tweet order does not affect the result.
    """
    if mode not in (HASHTAG_MODE, TOKEN_MODE):
        raise ConfigError(f"unknown graph mode {mode!r}")
    items = attrgetter("hashtags" if mode == HASHTAG_MODE else "tokens")
    # a missing item is given the next column: every item's first occurrence
    # takes the columns 0, 1, 2, ... in turn
    index: defaultdict[str, int] = defaultdict(count().__next__)
    indptr = np.zeros(len(tweets) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, map(items, tweets)), np.intp, len(tweets)), out=indptr[1:])
    cols = np.fromiter(map(index.__getitem__, chain.from_iterable(map(items, tweets))),
                       dtype=np.intp, count=indptr[-1])
    # then each column is renumbered to its item's rank in name order
    nodes, rank = _name_order(list(index))
    del index
    cols = rank[cols]
    incidence = sp.csr_matrix(
        (np.ones(len(cols)), cols, indptr), shape=(len(tweets), len(nodes))
    )
    del cols, indptr
    # an item repeated within a tweet counts once
    incidence.sum_duplicates()
    incidence.data[:] = 1
    if mode == TOKEN_MODE and vocab_cap is not None and len(nodes) > vocab_cap:
        freq = np.bincount(incidence.indices, minlength=len(nodes))
        # a stable sort leaves tied items in name order
        kept = np.sort(np.argsort(-freq, kind="stable")[:vocab_cap])
        incidence = incidence[:, kept]
        nodes = [nodes[i] for i in kept.tolist()]
    product = incidence.T @ incidence
    del incidence
    # X^T X is symmetric, so the CSC buffers of the product are its CSR buffers
    counts = sp.csr_matrix((product.data, product.indices, product.indptr), shape=product.shape)
    del product
    frequency = counts.diagonal().astype(np.int64).tolist()
    counts.setdiag(0)
    counts.eliminate_zeros()
    counts.sort_indices()
    return CooccurrenceGraph(mode=mode, nodes=nodes, frequency=frequency, weights=counts)


def load_embeddings(path: str | Path, vocab_cap: int | None = None) -> EmbeddingTable:
    """Read a token-per-line embedding file, keeping the first vocab_cap entries.

    The dimension is fixed by the first line; zero vectors are dropped with a
    logged count. An empty token, or one holding a tab, which the graph and
    lexicon files could not hold, is a DataError naming the file and line; so
    is a vector the table rejects, naming the file and the token.
    A file in the plain layout is parsed in bulk (_plain_rows); any other goes
    to the line reader (_line_rows), which gives the same rows for a plain
    file, so every table, warning and error is the line reader's.
    """
    vocab, vectors = _plain_rows(path, vocab_cap) or _line_rows(path, vocab_cap)
    log.info("embeddings: kept %d tokens of dimension %d", *vectors.shape)
    try:
        return EmbeddingTable(vocabulary=vocab, vectors=vectors)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


# the bytes of a plain line's values: decimal digits, the point, signs, the
# exponent mark and the space between fields; so no nan, inf, hex, '_' or
# other whitespace, all of which float() takes
_PLAIN_VALUES_BYTES = b"0123456789.+-eE "


class _NotPlain(Exception):
    """A line that _plain_rows leaves to the line reader."""


def _plain_rows(path: str | Path, vocab_cap: int | None) -> tuple[list[str], np.ndarray] | None:
    """The kept tokens and raw vectors of a plain embedding file, or None.

    Plain: each of the first vocab_cap lines is a nonempty token without a
    tab, one space, and the same number of fields of _PLAIN_VALUES_BYTES, one
    space apart. np.loadtxt parses every field in one call, as float() does,
    and rejects the fields float() rejects. The lines must also hold no
    repeated token, zero vector or non-finite value, so that the line reader
    would keep each of them as it stands. The lines stream into np.loadtxt,
    so no copy of the whole file is held, and are read as the line reader
    reads them, so a byte that is not UTF-8 stops both at the same point.
    """
    tokens: list[str] = []

    def values(lines):
        for line in lines:
            token, _, rest = line.rstrip("\n").partition(" ")
            if (not token or "\t" in token or not rest
                    or rest.encode().translate(None, _PLAIN_VALUES_BYTES)):
                raise _NotPlain
            tokens.append(token)
            yield rest
        if not tokens:
            raise _NotPlain

    try:
        with open(path, encoding="utf-8") as fh:
            vectors = np.loadtxt(values(islice(fh, vocab_cap)), delimiter=" ", ndmin=2)
            # the line reader reads on to the next line that is not blank
            # before it stops at the cap
            next((line for line in fh if not line.isspace()), None)
    except (_NotPlain, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if (len(set(tokens)) < len(tokens) or not np.isfinite(vectors).all()
            or not vectors.any(axis=1).all()):
        return None
    return tokens, vectors


def _line_rows(path: str | Path, vocab_cap: int | None) -> tuple[list[str], np.ndarray]:
    """The kept tokens and raw vectors of an embedding file, read line by
    line; values are parsed straight into one float64 buffer."""
    vocab: list[str] = []
    flat = array.array("d")
    seen: set[str] = set()
    dim: int | None = None
    n_zero = 0
    for lineno, line in read_lines(path):
        if vocab_cap is not None and len(vocab) >= vocab_cap:
            break
        parts = line.split(" ")
        if len(parts) < 2:
            raise DataError(f"{path}: line {lineno}: expected token and values")
        token = parts[0]
        # the graph and lexicon files hold one token per tab-separated row
        if not token:
            raise DataError(f"{path}: line {lineno}: empty token")
        if "\t" in token:
            raise DataError(f"{path}: line {lineno}: token {token!r} holds a tab")
        try:
            values = list(map(float, parts[1:]))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric field") from exc
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}: line {lineno}: non-finite value")
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise DataError(f"{path}: line {lineno}: expected {dim} values, got {len(values)}")
        if token in seen:
            log.warning("duplicate embedding token %r ignored (line %d)", token, lineno)
            continue
        if not any(values):
            n_zero += 1
            continue
        seen.add(token)
        vocab.append(token)
        flat.extend(values)
    if n_zero:
        log.warning("dropped %d zero vectors from %s", n_zero, path)
    return vocab, np.frombuffer(flat, dtype=np.float64).reshape(len(vocab), dim or 0)


def build_knn_graph(table: EmbeddingTable, k: int) -> CooccurrenceGraph:
    """Connect each token to its k nearest neighbors by cosine similarity.

    Edge weight is the angular similarity 1 - arccos(cos)/pi in (0, 1],
    clamped below at MIN_KNN_WEIGHT. Similarity ties go to the token that
    comes first in the table. Directed k-NN relations are unioned, keeping
    the larger weight.
    A float32 matrix product only proposes each row's candidates, with a
    margin that covers its rounding (_knn_margin). The candidates are ranked,
    and weighted, by _fixed_order_cosines, a float64 dot product of the unit
    rows in dimension order, so neither the neighbours nor the weights depend
    on the BLAS kernel, its thread count or the block size. The product takes
    blocks of KNN_BLOCK_BYTES // (4 * n) rows, at least one, into one float32
    buffer of about KNN_BLOCK_BYTES.
    """
    vocab, unit = table.vocabulary, table.vectors
    n, dim = unit.shape
    if k < 1:
        raise ConfigError("knn_k must be >= 1")
    if k >= n:
        raise ConfigError(f"knn_k={k} must be smaller than the vocabulary size {n}")

    best = np.empty((n, k), dtype=np.int64)
    best_cos = np.empty((n, k))
    block = min(n, max(1, KNN_BLOCK_BYTES // (4 * n)))
    starts = range(0, n, block)
    log.info("k-NN: %d tokens, k=%d, %d rows per block in %d blocks",
             n, k, block, len(starts))
    # each row's candidates are bounded below by the maxima of 4k contiguous
    # chunks of the row: fewer chunks leave a looser bound and more
    # candidates to rank, more chunks cost more to reduce than they save
    n_chunks = min(n, 4 * k)
    chunk_starts = np.arange(n_chunks) * (n // n_chunks)
    margin = 2 * _knn_margin(dim)
    unit32 = unit.astype(np.float32)
    # every block is computed into the first rows of these buffers, so that the
    # next block's similarities are never allocated while the last one's are held
    buf = np.empty((block, n), dtype=np.float32)
    hits = np.empty(buf.shape, dtype=bool)
    n_candidates = 0
    for start in starts:
        sims = np.matmul(unit32[start : start + block], unit32.T, out=buf[: n - start])
        np.fill_diagonal(sims[:, start:], -np.inf)
        # The chunks are disjoint, so their maxima are entries of the row in
        # distinct columns, and at least k entries are >= the k-th largest
        # maximum m. Each float32 entry is within half the margin of its
        # fixed-order cosine, so at least k cosines are >= m - margin / 2.
        # Hence so is the row's k-th largest cosine, and so is every cosine
        # ranked above it or tied with it, and their float32 entries are
        # >= m - margin: the candidates, the entries >= that bound, hold the
        # row's top k under any number of ties.
        maxima = np.maximum.reduceat(sims, chunk_starts, axis=1)
        kth = np.partition(maxima, n_chunks - k, axis=1)[:, n_chunks - k]
        bound = _float32_at_most(kth.astype(np.float64) - margin)
        mask = np.greater_equal(sims, bound[:, None], out=hits[: len(sims)])
        # Ties can give a row up to n candidates. Past one row's worth, the
        # maxima's size or a 64th of the block, whichever is largest,
        # candidates are ranked a few rows at a time, so that no batch holds
        # more than that budget.
        budget = max(n, maxima.size, mask.size // 64)
        per = len(sims)
        if np.count_nonzero(mask) > budget:
            per = max(1, budget // int(np.count_nonzero(mask, axis=1).max()))
        for lo in range(0, len(sims), per):
            hi = min(lo + per, len(sims))
            flat = np.flatnonzero(mask[lo:hi])
            row, col = divmod(flat, n)
            cos = _fixed_order_cosines(unit, start + lo + row, col)
            n_candidates += len(cos)
            # flatnonzero lists the candidates by row, then by column, and
            # lexsort is stable: it ranks each row's candidates by
            # (-cosine, column) within the span of the list they held
            order = np.lexsort((-cos, row))
            pick = order[np.searchsorted(row, np.arange(hi - lo))[:, None] + np.arange(k)]
            best[start + lo : start + hi] = col[pick]
            best_cos[start + lo : start + hi] = cos[pick]
    del unit32, buf, hits, sims, mask
    log.info("k-NN: %.2f candidates ranked per token", n_candidates / n)
    # math.acos, not np.arccos, whose last bits can differ; the view hands
    # math.acos one cosine at a time, so no list of them is ever built, and
    # the rest is computed in place, so no other n * k array is
    cos = np.clip(best_cos.ravel(), -1.0, 1.0, out=best_cos.ravel())
    w = np.fromiter(map(math.acos, memoryview(cos)), np.float64, len(cos))
    del best_cos, cos
    w /= math.pi
    np.maximum(MIN_KNN_WEIGHT, np.subtract(1.0, w, out=w), out=w)
    nodes, rank = _name_order(vocab)
    directed = sp.csr_matrix((w, (np.repeat(rank, k), rank[best.ravel()])), shape=(n, n))
    weights = directed.maximum(directed.T)
    weights.sort_indices()
    return CooccurrenceGraph(mode=TOKEN_MODE, nodes=nodes, frequency=[0] * n, weights=weights)


def _name_order(names: list[str]) -> tuple[list[str], np.ndarray]:
    """names sorted, and each name's rank in that order, by its index in names."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return [names[i] for i in order], rank


def _knn_margin(dim: int) -> float:
    """A bound on |s - c| for two unit rows x, y of dimension dim, where s is
    any float32 matrix product's entry for them and c their
    _fixed_order_cosines value.

    Rounding x and y to float32 and summing dim float32 products in any order
    leave s within gamma(dim + 2) * sum|x_i y_i| of x.y, with gamma(m) =
    m u / (1 - m u) and u = 2**-24 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1). The float64 loop leaves c
    within gamma(dim) of x.y, with u = 2**-53. Unit rows have sum|x_i y_i|
    <= 1. Underflow adds at most three errors of 2**-150 per term in float32,
    and far less in float64: the last term covers both.
    """
    m32, m64 = (dim + 2) * 2.0**-24, dim * 2.0**-53
    return m32 / (1 - m32) + m64 / (1 - m64) + dim * 2.0**-148


def _float32_at_most(x: np.ndarray) -> np.ndarray:
    """The largest float32 values <= x, so that a float32 entry is >= them
    exactly when it is >= x."""
    y = x.astype(np.float32)
    return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)


def _fixed_order_cosines(unit: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """unit[rows[i]] . unit[cols[i]] for each i, in float64: one multiply and
    one add per dimension, in dimension order, each rounded on its own. The
    rows are unit, so these are the cosines, and their bits depend on the
    vectors alone."""
    total = np.zeros(len(rows))
    for column in unit.T:
        total += column[rows] * column[cols]
    return total


def write_graph(
    graph: CooccurrenceGraph, edges_path: str | Path, nodes_path: str | Path
) -> CooccurrenceGraph:
    """Write each edge once as a < b in sorted order, then the node-frequency sidecar.

    Returns the graph as read_graph gives it back from these files: the given
    graph if every weight is a whole number, otherwise one whose weights are
    the written 9-decimal strings parsed back.
    """
    nodes = graph.nodes
    # Views over the CSR's buffers: a row's slice copies nothing, and only that
    # row's names and lines are held at once. A line is its row's head, its
    # column's name and its weight's tail. Rows list their columns in name
    # order and the diagonal is empty, so a row's a < b pairs are the columns
    # past the row's own index, and come out in name order.
    matrix = graph.weights
    columns, weights = memoryview(matrix.indices), memoryview(matrix.data)
    # Co-occurrence counts are whole numbers, which read back as themselves
    # from their 9 decimals, so each distinct count's tail is formatted once.
    # Other weights are parsed back into the one-way graph of the a < b entries.
    whole = _whole_and_positive(matrix.data)
    tails = _Tails()
    read_back, upper_columns, upper_indptr = array.array("d"), array.array(columns.format), [0]
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(f"#mode={graph.mode}\n")
        for row, (lo, hi) in enumerate(pairwise(matrix.indptr.tolist())):
            lo = bisect_right(columns, row, lo, hi)
            if whole:
                ends = map(tails.__getitem__, weights[lo:hi])
            else:
                texts = list(map(fmt9, weights[lo:hi]))
                read_back.extend(map(float, texts))
                upper_columns.frombytes(columns[lo:hi].cast("B"))
                upper_indptr.append(len(read_back))
                ends = [f"\t{t}\n" for t in texts]
            head = nodes[row] + "\t"
            names = map(nodes.__getitem__, columns[lo:hi])
            fh.write("".join([head + name + end for name, end in zip(names, ends)]))
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node, freq in zip(nodes, graph.frequency):
            fh.write(f"{node}\t{freq}\n")
    if whole:
        return graph
    one_way = sp.csr_matrix((np.frombuffer(read_back), np.frombuffer(upper_columns, columns.format),
                             upper_indptr), shape=matrix.shape)
    return CooccurrenceGraph(
        mode=graph.mode, nodes=nodes, frequency=graph.frequency, weights=_symmetric(one_way)
    )


class _Tails(dict):
    """Each whole weight's edge-line tail, formatted at its first lookup."""

    def __missing__(self, weight: float) -> str:
        tail = self[weight] = f"\t{fmt9(weight)}\n"
        return tail


def _whole_and_positive(values: np.ndarray) -> bool:
    """Whether every value is a positive whole number. The check takes 64k
    values at a time, so that no temporary is the size of the matrix."""
    step = 1 << 16
    return all(bool(((part % 1 == 0) & (part > 0)).all())
               for part in (values[i : i + step] for i in range(0, len(values), step)))


def _symmetric(one_way: sp.csr_matrix) -> sp.csr_matrix:
    """The graph weights whose a < b entries one_way holds: one_way + one_way.T, sorted."""
    weights = one_way + one_way.T
    weights.sort_indices()
    return weights


def read_graph(edges_path: str | Path, nodes_path: str | Path) -> CooccurrenceGraph:
    """Read write_graph's files.

    Line 1 of the edge file is the '#mode=' header. Rejects duplicate node
    rows, negative frequencies, duplicate edges and edges between nodes the
    node file lacks.
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
        pair = (i, j) if i < j else (j, i)
        if pair in edges:
            raise DataError(f"{edges_path}: line {lineno}: duplicate edge {a!r} {b!r}")
        edges[pair] = w
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    upper = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    one_way = sp.csr_matrix((upper, (ends[0::2], ends[1::2])), shape=(len(nodes),) * 2)
    return CooccurrenceGraph(mode=mode, nodes=nodes, frequency=[frequency[n] for n in nodes],
                             weights=_symmetric(one_way))
