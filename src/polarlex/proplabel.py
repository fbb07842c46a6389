"""Seed label propagation over weighted graphs.

Two variants: a greedy pass-based spreader whose slack schedule gradually
tolerates unlabeled neighbors, and a random-walk-with-restart scorer for
embedding similarity graphs.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, DataError
from .ioutil import MAX_MAGNITUDE, check_dimension_name, fmt9, read_rows

# Only the random walk needs numpy, and it imports it itself, so that the
# lexicon readers and greedy propagation load without numpy or scipy.
if TYPE_CHECKING:
    from .lexgraph import CooccurrenceGraph

log = logging.getLogger(__name__)

STATUS_SEED = "seed"
STATUS_PROPAGATED = "propagated"
STATUS_UNLABELED = "unlabeled"

DEFAULT_GAMMA = 100
DEFAULT_MAX_OUTER = 1_000_000
DEFAULT_RESTART_PROB = 0.15
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000


@dataclass
class SeedLexicon:
    """Hand-curated anchors for one polarity dimension.

    Pole A items carry value_a, pole B items carry value_b. The sets must be
    disjoint and non-empty, and the two endpoint values must differ.
    """

    dimension_name: str
    pole_a_items: set[str]
    pole_b_items: set[str]
    value_a: float
    value_b: float

    def __post_init__(self) -> None:
        if not self.pole_a_items or not self.pole_b_items:
            raise DataError(f"{self.dimension_name}: both pole seed sets must be non-empty")
        overlap = self.pole_a_items & self.pole_b_items
        if overlap:
            raise DataError(
                f"{self.dimension_name}: seed items in both poles: {sorted(overlap)[:5]}"
            )
        if self.value_a == self.value_b:
            raise DataError(f"{self.dimension_name}: pole endpoint values must differ")

    @property
    def scale(self) -> tuple[float, float]:
        return (min(self.value_a, self.value_b), max(self.value_a, self.value_b))


@dataclass
class PolarityLexicon:
    """Scores for labeled items plus a status for every graph node.

    Unlabeled items carry no score; scores of labeled items lie within
    scale = (low endpoint, high endpoint).
    """

    dimension_name: str
    scores: dict[str, float]
    status: dict[str, str]
    scale: tuple[float, float]


def _seeds_in_graph(seeds: SeedLexicon, nodes: list[str]) -> tuple[list[int], list[int]]:
    """Pole A's and pole B's seeds among nodes, as node indices in name order."""
    index = {node: i for i, node in enumerate(nodes)}
    idx_a = [index[item] for item in sorted(seeds.pole_a_items) if item in index]
    idx_b = [index[item] for item in sorted(seeds.pole_b_items) if item in index]
    log.info(
        "%s: %d of %d pole A seeds and %d of %d pole B seeds are in the graph",
        seeds.dimension_name, len(idx_a), len(seeds.pole_a_items),
        len(idx_b), len(seeds.pole_b_items),
    )
    return idx_a, idx_b


def _lexicon(
    seeds: SeedLexicon,
    nodes: list[str],
    labels: list[float | None],
    poles: tuple[list[int], list[int]],
) -> PolarityLexicon:
    """The lexicon of one label per node (None: unlabeled), with the seeds at
    the node indices in poles labeled with their pole's value."""
    status = [STATUS_UNLABELED if v is None else STATUS_PROPAGATED for v in labels]
    for seed_idx, value in zip(poles, (seeds.value_a, seeds.value_b)):
        for n in seed_idx:
            labels[n] = value
            status[n] = STATUS_SEED
    return PolarityLexicon(
        dimension_name=seeds.dimension_name,
        scores={node: v for node, v in zip(nodes, labels) if v is not None},
        status=dict(zip(nodes, status)),
        scale=seeds.scale,
    )


def propagate_greedy(
    graph: CooccurrenceGraph,
    seeds: SeedLexicon,
    gamma: int = DEFAULT_GAMMA,
    max_outer: int = DEFAULT_MAX_OUTER,
) -> PolarityLexicon:
    """Spread seed values by repeated sweeps of weighted neighbor averaging.

    A node n with deg(n) neighbors, c of them labeled, is eligible when
    c >= 1 and c + slack >= deg(n); the slack grows as floor(pass_index /
    gamma). A sweep visits only eligible nodes, in ascending lexicographic
    order, and labels each with the edge-weighted average over its labeled
    neighbors. Labels set earlier in the same sweep are visible: a node they
    make eligible joins the sweep if its name sorts after the node just
    labeled and waits for the next sweep otherwise. Labels are never revised,
    and each labeled node's adjacency row is scanned once. Stops when no
    unlabeled node has a labeled neighbor, or after max_outer passes. Passes
    in which no node is eligible are skipped, up to the first pass whose slack
    makes one eligible, and the skip counts as one sweep.
    """
    if gamma < 1:
        raise ConfigError("gamma must be >= 1")
    if max_outer < 1:
        raise ConfigError("max_outer must be >= 1")
    nodes = graph.nodes
    indptr = graph.weights.indptr.tolist()
    # Views over the CSR's own buffers: a slice copies nothing and iterating
    # one yields Python ints and floats, so no per-entry object outlives its
    # row scan (list copies of the two would cost about 76 bytes per entry).
    indices = memoryview(graph.weights.indices)
    data = memoryview(graph.weights.data)
    idx_a, idx_b = poles = _seeds_in_graph(seeds, nodes)
    seed_idx = idx_a + idx_b
    if not seed_idx:
        raise DataError(f"{seeds.dimension_name}: no seeds reachable in the graph")
    lo, hi = seeds.scale
    labels: list[float | None] = [None] * len(nodes)
    for n in idx_a:
        labels[n] = seeds.value_a
    for n in idx_b:
        labels[n] = seeds.value_b

    deg = [stop - start for start, stop in zip(indptr, indptr[1:])]
    # deficit[n] counts n's unlabeled neighbors; a candidate is an unlabeled
    # node with at least one labeled neighbor
    deficit = list(deg)
    for n in seed_idx:
        for nbr in indices[indptr[n] : indptr[n + 1]]:
            deficit[nbr] -= 1
    candidates = {n for n, d in enumerate(deficit) if d < deg[n] and labels[n] is None}

    i = sweeps = slack = 0
    ready: list[int] = []
    ready_slack = -1
    while i < max_outer and candidates:
        sweeps += 1
        slack = i // gamma
        if slack != ready_slack:
            ready = [n for n in candidates if deficit[n] <= slack]
            ready_slack = slack
        if not ready:
            # no candidate is eligible until the slack reaches the smallest
            # deficit, so the passes before that one would label nothing
            i = min(min(map(deficit.__getitem__, candidates)) * gamma, max_outer)
            continue
        # every node popped is eligible; one made eligible by n's label joins
        # this sweep if it sorts after n and waits in ready otherwise
        heap, ready = ready, []
        heapq.heapify(heap)
        while heap:
            n = heapq.heappop(heap)
            start, stop = indptr[n], indptr[n + 1]
            num: list[float] = []
            den: list[float] = []
            for j, w in zip(indices[start:stop], data[start:stop]):
                v = labels[j]
                if v is not None:
                    num.append(v * w)
                    den.append(w)
                    continue
                d = deficit[j] - 1
                deficit[j] = d
                if d == deg[j] - 1:  # j's first labeled neighbor
                    candidates.add(j)
                    if d > slack:
                        continue
                elif d != slack:
                    continue
                if j > n:
                    heapq.heappush(heap, j)
                else:
                    ready.append(j)
            labels[n] = min(hi, max(lo, math.fsum(num) / math.fsum(den)))
            candidates.discard(n)
        i += 1

    lexicon = _lexicon(seeds, nodes, labels, poles)
    log.info(
        "%s: greedy propagation ran %d sweeps, final slack %d: "
        "%d labeled, %d unlabeled, %d seeds",
        seeds.dimension_name, sweeps, slack,
        len(lexicon.scores), len(nodes) - len(lexicon.scores), len(seed_idx),
    )
    return lexicon


def propagate_random_walk(
    graph: CooccurrenceGraph,
    seeds: SeedLexicon,
    restart_prob: float = DEFAULT_RESTART_PROB,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PolarityLexicon:
    """Score nodes by the ratio of two restart-walk visit distributions.

    One degree-normalized random walk restarts uniformly at pole A's in-graph
    seeds, another at pole B's; score = p_a / (p_a + p_b), so pole B anchors
    0 and pole A anchors 1. Walkers stranded on isolated nodes restart.
    Nodes never visited by either walk stay unlabeled. Requires value_a=1 and
    value_b=0, the endpoints the ratio construction yields.
    """
    import numpy as np

    if not 0.0 < restart_prob < 1.0:
        raise ConfigError("restart_prob must be in (0, 1)")
    if tol <= 0.0:
        raise ConfigError("tol must be positive")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    if (seeds.value_a, seeds.value_b) != (1.0, 0.0):
        raise ConfigError(
            f"{seeds.dimension_name}: random-walk propagation requires "
            "value_a=1 and value_b=0"
        )
    nodes = graph.nodes
    poles = _seeds_in_graph(seeds, nodes)
    for pole, seed_idx in zip(("pole_a", "pole_b"), poles):
        if not seed_idx:
            raise DataError(f"{seeds.dimension_name}: {pole} has no seed items in the graph")

    matrix = graph.weights
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    dangling = degree == 0.0
    inv_degree = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, degree))

    visits = []
    for pole, seed_idx in zip(("pole_a", "pole_b"), poles):
        s = np.zeros(len(nodes))
        s[seed_idx] = 1.0 / len(seed_idx)
        p = s.copy()
        for _ in range(max_iter):
            spread = matrix @ (p * inv_degree)
            if dangling.any():
                spread = spread + float(p[dangling].sum()) * s
            p_next = (1.0 - restart_prob) * spread + restart_prob * s
            delta = float(np.max(np.abs(p_next - p)))
            p = p_next
            if delta < tol:
                break
        else:
            log.warning(
                "%s: random walk from %s did not converge in max_iter=%d iterations "
                "(final delta %.3g, tol %.3g)",
                seeds.dimension_name, pole, max_iter, delta, tol,
            )
        visits.append(p.tolist())

    labels: list[float | None] = [
        min(1.0, max(0.0, a / (a + b))) if a + b > 0.0 else None for a, b in zip(*visits)
    ]
    return _lexicon(seeds, nodes, labels, poles)


def write_lexicon(lexicon: PolarityLexicon, path: str | Path) -> PolarityLexicon:
    """Serialize item/score/status rows under a dimension+scale header.

    Returns the lexicon as read_lexicon gives it back: its scale and scores
    are rounded in place to their written 9-decimal text.
    """
    lo, hi = map(fmt9, lexicon.scale)
    lexicon.scale = (float(lo), float(hi))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dimension={lexicon.dimension_name}\tscale={lo},{hi}\n")
        for item in sorted(lexicon.status):
            text = ""
            if item in lexicon.scores:
                text = fmt9(lexicon.scores[item])
                lexicon.scores[item] = float(text)
            fh.write(f"{item}\t{text}\t{lexicon.status[item]}\n")
    return lexicon


def read_lexicon(path: str | Path) -> PolarityLexicon:
    rows = read_rows(path, "\t", 3, header=("dimension", "scale"), key="item")
    _, (dimension, scale) = next(rows)
    check_dimension_name(path, 1, dimension)
    try:
        lo, hi = map(float, scale.split(","))
        if not (abs(lo) <= MAX_MAGNITUDE and abs(hi) <= MAX_MAGNITUDE) or lo >= hi:
            raise ValueError
    except ValueError:
        raise DataError(f"{path}: line 1: bad scale {scale!r}") from None
    scores: dict[str, float] = {}
    status: dict[str, str] = {}
    for lineno, (item, raw_score, st) in rows:
        if st not in (STATUS_SEED, STATUS_PROPAGATED, STATUS_UNLABELED):
            raise DataError(f"{path}: line {lineno}: unknown status {st!r}")
        status[item] = st
        if st == STATUS_UNLABELED:
            if raw_score:
                raise DataError(f"{path}: line {lineno}: unlabeled item has a score")
            continue
        try:
            score = float(raw_score)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad score") from exc
        if not lo <= score <= hi:
            raise DataError(f"{path}: line {lineno}: score {score} outside scale [{lo}, {hi}]")
        scores[item] = score
    return PolarityLexicon(
        dimension_name=dimension, scores=scores, status=status, scale=(lo, hi)
    )


def write_seed_lexicon(seeds: SeedLexicon, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"#dimension={seeds.dimension_name}"
            f"\tvalue_a={fmt9(seeds.value_a)}\tvalue_b={fmt9(seeds.value_b)}\n"
        )
        for item in sorted(seeds.pole_a_items):
            fh.write(f"{item}\tA\n")
        for item in sorted(seeds.pole_b_items):
            fh.write(f"{item}\tB\n")


def read_seed_lexicon(path: str | Path) -> SeedLexicon:
    rows = read_rows(path, "\t", 2, header=("dimension", "value_a", "value_b"))
    _, (dimension, raw_a, raw_b) = next(rows)
    check_dimension_name(path, 1, dimension)
    try:
        value_a, value_b = float(raw_a), float(raw_b)
    except ValueError as exc:
        raise DataError(f"{path}: line 1: bad endpoint value") from exc
    if not (abs(value_a) <= MAX_MAGNITUDE and abs(value_b) <= MAX_MAGNITUDE):
        raise DataError(f"{path}: line 1: non-finite endpoint value, or one of "
                        f"magnitude over {MAX_MAGNITUDE:g}")
    pole_a: set[str] = set()
    pole_b: set[str] = set()
    for lineno, (item, pole) in rows:
        if pole not in ("A", "B"):
            raise DataError(f"{path}: line {lineno}: pole must be A or B, got {pole!r}")
        (pole_a if pole == "A" else pole_b).add(item)
    try:
        return SeedLexicon(
            dimension_name=dimension,
            pole_a_items=pole_a,
            pole_b_items=pole_b,
            value_a=value_a,
            value_b=value_b,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
