import logging
import random
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlex.errors import ConfigError, DataError
from polarlex.lexgraph import CooccurrenceGraph
from polarlex.proplabel import (
    STATUS_PROPAGATED,
    STATUS_SEED,
    STATUS_UNLABELED,
    PolarityLexicon,
    SeedLexicon,
    propagate_greedy,
    propagate_random_walk,
    read_lexicon,
    read_seed_lexicon,
    write_lexicon,
    write_seed_lexicon,
)

from graphs import adjacency, edge_dict, graph_of
from oracles import dense_restart_walk, reference_propagate, sweep_all_greedy


@st.composite
def random_graph_with_seeds(draw, max_nodes=12):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    nodes = [f"n{i:02d}" for i in range(n)]
    pairs = list(combinations(nodes, 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    weights = {
        pair: draw(st.integers(min_value=1, max_value=5)) for pair in sorted(chosen)
    }
    n_a = draw(st.integers(min_value=1, max_value=2))
    n_b = draw(st.integers(min_value=1, max_value=2))
    seeds = SeedLexicon(
        dimension_name="dim",
        pole_a_items=set(nodes[:n_a]),
        pole_b_items=set(nodes[n_a : n_a + n_b]),
        value_a=1.0,
        value_b=-1.0,
    )
    gamma = draw(st.sampled_from([1, 2, 3, 100]))
    return graph_of(weights, extra_nodes=nodes), seeds, gamma


@st.composite
def weighted_graph_with_seeds(draw, max_nodes=30):
    """Graphs with integer or float weights, seeds anywhere, some isolated nodes."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    nodes = [f"n{i:02d}" for i in range(n)]
    pairs = list(combinations(nodes, 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=min(len(pairs), 4 * n)))
    if draw(st.booleans()):
        weight = st.integers(min_value=1, max_value=9).map(float)
    else:
        weight = st.floats(min_value=1e-3, max_value=1e3)
    weights = {pair: draw(weight) for pair in sorted(chosen)}
    order = draw(st.permutations(nodes))
    n_a = draw(st.integers(min_value=1, max_value=3))
    n_b = draw(st.integers(min_value=0, max_value=3))
    value_a = draw(st.floats(min_value=-10.0, max_value=10.0))
    value_b = draw(st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: v != value_a))
    seeds = SeedLexicon(
        dimension_name="dim",
        pole_a_items=set(order[:n_a]),
        pole_b_items=set(order[n_a : n_a + n_b]) | {"zz_absent"},
        value_a=value_a,
        value_b=value_b,
    )
    return graph_of(weights, extra_nodes=nodes), seeds


def assert_matches_sweep_all(graph, seeds, gamma, max_outer):
    lexicon = propagate_greedy(graph, seeds, gamma=gamma, max_outer=max_outer)
    seed_values = {item: seeds.value_a for item in sorted(seeds.pole_a_items)}
    seed_values.update({item: seeds.value_b for item in sorted(seeds.pole_b_items)})
    w = graph.weights
    scores, status = sweep_all_greedy(
        graph.nodes, w.indptr.tolist(), w.indices.tolist(), w.data.tolist(),
        seed_values, (seeds.value_a, seeds.value_b), gamma, max_outer,
    )
    assert lexicon.status == status
    assert {k: v.hex() for k, v in lexicon.scores.items()} == {
        k: v.hex() for k, v in scores.items()
    }
    return lexicon


def reachable_from(adj, starts):
    seen = set(starts)
    stack = list(starts)
    while stack:
        node = stack.pop()
        for nbr in adj[node]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return seen


class TestPropagateGreedy:
    def test_single_labeled_neighbor_copies_value(self):
        graph = graph_of({("s", "x"): 1})
        seeds = SeedLexicon("dim", {"s"}, {"zz"}, 1.0, -1.0)
        lexicon = propagate_greedy(graph, seeds, gamma=1)
        assert lexicon.scores["x"] == 1.0
        assert lexicon.status["x"] == STATUS_PROPAGATED

    def test_star_weighted_average(self):
        graph = graph_of({("sp", "x"): 2, ("sm", "x"): 1})
        seeds = SeedLexicon("dim", {"sp"}, {"sm"}, 1.0, -1.0)
        lexicon = propagate_greedy(graph, seeds, gamma=1)
        assert lexicon.scores["x"] == pytest.approx((1 * 2 + (-1) * 1) / 3)

    def test_isolated_component_stays_unlabeled(self):
        graph = graph_of({("s", "x"): 1, ("i1", "i2"): 1})
        seeds = SeedLexicon("dim", {"s"}, {"zz"}, 1.0, -1.0)
        lexicon = propagate_greedy(graph, seeds, gamma=1)
        assert lexicon.status["i1"] == STATUS_UNLABELED
        assert lexicon.status["i2"] == STATUS_UNLABELED
        assert "i1" not in lexicon.scores

    def test_no_seed_in_graph_raises(self):
        graph = graph_of({("a", "b"): 1})
        seeds = SeedLexicon("dim", {"s1"}, {"s2"}, 1.0, -1.0)
        with pytest.raises(DataError, match="no seeds reachable"):
            propagate_greedy(graph, seeds)

    def test_gamma_validation(self):
        graph = graph_of({("a", "b"): 1})
        seeds = SeedLexicon("dim", {"a"}, {"zz"}, 1.0, -1.0)
        with pytest.raises(ConfigError):
            propagate_greedy(graph, seeds, gamma=0)

    def test_gamma_delays_partial_neighborhoods(self):
        # x touches one seed and one never-labelable node, so it needs slack 1
        graph = graph_of({("s", "x"): 1, ("x", "y"): 1, ("y", "z"): 1})
        seeds = SeedLexicon("dim", {"s"}, {"zz"}, 1.0, -1.0)
        lexicon = propagate_greedy(graph, seeds, gamma=5, max_outer=4)
        assert "x" not in lexicon.scores  # slack still 0 after 4 passes
        lexicon = propagate_greedy(graph, seeds, gamma=5, max_outer=50)
        assert lexicon.scores["x"] == 1.0

    def test_seed_values_never_revised(self):
        graph = graph_of({("sp", "sm"): 3, ("sp", "x"): 1})
        seeds = SeedLexicon("dim", {"sp"}, {"sm"}, 1.0, -1.0)
        lexicon = propagate_greedy(graph, seeds, gamma=1)
        assert lexicon.scores["sp"] == 1.0
        assert lexicon.scores["sm"] == -1.0

    @given(random_graph_with_seeds())
    def test_matches_pass_by_pass_reference(self, case):
        graph, seeds, gamma = case
        max_outer = 10_000
        lexicon = propagate_greedy(graph, seeds, gamma=gamma, max_outer=max_outer)
        seed_values = {}
        for item in sorted(seeds.pole_a_items):
            seed_values[item] = seeds.value_a
        for item in sorted(seeds.pole_b_items):
            seed_values[item] = seeds.value_b
        expected = reference_propagate(
            graph.nodes, edge_dict(graph), seed_values,
            (seeds.value_a, seeds.value_b), gamma, max_outer,
        )
        assert lexicon.scores == expected

    @given(
        weighted_graph_with_seeds(),
        st.sampled_from([1, 2, 3, 100]),
        st.sampled_from([1, 2, 3, 7, 50, 10_000]),
    )
    @settings(max_examples=300)
    def test_matches_sweep_all_oracle(self, case, gamma, max_outer):
        graph, seeds = case
        assert_matches_sweep_all(graph, seeds, gamma, max_outer)

    @pytest.mark.parametrize("gamma", [1, 3, 100])
    def test_matches_sweep_all_oracle_on_large_random_graph(self, gamma):
        rng = random.Random(20201)
        nodes = [f"w{rng.randrange(16**6):06x}" for _ in range(2000)]
        edges = {}
        for _ in range(8000):
            # the cube skews b toward low indices, so a few nodes become hubs
            a, b = rng.randrange(2000), int(2000 * rng.random() ** 3)
            if nodes[a] != nodes[b]:
                key = tuple(sorted((nodes[a], nodes[b])))
                edges[key] = edges.get(key, 0.0) + rng.choice([1.0, 2.0, 0.5, 3.25])
        seeds = SeedLexicon("dim", set(nodes[:5]), set(nodes[5:10]), 1.0, -1.0)
        graph = graph_of(edges, extra_nodes=nodes)
        lexicon = assert_matches_sweep_all(graph, seeds, gamma, 1_000_000)
        assert len(lexicon.scores) > 1000

    @pytest.fixture(scope="class")
    def dense_graph(self):
        """2000 nodes and over 200k stored entries, about 100 per row."""
        rng = random.Random(18)
        nodes = [f"d{i:04d}" for i in range(2000)]
        edges = {}
        while len(edges) < 101_000:
            a, b = rng.sample(nodes, 2)
            edges[(min(a, b), max(a, b))] = rng.choice([1.0, 2.0, 0.5, 3.25])
        seeds = SeedLexicon("dim", set(nodes[:20]), set(nodes[20:40]), 1.0, -1.0)
        return graph_of(edges), seeds

    def test_copies_no_whole_matrix(self, dense_graph):
        # .tolist() copies of indices and data cost about 76 bytes per stored
        # entry; the node-sized lists and the lexicon stay well under 16
        graph, seeds = dense_graph
        tracemalloc.start()
        try:
            lexicon = propagate_greedy(graph, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lexicon.scores) == graph.num_nodes
        assert peak < 16 * graph.weights.nnz

    def test_int64_index_arrays_give_the_same_lexicon(self, dense_graph):
        graph, seeds = dense_graph
        w = graph.weights
        wide = w.copy()
        wide.indices, wide.indptr = w.indices.astype(np.int64), w.indptr.astype(np.int64)
        assert (memoryview(w.indices).format, memoryview(wide.indices).format) == ("i", "l")
        wide_graph = CooccurrenceGraph(graph.mode, graph.nodes, graph.frequency, wide)
        expected = propagate_greedy(graph, seeds)
        lexicon = propagate_greedy(wide_graph, seeds)
        assert lexicon.status == expected.status
        assert {k: v.hex() for k, v in lexicon.scores.items()} == {
            k: v.hex() for k, v in expected.scores.items()
        }

    def test_node_made_eligible_by_smaller_name_joins_the_sweep(self):
        # gamma=2: pass 0 (slack 0) labels nothing, so the next sweep is pass 2
        # (slack 1). There a (deficit 1) is labeled 1.0; that drops b's deficit
        # from 2 to 1, and b > a, so b is labeled in the same sweep from a's
        # new label: (1.0 * 3 + -1.0 * 1) / 4 = 0.5. Then u, whose only
        # neighbor is b, gets its first labeled neighbor; u > b, so it joins too.
        graph = graph_of({("a", "s"): 1, ("a", "b"): 3, ("b", "t"): 1, ("b", "u"): 1})
        seeds = SeedLexicon("dim", {"s"}, {"t"}, 1.0, -1.0)
        assert propagate_greedy(graph, seeds, gamma=2, max_outer=2).scores == {
            "s": 1.0, "t": -1.0,
        }
        lexicon = propagate_greedy(graph, seeds, gamma=2, max_outer=3)
        assert lexicon.scores == {"s": 1.0, "t": -1.0, "a": 1.0, "b": 0.5, "u": 0.5}

    def test_node_made_eligible_by_larger_name_waits_for_next_sweep(self):
        # The same graph with a -> z, b -> y, u -> c. In pass 2 (slack 1) z is
        # labeled; y becomes eligible but y < z, so it waits for pass 3 (still
        # slack 1) and gets 0.5 there. Labeling y gives c its first labeled
        # neighbor, and c < y, so c waits for pass 4 (slack 2).
        graph = graph_of({("s", "z"): 1, ("y", "z"): 3, ("t", "y"): 1, ("c", "y"): 1})
        seeds = SeedLexicon("dim", {"s"}, {"t"}, 1.0, -1.0)
        lexicon = propagate_greedy(graph, seeds, gamma=2, max_outer=3)
        assert lexicon.scores == {"s": 1.0, "t": -1.0, "z": 1.0}
        assert lexicon.status["y"] == STATUS_UNLABELED
        lexicon = propagate_greedy(graph, seeds, gamma=2, max_outer=4)
        assert lexicon.scores == {"s": 1.0, "t": -1.0, "z": 1.0, "y": 0.5}
        lexicon = propagate_greedy(graph, seeds, gamma=2, max_outer=5)
        assert lexicon.scores == {"s": 1.0, "t": -1.0, "z": 1.0, "y": 0.5, "c": 0.5}

    def test_logs_sweeps_slack_and_counts(self, caplog):
        # pass 0 (slack 0) labels nothing, so the next sweep is pass 5
        # (slack 1), which labels x and y; i1 and i2 are unreachable
        graph = graph_of({("s", "x"): 1, ("x", "y"): 1, ("y", "q"): 1, ("i1", "i2"): 1})
        seeds = SeedLexicon("dim", {"s"}, {"q"}, 1.0, -1.0)
        with caplog.at_level(logging.INFO, logger="polarlex.proplabel"):
            propagate_greedy(graph, seeds, gamma=5)
        assert [r.getMessage() for r in caplog.records] == [
            "dim: 1 of 1 pole A seeds and 1 of 1 pole B seeds are in the graph",
            "dim: greedy propagation ran 2 sweeps, final slack 1: "
            "4 labeled, 2 unlabeled, 2 seeds",
        ]

    @given(random_graph_with_seeds())
    def test_seed_preservation_range_reachability(self, case):
        graph, seeds, gamma = case
        lexicon = propagate_greedy(graph, seeds, gamma=gamma)
        for item in seeds.pole_a_items:
            assert lexicon.scores[item] == seeds.value_a
            assert lexicon.status[item] == STATUS_SEED
        lo, hi = lexicon.scale
        assert all(lo <= v <= hi for v in lexicon.scores.values())
        adj = adjacency(graph)
        reachable = reachable_from(adj, [n for n in lexicon.scores if lexicon.status[n] == STATUS_SEED])
        assert set(lexicon.scores) <= reachable

    @given(
        random_graph_with_seeds(),
        st.one_of(
            st.floats(min_value=0.25, max_value=4.0),
            st.floats(min_value=-4.0, max_value=-0.25),
        ),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_affine_equivariance(self, case, alpha, beta):
        graph, seeds, gamma = case
        base = propagate_greedy(graph, seeds, gamma=gamma)
        mapped_seeds = SeedLexicon(
            seeds.dimension_name,
            seeds.pole_a_items,
            seeds.pole_b_items,
            alpha * seeds.value_a + beta,
            alpha * seeds.value_b + beta,
        )
        mapped = propagate_greedy(graph, mapped_seeds, gamma=gamma)
        assert set(mapped.scores) == set(base.scores)
        for item, value in base.scores.items():
            assert mapped.scores[item] == pytest.approx(alpha * value + beta, abs=1e-9)

    def test_deterministic_output_files(self, tmp_path):
        graph = graph_of(
            {("s", "x"): 1, ("x", "y"): 2, ("y", "t"): 1, ("s", "y"): 3, ("x", "t"): 2}
        )
        seeds = SeedLexicon("dim", {"s"}, {"t"}, 1.0, -1.0)
        paths = []
        for name in ("a.tsv", "b.tsv"):
            lexicon = propagate_greedy(graph, seeds, gamma=2)
            path = tmp_path / name
            write_lexicon(lexicon, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


@pytest.mark.parametrize("propagate", [propagate_greedy, propagate_random_walk])
def test_logs_seeds_in_graph(caplog, propagate):
    graph = graph_of({("a", "x"): 1, ("x", "b"): 1, ("b", "c"): 1})
    seeds = SeedLexicon("dim", {"a", "absent"}, {"b", "c"}, 1.0, 0.0)
    with caplog.at_level(logging.INFO, logger="polarlex.proplabel"):
        propagate(graph, seeds)
    assert caplog.records[0].getMessage() == (
        "dim: 1 of 2 pole A seeds and 2 of 2 pole B seeds are in the graph"
    )


# Each propagation parameter at the first value its propagator rejects, and
# the message.
BAD_PARAMETERS = [
    (propagate_greedy, "max_outer", 0, "max_outer must be >= 1"),
    (propagate_random_walk, "restart_prob", 0.0, "restart_prob must be in (0, 1)"),
    (propagate_random_walk, "restart_prob", 1.0, "restart_prob must be in (0, 1)"),
    (propagate_random_walk, "tol", 0.0, "tol must be positive"),
    (propagate_random_walk, "max_iter", 0, "max_iter must be >= 1"),
]


@pytest.mark.parametrize("propagate, name, value, message", BAD_PARAMETERS,
                         ids=[f"{name}={value}" for _, name, value, _ in BAD_PARAMETERS])
def test_bad_parameter_rejected(propagate, name, value, message):
    graph = graph_of({("a", "b"): 1})
    seeds = SeedLexicon("dim", {"a"}, {"b"}, 1.0, 0.0)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        propagate(graph, seeds, **{name: value})


class TestPropagateRandomWalk:
    def test_mirror_symmetry_scores_sum_to_one(self):
        graph = graph_of({("a", "x"): 1, ("x", "y"): 1, ("y", "b"): 1})
        seeds = SeedLexicon("dim", {"a"}, {"b"}, 1.0, 0.0)
        lexicon = propagate_random_walk(graph, seeds, tol=1e-12, max_iter=100_000)
        assert lexicon.scores["x"] + lexicon.scores["y"] == pytest.approx(1.0, abs=1e-9)
        assert lexicon.scores["a"] == 1.0
        assert lexicon.scores["b"] == 0.0

    def test_restart_mass_concentrates_near_pole(self):
        graph = graph_of({("a", "x"): 1, ("x", "y"): 1, ("y", "b"): 1})
        seeds = SeedLexicon("dim", {"a"}, {"b"}, 1.0, 0.0)
        lexicon = propagate_random_walk(graph, seeds, tol=1e-12, max_iter=100_000)
        assert lexicon.scores["x"] > 0.5 > lexicon.scores["y"]
        midpoint = propagate_random_walk(
            graph_of({("a", "m"): 1, ("m", "b"): 1}), seeds
        )
        assert midpoint.scores["m"] == pytest.approx(0.5, abs=1e-6)

    def test_unreachable_nodes_unlabeled(self):
        graph = graph_of({("a", "b"): 1, ("i1", "i2"): 1})
        seeds = SeedLexicon("dim", {"a"}, {"b"}, 1.0, 0.0)
        lexicon = propagate_random_walk(graph, seeds)
        assert lexicon.status["i1"] == STATUS_UNLABELED
        assert "i2" not in lexicon.scores

    def test_non_convergence_warns(self, caplog):
        graph = graph_of({("a", "x"): 1, ("x", "y"): 1, ("y", "b"): 1})
        seeds = SeedLexicon("dim", {"a"}, {"b"}, 1.0, 0.0)
        with caplog.at_level(logging.WARNING, logger="polarlex.proplabel"):
            propagate_random_walk(graph, seeds, tol=1e-12, max_iter=1)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        for pole, message in zip(("pole_a", "pole_b"), messages):
            assert message.startswith(f"dim: random walk from {pole} did not converge")
            assert "max_iter=1 " in message and "final delta" in message
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="polarlex.proplabel"):
            propagate_random_walk(graph, seeds, tol=1e-12, max_iter=100_000)
        assert caplog.records == []

    def test_missing_pole_names_pole(self):
        graph = graph_of({("a", "x"): 1})
        seeds = SeedLexicon("dim", {"a"}, {"bb"}, 1.0, 0.0)
        with pytest.raises(DataError, match="pole_b"):
            propagate_random_walk(graph, seeds)

    def test_requires_unit_interval_seed_values(self):
        graph = graph_of({("a", "b"): 1})
        seeds = SeedLexicon("dim", {"a"}, {"b"}, 1.0, -1.0)
        with pytest.raises(ConfigError, match="value_a=1"):
            propagate_random_walk(graph, seeds)

    @given(random_graph_with_seeds(max_nodes=10), st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=30)
    def test_matches_dense_power_iteration(self, case, restart_prob):
        graph, base_seeds, _ = case
        seeds = SeedLexicon(
            base_seeds.dimension_name,
            base_seeds.pole_a_items,
            base_seeds.pole_b_items,
            1.0,
            0.0,
        )
        lexicon = propagate_random_walk(
            graph, seeds, restart_prob=restart_prob, tol=1e-12, max_iter=100_000
        )
        p_a = dense_restart_walk(
            graph.nodes, edge_dict(graph), sorted(seeds.pole_a_items),
            restart_prob, 1e-12, 100_000,
        )
        p_b = dense_restart_walk(
            graph.nodes, edge_dict(graph), sorted(seeds.pole_b_items),
            restart_prob, 1e-12, 100_000,
        )
        for node in graph.nodes:
            total = p_a[node] + p_b[node]
            if lexicon.status[node] == STATUS_PROPAGATED:
                assert lexicon.scores[node] == pytest.approx(
                    p_a[node] / total, abs=1e-8
                )
            elif lexicon.status[node] == STATUS_UNLABELED:
                assert total == 0.0


class TestLexiconFiles:
    def make_lexicon(self, n=3):
        scores = {f"item{i:03d}": round(-1 + 2 * i / max(n - 1, 1), 9) for i in range(n)}
        status = {item: STATUS_PROPAGATED for item in scores}
        status["item000"] = STATUS_SEED
        status["zz_unlabeled"] = STATUS_UNLABELED
        return PolarityLexicon("dim", scores, status, (-1.0, 1.0))

    def test_write_shape(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(self.make_lexicon(3), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#dimension=dim")
        assert len(lines) == 1 + 4  # 3 scored + 1 unlabeled

    def test_round_trip_thousand_items(self, tmp_path):
        lexicon = self.make_lexicon(1000)
        path = tmp_path / "lex.tsv"
        write_lexicon(lexicon, path)
        assert read_lexicon(path) == lexicon

    # values whose 9th decimal rounds, one that rounds to -0.0, and None for unlabeled
    @pytest.mark.parametrize("scale", [(-1.0, 1.0), (-0.5000000004, 2 / 3)])
    @pytest.mark.parametrize(
        "values",
        [[0.1234567895, 1 / 3, -1e-12, None], [-0.4999999996, 0.6666666663, None, None], []],
    )
    def test_returns_lexicon_as_read_back(self, tmp_path, scale, values):
        scores = {f"item{i}": v for i, v in enumerate(values) if v is not None}
        status = {
            f"item{i}": STATUS_UNLABELED if v is None else STATUS_PROPAGATED
            for i, v in enumerate(values)
        }
        lexicon = PolarityLexicon("dim", scores, status, scale)
        path = tmp_path / "lex.tsv"
        got = write_lexicon(lexicon, path)
        assert got is lexicon
        assert got == read_lexicon(path)

    def test_out_of_scale_score_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "#dimension=dim\tscale=-1.000000000,1.000000000\n"
            "item\t1.500000000\tpropagated\n"
        )
        with pytest.raises(DataError, match="line 2"):
            read_lexicon(path)

    def test_unlabeled_with_score_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "#dimension=dim\tscale=-1.000000000,1.000000000\n"
            "item\t0.500000000\tunlabeled\n"
        )
        with pytest.raises(DataError, match="line 2"):
            read_lexicon(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("item\t0.5\tseed\n")
        with pytest.raises(DataError, match="header"):
            read_lexicon(path)

    def test_degenerate_scale_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("#dimension=dim\tscale=1.000000000,1.000000000\n")
        with pytest.raises(DataError, match="scale"):
            read_lexicon(path)


class TestSeedFiles:
    def test_round_trip(self, tmp_path):
        seeds = SeedLexicon("dim", {"x", "y"}, {"z"}, 1.0, -1.0)
        path = tmp_path / "seeds.tsv"
        write_seed_lexicon(seeds, path)
        assert read_seed_lexicon(path) == seeds

    def test_bad_pole_rejected(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text(
            "#dimension=dim\tvalue_a=1.000000000\tvalue_b=-1.000000000\nx\tC\n"
        )
        with pytest.raises(DataError, match="line 2"):
            read_seed_lexicon(path)

    def test_non_finite_endpoint_rejected(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("#dimension=dim\tvalue_a=nan\tvalue_b=0.000000000\nx\tA\n")
        with pytest.raises(DataError, match="non-finite"):
            read_seed_lexicon(path)

    def test_empty_pole_rejected(self):
        with pytest.raises(DataError, match="^dim: both pole seed sets must be non-empty$"):
            SeedLexicon("dim", set(), {"y"}, 1.0, -1.0)

    def test_overlapping_poles_rejected(self):
        with pytest.raises(DataError, match="both poles"):
            SeedLexicon("dim", {"x"}, {"x"}, 1.0, -1.0)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(DataError, match="differ"):
            SeedLexicon("dim", {"x"}, {"y"}, 1.0, 1.0)
