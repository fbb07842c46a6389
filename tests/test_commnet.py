import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarlex.commnet import (
    CommGraph,
    build_comm_graph,
    export_graph,
    homophily_index,
    k_core,
)
from polarlex.corpus import TweetRecord, parse_timestamp
from polarlex.errors import DataError
from polarlex.ioutil import write_csv
from polarlex.polarity import NEUTRAL, POLE_A, POLE_B, UNCLASSIFIED, PolarityScore

from graphs import read_edge_csv, read_graphml
from oracles import event_scan_edges, naive_k_core, reference_graphml

SCALE = (-1.0, 1.0)
# A score on SCALE for each label; unclassified users have none.
SCORE_OF = {POLE_A: 0.5, POLE_B: -0.5, NEUTRAL: 0.0}
# XML metacharacters, the whitespace ElementTree escapes as character
# references, and characters outside ASCII.
XML_TEXT = st.text(alphabet=st.sampled_from("ab&<>\"'\t\n\r é€\x01"), min_size=1, max_size=6)


def record(tweet_id, user, retweet_of=None, mentions=(), reply_to=None):
    return TweetRecord(
        tweet_id=tweet_id,
        user_id=user,
        timestamp=parse_timestamp("2020-01-01T10:00:00Z"),
        text="",
        is_retweet=retweet_of is not None,
        retweet_of_user=retweet_of,
        mentions=tuple(mentions),
        reply_to_user=reply_to,
    )


def plain_graph(nodes, pairs, labels=None):
    graph = CommGraph(nodes=set(nodes))
    for a, b in pairs:
        a, b = sorted((a, b))
        graph.edges[(a, b)] = [1, 0]
    if labels is not None:
        graph.polarity["dim"] = {n: SCORE_OF[v] for n, v in labels.items() if v in SCORE_OF}
        graph.scales["dim"] = SCALE
    return graph


def labels_of(graph):
    return {dim: {n: graph.label(dim, n) for n in graph.nodes} for dim in graph.dimensions()}


@st.composite
def comm_graphs(draw):
    """Users and 0-2 dimension names from XML_TEXT; some users have no score."""
    users = draw(st.lists(XML_TEXT, max_size=8, unique=True))
    pairs = list(itertools.combinations(sorted(users), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    counts = st.lists(st.integers(0, 50), min_size=2, max_size=2)
    graph = CommGraph(nodes=set(users), edges={pair: draw(counts) for pair in chosen})
    polarity = st.none() | st.floats(-1.0, 1.0)
    scale = st.sampled_from([SCALE, (0.0, 1.0)]) | st.tuples(*[st.floats(-1.0, 1.0)] * 2)
    for dim in draw(st.lists(XML_TEXT, max_size=2, unique=True)):
        values = {u: draw(polarity) for u in users}
        graph.polarity[dim] = {u: v for u, v in values.items() if v is not None}
        graph.scales[dim] = draw(scale)
    return graph


class TestBuildCommGraph:
    def test_single_retweet(self):
        records = [record("t1", "a", retweet_of="b")]
        graph = build_comm_graph(records, {}, {})
        assert sum(graph.edges[("a", "b")]) == 1

    def test_mention_plus_reply_two_tweets(self):
        records = [
            record("t1", "a", mentions=["b"]),
            record("t2", "a", reply_to="b"),
        ]
        graph = build_comm_graph(records, {}, {})
        assert sum(graph.edges[("a", "b")]) == 2

    def test_self_interactions_dropped(self):
        records = [record("t1", "a", retweet_of="a", mentions=["a"], reply_to="a")]
        graph = build_comm_graph(records, {}, {})
        assert graph.edges == {}
        assert graph.nodes == {"a"}

    def test_directed_counts_tracked(self):
        records = [record("t1", "b", mentions=["a"]), record("t2", "a", mentions=["b"])]
        graph = build_comm_graph(records, {}, {})
        assert graph.edges[("a", "b")] == [1, 1]

    def test_attributes_attached_and_unclassified_kept(self):
        records = [record("t1", "a", mentions=["b"])]
        scores = {"dim": {"a": PolarityScore(0.5, 2)}}
        graph = build_comm_graph(records, scores, {"dim": SCALE})
        assert graph.polarity["dim"] == {"a": 0.5}
        assert graph.label("dim", "a") == POLE_A
        assert graph.label("dim", "b") == UNCLASSIFIED

    def test_mentions_can_be_dropped(self):
        records = [record("t1", "a", mentions=["b"], reply_to="c")]
        graph = build_comm_graph(records, {}, {}, include_mentions=False)
        assert set(graph.edges) == {("a", "c")}

    def test_ten_tweet_corpus_matches_event_scan(self):
        records = [
            record("t0", "a", retweet_of="b"),
            record("t1", "b", mentions=["a", "c"]),
            record("t2", "c", reply_to="a"),
            record("t3", "c", mentions=["c"]),
            record("t4", "d", retweet_of="a", mentions=["b"], reply_to="c"),
            record("t5", "a", mentions=["d", "d"]),
            record("t6", "e", retweet_of="b"),
            record("t7", "e"),
            record("t8", "b", reply_to="e"),
            record("t9", "a", retweet_of="e"),
        ]
        graph = build_comm_graph(records, {}, {})
        expected = event_scan_edges(records)
        assert {pair: sum(counts) for pair, counts in graph.edges.items()} == dict(expected)


class TestKCore:
    def test_triangle_survives_two_core(self):
        graph = plain_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert k_core(graph, 2).nodes == {"a", "b", "c"}

    def test_star_collapses_at_two(self):
        graph = plain_graph("cabdef", [("c", leaf) for leaf in "abdef"])
        core = k_core(graph, 2)
        assert core.nodes == set()
        assert core.edges == {}

    def test_one_core_removes_exactly_isolated(self):
        graph = plain_graph(["a", "b", "solo"], [("a", "b")])
        core = k_core(graph, 1)
        assert core.nodes == {"a", "b"}

    def test_attributes_preserved(self):
        graph = plain_graph("ab", [("a", "b")], labels={"a": POLE_A, "b": POLE_B})
        core = k_core(graph, 1)
        assert labels_of(core) == {"dim": {"a": POLE_A, "b": POLE_B}}
        assert core.polarity is graph.polarity and core.scales is graph.scales

    def test_weighted_degree_variant(self):
        graph = CommGraph(nodes={"a", "b", "c"})
        graph.edges[("a", "b")] = [5, 0]
        graph.edges[("b", "c")] = [1, 0]
        weighted = k_core(graph, 2, weighted=True)
        assert weighted.nodes == {"a", "b"}
        assert k_core(graph, 2).nodes == set()

    @given(
        st.integers(min_value=0, max_value=60),
        st.data(),
    )
    def test_random_graphs_match_naive_peeling(self, n, data):
        nodes = [f"v{i:02d}" for i in range(n)]
        pairs = list(itertools.combinations(nodes, 2))
        chosen = data.draw(
            st.sets(st.sampled_from(pairs), max_size=min(len(pairs), 150))
        ) if pairs else set()
        graph = plain_graph(nodes, chosen)
        previous = set(graph.nodes)
        for k in (1, 2, 3, 5):
            core = k_core(graph, k)
            assert core.nodes == naive_k_core(set(nodes), set(graph.edges), k)
            assert core.nodes <= previous
            # idempotent
            assert k_core(core, k).nodes == core.nodes
            previous = core.nodes


class TestHomophily:
    def test_all_same_label(self):
        graph = plain_graph(
            "abc", [("a", "b"), ("b", "c")], labels={"a": POLE_A, "b": POLE_A, "c": POLE_A}
        )
        assert homophily_index(graph, "dim") == 1.0

    def test_alternating_bipartition(self):
        graph = plain_graph(
            "abcd",
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
            labels={"a": POLE_A, "b": POLE_B, "c": POLE_A, "d": POLE_B},
        )
        assert homophily_index(graph, "dim") == -1.0

    def test_three_same_one_cross(self):
        graph = plain_graph(
            "abcde",
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
            labels={"a": POLE_A, "b": POLE_A, "c": POLE_A, "d": POLE_A, "e": POLE_B},
        )
        assert homophily_index(graph, "dim") == pytest.approx(0.5)

    def test_unclassified_edges_excluded(self):
        graph = plain_graph(
            "abc",
            [("a", "b"), ("b", "c")],
            labels={"a": POLE_A, "b": POLE_A, "c": UNCLASSIFIED},
        )
        assert homophily_index(graph, "dim") == 1.0

    def test_no_classified_edges_raises(self):
        graph = plain_graph("ab", [("a", "b")], labels={"a": UNCLASSIFIED, "b": POLE_A})
        with pytest.raises(DataError, match="no classified edges"):
            homophily_index(graph, "dim")

    def test_unknown_dimension_rejected(self):
        from polarlex.errors import ConfigError

        graph = plain_graph("ab", [("a", "b")], labels={"a": POLE_A, "b": POLE_A})
        with pytest.raises(ConfigError, match="^graph has no dimension 'other'$"):
            homophily_index(graph, "other")

    def test_invariant_under_pole_swap(self):
        labels = {"a": POLE_A, "b": POLE_B, "c": POLE_A, "d": POLE_B, "e": POLE_A}
        pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "e"), ("d", "e")]
        graph = plain_graph("abcde", pairs, labels=labels)
        flip = {POLE_A: POLE_B, POLE_B: POLE_A}
        swapped = plain_graph(
            "abcde", pairs, labels={n: flip[v] for n, v in labels.items()}
        )
        assert homophily_index(graph, "dim") == homophily_index(swapped, "dim")


class TestExport:
    def full_graph(self, n=10):
        nodes = [f"user{i:02d}" for i in range(n)]
        graph = CommGraph(nodes=set(nodes))
        for i in range(n):
            for j in range(i + 1, min(i + 3, n)):
                graph.edges[(nodes[i], nodes[j])] = [i, j]
        graph.polarity["dim"] = {node: (i - n / 2) / n for i, node in enumerate(nodes) if i % 3}
        graph.scales["dim"] = SCALE
        return graph

    def test_graphml_round_trip_small(self, tmp_path):
        graph = plain_graph("ab", [("a", "b")], labels={"a": POLE_A, "b": POLE_B})
        path = tmp_path / "g.graphml"
        export_graph(graph, path, "graphml")
        back, labels = read_graphml(path)
        assert back.nodes == graph.nodes
        assert back.edges == graph.edges
        assert labels == labels_of(graph)

    def test_graphml_round_trip_hundred_nodes(self, tmp_path):
        graph = self.full_graph(100)
        path = tmp_path / "g.graphml"
        export_graph(graph, path, "graphml")
        back, labels = read_graphml(path)
        assert back.nodes == graph.nodes
        assert back.edges == graph.edges
        assert labels == labels_of(graph)
        assert back.polarity["dim"].keys() == graph.polarity["dim"].keys()
        for node, value in graph.polarity["dim"].items():
            assert back.polarity["dim"][node] == pytest.approx(value, abs=1e-9)

    def test_empty_graph_valid_document(self, tmp_path):
        path = tmp_path / "empty.graphml"
        export_graph(CommGraph(), path, "graphml")
        back, _ = read_graphml(path)
        assert back.nodes == set() and back.edges == {}

    def test_edge_csv_round_trip(self, tmp_path):
        graph = self.full_graph(20)
        path = tmp_path / "edges.csv"
        export_graph(graph, path, "edge_csv")
        back = read_edge_csv(path)
        assert back.edges == graph.edges

    def test_names_that_need_escaping_on_both_writers(self, tmp_path):
        names = ["a&b", 'q"t', "c,d", "r\re", "plain"]
        graph = plain_graph(names, itertools.combinations(names, 2),
                            labels={"a&b": POLE_A, "c,d": POLE_B})
        graph.edges[("a&b", "c,d")] = [2, 3]
        export_graph(graph, tmp_path / "g.graphml", "graphml")
        assert (tmp_path / "g.graphml").read_bytes() == reference_graphml(graph)
        export_graph(graph, tmp_path / "edges.csv", "edge_csv")
        write_csv(tmp_path / "expected.csv",
                  ["user_a", "user_b", "count", "count_a_to_b", "count_b_to_a"],
                  ([a, b, ab + ba, ab, ba] for (a, b), (ab, ba) in sorted(graph.edges.items())))
        assert (tmp_path / "edges.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert read_edge_csv(tmp_path / "edges.csv").edges == graph.edges

    def test_deterministic_bytes(self, tmp_path):
        graph = self.full_graph(30)
        blobs = []
        for name in ("a.graphml", "b.graphml"):
            path = tmp_path / name
            export_graph(graph, path, "graphml")
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @given(comm_graphs())
    @example(CommGraph())
    @example(CommGraph(nodes={"a", "b"}, edges={("a", "b"): [1, 0]}))
    def test_graphml_matches_elementtree_reference(self, tmp_path_factory, graph):
        path = tmp_path_factory.mktemp("graphml") / "g.graphml"
        export_graph(graph, path, "graphml")
        assert path.read_bytes() == reference_graphml(graph)

    def test_unknown_format_rejected(self, tmp_path):
        from polarlex.errors import ConfigError

        with pytest.raises(ConfigError, match="format"):
            export_graph(CommGraph(), tmp_path / "x", "gexf")

    def test_k_core_requires_positive_k(self):
        from polarlex.errors import ConfigError

        with pytest.raises(ConfigError):
            k_core(CommGraph(), 0)
