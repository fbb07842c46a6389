import math
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarlex import lexgraph
from polarlex.corpus import TokenizedTweet
from polarlex.errors import ConfigError, DataError
from polarlex.lexgraph import (
    CooccurrenceGraph,
    EmbeddingTable,
    build_cooccurrence,
    build_knn_graph,
    load_embeddings,
    read_graph,
    write_graph,
)

from graphs import adjacency, edge_dict, graph_of
from oracles import (
    brute_force_knn,
    brute_force_pairs,
    fixed_order_knn,
    list_load_embeddings,
    per_line_graph_files,
)


def tt(tweet_id, tags, tokens=None):
    return TokenizedTweet(tweet_id, tuple(tags), tuple(tokens if tokens is not None else tags))


def table_error(vocab, raw):
    """The DataError text an EmbeddingTable of raw rows raises, or None: the
    first row with no unit vector, judged by its sum of squares in Python."""
    if not len(raw):
        return "no nonzero vectors"
    for token, row in zip(vocab, raw.tolist()):
        squares = sum(v * v for v in row)
        if not math.isfinite(squares):
            return f"token {token!r}: vector norm is not finite"
        if squares == 0:
            reason = "norm underflows to zero" if any(row) else "is zero"
            return f"token {token!r}: vector {reason}"
    return None


def unit_rows(raw):
    return raw / np.linalg.norm(raw, axis=1)[:, None]


class TestBuildCooccurrence:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="^unknown graph mode 'embedding'$"):
            build_cooccurrence([tt("t1", ["a", "b"])], "embedding")

    def test_repeated_pair_accumulates(self):
        tweets = [tt("t1", ["a", "b"]), tt("t2", ["a", "b"])]
        graph = build_cooccurrence(tweets, "hashtag")
        assert edge_dict(graph) == {("a", "b"): 2.0}
        assert (graph.nodes, graph.frequency) == (["a", "b"], [2, 2])

    def test_triangle_from_one_tweet(self):
        graph = build_cooccurrence([tt("t1", ["a", "b", "c"])], "hashtag")
        assert edge_dict(graph) == {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0}

    def test_isolated_node_kept(self):
        graph = build_cooccurrence([tt("t1", ["a"]), tt("t2", ["b", "c"])], "hashtag")
        assert "a" in graph.nodes
        assert edge_dict(graph) == {("b", "c"): 1.0}
        assert adjacency(graph)["a"] == []

    def test_repeated_hashtag_in_tweet_counted_once(self):
        graph = build_cooccurrence([tt("t1", ["a", "a", "b"])], "hashtag")
        assert edge_dict(graph) == {("a", "b"): 1.0}
        assert (graph.nodes, graph.frequency) == (["a", "b"], [1, 1])

    def test_no_usable_items_gives_empty_graph(self):
        graph = build_cooccurrence([tt("t1", [], ["x"])], "hashtag")
        assert graph.num_nodes == 0 and graph.num_edges == 0

    def test_token_mode_dedupes_within_tweet(self):
        graph = build_cooccurrence([tt("t1", [], ["x", "x", "y"])], "token")
        assert edge_dict(graph) == {("x", "y"): 1.0}
        assert (graph.nodes, graph.frequency) == (["x", "y"], [1, 1])

    def test_token_cap_by_frequency_then_lexicographic(self):
        tweets = [
            tt("t1", [], ["b", "c", "z"]),
            tt("t2", [], ["b", "c"]),
            tt("t3", [], ["a"]),
        ]
        graph = build_cooccurrence(tweets, "token", vocab_cap=3)
        # b,c appear twice; tie between a and z broken lexicographically
        assert graph.nodes == ["a", "b", "c"]
        assert edge_dict(graph) == {("b", "c"): 2.0}

    def test_five_tweet_corpus_matches_brute_force(self):
        tweets = [
            tt("t1", ["a", "b", "c"]),
            tt("t2", ["b", "c"]),
            tt("t3", ["c", "d", "a"]),
            tt("t4", ["d"]),
            tt("t5", ["a", "b", "c", "d"]),
        ]
        graph = build_cooccurrence(tweets, "hashtag")
        expected = brute_force_pairs([tw.hashtags for tw in tweets])
        assert edge_dict(graph) == {pair: float(n) for pair, n in expected.items()}

    @given(
        st.lists(
            st.lists(st.sampled_from("gfedcba"), max_size=8),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from(["hashtag", "token"]),
        st.randoms(),
    )
    def test_tweet_order_irrelevant_and_matches_oracle(self, item_lists, mode, rnd):
        # unsorted items, repeated within a tweet, count once per tweet
        tweets = [tt(f"t{i}", items) for i, items in enumerate(item_lists)]
        graph = build_cooccurrence(tweets, mode)
        shuffled = list(tweets)
        rnd.shuffle(shuffled)
        assert edge_dict(build_cooccurrence(shuffled, mode)) == edge_dict(graph)
        expected = brute_force_pairs(item_lists)
        assert edge_dict(graph) == {pair: float(n) for pair, n in expected.items()}
        tweets_with = Counter(item for items in item_lists for item in set(items))
        assert graph.nodes == sorted(tweets_with)
        assert graph.frequency == [tweets_with[node] for node in graph.nodes]
        assert graph.weights.has_sorted_indices

    @given(
        st.lists(
            st.lists(st.sampled_from("gfedcba"), max_size=8),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from(["hashtag", "token"]),
        st.integers(1, 8),
    )
    # b, c and d tie at one tweet each, and the cap keeps one of them
    @example([["d", "a"], ["c"], ["b", "a"]], "token", 2)
    @example([["d", "a"], ["c"], ["b", "a"]], "hashtag", 2)
    def test_vocab_cap_matches_oracle(self, item_lists, mode, cap):
        # the cap keeps the most frequent tokens, ties in name order; hashtag
        # mode keeps every item
        graph = build_cooccurrence([tt(f"t{i}", items) for i, items in enumerate(item_lists)],
                                   mode, vocab_cap=cap)
        tweets_with = Counter(item for items in item_lists for item in set(items))
        kept = sorted(tweets_with, key=lambda item: (-tweets_with[item], item))
        if mode == "token":
            kept = kept[:cap]
        assert graph.nodes == sorted(kept)
        assert graph.frequency == [tweets_with[node] for node in graph.nodes]
        expected = brute_force_pairs([[i for i in items if i in kept] for items in item_lists])
        assert edge_dict(graph) == {pair: float(n) for pair, n in expected.items()}
        assert graph.weights.has_sorted_indices

    @pytest.mark.parametrize("mode, cap", [("hashtag", None), ("token", 450)])
    def test_peak_memory_is_the_product_and_its_operands(self, mode, cap):
        # 6000 tweets of 12 items out of 600: the incidence holds 72k entries
        # (0.9 MB in CSR, the same again in the CSC the product needs), and
        # the result 2-4 MB. A copy of the result on top of that would show.
        tweets = random_tweets(6000, 600, 12)
        tracemalloc.start()
        try:
            graph = build_cooccurrence(tweets, mode, vocab_cap=cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w = graph.weights
        assert graph.num_nodes == (cap or 600)
        assert peak < 2 * (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)


def random_tweets(n_tweets, vocab, per_tweet):
    """n_tweets tweets of per_tweet items each, drawn from vocab items, seeded."""
    draws = np.random.default_rng(7).integers(vocab, size=(n_tweets, per_tweet)).tolist()
    return [tt(f"t{i}", [f"w{j:04d}" for j in row]) for i, row in enumerate(draws)]


# plain decimal value fields, and fields that float() reads otherwise or
# rejects
PLAIN_VALUES = st.one_of(
    st.floats(-100, 100).map(repr),
    st.floats(-100, 100).map("{:.6f}".format),
    st.floats(-1e6, 1e6).map("{:.3e}".format),
    st.integers(-9, 9).map(str),
    st.sampled_from([".5", "5.", "-0", "-.25", "1E2", "1e-320", "1e200", "1e400"]),
)
ODD_VALUES = ["1_5", "+2", "nan", "inf", "0x1p3"]
EMBEDDING_MUTATIONS = ["leading-space", "tab-in-token", "short-row", "duplicate-token",
                       "odd-value", "zero-vector", "blank-line"]


@st.composite
def embedding_files(draw):
    """The text of an embedding file of plain lines with up to two mutations,
    its line ends LF or CRLF, and a vocab_cap."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    tokens = draw(st.lists(st.text("ab\u00e9#", min_size=1, max_size=3), min_size=n, max_size=n))
    lines = [" ".join([token, *draw(st.lists(PLAIN_VALUES, min_size=dim, max_size=dim))])
             for token in tokens]
    for mutation in draw(st.lists(st.sampled_from(EMBEDDING_MUTATIONS), max_size=2)):
        i = draw(st.integers(0, len(lines) - 1))
        token, *values = lines[i].split(" ")
        if mutation == "leading-space":
            lines[i] = " " + lines[i]
        elif mutation == "tab-in-token":
            lines[i] = "w\t" + lines[i]
        elif mutation == "short-row":
            lines[i] = " ".join([token, *values[:-1]])
        elif mutation == "duplicate-token":
            lines[i] = " ".join([tokens[0], *values])
        elif mutation == "odd-value" and values:
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_VALUES))
            lines[i] = " ".join([token, *values])
        elif mutation == "zero-vector":
            lines[i] = " ".join([token, *draw(st.lists(st.sampled_from(["0", "-0.0", "0e5"]),
                                                       min_size=dim, max_size=dim))])
        elif mutation == "blank-line":
            lines.insert(i, draw(st.sampled_from(["", " \t "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text, draw(st.none() | st.integers(0, n + 1))


class TestLoadEmbeddings:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 0 0 0\nb 0 1 0 0\nc 0 0 1 0\n")
        table = load_embeddings(path)
        assert table.vocabulary == ["a", "b", "c"]
        assert table.vectors.shape == (3, 4)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 0 0 0\nb 0 1 0\n")
        with pytest.raises(DataError, match="line 2"):
            load_embeddings(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 x\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_embeddings(path)

    def test_cap_keeps_first_entries(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} {i} 1\n" for i in range(5)))
        table = load_embeddings(path, vocab_cap=2)
        assert table.vocabulary == ["w0", "w1"]

    def test_zero_vectors_dropped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 1\nz 0 0\nb 1 0\n")
        table = load_embeddings(path)
        assert table.vocabulary == ["a", "b"]

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 1\nb nan 0\n")
        with pytest.raises(DataError, match="line 2"):
            load_embeddings(path)

    def test_finite_values_whose_norm_overflows_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("tok 1e308 1e308\nneg -1e308 -1e308\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: token 'tok': vector "
                                            "norm is not finite$"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        ("text", "vocab_cap"),
        [
            ("a 1 2\n\n  \nb 3 4\n\n", None),  # blank and whitespace-only lines
            ("a 1 2\nb 3 4\na 5 6\nc -0.0 1e-320\n", None),  # duplicate token
            ("a 1 2\nb 3 4\na 5 6\nc -0.0 1e-150\n", None),  # duplicate token, rows kept
            ("z 0 0\na 1_5 +2\ny -0.0 0.0\nb 0.1 1e300\n", None),  # zero vectors
            ("".join(f"w{i} {i} {i / 7}\n" for i in range(9)), 4),  # cap cuts the file
            ("a 1 2\r\nb 0.25 -3\r\n\r\nc 5 6\r\n", None),  # CRLF line ends
            ("a 1 2\nb 3 4\n", 2),  # cap equal to the vocabulary
            ("z 0 0 0\ny 0.0 -0 0e5\n", None),  # every vector zero
            ("", None),  # no lines at all
        ],
        ids=["blank-lines", "duplicate-token", "duplicate-token-kept", "zero-vectors", "cap-cut",
             "crlf", "cap-equals-size", "all-zero", "empty"],
    )
    def test_matches_list_loader(self, tmp_path, text, vocab_cap):
        # the list loader's rows over their norms, or the table's error
        path = tmp_path / "emb.txt"
        path.write_bytes(text.encode())
        vocab, vectors = list_load_embeddings(path, vocab_cap)
        error = table_error(vocab, vectors)
        if error is not None:
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {error}')}$"):
                load_embeddings(path, vocab_cap)
            return
        table = load_embeddings(path, vocab_cap)
        unit = unit_rows(vectors)
        assert table.vocabulary == vocab
        assert table.vectors.dtype == unit.dtype == np.float64
        assert table.vectors.shape == unit.shape
        assert table.vectors.tobytes() == unit.tobytes()

    @settings(max_examples=200)
    @given(embedding_files())
    @example(("a 1 2\nb 3 4\n", None))  # plain
    @example((" 1 2\nb 3 4\n", None))  # a leading space: an empty token
    @example(("a 1 2\n  3 4\n", None))  # two leading spaces
    @example(("a 1 2\nb 1_5 4\n", None))  # float() takes '_', the bulk parse does not
    @example(("a 1 2\nb 0x1p3 4\n", None))  # hex, which float() rejects
    @example(("a 1 2\nb +2 4\nc 1 1e400\n", 2))  # a cap ahead of an overflow
    def test_bulk_parse_matches_list_loader(self, tmp_path_factory, case):
        # the bulk parse gives the line reader's rows or declines the file,
        # and the loader gives the list loader's table or its error text
        text, vocab_cap = case
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        path.write_bytes(text.encode())
        try:
            vocab, vectors = list_load_embeddings(path, vocab_cap)
        except ValueError as exc:
            assert lexgraph._plain_rows(path, vocab_cap) is None
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                load_embeddings(path, vocab_cap)
            return
        rows = lexgraph._plain_rows(path, vocab_cap)
        if rows is not None:
            assert rows[0] == vocab
            assert rows[1].shape == vectors.shape
            assert rows[1].tobytes() == vectors.tobytes()
        error = table_error(vocab, vectors)
        if error is not None:
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {error}')}$"):
                load_embeddings(path, vocab_cap)
            return
        table = load_embeddings(path, vocab_cap)
        assert table.vocabulary == vocab
        assert table.vectors.tobytes() == unit_rows(vectors).tobytes()

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_plain_file_takes_the_bulk_parse(self, tmp_path, monkeypatch, end):
        # the benchmark's layout: six decimals, one space between fields
        rng = np.random.default_rng(9)
        path = tmp_path / "emb.txt"
        path.write_bytes("".join(f"\u00e9{i:03d} " + " ".join(f"{v:.6f}" for v in row) + end
                                 for i, row in enumerate(rng.standard_normal((50, 7)))).encode())
        want = list_load_embeddings(path, 40)

        def no_line_reader(*args):
            raise AssertionError("the line reader was called")

        monkeypatch.setattr(lexgraph, "_line_rows", no_line_reader)
        table = load_embeddings(path, 40)
        assert table.vocabulary == want[0]
        assert table.vectors.tobytes() == unit_rows(want[1]).tobytes()

    def test_logs_tokens_kept_and_dimension(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2 3\nz 0 0 0\nb 4 5 6\n")
        with caplog.at_level("INFO", logger="polarlex.lexgraph"):
            load_embeddings(path)
        assert "kept 2 tokens of dimension 3" in caplog.text


# rows of values of one kind: ordinary ones, zeros, values whose squares
# underflow, and values whose squares overflow
ROW_VALUES = [
    st.floats(-10, 10),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1e-170, -1e-170]),
    st.sampled_from([1e308, -1e308]),
]


@st.composite
def raw_tables(draw):
    dim = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(ROW_VALUES), max_size=6))
    rows = [draw(st.lists(values, min_size=dim, max_size=dim)) for values in kinds]
    return np.array(rows, dtype=np.float64).reshape(len(rows), dim)


class TestEmbeddingTable:
    @given(raw_tables())
    @example(np.array([[1.0, 0], [0, 1.0], [0.0, 0.0]]))  # a zero vector
    @example(np.array([[3.0, 4.0], [1e-170, 1e-170], [1e308, 0.0]]))  # first bad row named
    @example(np.array([[1e308, 1.0], [1e-170, 0.0]]))  # an overflow before an underflow
    def test_holds_unit_rows_or_names_the_first_bad_row(self, raw):
        vocab = [f"w{i}" for i in range(len(raw))]
        before = raw.copy()
        error = table_error(vocab, raw)
        if error is not None:
            with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
                EmbeddingTable(vocab, raw)
        else:
            table = EmbeddingTable(vocab, raw)
            assert table.vocabulary == vocab
            assert table.vectors.shape == raw.shape
            assert table.vectors.tobytes() == unit_rows(raw).tobytes()
        assert raw.tobytes() == before.tobytes()

    def test_vector_whose_norm_underflows_rejected(self):
        # every square of 1e-170 underflows, so the norm is 0 though the
        # vector is not a zero vector
        vectors = np.random.default_rng(4).standard_normal((10, 4))
        vectors[3] = 1e-170
        with pytest.raises(DataError, match="^token 'w3': vector norm underflows to zero$"):
            EmbeddingTable([f"w{i}" for i in range(10)], vectors)


class TestKnnGraph:
    def test_identical_vectors_weight_one(self):
        table = EmbeddingTable(["a", "b", "c"], np.array([[1.0, 0], [1.0, 0], [0, 1.0]]))
        graph = build_knn_graph(table, k=1)
        assert edge_dict(graph)[("a", "b")] == pytest.approx(1.0)

    def test_orthogonal_vectors_weight_half(self):
        table = EmbeddingTable(["a", "b"], np.array([[1.0, 0], [0, 1.0]]))
        graph = build_knn_graph(table, k=1)
        assert edge_dict(graph)[("a", "b")] == pytest.approx(0.5)

    def test_opposite_vectors_clamped_positive(self):
        table = EmbeddingTable(
            ["a", "b", "c"], np.array([[1.0, 0], [-1.0, 0], [1.0, 1e-9]])
        )
        graph = build_knn_graph(table, k=2)
        assert 0 < edge_dict(graph)[("a", "b")] <= 1e-6

    def test_k_must_be_small(self):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        with pytest.raises(ConfigError):
            build_knn_graph(table, k=2)

    def test_k_must_be_positive(self):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        with pytest.raises(ConfigError, match="^knn_k must be >= 1$"):
            build_knn_graph(table, k=0)

    def test_random_vectors_match_brute_force(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(6)]
        vectors = rng.normal(size=(6, 3))
        graph = build_knn_graph(EmbeddingTable(vocab, vectors), k=2)
        expected = brute_force_knn(vocab, vectors, k=2)
        edges = edge_dict(graph)
        assert set(edges) == set(expected)
        for key, w in expected.items():
            assert edges[key] == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_duplicated_vectors_tie_on_lowest_index(self, k):
        # axis-aligned copies give exact similarities of 0 and 1, so each
        # node's k-th and (k+1)-th best neighbors tie; the lower row wins
        sizes = [4, 5, 6, 4, 5]
        rows = [np.eye(5)[axis] for axis, size in enumerate(sizes) for _ in range(size)]
        order = np.random.default_rng(3).permutation(len(rows))
        vectors = np.array([rows[i] for i in order])
        vocab = [f"w{(7 * i) % len(rows):02d}" for i in range(len(rows))]
        graph = build_knn_graph(EmbeddingTable(vocab, vectors), k=k)
        expected = brute_force_knn(vocab, vectors, k=k)
        assert edge_dict(graph) == expected

    @pytest.mark.parametrize(
        ("budget", "rows", "blocks"), [(4 * 40 * 7, 7, 6), (4 * 40 * 3, 3, 14), (1, 1, 40)]
    )
    def test_blocks_match_one_block_build(self, monkeypatch, caplog, budget, rows, blocks):
        # 7 rows per block leave a ragged last block of 5 rows; 3 rows per
        # block leave a last block of one row; a budget smaller than a row
        # computes one row per block. A one-row product may round unlike a
        # many-row one, which the fixed-order cosine keeps from the graph
        vocab = [f"w{i:02d}" for i in range(40)]
        vectors = np.random.default_rng(11).standard_normal((40, 5))
        table = EmbeddingTable(vocab, vectors)
        with caplog.at_level("INFO", logger="polarlex.lexgraph"):
            whole = build_knn_graph(table, k=4)
            monkeypatch.setattr(lexgraph, "KNN_BLOCK_BYTES", budget)
            graph = build_knn_graph(table, k=4)
        assert "40 tokens, k=4, 40 rows per block in 1 blocks" in caplog.text
        assert f"40 tokens, k=4, {rows} rows per block in {blocks} blocks" in caplog.text
        assert graph.nodes == whole.nodes
        np.testing.assert_array_equal(graph.weights.indptr, whole.weights.indptr)
        np.testing.assert_array_equal(graph.weights.indices, whole.weights.indices)
        assert graph.weights.data.tobytes() == whole.weights.data.tobytes()
        expected = brute_force_knn(vocab, vectors, k=4)
        edges = edge_dict(graph)
        assert set(edges) == set(expected)
        for key, w in expected.items():
            assert edges[key] == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("kind", ["random", "axes", "equal"])
    def test_holds_one_similarity_block_at_a_time(self, monkeypatch, kind):
        # 400 rows of 2000 float32 similarities per block, 3.2 MB, and their
        # 0.8 MB mask; the build peaks near 5.1 MB, and a second block held
        # at once would take it past twice the block's bytes.
        # On 5 axes each row ties with about 400 others, and on equal vectors
        # with all of them, so the candidates to rank are many times k.
        n, rows = 2000, 400
        rng = np.random.default_rng(5)
        vectors = {
            "random": lambda: rng.standard_normal((n, 4)),
            "axes": lambda: np.eye(5)[rng.integers(5, size=n)],
            "equal": lambda: np.ones((n, 4)),
        }[kind]()
        table = EmbeddingTable([f"w{i:04d}" for i in range(n)], vectors)
        monkeypatch.setattr(lexgraph, "KNN_BLOCK_BYTES", 4 * n * rows)
        tracemalloc.start()
        try:
            graph = build_knn_graph(table, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_nodes == n
        assert peak < 2 * lexgraph.KNN_BLOCK_BYTES

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_many_tied_neighbors_go_to_the_lowest_indices(self, seed):
        # 500 rows on 5 axes: each row ties at similarity 1 with about 100
        # others, many more than k, and its k neighbors must be the k
        # lowest-index other rows on its axis
        k = 3
        axis = np.random.default_rng(seed).integers(5, size=500)
        vocab = [f"w{i:03d}" for i in range(500)]
        graph = build_knn_graph(EmbeddingTable(vocab, np.eye(5)[axis]), k=k)
        expected = set()
        for i, a in enumerate(axis.tolist()):
            near = [j for j in np.flatnonzero(axis == a).tolist() if j != i][:k]
            expected.update((vocab[min(i, j)], vocab[max(i, j)]) for j in near)
        edges = edge_dict(graph)
        assert set(edges) == expected
        assert set(edges.values()) == {1.0}

    @pytest.mark.parametrize(
        ("first", "second", "float32_order"),
        [([1.0, 1.0006, 0, 0], [1.0001, 1.0007, 0, 0], "reversed"),
         ([1.0001, 1.0007, 0, 0], [1.0002, 1.0007, 0, 0], "tied")],
        ids=["reversed", "tied"],
    )
    def test_float32_error_at_the_kth_place_keeps_the_fixed_order_top_k(
        self, first, second, float32_order
    ):
        # q's unit row is all halves and each candidate's has two nonzero
        # components, so each float32 product of q and a candidate is one
        # rounding of an exact sum, whatever the kernel. The candidates'
        # cosines with q differ by 6e-12 or 1e-8, under float32's spacing of
        # 6e-8 there, and float32 ranks the nearer one, "c", below "b" or
        # ties it with "b", which comes first
        vocab = ["q", "b", "c"]
        table = EmbeddingTable(vocab, np.array([[1.0, 1, 1, 1], first, second]))
        single = table.vectors.astype(np.float32)
        b, c = (single @ single.T)[0, 1:]
        assert b > c if float32_order == "reversed" else b == c
        expected = fixed_order_knn(vocab, table.vectors.tolist(), k=1)
        assert ("c", "q") in expected and ("b", "q") not in expected
        assert edge_dict(build_knn_graph(table, k=1)) == expected

    def test_degree_at_least_k(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(30)]
        graph = build_knn_graph(EmbeddingTable(vocab, rng.normal(size=(30, 4))), k=3)
        degree = {n: 0 for n in vocab}
        for a, b in edge_dict(graph):
            degree[a] += 1
            degree[b] += 1
        assert all(d >= 3 for d in degree.values())


# The k-NN candidates come from a float32 BLAS matrix product, whose rounding
# depends on the kernel and thread count the BLAS picks at run time. The
# candidates are ranked and weighted by a fixed-order float64 loop, so neither
# the in-memory weights nor the graph files depend on them. The script prints
# the digest of the weights' indices and data, then writes the graph files.
KNN_FILE_SCRIPT = """
import hashlib
import sys
import numpy as np
from polarlex.lexgraph import EmbeddingTable, build_knn_graph, write_graph

rng = np.random.default_rng(17)
centers = 2.0 * rng.standard_normal((2, 100))
vectors = centers[np.arange(3000) % 2] + rng.standard_normal((3000, 100))
table = EmbeddingTable([f"t{i:04d}" for i in range(3000)], vectors)
graph = build_knn_graph(table, 25)
print(hashlib.sha256(graph.weights.indices.tobytes() + graph.weights.data.tobytes()).hexdigest())
write_graph(graph, sys.argv[1], sys.argv[2])
"""
# each forced OpenBLAS kernel, and the /proc/cpuinfo flag it needs
OPENBLAS_KERNELS = {"Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}


def _openblas_kernels() -> list[str]:
    """The kernels this machine can run, if numpy's BLAS is an OpenBLAS that
    picks its kernel at run time; else none."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = set(next(line for line in fh if line.startswith("flags")).split())
    except (OSError, StopIteration):
        return []
    return [kernel for kernel, flag in OPENBLAS_KERNELS.items() if flag in flags]


@pytest.fixture(scope="module")
def blas_runs(tmp_path_factory, src_env):
    """KNN_FILE_SCRIPT run once under each forced kernel at 1 and 2 threads:
    the run's name, the OpenBLAS core it named, its weights digest and the
    bytes of the two graph files."""
    kernels = _openblas_kernels()
    if len(kernels) < 2:
        pytest.skip("needs an OpenBLAS built with DYNAMIC_ARCH and two kernels to force")
    runs = []
    for kernel in kernels:
        for threads in ("1", "2"):
            out = tmp_path_factory.mktemp(f"{kernel}-{threads}-")
            env = {**src_env, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": threads,
                   "OPENBLAS_VERBOSE": "2"}
            proc = subprocess.run(
                [sys.executable, "-c", KNN_FILE_SCRIPT, out / "edges.tsv", out / "nodes.tsv"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            files = ((out / "edges.tsv").read_bytes(), (out / "nodes.tsv").read_bytes())
            core = re.search(r"Core: (\S+)", proc.stderr)[1]
            runs.append((f"{kernel}-{threads}", core, proc.stdout.strip(), files))
    return kernels, runs


def test_knn_graph_files_do_not_depend_on_blas_kernel_or_threads(blas_runs):
    kernels, runs = blas_runs
    # OpenBLAS names the kernel it runs; each forced one must differ
    assert len({core for _, core, _, _ in runs}) == len(kernels)
    assert len({files for _, _, _, files in runs}) == 1, [name for name, *_ in runs]


def test_knn_weights_do_not_depend_on_blas_kernel_or_threads(blas_runs):
    _, runs = blas_runs
    digests = {name: digest for name, _, digest, _ in runs}
    assert len(set(digests.values())) == 1, digests


def _file_graphs():
    """Whole counts, fractional k-NN weights and a mix of both."""
    tag_sets = [["a", "b", "c"], ["a", "b"], ["b", "c", "d", "e"], ["e", "f"], ["z"]]
    cooc = build_cooccurrence([tt(f"t{i}", tags) for i, tags in enumerate(tag_sets)], "token")
    vectors = np.random.default_rng(3).standard_normal((40, 5))
    knn = build_knn_graph(EmbeddingTable([f"w{i:02d}" for i in range(40)], vectors), 4)
    mixed = graph_of({("a", "b"): 2.0, ("a", "c"): 0.5, ("b", "c"): 1e6, ("c", "d"): 3.0})
    return cooc, knn, mixed


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        # an item that starts with '#', as embedding tokens may, sorts first
        tweets = [tt("t1", ["#x", "a", "b", "c"]), tt("t2", ["a", "b"]), tt("t3", ["d"])]
        graph = build_cooccurrence(tweets, "hashtag")
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        write_graph(graph, edges, nodes)
        back = read_graph(edges, nodes)
        assert back.mode == graph.mode
        assert edge_dict(back) == edge_dict(graph)
        assert (back.nodes, back.frequency) == (graph.nodes, graph.frequency)

    def test_bytes_match_per_line_writer(self, tmp_path):
        # whole counts, fractional k-NN weights and a mix of both
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        for graph in _file_graphs():
            write_graph(graph, edges, nodes)
            expected_edges, expected_nodes = per_line_graph_files(graph)
            assert edges.read_bytes() == expected_edges.encode()
            assert nodes.read_bytes() == expected_nodes.encode()

    def test_returns_graph_as_read_back(self, tmp_path):
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        cooc, knn, mixed = _file_graphs()
        for graph in (cooc, knn, mixed):
            got = write_graph(graph, edges, nodes)
            back = read_graph(edges, nodes)
            assert (got.mode, got.nodes, got.frequency) == (back.mode, back.nodes, back.frequency)
            for name in ("indptr", "indices", "data"):
                ours, theirs = getattr(got.weights, name), getattr(back.weights, name)
                assert ours.dtype == theirs.dtype
                assert ours.tobytes() == theirs.tobytes()
        # whole-number weights read back as themselves
        assert write_graph(cooc, edges, nodes) is cooc
        # fractional weights come back rounded to 9 decimals, in a new graph
        got = write_graph(knn, edges, nodes)
        assert got is not knn
        assert not np.array_equal(got.weights.data, knn.weights.data)

    def test_fraction_past_the_first_checked_values(self, tmp_path):
        # 360k stored weights, all whole but the last row's last edge, which
        # read_graph gives back as written
        graph = build_cooccurrence(random_tweets(6000, 600, 12), "hashtag")
        weights = graph.weights.copy()
        last, column = weights.shape[0] - 1, weights.indices[-1]
        weights[last, column] = weights[column, last] = 2.5000000004
        graph = CooccurrenceGraph(graph.mode, graph.nodes, graph.frequency, weights)
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        got = write_graph(graph, edges, nodes)
        assert edges.read_text() == per_line_graph_files(graph)[0]
        assert got is not graph
        assert edge_dict(got) == edge_dict(read_graph(edges, nodes))
        assert edge_dict(got)[graph.nodes[column], graph.nodes[last]] == 2.5

    def test_writes_without_a_copy_of_the_matrix(self, tmp_path):
        graph = build_cooccurrence(random_tweets(6000, 600, 12), "hashtag")
        tracemalloc.start()
        try:
            write_graph(graph, tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w = graph.weights
        assert peak < 0.5 * (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)

    def test_self_loop_rejected(self, tmp_path):
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        edges.write_text("#mode=hashtag\na\ta\t1.000000000\n")
        nodes.write_text("a\t1\n")
        with pytest.raises(DataError, match="self-loop"):
            read_graph(edges, nodes)

    def test_bad_weight_rejected(self, tmp_path):
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        nodes.write_text("a\t1\nb\t1\n")
        for bad in ("0.000000000", "nan", "inf"):
            edges.write_text(f"#mode=hashtag\na\tb\t{bad}\n")
            with pytest.raises(DataError, match="line 2"):
                read_graph(edges, nodes)

    @pytest.mark.parametrize("second", ["a\tb\t2.000000000", "b\ta\t2.000000000"])
    def test_duplicate_edge_rejected(self, tmp_path, second):
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        edges.write_text(f"#mode=hashtag\na\tb\t1.000000000\n{second}\n")
        nodes.write_text("a\t1\nb\t1\n")
        with pytest.raises(DataError, match=r"g\.edges\.tsv: line 3: duplicate edge"):
            read_graph(edges, nodes)

    def test_duplicate_node_rejected(self, tmp_path):
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        edges.write_text("#mode=hashtag\na\tb\t1.000000000\n")
        nodes.write_text("a\t1\nb\t1\na\t5\n")
        with pytest.raises(DataError, match=r"g\.nodes\.tsv: line 3: duplicate node 'a'"):
            read_graph(edges, nodes)

    def test_bad_frequency_rejected(self, tmp_path):
        edges, nodes = tmp_path / "g.edges.tsv", tmp_path / "g.nodes.tsv"
        edges.write_text("#mode=hashtag\na\tb\t1.000000000\n")
        nodes.write_text("a\t1\nb\tx\n")
        with pytest.raises(DataError, match=r"g\.nodes\.tsv: line 2: bad frequency"):
            read_graph(edges, nodes)
