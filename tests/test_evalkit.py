import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarlex.errors import DataError
from polarlex.evalkit import (
    AnnotationTable,
    GoldLabelSet,
    accuracy_soft,
    agreement,
    evaluate_predictions,
    krippendorff_alpha,
    pole_metrics,
    read_annotations,
    read_gold,
    write_eval_reports,
    write_gold,
)
from polarlex.polarity import NEUTRAL, POLE_A, POLE_B, UNCLASSIFIED, PolarityScore, overall_tally
from polarlex.synthgen import SynthSpec, generate

from oracles import (
    unitwise_accuracy_soft,
    unitwise_agreement,
    unitwise_alpha,
    unitwise_pole_metrics,
    unitwise_tally,
)

LABELS3 = (POLE_A, POLE_B, NEUTRAL)
PRED_LABELS = (POLE_A, POLE_B, NEUTRAL, UNCLASSIFIED)


def gold_of(mapping):
    return GoldLabelSet(labels=dict(mapping))


class TestPoleMetrics:
    def test_mixed_example(self):
        gold = gold_of(
            {"g1": POLE_A, "g2": POLE_A, "g3": POLE_A, "g4": POLE_A, "g5": POLE_B}
        )
        predictions = {
            "g1": POLE_A,
            "g2": POLE_A,
            "g3": UNCLASSIFIED,
            "g4": POLE_B,
            "g5": POLE_A,
        }
        m = pole_metrics(predictions, gold, POLE_A)
        assert m.recall == pytest.approx(0.5)
        assert m.pct_unknown == pytest.approx(0.25)
        assert m.pct_incorrect == pytest.approx(0.25)
        assert m.precision == pytest.approx(2 / 3)

    def test_perfect_predictions(self):
        gold = gold_of({"g1": POLE_A, "g2": POLE_A, "g3": POLE_B})
        predictions = dict(gold.labels)
        m = pole_metrics(predictions, gold, POLE_A)
        assert (m.precision, m.recall, m.pct_unknown, m.pct_incorrect) == (1, 1, 0, 0)

    def test_all_unclassified(self):
        gold = gold_of({"g1": POLE_A, "g2": POLE_A})
        predictions = {"g1": UNCLASSIFIED, "g2": UNCLASSIFIED}
        m = pole_metrics(predictions, gold, POLE_A)
        assert m.recall == 0.0
        assert m.pct_unknown == 1.0
        assert m.pct_incorrect == 0.0
        assert m.precision is None

    def test_neutral_prediction_counts_as_unknown(self):
        gold = gold_of({"g1": POLE_A})
        m = pole_metrics({"g1": NEUTRAL}, gold, POLE_A)
        assert m.pct_unknown == 1.0 and m.pct_incorrect == 0.0

    def test_empty_pole_raises(self):
        gold = gold_of({"g1": POLE_A})
        with pytest.raises(DataError):
            pole_metrics({"g1": POLE_A}, gold, POLE_B)

    def test_missing_prediction_raises(self):
        gold = gold_of({"g1": POLE_A})
        with pytest.raises(DataError, match="missing"):
            pole_metrics({}, gold, POLE_A)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=200).map(lambda i: f"k{i}"),
            st.tuples(st.sampled_from(LABELS3), st.sampled_from(PRED_LABELS)),
            min_size=1,
            max_size=40,
        )
    )
    def test_partition_identity(self, table):
        gold = gold_of({k: g for k, (g, _) in table.items()})
        predictions = {k: p for k, (_, p) in table.items()}
        for pole in (POLE_A, POLE_B):
            in_pole = sum(1 for v in gold.labels.values() if v == pole)
            if not in_pole:
                continue
            m = pole_metrics(predictions, gold, pole)
            assert m.recall + m.pct_unknown + m.pct_incorrect == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_under_pole_swap(self):
        swap = {POLE_A: POLE_B, POLE_B: POLE_A, NEUTRAL: NEUTRAL, UNCLASSIFIED: UNCLASSIFIED}
        gold = gold_of({"g1": POLE_A, "g2": POLE_B, "g3": POLE_A, "g4": NEUTRAL})
        predictions = {"g1": POLE_B, "g2": POLE_B, "g3": UNCLASSIFIED, "g4": POLE_A}
        m_a = pole_metrics(predictions, gold, POLE_A)
        swapped_gold = gold_of({k: swap[v] for k, v in gold.labels.items()})
        swapped_pred = {k: swap[v] for k, v in predictions.items()}
        m_b = pole_metrics(swapped_pred, swapped_gold, POLE_B)
        assert m_a == m_b


class TestAccuracySoft:
    def test_perfect(self):
        gold = gold_of({"g1": POLE_A, "g2": POLE_B})
        assert accuracy_soft(dict(gold.labels), gold) == (1.0, 1.0)

    def test_neutral_for_polar_hurts_accuracy_only(self):
        gold = gold_of({"g1": POLE_A})
        acc, soft = accuracy_soft({"g1": NEUTRAL}, gold)
        assert acc == 0.0 and soft == 1.0

    def test_unclassified_matches_gold_neutral(self):
        gold = gold_of({"g1": NEUTRAL})
        acc, soft = accuracy_soft({"g1": UNCLASSIFIED}, gold)
        assert acc == 1.0 and soft == 1.0

    def test_counted_example(self):
        # 10 items: 6 exact, 3 neutral-for-polar, 1 polar opposite
        gold = {}
        predictions = {}
        for i in range(6):
            gold[f"e{i}"] = POLE_A
            predictions[f"e{i}"] = POLE_A
        for i in range(3):
            gold[f"n{i}"] = POLE_B
            predictions[f"n{i}"] = NEUTRAL
        gold["x"] = POLE_A
        predictions["x"] = POLE_B
        acc, soft = accuracy_soft(predictions, gold_of(gold))
        assert acc == pytest.approx(0.6)
        assert soft == pytest.approx(0.9)

    @given(
        st.lists(
            st.tuples(st.sampled_from(LABELS3), st.sampled_from(PRED_LABELS)),
            min_size=1,
            max_size=50,
        )
    )
    def test_soft_at_least_accuracy(self, rows):
        gold = gold_of({f"k{i}": g for i, (g, _) in enumerate(rows)})
        predictions = {f"k{i}": p for i, (_, p) in enumerate(rows)}
        acc, soft = accuracy_soft(predictions, gold)
        assert soft >= acc
        assert 0.0 <= acc <= 1.0 and 0.0 <= soft <= 1.0


class TestAgreement:
    def test_identical_annotators(self):
        table = AnnotationTable(
            items=["i1", "i2", "i3"],
            annotator_a=[POLE_A, POLE_B, NEUTRAL],
            annotator_b=[POLE_A, POLE_B, NEUTRAL],
        )
        stats = agreement(table)
        assert stats.percent_agreement == 1.0
        assert stats.polar_opposite_agreement == 1.0
        assert stats.krippendorff_alpha == 1.0

    def test_always_opposite_binary_alpha_negative(self):
        n = 10
        table = AnnotationTable(
            items=[f"i{i}" for i in range(n)],
            annotator_a=[POLE_A] * n,
            annotator_b=[POLE_B] * n,
        )
        stats = agreement(table)
        assert stats.krippendorff_alpha < 0.0
        assert stats.percent_agreement == 0.0
        assert stats.polar_opposite_agreement == 0.0

    def test_polar_opposite_agreement_ignores_neutral_mismatch(self):
        table = AnnotationTable(
            items=["i1", "i2"],
            annotator_a=[POLE_A, POLE_A],
            annotator_b=[NEUTRAL, POLE_A],
        )
        stats = agreement(table)
        assert stats.percent_agreement == 0.5
        assert stats.polar_opposite_agreement == 1.0

    def test_hand_built_coincidence_example(self):
        a = [POLE_A, POLE_A, POLE_B, POLE_B, NEUTRAL, POLE_A, POLE_B, NEUTRAL, POLE_A, POLE_B]
        b = [POLE_A, POLE_B, POLE_B, POLE_B, NEUTRAL, POLE_A, POLE_A, POLE_B, POLE_A, POLE_B]
        alpha = krippendorff_alpha(a, b)
        assert alpha == pytest.approx(unitwise_alpha(a, b), abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.sampled_from(LABELS3), st.sampled_from(LABELS3)),
            min_size=2,
            max_size=60,
        )
    )
    def test_alpha_matches_unitwise_oracle(self, pairs):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        assert krippendorff_alpha(a, b) == pytest.approx(unitwise_alpha(a, b), abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.sampled_from(LABELS3), st.sampled_from(LABELS3)),
            min_size=2,
            max_size=60,
        )
    )
    def test_alpha_invariant_under_category_renaming(self, pairs):
        rename = {POLE_A: "cat_x", POLE_B: "cat_y", NEUTRAL: "cat_z"}
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        ra = [rename[x] for x in a]
        rb = [rename[y] for y in b]
        assert krippendorff_alpha(a, b) == pytest.approx(krippendorff_alpha(ra, rb), abs=1e-12)

    def test_too_few_items(self):
        with pytest.raises(DataError):
            agreement(AnnotationTable(items=["i"], annotator_a=[POLE_A], annotator_b=[POLE_A]))


class TestFilesAndReport:
    def test_gold_reader(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("acct1\tpole_a\nacct2\tneutral\n")
        gold = read_gold(path)
        assert gold.labels == {"acct1": POLE_A, "acct2": NEUTRAL}

    def test_gold_round_trip_of_synth_truth(self, tmp_path):
        spec = SynthSpec(
            n_users=20, n_tweets=300, hashtags_per_community=10,
            within=0.7, cross=0.1, neutral_hashtags=4, rng_seed=2,
        )
        _, truth = generate(spec)
        assert NEUTRAL in truth.hashtag_labels.values()
        for labels in (truth.user_labels, truth.hashtag_labels):
            path = tmp_path / "gold.tsv"
            write_gold(labels, path)
            assert read_gold(path).labels == labels

    def test_gold_bad_label(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("acct1\tsideways\n")
        with pytest.raises(DataError, match="line 1"):
            read_gold(path)

    def test_annotation_reader(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("i1\tpole_a\tpole_b\ni2\tneutral\tneutral\n")
        table = read_annotations(path)
        assert table.items == ["i1", "i2"]
        assert table.annotator_a == [POLE_A, NEUTRAL]

    def test_report_csv_shapes(self, tmp_path):
        gold = gold_of({"g1": POLE_A, "g2": POLE_B})
        predictions = {"g1": POLE_A, "g2": POLE_B}
        table = AnnotationTable(
            items=["i1", "i2"],
            annotator_a=[POLE_A, POLE_B],
            annotator_b=[POLE_A, POLE_B],
        )
        report = evaluate_predictions(predictions, gold, "dim", table)
        poles, overall = tmp_path / "poles.csv", tmp_path / "overall.csv"
        write_eval_reports([report], poles, overall)
        pole_lines = poles.read_text().splitlines()
        assert pole_lines[0].split(",")[:2] == ["dimension", "pole"]
        assert len(pole_lines) == 3
        overall_lines = overall.read_text().splitlines()
        assert len(overall_lines) == 2
        assert overall_lines[1].startswith("dim,1.000000000,1.000000000,1.000000000")


# Each check the library makes of its own arguments, which the file readers
# never let reach it, and the start of its message.
GUARDS = [
    ("gold-label", lambda: GoldLabelSet({"g1": "sideways"}), "gold labels outside"),
    ("annotation-lengths", lambda: AnnotationTable(["i1", "i2"], [POLE_A], [POLE_A, POLE_B]),
     "annotation columns must have equal lengths"),
    ("annotation-label", lambda: AnnotationTable(["i1"], [POLE_A], ["sideways"]),
     "annotation labels outside"),
    ("neutral-pole", lambda: pole_metrics({"g1": NEUTRAL}, gold_of({"g1": NEUTRAL}), NEUTRAL),
     "pole must be pole_a or pole_b, got 'neutral'"),
    ("empty-gold", lambda: accuracy_soft({}, gold_of({})), "gold set is empty"),
    ("alpha-lengths", lambda: krippendorff_alpha([POLE_A, POLE_B], [POLE_A]),
     "annotator sequences differ in length"),
]


@pytest.mark.parametrize("call, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_argument_guards(call, message):
    with pytest.raises(DataError, match="^" + re.escape(message)):
        call()


class TestUnitwiseReferences:
    """Every metric equals, to the bit, a loop over the units one at a time."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(LABELS3),
                st.sampled_from(PRED_LABELS),
                st.sampled_from(LABELS3),
                st.sampled_from(LABELS3),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_eval_metrics(self, rows):
        keys = [f"k{i}" for i in range(len(rows))]
        gold = {k: row[0] for k, row in zip(keys, rows)}
        predictions = {k: row[1] for k, row in zip(keys, rows)}
        for pole in (POLE_A, POLE_B):
            if pole in gold.values():
                m = pole_metrics(predictions, gold_of(gold), pole)
                assert (m.precision, m.recall, m.pct_unknown, m.pct_incorrect) == (
                    unitwise_pole_metrics(predictions, gold, pole)
                )
        assert accuracy_soft(predictions, gold_of(gold)) == unitwise_accuracy_soft(
            predictions, gold
        )
        a = [row[2] for row in rows]
        b = [row[3] for row in rows]
        stats = agreement(AnnotationTable(keys, a, b))
        assert (stats.percent_agreement, stats.polar_opposite_agreement) == (
            unitwise_agreement(a, b)
        )
        assert stats.krippendorff_alpha == unitwise_alpha(a, b)

    @given(
        st.lists(st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.25, 1.0]),
                           st.floats(-2.0, 2.0)), max_size=30),
        st.lists(st.one_of(st.none(), st.floats(-2.0, 2.0)), max_size=30),
        st.sampled_from([(-1.0, 1.0), (0.0, 0.5), (0.0, 1.0)]),
    )
    def test_overall_tally(self, user_values, tweet_values, scale):
        users = {f"u{i}": PolarityScore(v, 0 if v is None else 1)
                 for i, v in enumerate(user_values)}
        tweets = {f"t{i}": PolarityScore(v, 0 if v is None else 1)
                  for i, v in enumerate(tweet_values)}
        rows = [(r.label, r.n_users, r.pct_users, r.n_tweets, r.pct_tweets)
                for r in overall_tally(users, tweets, scale)]
        if users or tweets:
            assert rows == unitwise_tally(user_values, tweet_values, scale)
        else:
            assert rows == []
