"""Evaluation against gold labels and inter-annotator agreement metrics."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .errors import DataError
from .ioutil import read_rows, write_csv
from .polarity import NEUTRAL, POLE_A, POLE_B, UNCLASSIFIED

log = logging.getLogger(__name__)

GOLD_LABELS = (POLE_A, POLE_B, NEUTRAL)


@dataclass
class GoldLabelSet:
    """Gold assignments over evaluation units (accounts or user-days)."""

    labels: dict[str, str]

    def __post_init__(self) -> None:
        bad = {v for v in self.labels.values() if v not in GOLD_LABELS}
        if bad:
            raise DataError(f"gold labels outside {GOLD_LABELS}: {sorted(bad)}")


@dataclass
class AnnotationTable:
    """Two annotators' independent labels over the same items."""

    items: list[str]
    annotator_a: list[str]
    annotator_b: list[str]

    def __post_init__(self) -> None:
        if not (len(self.items) == len(self.annotator_a) == len(self.annotator_b)):
            raise DataError("annotation columns must have equal lengths")
        bad = {
            v
            for v in (*self.annotator_a, *self.annotator_b)
            if v not in GOLD_LABELS
        }
        if bad:
            raise DataError(f"annotation labels outside {GOLD_LABELS}: {sorted(bad)}")


@dataclass
class PoleMetrics:
    precision: float | None
    recall: float
    pct_unknown: float
    pct_incorrect: float


@dataclass
class AgreementStats:
    percent_agreement: float
    polar_opposite_agreement: float
    krippendorff_alpha: float


@dataclass
class EvalReport:
    dimension: str
    # one entry per pole the gold set holds, pole A first
    poles: dict[str, PoleMetrics] = field(default_factory=dict)
    accuracy: float | None = None
    soft_accuracy: float | None = None
    agreement: AgreementStats | None = None


def _confusion(predictions: Mapping[str, str], gold: GoldLabelSet) -> Counter[tuple[str, str]]:
    """The number of gold units for each (gold label, predicted label) pair."""
    missing = [k for k in gold.labels if k not in predictions]
    if missing:
        raise DataError(f"predictions missing for gold units: {sorted(missing)[:5]}")
    return Counter((truth, predictions[key]) for key, truth in gold.labels.items())


def _exact_and_soft(pairs: Counter[tuple[str, str]]) -> tuple[float, float]:
    """(share of pairs that agree, share of pairs that are not polar opposites).

    A pair agrees when its labels are equal, or when the first is neutral and
    the second unclassified.
    """
    n = sum(pairs.values())
    n_exact = sum(c for (x, y), c in pairs.items() if x == y or (x, y) == (NEUTRAL, UNCLASSIFIED))
    n_opposite = pairs[POLE_A, POLE_B] + pairs[POLE_B, POLE_A]
    # single division keeps soft >= exact in floating point
    return n_exact / n, (n - n_opposite) / n


def pole_metrics(
    predictions: Mapping[str, str], gold: GoldLabelSet, pole: str
) -> PoleMetrics:
    """Precision / recall / unknown-rate / polar-opposite-rate for one pole.

    Rates are over the gold units of this pole; precision's denominator is
    every gold-covered unit predicted as this pole. Neutral or unclassified
    predictions count as unknown, never as incorrect.
    """
    opposite = {POLE_A: POLE_B, POLE_B: POLE_A}.get(pole)
    if opposite is None:
        raise DataError(f"pole must be {POLE_A} or {POLE_B}, got {pole!r}")
    table = _confusion(predictions, gold)
    n_in_pole = sum(c for (truth, _), c in table.items() if truth == pole)
    if not n_in_pole:
        raise DataError(f"gold set has no units labeled {pole}")
    n_hit = table[pole, pole]
    n_predicted = sum(c for (_, pred), c in table.items() if pred == pole)
    return PoleMetrics(
        precision=n_hit / n_predicted if n_predicted else None,
        recall=n_hit / n_in_pole,
        pct_unknown=(table[pole, NEUTRAL] + table[pole, UNCLASSIFIED]) / n_in_pole,
        pct_incorrect=table[pole, opposite] / n_in_pole,
    )


def accuracy_soft(
    predictions: Mapping[str, str], gold: GoldLabelSet
) -> tuple[float, float]:
    """(exact 3-way accuracy, soft accuracy penalizing only polar opposites).

    An unclassified prediction matches gold neutral exactly.
    """
    table = _confusion(predictions, gold)
    if not table:
        raise DataError("gold set is empty")
    return _exact_and_soft(table)


def krippendorff_alpha(annotator_a: Sequence[str], annotator_b: Sequence[str]) -> float:
    """Nominal-data alpha from the pair counts and the label totals.

    With n = 2 * items values, D the pairs whose two labels differ and n_c
    the values labelled c, the observed disagreement is 2D / n and the
    expected one is (n^2 - sum n_c^2) / (n (n - 1)). Every count is an
    integer, so both are one correctly rounded division.
    """
    if len(annotator_a) != len(annotator_b):
        raise DataError("annotator sequences differ in length")
    if len(annotator_a) < 2:
        raise DataError("alpha needs at least 2 items")
    n_differ = sum(x != y for x, y in zip(annotator_a, annotator_b))
    totals = Counter(annotator_a) + Counter(annotator_b)
    n = 2 * len(annotator_a)
    n_expected = n * n - sum(t * t for t in totals.values())
    if n_expected == 0:
        log.warning("all annotations identical; alpha reported as 1 by convention")
        return 1.0
    return 1.0 - (2 * n_differ / n) / (n_expected / (n * (n - 1)))


def agreement(annotations: AnnotationTable) -> AgreementStats:
    """Exact agreement, polar-opposite-only agreement, and Krippendorff alpha."""
    # alpha's own check rejects fewer than 2 items
    alpha = krippendorff_alpha(annotations.annotator_a, annotations.annotator_b)
    exact, soft = _exact_and_soft(Counter(zip(annotations.annotator_a, annotations.annotator_b)))
    return AgreementStats(
        percent_agreement=exact, polar_opposite_agreement=soft, krippendorff_alpha=alpha
    )


def evaluate_predictions(
    predictions: Mapping[str, str],
    gold: GoldLabelSet,
    dimension: str,
    annotations: AnnotationTable | None = None,
) -> EvalReport:
    """Bundle per-pole metrics, accuracies, and optional agreement stats."""
    in_gold = set(gold.labels.values())
    poles = {pole: pole_metrics(predictions, gold, pole) for pole in (POLE_A, POLE_B)
             if pole in in_gold}
    report = EvalReport(dimension, poles)
    report.accuracy, report.soft_accuracy = accuracy_soft(predictions, gold)
    if annotations is not None:
        report.agreement = agreement(annotations)
    return report


# ---------------------------------------------------------------------------
# file formats

def write_gold(labels: Mapping[str, str], path: str | Path) -> None:
    """key <TAB> label rows in key order, as read_gold reads them."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(labels):
            fh.write(f"{key}\t{labels[key]}\n")


def read_gold(path: str | Path) -> GoldLabelSet:
    """key <TAB> label rows."""
    labels: dict[str, str] = {}
    for lineno, (key, label) in read_rows(path, "\t", 2, key="key", comments=True):
        if label not in GOLD_LABELS:
            raise DataError(f"{path}: line {lineno}: unknown label {label!r}")
        labels[key] = label
    return GoldLabelSet(labels=labels)


def read_annotations(path: str | Path) -> AnnotationTable:
    """key <TAB> annotator1 <TAB> annotator2 rows; agreement needs two or more."""
    rows: list[list[str]] = []
    for lineno, row in read_rows(path, "\t", 3, key="key", comments=True):
        for label in row[1:]:
            if label not in GOLD_LABELS:
                raise DataError(f"{path}: line {lineno}: unknown label {label!r}")
        rows.append(row)
    if len(rows) < 2:
        raise DataError(f"{path}: agreement needs at least 2 items, got {len(rows)}")
    items, col_a, col_b = map(list, zip(*rows))
    return AnnotationTable(items=items, annotator_a=col_a, annotator_b=col_b)


def write_eval_reports(
    reports: Sequence[EvalReport], poles_path: str | Path, overall_path: str | Path
) -> None:
    write_csv(
        poles_path,
        ["dimension", "pole", "precision", "recall", "pct_unknown", "pct_incorrect"],
        (
            [report.dimension, pole, m.precision, m.recall, m.pct_unknown, m.pct_incorrect]
            for report in reports
            for pole, m in report.poles.items()
        ),
    )
    write_csv(
        overall_path,
        [
            "dimension",
            "accuracy",
            "soft_accuracy",
            "krippendorff_alpha",
            "percent_agreement",
            "polar_opposite_agreement",
        ],
        (
            [
                report.dimension,
                report.accuracy,
                report.soft_accuracy,
                report.agreement.krippendorff_alpha if report.agreement else None,
                report.agreement.percent_agreement if report.agreement else None,
                report.agreement.polar_opposite_agreement if report.agreement else None,
            ]
            for report in reports
        ),
    )
