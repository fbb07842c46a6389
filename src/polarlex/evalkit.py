"""Evaluation against gold labels and inter-annotator agreement metrics."""

from __future__ import annotations

import logging
from dataclasses import dataclass
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
    pole_a: PoleMetrics | None = None
    pole_b: PoleMetrics | None = None
    accuracy: float | None = None
    soft_accuracy: float | None = None
    agreement: AgreementStats | None = None


def _opposite(pole: str) -> str:
    return POLE_B if pole == POLE_A else POLE_A


def pole_metrics(
    predictions: Mapping[str, str], gold: GoldLabelSet, pole: str
) -> PoleMetrics:
    """Precision / recall / unknown-rate / polar-opposite-rate for one pole.

    Rates are over the gold units of this pole; precision's denominator is
    every gold-covered unit predicted as this pole. Neutral or unclassified
    predictions count as unknown, never as incorrect.
    """
    if pole not in (POLE_A, POLE_B):
        raise DataError(f"pole must be {POLE_A} or {POLE_B}, got {pole!r}")
    missing = [k for k in gold.labels if k not in predictions]
    if missing:
        raise DataError(f"predictions missing for gold units: {sorted(missing)[:5]}")
    opposite = _opposite(pole)
    in_pole = [k for k, v in gold.labels.items() if v == pole]
    if not in_pole:
        raise DataError(f"gold set has no units labeled {pole}")
    n_hit = sum(1 for k in in_pole if predictions[k] == pole)
    n_unknown = sum(1 for k in in_pole if predictions[k] in (NEUTRAL, UNCLASSIFIED))
    n_incorrect = sum(1 for k in in_pole if predictions[k] == opposite)
    n_predicted = sum(1 for k in gold.labels if predictions[k] == pole)
    return PoleMetrics(
        precision=n_hit / n_predicted if n_predicted else None,
        recall=n_hit / len(in_pole),
        pct_unknown=n_unknown / len(in_pole),
        pct_incorrect=n_incorrect / len(in_pole),
    )


def accuracy_soft(
    predictions: Mapping[str, str], gold: GoldLabelSet
) -> tuple[float, float]:
    """(exact 3-way accuracy, soft accuracy penalizing only polar opposites).

    An unclassified prediction matches gold neutral exactly.
    """
    if not gold.labels:
        raise DataError("gold set is empty")
    missing = [k for k in gold.labels if k not in predictions]
    if missing:
        raise DataError(f"predictions missing for gold units: {sorted(missing)[:5]}")
    n = len(gold.labels)
    n_exact = 0
    n_opposite = 0
    for key, truth in gold.labels.items():
        pred = predictions[key]
        if pred == truth or (pred == UNCLASSIFIED and truth == NEUTRAL):
            n_exact += 1
        if {pred, truth} == {POLE_A, POLE_B}:
            n_opposite += 1
    # single division keeps soft >= accuracy exact in floating point
    return n_exact / n, (n - n_opposite) / n


def krippendorff_alpha(annotator_a: Sequence[str], annotator_b: Sequence[str]) -> float:
    """Nominal-data alpha from the coincidence matrix over the 3 categories."""
    if len(annotator_a) != len(annotator_b):
        raise DataError("annotator sequences differ in length")
    if len(annotator_a) < 2:
        raise DataError("alpha needs at least 2 items")
    cats = sorted(set(annotator_a) | set(annotator_b))
    coincidence = {c: {k: 0.0 for k in cats} for c in cats}
    for va, vb in zip(annotator_a, annotator_b):
        coincidence[va][vb] += 1.0
        coincidence[vb][va] += 1.0
    n_c = {c: sum(coincidence[c].values()) for c in cats}
    n = sum(n_c.values())
    observed = sum(coincidence[c][k] for c in cats for k in cats if c != k) / n
    expected = sum(n_c[c] * n_c[k] for c in cats for k in cats if c != k) / (n * (n - 1))
    if expected == 0.0:
        log.warning("all annotations identical; alpha reported as 1 by convention")
        return 1.0
    return 1.0 - observed / expected


def agreement(annotations: AnnotationTable) -> AgreementStats:
    """Exact agreement, polar-opposite-only agreement, and Krippendorff alpha."""
    n = len(annotations.items)
    if n < 2:
        raise DataError("agreement needs at least 2 items")
    pairs = list(zip(annotations.annotator_a, annotations.annotator_b))
    n_exact = sum(1 for a, b in pairs if a == b)
    n_opposite = sum(1 for a, b in pairs if {a, b} == {POLE_A, POLE_B})
    alpha = krippendorff_alpha(annotations.annotator_a, annotations.annotator_b)
    return AgreementStats(
        percent_agreement=n_exact / n,
        polar_opposite_agreement=(n - n_opposite) / n,
        krippendorff_alpha=alpha,
    )


def evaluate_predictions(
    predictions: Mapping[str, str],
    gold: GoldLabelSet,
    dimension: str,
    annotations: AnnotationTable | None = None,
) -> EvalReport:
    """Bundle per-pole metrics, accuracies, and optional agreement stats."""
    report = EvalReport(dimension=dimension)
    for pole in (POLE_A, POLE_B):
        if any(v == pole for v in gold.labels.values()):
            metrics = pole_metrics(predictions, gold, pole)
            if pole == POLE_A:
                report.pole_a = metrics
            else:
                report.pole_b = metrics
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
            for pole, m in ((POLE_A, report.pole_a), (POLE_B, report.pole_b))
            if m is not None
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
