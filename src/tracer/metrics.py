"""Scoring: per-class precision, recall and F1, accuracy, macro-F1 and the
Half-True F1 the half-truth task is judged on, from two label lists
(``score_labels``) or from a corpus and its predictions (``score_reports``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .corpus import LABELS, ClaimRecord, Label
from .errors import EmptyInput, MissingPrediction
from .verdict import VerdictReport


@dataclass(frozen=True)
class MetricsReport:
    """Scores over ``n`` predictions; ``n_failed`` claims had none.

    With no prediction to score (``n`` 0) the scores are None and
    ``per_class`` is empty.
    """

    accuracy: float | None
    per_class: dict
    macro_f1: float | None
    f1_half_true: float | None
    n: int
    n_failed: int = 0


def score_labels(gold: Sequence[Label], pred: Sequence[Label]) -> MetricsReport:
    """Scores of ``pred`` against ``gold``, paired by position; a zero denominator scores 0."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} labels, predictions have {len(pred)}")
    if not gold:
        raise EmptyInput("cannot score zero claims")
    counts = Counter(zip(gold, pred))  # (gold, predicted) -> claims
    per_class = {}
    for label in LABELS:
        tp = counts[label, label]
        predicted = sum(counts[other, label] for other in LABELS)
        actual = sum(counts[label, other] for other in LABELS)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = {"precision": precision, "recall": recall, "f1": f1}
    # macro-F1 averages the full three-label universe even when a label
    # never occurs, so scores stay comparable across corpora
    macro_f1 = sum(per_class[label]["f1"] for label in LABELS) / len(LABELS)
    return MetricsReport(
        accuracy=sum(counts[label, label] for label in LABELS) / len(gold),
        per_class=per_class,
        macro_f1=macro_f1,
        f1_half_true=per_class[Label.HALF_TRUE]["f1"],
        n=len(gold),
    )


def prediction(report: VerdictReport) -> Label | None:
    """The label a report predicts: its final label, or None for a failed claim."""
    return None if report.failed is not None else report.final_verdict.label


def score_reports(
    records: Sequence[ClaimRecord], predictions: Mapping[str, Label | None]
) -> MetricsReport | None:
    """Score each gold-labelled record against the prediction for its id.

    ``predictions`` maps a claim id to its ``prediction``. Other ids are
    ignored. None when no record has a gold label; a gold record with no
    entry is MissingPrediction, naming the first such id in corpus
    order. A claim that failed (None) has no prediction: its fallback
    label is not scored, and it counts in ``n_failed``.
    """
    gold, pred = [], []
    n_failed = 0
    for record in records:
        if record.gold_label is None:
            continue
        if record.id not in predictions:
            raise MissingPrediction(record.id)
        label = predictions[record.id]
        if label is None:
            n_failed += 1
            continue
        gold.append(record.gold_label)
        pred.append(label)
    if gold:
        return replace(score_labels(gold, pred), n_failed=n_failed)
    if n_failed:
        return MetricsReport(None, {}, None, None, n=0, n_failed=n_failed)
    return None


def format_table(report: MetricsReport) -> str:
    """Aligned plain-text rendering of a MetricsReport; only the counts when n is 0."""
    counts = [f"n             {report.n}", f"n_failed      {report.n_failed}"]
    if not report.n:
        return "\n".join(counts)
    width = max(len(label.value) for label in LABELS)
    lines = [f"{'label':<{width}}  precision  recall  f1"]
    for label in LABELS:
        row = report.per_class[label]
        lines.append(
            f"{label.value:<{width}}  "
            f"{row['precision']:>9.3f}  {row['recall']:>6.3f}  {row['f1']:.3f}"
        )
    lines.append("")
    lines.append(f"accuracy      {report.accuracy:.3f}")
    lines.append(f"macro_f1      {report.macro_f1:.3f}")
    lines.append(f"f1_half_true  {report.f1_half_true:.3f}")
    return "\n".join(lines + counts)


__all__ = [
    "MetricsReport",
    "format_table",
    "prediction",
    "score_labels",
    "score_reports",
]
