"""Scoring: three-way confusion matrix, per-class precision/recall/F1,
accuracy, macro-F1, and the dedicated Half-True F1 the half-truth task
is judged on, from label lists or from a corpus and its verdict reports.
Ablations run the pipeline, so they live in ``tracer.cli``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .corpus import LABELS, ClaimRecord, Label
from .errors import EmptyInput, LengthMismatch, MissingPrediction
from .verdict import VerdictReport

_INDEX = {label: i for i, label in enumerate(LABELS)}


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed (gold, predicted) in the fixed label order."""

    counts: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return int(np.sum(self.array))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)

    def cell(self, gold: Label, pred: Label) -> int:
        return self.counts[_INDEX[gold]][_INDEX[pred]]


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

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {
                label.value: dict(values) for label, values in self.per_class.items()
            },
            "macro_f1": self.macro_f1,
            "f1_half_true": self.f1_half_true,
            "n": self.n,
            "n_failed": self.n_failed,
        }


def confusion_matrix(gold: Sequence[Label], pred: Sequence[Label]) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise LengthMismatch(len(gold), len(pred))
    if not gold:
        raise EmptyInput("cannot score zero claims")
    counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(gold, pred):
        counts[_INDEX[g], _INDEX[p]] += 1
    return ConfusionMatrix(counts=tuple(tuple(int(x) for x in row) for row in counts))


def per_class_prf(matrix: ConfusionMatrix, label: Label) -> tuple[float, float, float]:
    """Precision, recall, F1 for one class; zero denominators score 0."""
    counts = matrix.array
    i = _INDEX[label]
    tp = counts[i, i]
    fp = counts[:, i].sum() - tp
    fn = counts[i, :].sum() - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return float(precision), float(recall), float(f1)


def summarize(matrix: ConfusionMatrix) -> MetricsReport:
    counts = matrix.array
    per_class = {}
    for label in LABELS:
        precision, recall, f1 = per_class_prf(matrix, label)
        per_class[label] = {"precision": precision, "recall": recall, "f1": f1}
    # macro-F1 averages the full three-label universe even when a label
    # never occurs, so scores stay comparable across corpora
    macro_f1 = sum(per_class[label]["f1"] for label in LABELS) / len(LABELS)
    return MetricsReport(
        accuracy=float(np.trace(counts) / counts.sum()),
        per_class=per_class,
        macro_f1=macro_f1,
        f1_half_true=per_class[Label.HALF_TRUE]["f1"],
        n=int(counts.sum()),
    )


def score_labels(gold: Sequence[Label], pred: Sequence[Label]) -> MetricsReport:
    return summarize(confusion_matrix(gold, pred))


# the stages a claim cannot go on without; see ``run_pipeline``
_FOUNDATION_STAGES = ("alignment", "base_verdict")


def failed_stage(report: VerdictReport) -> str | None:
    """The stage a failed claim failed at, or None for a claim that has a prediction.

    A claim failed when its report has no base verdict stage with status
    ``ok``. The stage named is its last failed foundation stage, or the
    base verdict when the report records none.
    """
    if any(t.stage == "base_verdict" and t.status == "ok" for t in report.stages):
        return None
    failed = [
        t.stage for t in report.stages if t.stage in _FOUNDATION_STAGES and t.status == "failed"
    ]
    return failed[-1] if failed else "base_verdict"


def score_reports(
    records: Sequence[ClaimRecord], reports: Iterable[VerdictReport]
) -> MetricsReport | None:
    """Score each gold-labelled record against the report with its id.

    Reports of other ids are ignored. None when no record has a gold
    label; a gold record with no report is MissingPrediction, naming the
    first such id in corpus order. A claim that failed (``failed_stage``)
    has no prediction: its fallback label is not scored, and it counts in
    ``n_failed``.
    """
    by_id = {report.id: report for report in reports}
    gold, pred = [], []
    n_failed = 0
    for record in records:
        if record.gold_label is None:
            continue
        if record.id not in by_id:
            raise MissingPrediction(record.id)
        report = by_id[record.id]
        if failed_stage(report) is not None:
            n_failed += 1
            continue
        gold.append(record.gold_label)
        pred.append(report.final_verdict.label)
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
    "ConfusionMatrix",
    "MetricsReport",
    "confusion_matrix",
    "failed_stage",
    "format_table",
    "per_class_prf",
    "score_labels",
    "score_reports",
    "summarize",
]
