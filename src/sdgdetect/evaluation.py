"""Scoring predictions against expert labels.

Counts are micro-averaged over (document, SDG) pairs, restricted to each
document's evaluated set. Metrics with a zero denominator are reported
as None ("undefined"), never silently as 0 or NaN.

Note: sensitivity is the true-positive rate TP/(TP+FN) and specificity
the true-negative rate TN/(TN+FP); one passage of source material swaps
the two parentheticals, which we treat as an erratum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Dataset
from .errors import NoLabelsError, UndefinedMetricError
from .systems import PredictionMatrix

__all__ = [
    "ConfusionCounts",
    "MetricReport",
    "confusion",
    "metrics",
    "roc_point",
    "sdgs_per_document",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


@dataclass(frozen=True)
class MetricReport:
    sensitivity: float | None
    specificity: float | None
    accuracy: float | None
    balanced_accuracy: float | None
    precision: float | None
    f1: float | None


def confusion(matrix: PredictionMatrix, dataset: Dataset, system: str) -> ConfusionCounts:
    """Tally TP/FP/TN/FN over every evaluated (document, SDG) pair.

    Each document is one step of mask arithmetic: its prediction mask and
    its labels are each ANDed with its evaluated mask, so SDGs outside the
    evaluated set never count (none of an unlabeled document's), and each
    tally adds the ``bit_count`` of one AND.
    """
    if not dataset.labeled:
        raise NoLabelsError(f"dataset {dataset.name!r} has no expert labels")
    tp = fp = tn = fn = 0
    column = matrix.columns[system]
    for doc in dataset.documents:
        evaluated = doc.evaluated_mask
        predicted = column[doc.id] & evaluated
        labeled = doc.label_mask & evaluated
        tp += (predicted & labeled).bit_count()
        fp += (predicted & ~labeled).bit_count()
        fn += (labeled & ~predicted).bit_count()
        tn += (evaluated & ~(predicted | labeled)).bit_count()
    return ConfusionCounts(tp, fp, tn, fn)


def _ratio(num: int | float, den: int | float) -> float | None:
    return num / den if den else None


def metrics(counts: ConfusionCounts) -> MetricReport:
    sens = _ratio(counts.tp, counts.tp + counts.fn)
    spec = _ratio(counts.tn, counts.tn + counts.fp)
    acc = _ratio(counts.tp + counts.tn, counts.total)
    bal = (sens + spec) / 2 if sens is not None and spec is not None else None
    prec = _ratio(counts.tp, counts.tp + counts.fp)
    if prec is not None and sens is not None and (prec + sens) > 0:
        f1 = 2 * prec * sens / (prec + sens)
    else:
        f1 = None
    return MetricReport(sens, spec, acc, bal, prec, f1)


def roc_point(report: MetricReport) -> tuple[float, float]:
    """(1 - specificity, sensitivity); errors when either is undefined."""
    if report.sensitivity is None or report.specificity is None:
        raise UndefinedMetricError("ROC point needs both sensitivity and specificity")
    return (1.0 - report.specificity, report.sensitivity)


def sdgs_per_document(
    matrix: PredictionMatrix, dataset: Dataset, system: str
) -> tuple[float, float]:
    """(mean SDGs assigned per document, mean word count) for plotting."""
    n = len(dataset.documents)
    total_sdgs = sum(mask.bit_count() for mask in matrix.columns[system].values())
    total_words = sum(doc.word_count for doc in dataset.documents)
    return (total_sdgs / n, total_words / n)
