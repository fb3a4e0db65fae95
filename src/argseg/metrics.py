"""Token-level evaluation: confusion counts, per-class F1, weighted F1.

Weighted F1 averages per-class F1 with weights proportional to each class's
gold support, which keeps the heavy class imbalance of BIO labeling from
hiding in a macro average.  Classes with zero support are excluded; a zero
denominator in precision or recall defines the corresponding F1 as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LABELS
from .errors import ContractViolation

N_CLASSES = len(LABELS)


@dataclass
class MetricsReport:
    confusion: np.ndarray  # (3, 3) counts, rows = gold, cols = predicted
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    weighted_f1: float
    accuracy: float

    def summary(self) -> str:
        lines = [
            f"weighted F1 {self.weighted_f1:.4f}   token accuracy {self.accuracy:.4f}"
        ]
        for i, lab in enumerate(LABELS):
            lines.append(
                f"  {lab}: P {self.precision[i]:.4f}  R {self.recall[i]:.4f}  "
                f"F1 {self.f1[i]:.4f}  support {int(self.support[i])}"
            )
        return "\n".join(lines)


def confusion_matrix(gold: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """3x3 counts of (gold, predicted) label pairs, one pair per token."""
    pairs = np.asarray(gold) * N_CLASSES + np.asarray(predicted)
    return np.bincount(pairs, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


def metrics_from_confusion(confusion: np.ndarray) -> MetricsReport:
    confusion = np.asarray(confusion, dtype=np.int64)
    support = confusion.sum(axis=1)
    total = support.sum()
    if total == 0:
        raise ContractViolation("cannot compute metrics over zero valid tokens")
    predicted_totals = confusion.sum(axis=0)
    diag = np.diag(confusion).astype(np.float64)

    precision = np.divide(diag, predicted_totals, out=np.zeros(N_CLASSES), where=predicted_totals > 0)
    recall = np.divide(diag, support, out=np.zeros(N_CLASSES), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(N_CLASSES), where=pr > 0)

    weighted = float((support / total) @ f1)
    accuracy = float(diag.sum() / total)
    return MetricsReport(confusion, precision, recall, f1, support, weighted, accuracy)


REPORT_CSV_HEADER = "arch,embedding,seed,lr,weighted_f1,accuracy,f1_B,f1_I,f1_O,gap"


def report_csv_row(report: MetricsReport, arch: str, embedding: str, seed: int,
                   lr: float, gap: float) -> str:
    return (
        f"{arch},{embedding},{seed},{lr:.6g},{report.weighted_f1:.6f},"
        f"{report.accuracy:.6f},{report.f1[0]:.6f},{report.f1[1]:.6f},"
        f"{report.f1[2]:.6f},{gap:.6f}"
    )
