"""Evaluation metrics: accuracy, NLL, ECE, perplexity, prediction disagreement.

Prediction disagreement (PD) is the pairwise mean: the mean over all
unordered head pairs of the fraction of samples on which the pair
disagrees (which reduces to the usual two-model PD at M=2).
"""

import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np


@dataclass
class MetricsReport:
    step: int
    accuracy: float
    nll: float
    ece: float
    perplexity: float
    pd: float | None = None           # None when the model has a single head
    train_loss: float | None = None
    lr: float | None = None
    drop_fraction: float | None = None
    flops_cumulative: int = 0
    flops_forward_sparse: int = 0
    flops_forward_dense: int = 0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class DisagreementRecord:
    sample: int
    head_classes: list[int]
    ensemble_class: int
    label: int


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError(
            f"need equal nonempty prediction/label arrays, got "
            f"{predictions.shape} vs {labels.shape}")
    return float(np.mean(predictions == labels))


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, in nats."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    row_sums = probs.sum(axis=1)
    if not np.all(np.abs(row_sums - 1.0) <= 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(f"label out of range [0, {probs.shape[1]})")
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, 1e-12))))


def ece(probs: np.ndarray, labels: np.ndarray, bins: int = 15) -> float:
    """Expected calibration error over equal-width right-closed confidence bins.

    Confidence c lands in bin ceil(c * bins); c = 0 maps to bin 1; empty
    bins contribute nothing.
    """
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    correct = (pred == labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * bins).astype(np.int64), 1, bins)
    n = len(labels)
    total = 0.0
    for b in range(1, bins + 1):
        members = idx == b
        count = int(members.sum())
        if count == 0:
            continue
        gap = abs(correct[members].mean() - conf[members].mean())
        total += (count / n) * gap
    return total


def perplexity(mean_nll: float) -> float:
    if mean_nll < 0:
        raise ValueError(f"mean NLL must be nonnegative, got {mean_nll}")
    return math.exp(mean_nll)


def prediction_disagreement(head_predictions: np.ndarray) -> float:
    """Fraction of samples on which heads conflict, as a mean over head pairs."""
    head_predictions = np.asarray(head_predictions)
    m = head_predictions.shape[0]
    if m < 2:
        raise ValueError(f"prediction disagreement needs at least 2 heads, got {m}")
    rates = [np.mean(head_predictions[i] != head_predictions[j])
             for i, j in combinations(range(m), 2)]
    return float(np.mean(rates))


def disagreement_breakdown(head_predictions: np.ndarray, ensemble_predictions: np.ndarray,
                           labels: np.ndarray) -> list[DisagreementRecord]:
    """One record per sample where the heads do not all agree, by sample id."""
    head_predictions = np.asarray(head_predictions)
    ensemble_predictions = np.asarray(ensemble_predictions)
    labels = np.asarray(labels)
    if head_predictions.shape[1] != len(labels) or len(ensemble_predictions) != len(labels):
        raise ValueError("inconsistent lengths between predictions and labels")
    conflicted = np.flatnonzero(np.any(head_predictions != head_predictions[0], axis=0))
    return [DisagreementRecord(sample=int(i),
                               head_classes=head_predictions[:, i].astype(int).tolist(),
                               ensemble_class=int(ensemble_predictions[i]),
                               label=int(labels[i]))
            for i in conflicted]
