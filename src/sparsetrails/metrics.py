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
    return float(np.add.reduce(predictions == labels, axis=None) / predictions.size)


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, in nats."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.logical_and.reduce(np.abs(np.add.reduce(probs, axis=1) - 1.0) <= 1e-6,
                                 axis=None):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    classes = probs.shape[1]
    if (np.minimum.reduce(labels, axis=None) < 0
            or np.maximum.reduce(labels, axis=None) >= classes):
        raise ValueError(f"label out of range [0, {classes})")
    picked = probs[np.arange(len(labels)), labels]
    return float(np.add.reduce(-np.log(np.maximum(picked, 1e-12))) / len(labels))


def ece(probs: np.ndarray, labels: np.ndarray, bins: int = 15) -> float:
    """Expected calibration error over equal-width right-closed confidence bins.

    Confidence c lands in bin ceil(c * bins); c = 0 maps to bin 1; empty
    bins contribute nothing. Each bin's mean confidence is `add.reduce` over
    its samples in sample order, as a boolean mask would gather them: a
    stable sort by bin makes every bin one contiguous run. Its accuracy is
    a count of hits, which any summation order gives exactly.
    """
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    conf = np.maximum.reduce(probs, axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = np.minimum(np.maximum(np.ceil(conf * bins).astype(np.int64), 1), bins)
    counts = np.bincount(idx, minlength=bins + 1).tolist()
    hits = np.bincount(idx[correct], minlength=bins + 1).tolist()
    conf = conf[idx.argsort(kind="stable")]
    n = len(labels)
    total, start = 0.0, 0
    for count, hit in zip(counts, hits):
        if count == 0:
            continue
        stop = start + count
        gap = abs(hit / count - float(np.add.reduce(conf[start:stop])) / count)
        total += (count / n) * gap
        start = stop
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
    first, second = np.array(list(combinations(range(m), 2))).T
    flat = head_predictions.reshape(m, -1)
    rates = np.add.reduce(flat[first] != flat[second], axis=1) / flat.shape[1]
    return float(np.add.reduce(rates) / rates.size)


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
