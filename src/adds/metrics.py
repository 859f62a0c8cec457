"""Multi-label ranking metrics: mAP over per-class average precision, and F1@k."""

from dataclasses import dataclass

import numpy as np

F1_CUTOFFS = (3, 5)  # the F1@k a report gives unless asked for others


@dataclass
class MetricsReport:
    map: float
    f1_at: dict  # k -> F1 score
    n_samples: int


def _precision_at_positives(ranked: np.ndarray) -> float:
    """AP of one ranked label column: mean precision at the rank of each positive."""
    pos_ranks = np.flatnonzero(ranked == 1)
    if pos_ranks.size == 0:
        raise ValueError("class has no positive instance")
    hits = np.arange(1, pos_ranks.size + 1)
    precision_at_pos = hits / (pos_ranks + 1)
    return float(precision_at_pos.mean())


def _rank(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Labels reordered by descending score along axis 0; ties keep sample order."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), axis=0, kind="stable")
    return np.take_along_axis(np.asarray(labels), order, axis=0)


def mean_average_precision(scores: np.ndarray, labels: np.ndarray):
    """mAP over classes with at least one positive.

    ``scores`` and ``labels`` are n_images x n_classes. Returns
    (mAP, {class: AP}, [skipped classes]). One sort ranks every class.
    """
    scores = np.atleast_2d(scores)
    labels = np.atleast_2d(labels)
    ranked = _rank(scores, labels)
    per_class = {}
    skipped = []
    for c, n_pos in enumerate(labels.sum(axis=0)):
        if n_pos == 0:
            skipped.append(c)
            continue
        per_class[c] = _precision_at_positives(ranked[:, c])
    if not per_class:
        return 0.0, per_class, skipped
    return float(np.mean(list(per_class.values()))), per_class, skipped


def top_k_predictions(scores: np.ndarray, k: int) -> np.ndarray:
    """Binary matrix where each image predicts exactly its top-k classes.

    Ties break by ascending class index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.atleast_2d(scores)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    pred = np.zeros(scores.shape, dtype=np.int8)
    np.put_along_axis(pred, order, 1, axis=1)
    return pred


def f1_at_k(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Micro-averaged F1 when each image predicts its k highest-scored labels."""
    labels = np.atleast_2d(labels)
    pred = top_k_predictions(scores, k)
    tp = int((pred & (labels == 1)).sum())
    n_pred = int(pred.sum())
    n_true = int((labels == 1).sum())
    if n_pred == 0 or n_true == 0 or tp == 0:
        return 0.0
    precision = tp / n_pred
    recall = tp / n_true
    return 2.0 * precision * recall / (precision + recall)


def metrics_report(scores, labels, ks=F1_CUTOFFS) -> MetricsReport:
    scores = np.atleast_2d(scores)
    labels = np.atleast_2d(labels)
    return MetricsReport(
        map=mean_average_precision(scores, labels)[0],
        f1_at={k: f1_at_k(scores, labels, k) for k in ks},
        n_samples=scores.shape[0],
    )
