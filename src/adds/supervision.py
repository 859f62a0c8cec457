"""Batch-level label selection and the asymmetric loss."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor, _op

PROB_EPS = 1e-7


@dataclass
class AslConfig:
    gamma_pos: float = 0.0
    gamma_neg: float = 4.0
    margin: float = 0.05

    def __post_init__(self):
        if not (0 <= self.gamma_pos < np.inf and 0 <= self.gamma_neg < np.inf):
            raise ConfigurationError("focusing exponents must be finite and >= 0")
        if not 0.0 <= self.margin < 1.0:
            raise ConfigurationError(f"margin must be in [0, 1), got {self.margin}")


@dataclass
class LabelSelection:
    selected: np.ndarray  # sorted indices of S' = positives + sampled negatives
    positives: np.ndarray
    sampled_negatives: np.ndarray


def select_labels(batch_labels, alpha: float, stream) -> LabelSelection:
    """Pool positives across the batch, add min(alpha*|pos|, k-|pos|) uniform
    negatives sampled without replacement."""
    if not 0 <= alpha < np.inf:
        raise ConfigurationError(f"alpha must be finite and >= 0, got {alpha}")
    labels = np.atleast_2d(np.asarray(batch_labels))
    k = labels.shape[1]
    positives = np.flatnonzero(labels.any(axis=0))
    negatives = np.setdiff1d(np.arange(k), positives)
    n_slt = int(min(alpha * len(positives), len(negatives)))  # alpha * |pos| may be inf
    if n_slt > 0:
        sampled = np.sort(stream.choice(negatives, size=n_slt, replace=False))
    else:
        sampled = np.array([], dtype=int)
    selected = np.sort(np.concatenate([positives, sampled])).astype(int)
    return LabelSelection(
        selected=selected,
        positives=positives.astype(int),
        sampled_negatives=sampled.astype(int),
    )


def asl_loss(p, y, cfg: AslConfig):
    """Asymmetric loss (mean over classes) and its gradient w.r.t. p.

    ``p`` and ``y`` hold one image's k probabilities and labels, or a (B, k)
    row per image. The loss is a float for one image and an array of B
    per-image means for rows; each row's mean is the same sum as the image's
    alone, so the two round alike.

    Positives: -(1-p)^g+ * log p. Negatives, with p_m = max(p - margin, 0):
    -(p_m)^g- * log(1 - p_m). With both exponents and the margin at zero this
    is exactly binary cross-entropy.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)
    if p.shape != y.shape or p.ndim not in (1, 2):
        raise ValueError(f"p {p.shape} and y {y.shape} must share one shape, (k,) or (B, k)")
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    n = p.shape[-1]
    gp, gn, m = cfg.gamma_pos, cfg.gamma_neg, cfg.margin

    loss = np.zeros(p.shape)
    grad = np.zeros(p.shape)
    pos = y == 1
    if pos.any():
        pp = p[pos]
        w = (1.0 - pp) ** gp
        loss[pos] = -w * np.log(pp)
        grad[pos] = -w / pp
        if gp > 0:
            grad[pos] += gp * (1.0 - pp) ** (gp - 1.0) * np.log(pp)
    neg = ~pos
    if neg.any():
        pm = np.maximum(p[neg] - m, 0.0)
        active = pm > 0
        lneg = np.zeros(pm.size)
        gneg = np.zeros(pm.size)
        pa = pm[active]
        w = pa**gn
        lneg[active] = -w * np.log1p(-pa)
        gneg[active] = w / (1.0 - pa)
        if gn > 0:
            gneg[active] += -gn * pa ** (gn - 1.0) * np.log1p(-pa)
        loss[neg] = lneg
        grad[neg] = gneg
    means = loss.mean(axis=-1)
    return (float(means) if p.ndim == 1 else means), grad / n


def asl_loss_node(p: Tensor, y: np.ndarray, cfg: AslConfig) -> Tensor:
    """Graph form: scalar loss Tensor, the mean over images of each image's
    loss, for a k x 1 probability column or a batch x k x 1 stack (``y`` then
    holds one label row per image).

    Each image's loss is rounded to the value dtype and the images are added
    in order before scaling by 1 / batch, as a graph that summed one loss
    node per image rounds them.
    """
    dtype = p.value.dtype
    rows = p.value.reshape(-1, p.value.shape[-2] * p.value.shape[-1])
    values, grad = asl_loss(rows, np.reshape(y, rows.shape), cfg)
    inv_n = dtype.type(1.0 / len(rows))
    total = np.cumsum(values.astype(dtype))[-1]
    grad = grad.reshape(p.value.shape).astype(dtype)
    return _op(np.full((1, 1), total * inv_n, dtype=dtype), (p,),
               (lambda g: g[0, 0] * inv_n * grad,))

