"""Adam with decoupled weight decay, and finite-difference gradient checking."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError
from .tensor import Tensor, backward


@dataclass
class AdamState:
    """First/second moment accumulators, parallel to a fixed parameter list."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.value) for p in params],
            v=[np.zeros_like(p.value) for p in params],
            step=0,
        )


def adam_step(
    params: list[Tensor],
    state: AdamState,
    lr: float,
    wd: float = 0.0,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One Adam update from each parameter's accumulated ``.grad``.

    Weight decay is decoupled (applied directly to the value, not the
    gradient) and, like the update itself, touches trainable params only.
    """
    if lr <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {lr}")
    b1, b2 = betas
    state.step += 1
    t = state.step
    for i, p in enumerate(params):
        if not p.trainable:
            continue
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        dt = p.value.dtype
        if wd:
            p.value -= dt.type(lr * wd) * p.value
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / (1.0 - b1**t)
        v_hat = state.v[i] / (1.0 - b2**t)
        p.value -= (dt.type(lr) * m_hat / (np.sqrt(v_hat) + dt.type(eps))).astype(dt)


def grad_check(loss_fn, params: list[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients to central differences; return max relative error.

    ``loss_fn`` must rebuild the graph on each call and return a scalar Tensor.
    Relative error uses an absolute floor so near-zero gradients are compared
    at finite-difference noise level rather than amplified.
    """
    loss = loss_fn()
    if not np.isfinite(loss.value).all():
        raise NumericError("loss is not finite")
    backward(loss)
    # params the loss does not reach get no grad from backward; their
    # analytic gradient is zero
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.value)
        for p in params
    ]

    max_rel = 0.0
    for p, a in zip(params, analytic):
        if not p.trainable:
            if np.any(a != 0):
                raise AssertionError(f"frozen param {p.name} has nonzero gradient")
            continue
        flat = p.value.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = float(loss_fn().value[0, 0])
            flat[j] = orig - eps
            f_minus = float(loss_fn().value[0, 0])
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("perturbed loss is not finite")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a_j = a.reshape(-1)[j]
            rel = abs(a_j - numeric) / max(abs(a_j), abs(numeric), 1e-4)
            max_rel = max(max_rel, rel)
    return max_rel
