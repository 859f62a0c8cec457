"""Adam with decoupled weight decay, and finite-difference gradient checking."""

from dataclasses import dataclass

import numpy as np

from .decoder import classify, init_head, init_stack, stack_forward
from .errors import ConfigurationError, NumericError
from .rng import SeedStreams
from .supervision import AslConfig, asl_loss_node
from .tensor import Tensor, _op, backward

BETAS = (0.9, 0.999)  # Adam's decay rates of the first and second moments


@dataclass
class AdamState:
    """Adam moments for a fixed parameter list, kept in flat buffers.

    ``for_params`` packs the parameters' values, all trainable and of one
    dtype, into the one contiguous array ``values`` and rebinds each
    ``p.value`` to a view of it; ``flat_m`` and ``flat_v`` hold the moments in
    the same layout, so one vectorised update steps every parameter. ``m[i]``
    and ``v[i]`` are parameter i's moments, views into the flat arrays.
    ``views`` holds the parameters' values in packing order. From then on a
    parameter is updated in place; one whose ``.value`` is rebound would no
    longer train, and ``adam_step`` refuses it.
    """

    m: list
    v: list
    values: np.ndarray
    flat_m: np.ndarray
    flat_v: np.ndarray
    views: list
    step: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        frozen = [i for i, p in enumerate(params) if not p.trainable]
        if frozen:
            raise ConfigurationError(f"params[{frozen[0]}] is frozen; Adam packs trainable ones")
        dtypes = sorted({p.value.dtype.name for p in params})
        if len(dtypes) > 1:
            raise ConfigurationError(f"parameters mix dtypes {dtypes}; Adam keeps one buffer")
        values = np.concatenate([p.value.reshape(-1) for p in params]) if params else np.empty(0)
        flat_m, flat_v = np.zeros_like(values), np.zeros_like(values)
        m, v, lo = [], [], 0
        for p in params:
            shape, hi = p.value.shape, lo + p.value.size
            p.value = values[lo:hi].reshape(shape)
            m.append(flat_m[lo:hi].reshape(shape))
            v.append(flat_v[lo:hi].reshape(shape))
            lo = hi
        return cls(m=m, v=v, values=values, flat_m=flat_m, flat_v=flat_v,
                   views=[p.value for p in params])


def adam_step(
    params: list[Tensor],
    state: AdamState,
    lr: float,
    wd: float = 0.0,
    eps: float = 1e-8,
) -> None:
    """One Adam update from each parameter's accumulated ``.grad``.

    The moments decay at ``BETAS``. Weight decay is decoupled (applied to
    the value, not the gradient). Every op works element by element, so one
    pass over the flat buffers rounds exactly like a loop over the
    parameters. ``params`` must be the list ``state`` was made for, each
    still trainable and its value still the view ``for_params`` bound;
    otherwise ``ConfigurationError``, before any update.
    """
    if lr <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {lr}")
    if len(params) != len(state.views) or any(
        not p.trainable or p.value is not w for p, w in zip(params, state.views)
    ):
        raise ConfigurationError(
            "a parameter is frozen, or its value is not its view of the Adam buffer; "
            "update parameters in place"
        )
    b1, b2 = BETAS
    state.step += 1
    t = state.step
    if not params:
        return
    values, m, v = state.values, state.flat_m, state.flat_v
    dt = values.dtype
    g = np.concatenate([
        p.grad.reshape(-1) if p.grad is not None else np.zeros(p.value.size, dt)
        for p in params
    ])
    if wd:
        values -= dt.type(lr * wd) * values
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    values -= (dt.type(lr) * m_hat / (np.sqrt(v_hat) + dt.type(eps))).astype(dt, copy=False)


def grad_check(loss_fn, params: list[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients to central differences; return max relative error.

    ``loss_fn`` must rebuild the graph on each call and return a scalar Tensor.
    Relative error uses an absolute floor so near-zero gradients are compared
    at finite-difference noise level rather than amplified.
    """
    if not 0 < eps < np.inf:
        raise ConfigurationError(f"finite-difference step must be finite and > 0, got {eps}")
    loss = loss_fn()
    if not np.isfinite(loss.value).all():
        raise NumericError("loss is not finite")
    # backward resets only the nodes it reaches, so a listed param the loss
    # does not reach would keep the gradient of an earlier graph; cleared
    # first, its analytic gradient is zero
    for p in params:
        p.grad = None
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.value)
        for p in params
    ]

    max_rel = 0.0
    for i, (p, a) in enumerate(zip(params, analytic)):
        if not p.trainable:
            if np.any(a != 0):
                raise AssertionError(f"frozen params[{i}] has a nonzero gradient")
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


def decoder_gradcheck_loss(dims: int, depth: int, corrupt: bool = False):
    """(loss_fn, params) for ``grad_check``: a float64 decoder stack, 2 heads if
    ``dims`` is even, else 1, with head and ASL loss over 3 queries and 5 kv
    rows. ``corrupt`` adds a weight-dependent term whose gradient is dropped."""
    streams = SeedStreams(7)
    stack = init_stack(streams.stream("init"), depth=depth, embed_dim=dims,
                       heads=2 if dims % 2 == 0 else 1, dropout_rate=0.0,
                       dtype=np.float64)
    head = init_head(streams.stream("head"), dims, dtype=np.float64)
    data = streams.stream("data")
    q0 = data.standard_normal((3, dims))
    kv = data.standard_normal((5, dims))
    y = np.array([1, 0, 1])
    params = [t for _, t in stack.tensors()] + [t for _, t in head.tensors()]

    def loss_fn():
        q = stack_forward(Tensor(q0), Tensor(kv), stack, training=False)
        loss = asl_loss_node(classify(q, head), y, AslConfig())
        if not corrupt:
            return loss
        extra = 1e-2 * float(np.sum(params[0].value))
        return _op(loss.value + extra, (loss,), (lambda g: g,))

    return loss_fn, params
