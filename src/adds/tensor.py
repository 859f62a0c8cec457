"""Dense 2-D tensors with reverse-mode gradient accumulation.

The op set is deliberately closed: matmul, elementwise add/mul, row-vector
broadcast add, scale, relu, sigmoid, layer norm, dropout, mean reduction, and
multi-head attention, which is one node with a hand-written backward over all
heads. The feed-forward block is composed from these primitives. Every
gradient path is covered by finite-difference checks.

All values are 2-D numpy arrays; scalars are shaped (1, 1). Tests run in
float64, training may run in float32; ops preserve the input dtype.
"""

import numpy as np

from .errors import ConfigurationError, ShapeError


class Tensor:
    """A node in the computation graph.

    Leaf tensors with ``trainable=True`` are parameters: ``backward`` leaves
    their accumulated gradient in ``.grad``. Non-trainable leaves get a zero
    gradient (frozen-parameter contract).
    """

    __slots__ = ("value", "grad", "trainable", "name", "_parents", "_backward")

    def __init__(self, value, trainable=False, name=None, _parents=(), _backward=None):
        self.value = np.atleast_2d(np.asarray(value))
        self.grad = None
        self.trainable = trainable
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.value.shape}, trainable={self.trainable})"


def param(value, name=None, trainable=True) -> Tensor:
    return Tensor(np.array(value), trainable=trainable, name=name)


def _node(value, parents, backward) -> Tensor:
    return Tensor(value, _parents=parents, _backward=backward)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.value.shape} x {b.value.shape}")
    out_val = a.value @ b.value

    def backward(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return _node(out_val, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")

    def backward(g):
        a.grad += g
        b.grad += g

    return _node(a.value + b.value, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes differ, {a.value.shape} vs {b.value.shape}")

    def backward(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return _node(a.value * b.value, (a, b), backward)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """x + v with v broadcast over rows; v must be 1 x cols."""
    if v.value.shape != (1, x.value.shape[1]):
        raise ShapeError(f"add_rowvec: {x.value.shape} + {v.value.shape}")

    def backward(g):
        x.grad += g
        v.grad += g.sum(axis=0, keepdims=True)

    return _node(x.value + v.value, (x, v), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = x.value.dtype.type(s)

    def backward(g):
        x.grad += g * s

    return _node(x.value * s, (x,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0

    def backward(g):
        x.grad += g * mask

    return _node(np.where(mask, x.value, x.value.dtype.type(0)), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    v = x.value
    out_val = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                       np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v)))).astype(v.dtype)

    def backward(g):
        x.grad += g * out_val * (1.0 - out_val)

    return _node(out_val, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then gain*x + bias."""
    cols = x.value.shape[1]
    if gain.value.shape != (1, cols) or bias.value.shape != (1, cols):
        raise ShapeError(
            f"layer_norm: x {x.value.shape}, gain {gain.value.shape}, bias {bias.value.shape}"
        )
    mu = x.value.mean(axis=1, keepdims=True)
    var = ((x.value - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + x.value.dtype.type(eps))
    y0 = (x.value - mu) * inv_std
    out_val = y0 * gain.value + bias.value

    def backward(g):
        gain.grad += (g * y0).sum(axis=0, keepdims=True)
        bias.grad += g.sum(axis=0, keepdims=True)
        dy0 = g * gain.value
        m1 = dy0.mean(axis=1, keepdims=True)
        m2 = (dy0 * y0).mean(axis=1, keepdims=True)
        x.grad += (dy0 - m1 - y0 * m2) * inv_std

    return _node(out_val, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, stream, training: bool) -> Tensor:
    """Inverted dropout. At inference or rate 0 it returns ``x`` itself and
    draws nothing. Same stream state => same mask."""
    if rate >= 1.0:
        raise ConfigurationError(f"dropout rate must be < 1, got {rate}")
    if not training or rate == 0.0:
        return x
    keep = stream.random(x.value.shape) >= rate
    factor = x.value.dtype.type(1.0 / (1.0 - rate))
    mask = keep.astype(x.value.dtype) * factor

    def backward(g):
        x.grad += g * mask

    return _node(x.value * mask, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    n = x.value.size

    def backward(g):
        x.grad += np.full_like(x.value, g[0, 0] / n)

    return _node(np.array([[x.value.mean()]], dtype=x.value.dtype), (x,), backward)


# ---------------------------------------------------------------------------
# composites


def softmax(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis of a plain array."""
    ex = np.exp(x - x.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, params, heads: int) -> Tensor:
    """Scaled dot-product attention over all heads as one graph node.

    ``params`` carries e x e projections wq, wk, wv, wo. Requires e % heads == 0.
    The projections are viewed as (heads, rows, e / heads) stacks; backward
    keeps the projections and the softmax, nothing per head.
    """
    e = q.value.shape[1]
    if e % heads != 0:
        raise ConfigurationError(f"embed dim {e} not divisible by {heads} heads")
    if k.value.shape[1] != e or v.value.shape[1] != e:
        raise ShapeError(
            f"attention: column counts differ, q {q.value.shape}, "
            f"k {k.value.shape}, v {v.value.shape}"
        )
    dh = e // heads

    def split(x):  # rows x e -> heads x rows x dh
        return x.reshape(x.shape[0], heads, dh).transpose(1, 0, 2)

    def merge(x):  # heads x rows x dh -> rows x e
        return x.transpose(1, 0, 2).reshape(x.shape[1], e)

    inputs = (q, k, v)
    weights = (params.wq, params.wk, params.wv)
    qh, kh, vh = (split(x.value @ w.value) for x, w in zip(inputs, weights))
    s = qh.dtype.type(1.0 / np.sqrt(dh))
    # scaling the scores, not q, keeps the rounding of the unfused op order
    probs = softmax((qh @ kh.transpose(0, 2, 1)) * s)
    attended = merge(probs @ vh)

    def backward(g):
        g_att = split(g @ params.wo.value.T)
        params.wo.grad += attended.T @ g
        g_probs = g_att @ vh.transpose(0, 2, 1)
        g_vh = probs.transpose(0, 2, 1) @ g_att
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * s
        g_qh = g_scores @ kh
        g_kh = (qh.transpose(0, 2, 1) @ g_scores).transpose(0, 2, 1)
        # q, k, v in this order: they may be one tensor, and the order of
        # accumulation fixes the rounding of its gradient
        for x, w, gh in zip(inputs, weights, (g_qh, g_kh, g_vh)):
            gp = merge(gh)
            x.grad += gp @ w.value.T
            w.grad += x.value.T @ gp

    return _node(attended @ params.wo.value, (*inputs, *weights, params.wo), backward)


def feed_forward(x: Tensor, params) -> Tensor:
    """Two-layer MLP: inner e->h projection, ReLU, outer h->e projection."""
    hidden = relu(add_rowvec(matmul(x, params.w_inner), params.b_inner))
    return add_rowvec(matmul(hidden, params.w_outer), params.b_outer)


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar root into every reachable tensor."""
    if root.value.shape != (1, 1):
        raise ShapeError(f"backward expects a scalar (1,1) root, got {root.value.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    for node in topo:
        node.grad = np.zeros_like(node.value)
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
    # frozen-parameter contract: leaves that are not trainable carry zero grad
    for node in topo:
        if not node._parents and not node.trainable:
            node.grad = np.zeros_like(node.value)
