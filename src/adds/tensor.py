"""Dense tensors with reverse-mode gradient accumulation.

The op set is deliberately closed: matmul, elementwise add/mul, row-vector
broadcast add, scale, relu, sigmoid, layer norm, dropout, mean reduction, and
multi-head attention, which is one node with a hand-written backward over all
heads. The feed-forward block is composed from these primitives. Every
gradient path is covered by finite-difference checks.

Values are one image's rows x cols array, or a (batch, rows, cols) stack of
them; parameters are 2-D and shared by every image of a stack. Scalars are
shaped (1, 1). A parameter's gradient adds the images' contributions one at a
time in image order, so a stack's gradients round exactly like a graph that
holds one subgraph per image. An op none of whose inputs needs a gradient (no
trainable leaf upstream) returns a plain leaf, so inference keeps no graph.
Tests run in float64, training may run in float32; ops preserve the input
dtype.

``backward`` consumes the graph it walks, so a graph is back-propagated once.
Afterwards only leaves hold ``.grad``, and nothing holds the activations the
graph saved: a training step's memory is bounded by its own graph, even
while the caller keeps the previous step's loss.
"""

import numpy as np

from .errors import ConfigurationError, ShapeError


class Tensor:
    """A node in the computation graph.

    Leaf tensors with ``trainable=True`` are parameters: ``backward`` leaves
    their accumulated gradient in ``.grad``. Non-trainable leaves get a zero
    gradient (frozen-parameter contract). An interior node keeps its parents
    and backward closure until ``backward`` passes its gradient on; then it
    drops them and its ``.grad``, and holds only its value.
    """

    __slots__ = ("value", "grad", "trainable", "_parents", "_backward")

    def __init__(self, value, trainable=False, _parents=(), _backward=None):
        self.value = np.atleast_2d(np.asarray(value))
        self.grad = None
        self.trainable = trainable
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, trainable={self.trainable})"


def param(value, trainable=True) -> Tensor:
    return Tensor(np.array(value), trainable=trainable)


def _needs_grad(parents) -> bool:
    return any(p.trainable or p._parents for p in parents)


def _node(value, parents, backward) -> Tensor:
    if not _needs_grad(parents):
        return Tensor(value)
    return Tensor(value, _parents=parents, _backward=backward)


def _image_sum(x: np.ndarray) -> np.ndarray:
    """Sum per-image parameter gradients over the batch axis in image order.

    Images are added strictly one after another, as a per-image graph adds
    each image's contribution into the gradient; ``sum`` may pair them.
    """
    if x.ndim == 2:
        return x
    acc = x[0].copy()
    for xb in x[1:]:
        acc += xb
    return acc


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ w`` w.r.t. the shared w: sum over images of a_b^T g_b."""
    return _image_sum(np.swapaxes(a, -1, -2) @ g)


def _column_sum(g: np.ndarray) -> np.ndarray:
    """Gradient of a row vector added to every row: each image's column sums, in order."""
    return _image_sum(g.sum(axis=-2, keepdims=True))


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, m); b is shared by every image of a stack."""
    if b.value.ndim != 2 or a.value.shape[-1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.value.shape} x {b.value.shape}")
    out_val = a.value @ b.value

    def backward(g):
        a.grad += g @ b.value.T
        b.grad += _weight_grad(a.value, g)

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
    """x + v with v broadcast over rows (and images); v must be 1 x cols."""
    if v.value.shape != (1, x.value.shape[-1]):
        raise ShapeError(f"add_rowvec: {x.value.shape} + {v.value.shape}")

    def backward(g):
        x.grad += g
        v.grad += _column_sum(g)

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
    cols = x.value.shape[-1]
    if gain.value.shape != (1, cols) or bias.value.shape != (1, cols):
        raise ShapeError(
            f"layer_norm: x {x.value.shape}, gain {gain.value.shape}, bias {bias.value.shape}"
        )
    centered = x.value - np.add.reduce(x.value, axis=-1, keepdims=True) / cols
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / cols
    inv_std = 1.0 / np.sqrt(var + x.value.dtype.type(eps))
    y0 = centered * inv_std
    out_val = y0 * gain.value + bias.value

    def backward(g):
        gain.grad += _column_sum(g * y0)
        bias.grad += _column_sum(g)
        dy0 = g * gain.value
        m1 = np.add.reduce(dy0, axis=-1, keepdims=True) / cols
        m2 = np.add.reduce(dy0 * y0, axis=-1, keepdims=True) / cols
        x.grad += (dy0 - m1 - y0 * m2) * inv_std

    return _node(out_val, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, uniforms: np.ndarray | None) -> Tensor:
    """Inverted dropout that keeps the entries whose uniform draw is >= rate.

    ``uniforms`` holds one U[0, 1) draw per entry of ``x``; without draws
    (inference) or at rate 0 it returns ``x`` itself. Same draws => same mask.
    """
    if rate >= 1.0:
        raise ConfigurationError(f"dropout rate must be < 1, got {rate}")
    if uniforms is None or rate == 0.0:
        return x
    if uniforms.shape != x.value.shape:
        raise ShapeError(f"dropout: draws {uniforms.shape} for values {x.value.shape}")
    keep = uniforms >= rate
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
    # A max is exact in any order, so rows shorter than the axis before them
    # take it from a transposed copy, in one pass along the long axis.
    if x.ndim > 1 and x.shape[-1] < x.shape[-2]:
        ex = x - np.ascontiguousarray(np.swapaxes(x, -1, -2)).max(axis=-2)[..., None]
    else:
        ex = x - x.max(axis=-1, keepdims=True)
    # in place: one batch of a large vocabulary's scores outgrows the cache,
    # and each temporary of that size costs more than the arithmetic
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


# Bytes of work held at once: attention scores, a decoder forward's rows, a
# stack of tiles. One image of a 600-label vocabulary (2 heads x 600 x 85
# float32 scores) fits; a batch of them outgrows the core's cache, and its
# speed then varies with what the cache holds, not only with the arithmetic.
CHUNK_BYTES = 1 << 19


def batch_chunks(n: int, item_bytes: int) -> list:
    """Slices of range(n) that each hold at most CHUNK_BYTES of items of
    ``item_bytes``, and at least one item."""
    step = max(1, CHUNK_BYTES // item_bytes)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, params, heads: int) -> Tensor:
    """Scaled dot-product attention over all heads as one graph node.

    ``params`` carries e x e projections wq, wk, wv, wo. Requires e % heads == 0,
    k and v of the same rows, and q, k, v of the same image count.
    Each image's projections are viewed as (heads, rows, e / heads) stacks;
    backward keeps the projections and the softmax, nothing per head. The
    scores of a stack are computed as many images at a time as fit CHUNK_BYTES;
    an image's scores depend on that image alone, so chunking changes no result.
    """
    e = q.value.shape[-1]
    if e % heads != 0:
        raise ConfigurationError(f"embed dim {e} not divisible by {heads} heads")
    shapes = f"q {q.value.shape}, k {k.value.shape}, v {v.value.shape}"
    if k.value.shape[-1] != e or v.value.shape[-1] != e:
        raise ShapeError(f"attention: column counts differ, {shapes}")
    if not q.value.ndim == k.value.ndim == v.value.ndim:
        raise ShapeError(f"attention: {shapes} must all be one image or all stacks")
    if k.value.shape[:-1] != v.value.shape[:-1] or q.value.shape[:-2] != k.value.shape[:-2]:
        raise ShapeError(f"attention: image counts or k/v row counts differ, {shapes}")
    dh = e // heads

    def split(x):  # (..., rows, e) -> (..., heads, rows, dh)
        return np.swapaxes(x.reshape(*x.shape[:-1], heads, dh), -2, -3)

    def merge(x):  # (..., heads, rows, dh) -> (..., rows, e)
        x = np.swapaxes(x, -2, -3)
        return x.reshape(*x.shape[:-2], e)

    inputs = (q, k, v)
    weights = (params.wq, params.wk, params.wv)
    parents = (*inputs, *weights, params.wo)
    qh, kh, vh = (split(x.value @ w.value) for x, w in zip(inputs, weights))
    s = qh.dtype.type(1.0 / np.sqrt(dh))
    chunks = [slice(None)] if qh.ndim < 4 else batch_chunks(
        qh.shape[0], qh.shape[-3] * qh.shape[-2] * kh.shape[-2] * qh.itemsize)
    heads_out = np.empty(qh.shape, qh.dtype)
    probs = np.empty((*qh.shape[:-1], kh.shape[-2]), qh.dtype) if _needs_grad(parents) else None
    for c in chunks:
        # scaling the scores, not q, keeps the rounding of the unfused op order
        scores = qh[c] @ np.swapaxes(kh[c], -1, -2)
        scores *= s
        p = softmax(scores)
        heads_out[c] = p @ vh[c]
        if probs is not None:
            probs[c] = p
    attended = merge(heads_out)

    def backward(g):
        g_att = split(g @ params.wo.value.T)
        params.wo.grad += _weight_grad(attended, g)
        g_qh = np.empty(qh.shape, qh.dtype)
        g_kh_t = np.empty((*kh.shape[:-2], dh, kh.shape[-2]), kh.dtype)
        g_vh = np.empty(vh.shape, vh.dtype)
        for c in chunks:
            p = probs[c]
            g_probs = g_att[c] @ np.swapaxes(vh[c], -1, -2)
            g_vh[c] = np.swapaxes(p, -1, -2) @ g_att[c]
            g_scores = p * (g_probs - (g_probs * p).sum(axis=-1, keepdims=True)) * s
            g_qh[c] = g_scores @ kh[c]
            g_kh_t[c] = np.swapaxes(qh[c], -1, -2) @ g_scores
        g_kh = np.swapaxes(g_kh_t, -1, -2)
        # q, k, v in this order: they may be one tensor, and the order of
        # accumulation fixes the rounding of its gradient
        for x, w, gh in zip(inputs, weights, (g_qh, g_kh, g_vh)):
            gp = merge(gh)
            x.grad += gp @ w.value.T
            w.grad += _weight_grad(x.value, gp)

    return _node(attended @ params.wo.value, parents, backward)


def feed_forward(x: Tensor, params) -> Tensor:
    """Two-layer MLP: inner e->h projection, ReLU, outer h->e projection."""
    hidden = relu(add_rowvec(matmul(x, params.w_inner), params.b_inner))
    return add_rowvec(matmul(hidden, params.w_outer), params.b_outer)


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar root into every reachable leaf, and
    consume the graph on the way.

    Each node's gradient buffer is made, as zeros, just before the first of
    its consumers adds into it. Once a node has passed its gradient on, it
    drops its gradient, its backward closure and its parents, so the
    activations its closure saved are freed as the pass goes and the root is
    left a leaf. Only leaves keep ``.grad``: a parameter its accumulated
    gradient, a non-trainable leaf zeros.
    """
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
        node.grad = None
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.value)
    # reversed post-order: a node comes after every consumer of it
    while topo:
        node = topo.pop()
        if not node._parents:
            # frozen-parameter contract: leaves that are not trainable carry zero grad
            if not node.trainable:
                node.grad = np.zeros_like(node.value)
            continue
        for p in node._parents:
            if p.grad is None:
                p.grad = np.zeros_like(p.value)
        if node._backward is not None:
            node._backward(node.grad)
        node.grad = node._backward = None
        node._parents = ()
