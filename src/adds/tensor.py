"""Dense tensors with reverse-mode gradient accumulation.

The op set is deliberately closed: matmul, elementwise add/mul, row-vector
broadcast add, scale, relu, sigmoid, layer norm, dropout, mean reduction and,
composed from them, the feed-forward block. Each is its value plus one gradient
function per input (``_op``), run in input order and only for an input that
needs a gradient. Multi-head attention is one node whose hand-written backward
shares intermediates across all heads and inputs. Every gradient path is
covered by finite-difference checks.

Values are one image's rows x cols array, or a (batch, rows, cols) stack of
them; parameters are 2-D and shared by every image of a stack. Scalars are
shaped (1, 1). A parameter's gradient adds the images' contributions one at a
time in image order, so a stack's gradients round exactly like a graph that
holds one subgraph per image. An op none of whose inputs needs a gradient (no
trainable leaf upstream) returns a plain leaf, so inference keeps no graph.
Tests run in float64, training may run in float32; ops preserve the input
dtype.

A value belongs to the caller holding its tensor and to the backward closures
that read it, each of which captures, when its op runs, the arrays it reads.
The graph keeps only what routes gradients (``Tensor.node``), so a value no
backward reads dies with the caller's last reference. A frozen leaf is a
plain value that no op keeps as a parent, so no gradient is formed for it.
``backward`` consumes the graph: afterwards only parameters hold ``.grad``,
and a step's memory is bounded by its own graph.
"""

from functools import partial

import numpy as np

from .errors import ConfigurationError, ShapeError

_STAND_IN = bytes(16)  # the one element each node's zero-stride stand-in for a value views


class Tensor:
    """A value and its place in the computation graph.

    Leaf tensors with ``trainable=True`` are parameters: ``backward`` leaves
    their accumulated gradient in ``.grad``. A non-trainable leaf is frozen:
    no op keeps it as a parent, and its ``.grad`` stays None. An op's result
    holds its parents and backward closure until an op consumes it, then its
    ``node()`` does, until ``backward`` has passed its gradient on.
    """

    __slots__ = ("value", "grad", "trainable", "_parents", "_backward", "_node")

    def __init__(self, value, trainable=False, _parents=(), _backward=None):
        # an op's result is such an array already, and atleast_2d costs ~0.4 us an op
        self.value = (value if type(value) is np.ndarray and value.ndim > 1
                      else np.atleast_2d(np.asarray(value)))
        self.grad = None
        self.trainable = trainable
        self._parents = _parents
        self._backward = _backward
        self._node = None

    def node(self) -> "Tensor":
        """What a consumer keeps of this tensor: a leaf itself. An op's result
        hands its parents and closure to a node made on first use, whose value
        is a zero-stride stand-in: shape and dtype, no data. Nodes are reached
        only through ``_parents`` and have no node of their own."""
        if self._node is None and self._parents:
            v, n = self.value, Tensor.__new__(Tensor)
            n.value = np.ndarray(v.shape, v.dtype, _STAND_IN, 0, (0,) * v.ndim)
            n.grad, n.trainable, n._parents, n._backward = None, False, self._parents, self._backward
            self._node, self._parents, self._backward = n, (), None
        return self._node or self

    @property
    def shape(self):
        return self.value.shape


def param(value, trainable=True) -> Tensor:
    return Tensor(np.array(value), trainable=trainable)


def _node(value, parents, backward) -> Tensor:
    """The one place a graph node is made: an op's result, whose parents are the
    nodes that route a gradient. ``backward(routes, g)`` adds into the ``.grad``
    of each node in ``routes``, None for a leaf that needs no gradient."""
    routes = [n if n.trainable or n._parents else None for n in map(Tensor.node, parents)]
    if not any(routes):
        return Tensor(value)
    return Tensor(value, _parents=tuple(filter(None, routes)), _backward=partial(backward, routes))


def _op(value, inputs, grads) -> Tensor:
    """An op's result on ``inputs``, whose gradient for ``inputs[i]`` is
    ``grads[i](g)``, added in input order, and only for an input that needs one."""
    return _node(value, inputs, partial(_add_grads, grads))  # a partial: no closure per op


def _add_grads(grads, nodes, g) -> None:
    for node, grad in zip(nodes, grads):
        if node is not None:
            node.grad += grad(g)


def _image_sum(x: np.ndarray) -> np.ndarray:
    """Sum per-image parameter gradients over the batch axis in image order,
    as a per-image graph adds each image's contribution into the gradient.
    ``add.reduce`` adds the images in order unless they are all it loops over,
    as for a one-element gradient, which takes the running sum instead."""
    if x.ndim == 2:
        return x
    return np.add.accumulate(x)[-1] if x[0].size == 1 else np.add.reduce(x, axis=0)


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ w`` w.r.t. the shared w: sum over images of a_b^T g_b."""
    return _image_sum(np.swapaxes(a, -1, -2) @ g)


def _column_sum(g: np.ndarray) -> np.ndarray:
    """Gradient of a row vector added to every row: each image's column sums, in order."""
    # einsum rounds as sum, in a quarter of its time, except down a lone column
    cols = g.sum(axis=-2) if g.shape[-1] == 1 else np.einsum("...ij->...j", g)
    return _image_sum(cols[..., None, :])


def _pairwise_sum(x: np.ndarray, axis: int = -2) -> np.ndarray:
    """Sums along ``axis`` (-1 or -2), kept as an axis, in the order
    ``add.reduce`` takes along a contiguous last axis (numpy's pairwise sum),
    so the bits agree, bar which of two unlike NaNs survives. A stack of many
    short rows is summed from 1-D column views; other rows by ``add.reduce``."""
    n = x.shape[axis]
    if axis == -1:
        # add.reduce pays ~25 ns a row, a column view ~0.5 ns an element. Timed
        # over 4-136 columns and 512-16,384 rows, both dtypes: columns win up to
        # 16 wide from 2,048 rows, until 16 passes over a stack past 1 MiB
        # outgrow the core's 2 MiB L2 (float64 loses there); 32 wide they lose
        if not (0 < n <= 16 and x.size >= 2048 * n and x.nbytes <= 1 << 20):
            return np.add.reduce(x, axis=-1, keepdims=True)
        cols, tree = [x[..., j] for j in range(n)], n - n % 8
        acc = np.zeros_like(cols[0])
        if tree:  # column j feeds accumulator j % 8, then the 8 are paired
            r = [sum(cols[j + 8:tree:8], cols[j]) for j in range(8)]
            acc += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for c in cols[tree:]:
            acc += c
        return acc[..., None]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x[..., :half, :]) + _pairwise_sum(x[..., half:, :])
    acc, tree = np.zeros_like(x[..., :1, :]), n - n % 8
    if tree:  # 8 accumulators, then paired
        r = sum((x[..., i:i + 8, :] for i in range(8, tree, 8)), x[..., :8, :])
        while r.shape[-2] > 1:  # adjacent pairs: 8 -> 4 -> 2 -> 1
            r = r[..., 0::2, :] + r[..., 1::2, :]
        acc += r
    for i in range(tree, n):
        acc += x[..., i:i + 1, :]
    return acc


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, m); b is shared by every image of a stack."""
    if b.value.ndim != 2 or a.value.shape[-1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value
    return _op(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: _weight_grad(av, g)))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")
    return _op(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes differ, {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    return _op(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """x + v with v broadcast over rows (and images); v must be 1 x cols."""
    if v.value.shape != (1, x.value.shape[-1]):
        raise ShapeError(f"add_rowvec: {x.value.shape} + {v.value.shape}")
    return _op(x.value + v.value, (x, v), (lambda g: g, _column_sum))


def scale(x: Tensor, s: float) -> Tensor:
    s = x.value.dtype.type(s)
    return _op(x.value * s, (x,), (lambda g: g * s,))


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0
    return _op(np.where(mask, x.value, x.value.dtype.type(0)), (x,), (lambda g: g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    v = x.value
    out_val = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                       np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v)))).astype(v.dtype)
    return _op(out_val, (x,), (lambda g: g * out_val * (1.0 - out_val),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then gain*x + bias."""
    cols = x.value.shape[-1]
    if gain.value.shape != (1, cols) or bias.value.shape != (1, cols):
        raise ShapeError(
            f"layer_norm: x {x.value.shape}, gain {gain.value.shape}, bias {bias.value.shape}"
        )
    # the centered rows, normalized in place once their variance is known
    y0 = x.value - _pairwise_sum(x.value, -1) / cols
    var = _pairwise_sum(y0 * y0, -1) / cols
    inv_std = 1.0 / np.sqrt(var + x.value.dtype.type(eps))
    y0 *= inv_std
    gv = gain.value
    out_val = y0 * gv
    out_val += bias.value

    def grad_x(g):
        dy0 = g * gv
        m1 = _pairwise_sum(dy0, -1) / cols
        m2 = _pairwise_sum(dy0 * y0, -1) / cols
        # (dy0 - m1 - y0 * m2) * inv_std in place; y0 is read no more
        dy0 -= m1
        dy0 -= np.multiply(y0, m2, out=y0)
        dy0 *= inv_std
        return dy0

    # x comes last: its gradient overwrites y0, which gain's gradient reads
    return _op(out_val, (gain, bias, x), (lambda g: _column_sum(g * y0), _column_sum, grad_x))


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
    return _op(x.value * mask, (x,), (lambda g: g * mask,))


def mean_all(x: Tensor) -> Tensor:
    n, shape, dtype = x.value.size, x.value.shape, x.value.dtype  # the gradient keeps no value
    return _op(np.array([[x.value.mean()]], dtype=dtype), (x,),
               (lambda g: np.full(shape, g[0, 0] / n, dtype),))


# ---------------------------------------------------------------------------
# composites


def softmax(x: np.ndarray, out: np.ndarray | None = None, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain array along ``axis`` (-1 or -2), written
    to ``out`` (which may be ``x`` itself) or to a new array."""
    if axis == -1 and x.ndim > 1 and x.shape[-1] < x.shape[-2]:
        # short rows (a query-major site with 32 keys or more): a max is exact
        # in any order, so take it in one pass along the long axis of a copy
        top = np.ascontiguousarray(np.swapaxes(x, -1, -2)).max(axis=-2)[..., None]
    else:
        top = x.max(axis=axis, keepdims=True)
    # in place: one batch of a large vocabulary's scores outgrows the cache,
    # and each temporary of that size costs more than the arithmetic
    ex = np.subtract(x, top, out=out)
    np.exp(ex, out=ex)
    ex /= _pairwise_sum(ex, axis)
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
    Scores and the kept softmax (``probs``) are (..., keys, queries) when
    there are fewer keys than queries and than 32, as in the visual branch:
    the softmax and its backward then run along the long axis, not ~25 ns per
    short row. Both layouts give the same bits (sgemm rounds a sum over
    transposed softmax alike below 32 keys).
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

    values = [x.value for x in (q, k, v)]
    weights = (params.wq, params.wk, params.wv)
    parents = (q, k, v, *weights, params.wo)
    # np.empty, not x @ w: same bits, but @ put arrays where 240 px training ran 5% slower
    proj = [np.matmul(x, w.value, out=np.empty((*x.shape[:-1], e), np.result_type(x, w.value)))
            for x, w in zip(values, weights)]
    qh, kh, vh = (split(p) for p in proj)
    n_q, n_k = qh.shape[-2], kh.shape[-2]
    key_major = n_k < min(n_q, 32)
    axis = -2 if key_major else -1  # the softmax axis

    def lay(rows_q, rows_k, out=None):  # the scores-shaped product of q- and k-side rows
        if key_major:  # dgemm rounds a transposed view of many query rows unlike this
            return np.matmul(rows_k, np.ascontiguousarray(np.swapaxes(rows_q, -1, -2)), out=out)
        return np.matmul(rows_q, np.swapaxes(rows_k, -1, -2), out=out)

    def by_query(x):  # a scores-shaped array viewed as (..., queries, keys)
        return np.swapaxes(x, -1, -2) if key_major else x

    s = qh.dtype.type(1.0 / np.sqrt(dh))
    chunks = [slice(None)] if qh.ndim < 4 else batch_chunks(
        qh.shape[0], qh.shape[-3] * n_q * n_k * qh.itemsize)
    # the heads write their outputs straight into the merged (..., rows, e) layout
    attended = np.empty(proj[0].shape, qh.dtype)
    heads_out = split(attended)
    rows = (n_k, n_q) if key_major else (n_q, n_k)
    graph = any(n.trainable or n._parents for n in map(Tensor.node, parents))
    probs = np.empty((*qh.shape[:-2], *rows), qh.dtype) if graph else None  # backward reads it
    for c in chunks:
        # scaling the scores, not q, keeps the rounding of the unfused op order
        scores = lay(qh[c], kh[c], out=None if probs is None else probs[c])
        scores *= s
        np.matmul(by_query(softmax(scores, out=scores, axis=axis)), vh[c], out=heads_out[c])

    def backward(routes, g):
        q, k, v, wq, wk, wv, wo = routes
        if wo is not None:
            wo.grad += _weight_grad(attended, g)
        g_att = split(np.matmul(g, params.wo.value.T, out=attended))
        # a chunk's projections are read for the last time in its own pass,
        # which overwrites them with their gradients
        kh_t = np.swapaxes(kh, -1, -2)
        for c in chunks:
            p = probs[c]
            # the probabilities' gradient g, turned in place into the scores':
            # p * (g - rowsum(g * p)) * s
            g_scores = lay(g_att[c], vh[c])
            # (g_att^T p)^T: key-major, P @ g_att would round the sum over queries anew
            vh[c] = np.swapaxes(np.swapaxes(g_att[c], -1, -2) @ by_query(p), -1, -2)
            g_scores -= _pairwise_sum(g_scores * p, axis)
            g_scores *= p
            g_scores *= s
            g_kh = np.swapaxes(qh[c], -1, -2) @ by_query(g_scores)
            np.matmul(by_query(g_scores), kh[c], out=qh[c])
            kh_t[c] = g_kh
        # q, k, v in this order: they may be one tensor, and the order of
        # accumulation fixes the rounding of its gradient
        for x, xv, w, w_node, gp in zip((q, k, v), values, weights, (wq, wk, wv), proj):
            if x is not None:
                x.grad += gp @ w.value.T
            if w_node is not None:
                w_node.grad += _weight_grad(xv, gp)

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

    Each node that needs a gradient gets its buffer, as zeros, just before
    the first of its consumers adds into it. Once a node has passed its
    gradient on, it drops its gradient, its backward closure and its parents,
    so the activations its closure saved are freed as the pass goes and the
    root is left a leaf. Only parameters keep ``.grad``, their accumulated
    gradient; a frozen leaf is no node, so it is never reached.
    """
    if root.value.shape != (1, 1):
        raise ShapeError(f"backward expects a scalar (1,1) root, got {root.value.shape}")
    root = root.node()
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
            continue
        for p in node._parents:
            if p.grad is None:
                p.grad = np.zeros_like(p.value)
        node._backward(node.grad)
        node.grad = node._backward = None
        node._parents = ()
