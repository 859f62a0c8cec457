"""Dual-modal decoder blocks, the stacked decoder, and the shared class head.

Each dual-modal block runs the usual text-queries-image cross-attention and
feed-forward path, then a second cross-attention in which the visual tokens
query the text-refined summary; the refreshed visual tokens become the
key/value input of the next block. The last block has no next block, so it
stops after the query path. The baseline block (for ablation) is the same
block without its visual branch and final query norm: keys/values pass
through untouched. ``DecoderStack.sites`` states which sites block i runs.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, ShapeError
from .tensor import (
    Tensor,
    add,
    add_rowvec,
    dropout,
    feed_forward,
    layer_norm,
    matmul,
    multi_head_attention,
    param,
    sigmoid,
)

class _Leaves:
    """A dataclass of parameter tensors; ``tensors`` names them in field order."""

    def tensors(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


@dataclass
class AttentionParams(_Leaves):
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


@dataclass
class FeedForwardParams(_Leaves):
    w_inner: Tensor  # e -> h
    b_inner: Tensor
    w_outer: Tensor  # h -> e
    b_outer: Tensor


@dataclass
class LayerNormParams(_Leaves):
    gain: Tensor
    bias: Tensor


# the five normalization sites of a block, in forward order
NORM_SITES = ("q_pre", "q_attn", "q_ffn", "q_out", "v_out")


@dataclass
class DecoderBlockParams:
    attn_text: AttentionParams  # textual queries over visual keys/values
    attn_visual: AttentionParams  # visual queries over the refined textual summary
    ffn: FeedForwardParams
    norms: dict = field(default_factory=dict)  # site name -> LayerNormParams
    dropout_rate: float = 0.1

    def tensors(self, visual=True, q_out=True):
        """Named tensors in forward order. ``visual=False`` leaves out the
        visual branch (``attn_visual`` and the ``v_out`` norm), ``q_out=False``
        the query output norm."""
        groups = [("attn_text", self.attn_text)]
        if visual:
            groups.append(("attn_visual", self.attn_visual))
        groups.append(("ffn", self.ffn))
        out = []
        for prefix, group in groups:
            out.extend((f"{prefix}.{n}", t) for n, t in group.tensors())
        for site in NORM_SITES:
            if (site == "q_out" and not q_out) or (site == "v_out" and not visual):
                continue
            out.extend((f"norm.{site}.{n}", t) for n, t in self.norms[site].tensors())
        return out


@dataclass
class ClassifierHead(_Leaves):
    """One weight vector and bias shared across every label's query embedding."""

    w: Tensor  # e x 1
    b: Tensor  # 1 x 1


@dataclass
class DecoderStack:
    blocks: list[DecoderBlockParams]
    kind: str  # "dual_modal" | "baseline"
    heads: int

    def sites(self, i: int) -> dict:
        """The optional sites block i runs. Its visual branch makes the
        keys/values of block i + 1, so only a dual-modal block that has a
        next block runs it; every dual-modal block runs its query output norm."""
        dual = self.kind == "dual_modal"
        return {"visual": dual and i < len(self.blocks) - 1, "q_out": dual}

    def tensors(self):
        """Named tensors that ``stack_forward`` reads, block by block.

        The init draws every block's full parameter set, so the dead ones
        (the last dual-modal block's visual branch; a baseline block's
        visual branch and query output norm) exist but are not listed.
        """
        out = []
        for i, blk in enumerate(self.blocks):
            live = blk.tensors(**self.sites(i))
            out.extend((f"block{i}.{n}", t) for n, t in live)
        return out


# ---------------------------------------------------------------------------
# initialization


def _glorot(stream, fan_in, fan_out, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return stream.uniform(-limit, limit, size=shape).astype(dtype)


def init_attention(stream, e, dtype=np.float64) -> AttentionParams:
    return AttentionParams(
        *(param(_glorot(stream, e, e, (e, e), dtype)) for _ in range(4))
    )


def init_ffn(stream, e, hidden, dtype=np.float64) -> FeedForwardParams:
    return FeedForwardParams(
        w_inner=param(_glorot(stream, e, hidden, (e, hidden), dtype)),
        b_inner=param(np.zeros((1, hidden), dtype=dtype)),
        w_outer=param(_glorot(stream, hidden, e, (hidden, e), dtype)),
        b_outer=param(np.zeros((1, e), dtype=dtype)),
    )


def init_layer_norm(e, dtype=np.float64) -> LayerNormParams:
    return LayerNormParams(
        gain=param(np.ones((1, e), dtype=dtype)),
        bias=param(np.zeros((1, e), dtype=dtype)),
    )


def init_block(stream, e, hidden, dropout_rate, dtype=np.float64) -> DecoderBlockParams:
    return DecoderBlockParams(
        attn_text=init_attention(stream, e, dtype),
        attn_visual=init_attention(stream, e, dtype),
        ffn=init_ffn(stream, e, hidden, dtype),
        norms={site: init_layer_norm(e, dtype) for site in NORM_SITES},
        dropout_rate=dropout_rate,
    )


def init_stack(
    stream,
    depth: int = 6,
    embed_dim: int = 16,
    heads: int = 2,
    kind: str = "dual_modal",
    ffn_hidden: int | None = None,
    dropout_rate: float = 0.1,
    dtype=np.float64,
) -> DecoderStack:
    if depth < 1:
        raise ConfigurationError(f"stack depth must be >= 1, got {depth}")
    if embed_dim < 1:
        raise ConfigurationError(f"embed dim must be >= 1, got {embed_dim}")
    if kind not in ("dual_modal", "baseline"):
        raise ConfigurationError(f"unknown block kind {kind!r}")
    if embed_dim % heads != 0:
        raise ConfigurationError(f"embed dim {embed_dim} not divisible by heads {heads}")
    hidden = ffn_hidden if ffn_hidden is not None else 4 * embed_dim
    blocks = [init_block(stream, embed_dim, hidden, dropout_rate, dtype)
              for _ in range(depth)]
    return DecoderStack(blocks=blocks, kind=kind, heads=heads)


def init_head(stream, e, dtype=np.float64) -> ClassifierHead:
    return ClassifierHead(
        w=param(_glorot(stream, e, 1, (e, 1), dtype)),
        b=param(np.zeros((1, 1), dtype=dtype)),
    )


# ---------------------------------------------------------------------------
# forward


def _norm(x: Tensor, p: LayerNormParams) -> Tensor:
    return layer_norm(x, p.gain, p.bias)


def dm_block_forward(q, k, v, params, heads, noise=None, visual=True, q_out=True):
    """One block. Returns (q_out, k_out, v_out); k_out is v_out.

    ``noise`` is the pair of dropout draws for the block's two dropout sites,
    or None for no dropout (inference). ``q_out`` adds the block input back
    and norms; ``visual`` runs the visual branch, else k, v pass through. A
    baseline block runs neither (see ``DecoderStack.sites``).
    """
    dp = params.dropout_rate
    ln = params.norms
    u_pre, u_ffn = (None, None) if noise is None else noise
    q1 = _norm(add(q, dropout(q, dp, u_pre)), ln["q_pre"])
    q2 = multi_head_attention(q1, k, v, params.attn_text, heads)
    q3 = _norm(add(q2, q1), ln["q_attn"])
    q4 = dropout(feed_forward(q3, params.ffn), dp, u_ffn)
    q5 = _norm(add(q4, q3), ln["q_ffn"])
    # built before the visual branch: backward's adds into q5 follow this order
    q6 = _norm(add(q5, q), ln["q_out"]) if q_out else q5
    if not visual:
        return q6, k, v
    v1 = multi_head_attention(v, q5, q5, params.attn_visual, heads)
    v_out = _norm(add(v1, v), ln["v_out"])
    return q6, v_out, v_out


def stack_forward(q0: Tensor, kv0: Tensor, stack: DecoderStack,
                  training=False, stream=None) -> Tensor:
    """Thread (Q, K, V) through all blocks, starting with K = V = kv0.

    q0 and kv0 are one image's rows, or (batch, rows, e) stacks with one
    entry per image. In training, each block with a dropout rate draws from
    ``stream`` at its two sites; all draws are made at once, and
    ``Generator.random`` fills an array in C order, so each image gets the
    values, in the order, that one forward per image would draw.
    Only the final block's query output is returned, so the final block
    skips its visual branch.
    """
    if not stack.blocks:
        raise ConfigurationError("decoder stack is empty")
    dropping = [training and blk.dropout_rate > 0 for blk in stack.blocks]
    draws = iter(())
    if any(dropping):
        shape = (*q0.shape[:-2], 2 * sum(dropping), *q0.shape[-2:])
        draws = iter(np.moveaxis(stream.random(shape), -3, 0))
    q, k, v = q0, kv0, kv0
    for i, blk in enumerate(stack.blocks):
        noise = (next(draws), next(draws)) if dropping[i] else None
        q, k, v = dm_block_forward(q, k, v, blk, stack.heads, noise, **stack.sites(i))
    return q


def classify(q_final: Tensor, head: ClassifierHead) -> Tensor:
    """Per-label probability via the shared linear map + sigmoid; returns
    k x 1, or batch x k x 1 for a stack."""
    if head.w.shape[0] != q_final.shape[-1]:
        raise ShapeError(
            f"head dim {head.w.shape[0]} != embed dim {q_final.shape[-1]}"
        )
    return sigmoid(add_rowvec(matmul(q_final, head.w), head.b))
