"""Plain-numpy transcription of the decoder stack and the class head.

It reads weights by name from a checkpoint's weight dict and imports nothing
from the program, so agreement with the program's scores is meaningful. It
runs in float64; the benchmark compares at a float32 tolerance, so a batched
or fused engine that reorders float32 sums still passes.
"""

import numpy as np

LAYER_NORM_EPS = 1e-5


def _layer_norm(x, w, site):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LAYER_NORM_EPS) * w[f"norm.{site}.gain"] + w[f"norm.{site}.bias"]


def _attention(q, kv, w, group, heads):
    qp, kp, vp = q @ w[f"{group}.wq"], kv @ w[f"{group}.wk"], kv @ w[f"{group}.wv"]
    dh = qp.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = qp[:, cols] @ kp[:, cols].T / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        outs.append(e / e.sum(axis=1, keepdims=True) @ vp[:, cols])
    return np.concatenate(outs, axis=1) @ w[f"{group}.wo"]


def _block_weights(weights, i):
    prefix = f"decoder.block{i}."
    return {n[len(prefix):]: np.asarray(a, dtype=np.float64)
            for n, a in weights.items() if n.startswith(prefix)}


def scores(weights: dict, config: dict, q0: np.ndarray, kv: np.ndarray) -> np.ndarray:
    """Inference-mode probability per label query for one image; returns (k,)."""
    q = np.asarray(q0, dtype=np.float64)
    v = np.asarray(kv, dtype=np.float64)
    depth, heads = config["depth"], config["heads"]
    for i in range(depth):
        w = _block_weights(weights, i)
        q1 = _layer_norm(q + q, w, "q_pre")  # identity dropout at inference
        q3 = _layer_norm(_attention(q1, v, w, "attn_text", heads) + q1, w, "q_attn")
        hidden = np.maximum(q3 @ w["ffn.w_inner"] + w["ffn.b_inner"], 0.0)
        q5 = _layer_norm(hidden @ w["ffn.w_outer"] + w["ffn.b_outer"] + q3, w, "q_ffn")
        if config["kind"] != "dual_modal":
            q = q5
            continue
        # the last block's refreshed visual tokens feed nothing, so skip them
        if i < depth - 1:
            v = _layer_norm(_attention(v, q5, w, "attn_visual", heads) + v, w, "v_out")
        q = _layer_norm(q5 + q, w, "q_out")
    logits = q @ weights["head.w"].astype(np.float64) + weights["head.b"].astype(np.float64)
    return (1.0 / (1.0 + np.exp(-logits))).reshape(-1)
