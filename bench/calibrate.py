"""Fixed slices of work that measure how fast the host runs this process now.

The benchmark's host shares its cores: for seconds to minutes at a time a
core runs up to 1.7x slower, and 30 s runs of identical work then read up to
40% apart. The slices below never change, so their time moves with the
host's speed and not with the program. They imitate the program's two kinds
of work: Python objects and closures around tiny float32 numpy ops (the
autodiff bookkeeping of 64 px workloads), and decoder-sized passes over
1,445 kv rows plus image gathers (the 240 px workload). run.py takes one
reading before and one after each timed call and scales that call's time by
the mean reading.
"""

from time import perf_counter

import numpy as np

# seconds each slice takes at the reference host speed; scaled metrics read
# as if every call had run at that speed
SMALL_REFERENCE_S = 0.02
LARGE_REFERENCE_S = 0.02

_rng = np.random.default_rng(0)
_Q = _rng.standard_normal((12, 16)).astype(np.float32)
_W = (_rng.standard_normal((16, 16)) / 4).astype(np.float32)
_KV_SMALL = _rng.standard_normal((85, 16)).astype(np.float32)
_KV_LARGE = _rng.standard_normal((1445, 16)).astype(np.float32)
_IMAGE = _rng.standard_normal((240, 240))
_GATHER = np.clip(np.arange(0, 240, 2), 0, 239)


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _small_slice() -> float:
    t0 = perf_counter()
    for _ in range(30):
        tape = []
        h = _Q
        for _ in range(20):
            h = _softmax(np.tanh(h @ _W) @ _KV_SMALL.T) @ _KV_SMALL / 85
            tape.append(lambda g, h=h: g * h)
        g = np.ones_like(h)
        for back in reversed(tape):
            g = back(g)
    return perf_counter() - t0


def _large_slice() -> float:
    t0 = perf_counter()
    for _ in range(4):
        kv = _KV_LARGE
        for _ in range(6):
            k, v = kv @ _W, kv @ _W
            text = _softmax(_Q @ _W @ k.T) @ v
            kv = _softmax(k @ text.T) @ text + kv
            kv = (kv - kv.mean(axis=1, keepdims=True)) / np.sqrt(kv.var(axis=1, keepdims=True) + 1e-5)
        _IMAGE[_GATHER][:, _GATHER].copy()
    return perf_counter() - t0


def slowdown() -> float:
    """Host slowness now relative to the reference speed (2.0 = half speed)."""
    return (_small_slice() / SMALL_REFERENCE_S + _large_slice() / LARGE_REFERENCE_S) / 2
