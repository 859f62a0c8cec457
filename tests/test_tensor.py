import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adds.decoder import AttentionParams, FeedForwardParams
from adds.errors import ConfigurationError, ShapeError
from adds.optim import grad_check
from adds import tensor
from adds.rng import SeedStreams
from adds.tensor import (
    Tensor,
    add,
    add_rowvec,
    backward,
    dropout,
    feed_forward,
    layer_norm,
    matmul,
    mean_all,
    mul,
    multi_head_attention,
    param,
    relu,
    sigmoid,
    softmax,
)


def rng(seed=0):
    return SeedStreams(seed).stream("test")


finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-50, 50),
)


class TestMatmul:
    def test_identity(self):
        b = rng().standard_normal((3, 4))
        out = matmul(Tensor(np.eye(3)), Tensor(b))
        np.testing.assert_array_equal(out.value, b)

    def test_hand_example(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.value, [[2.0], [4.0]])

    def test_triple_loop_oracle(self):
        a = rng(1).standard_normal((5, 7))
        b = rng(2).standard_normal((7, 3))
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).value, expected,
                                   atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    @given(arrays(np.float64, (4, 4), elements=st.floats(-50, 50)),
           st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, seed):
        g = rng(seed)
        b = g.standard_normal((4, 5))
        c = g.standard_normal((5, 2))
        left = (a @ b) @ c
        right = a @ (b @ c)
        np.testing.assert_allclose(left, right, atol=1e-9 * max(1, abs(a).max()))


class TestSoftmaxRows:
    def test_equal_values_uniform(self):
        out = softmax(np.full((2, 5), 3.7))
        np.testing.assert_allclose(out, 0.2, atol=1e-12)

    def test_closed_form(self):
        out = softmax(np.array([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_saturation(self):
        out = softmax(np.array([[1e4, 0.0, 1.0]]))
        assert abs(out[0, 0] - 1.0) < 1e-9

    @given(finite_matrices)
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, m):
        out = softmax(m)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    # last axis shorter than, equal to and longer than the one before it
    @pytest.mark.parametrize("shape", [(2, 2, 1445, 16), (3, 16, 16), (2, 16, 85), (40, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("magnitude", [1.0, 1e4, 1e30])
    def test_equals_row_max_form_bitwise(self, shape, dtype, magnitude):
        x = (rng(6).standard_normal(shape) * magnitude).astype(dtype)
        expected = np.exp(x - x.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(softmax(x), expected)

    # the key-major layout: items summed along axis -2, fewer, equal or more
    # of them than along the last axis, below and above numpy's 8 and 128
    @pytest.mark.parametrize("shape", [(2, 2, 16, 1445), (3, 12, 85), (2, 7, 7), (1, 129, 3),
                                       (2, 300, 40)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_axis_minus_two_equals_last_axis_bitwise(self, shape, dtype):
        x = (rng(8).standard_normal(shape) * 30).astype(dtype)
        along_rows = softmax(x, axis=-2)
        along_cols = softmax(np.ascontiguousarray(np.swapaxes(x, -1, -2)))
        assert np.ascontiguousarray(np.swapaxes(along_rows, -1, -2)).tobytes() == along_cols.tobytes()


@st.composite
def summed_columns(draw):
    """(2, n, 6) stacks summed down axis -2: one column of -0.0, one with
    infinities, one with NaNs, the rest finite over 8 decades."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 16, 127, 128, 129, 136, 255, 256, 257, 600]),
                       st.integers(1, 600)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = g.standard_normal((2, n, 6)) * 10.0 ** g.uniform(-4, 4, (2, n, 6))
    x[:, :, 0] = -0.0
    x[:, g.integers(n, size=2), 1] = [np.inf, -np.inf]
    x[:, g.integers(n, size=draw(st.integers(1, 3))), 2] = np.nan
    return x.astype(dtype)


@given(summed_columns())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pairwise_sum_adds_in_numpys_last_axis_order(x):
    # numpy's own pairwise sum runs along a contiguous last axis, so a numpy
    # release that changes its order fails here, and names the cause
    with np.errstate(invalid="ignore"):
        expect = np.add.reduce(np.ascontiguousarray(np.swapaxes(x, -1, -2)), axis=-1)
        got = tensor._pairwise_sum(x)
    assert got.shape == (2, 1, 6) and got.tobytes() == expect[:, None, :].tobytes()


@st.composite
def summed_rows(draw, n):
    """Stacks of n-wide rows summed along the last axis, with row counts on
    both sides of the column-view rule (2,048 rows, 1 MiB): one row of -0.0,
    one with infinities, one with NaNs, the rest finite over 8 decades."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    cap = (1 << 20) // (n * np.dtype(dtype).itemsize)  # rows in 1 MiB
    rows = draw(st.sampled_from([draw(st.integers(3, 40)), 2047, 2048, 2050, cap, cap + 2]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = g.standard_normal((rows, n)) * 10.0 ** g.uniform(-4, 4, (rows, n))
    x[0] = -0.0
    x[1, g.integers(n, size=2)] = [np.inf, -np.inf]
    x[2, g.integers(n, size=draw(st.integers(1, 3)))] = np.nan
    if rows % 2 == 0 and draw(st.booleans()):  # a stack of two images
        x = x.reshape(2, rows // 2, n)
    return x.astype(dtype)


@pytest.mark.parametrize("n", [*range(1, 21), 127, 128, 129])
@given(data=st.data())
@settings(max_examples=16, deadline=None, derandomize=True)
def test_pairwise_sum_of_rows_is_add_reduce(n, data):
    x = data.draw(summed_rows(n))
    with np.errstate(invalid="ignore"):
        expect = np.add.reduce(x, axis=-1, keepdims=True)
        got = tensor._pairwise_sum(x, -1)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


class TestLayerNorm:
    def _unit_affine(self, e):
        return Tensor(np.ones((1, e))), Tensor(np.zeros((1, e)))

    def test_constant_row_goes_to_zero(self):
        gain, bias = self._unit_affine(4)
        out = layer_norm(Tensor(np.full((1, 4), 9.0)), gain, bias)
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_already_normalized(self):
        gain, bias = self._unit_affine(2)
        out = layer_norm(Tensor([[1.0, -1.0]]), gain, bias, eps=1e-15)
        np.testing.assert_allclose(out.value, [[1.0, -1.0]], atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_unfused_form_bitwise(self, dtype):
        x = rng(7).standard_normal((3, 5, 16)).astype(dtype)
        gain, bias = (rng(s).standard_normal((1, 16)).astype(dtype) for s in (8, 9))
        mu = x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + dtype(1e-5))
        expected = (x - mu) * inv_std * gain + bias
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).value
        np.testing.assert_array_equal(out, expected)

    def test_scalar_loop_oracle(self):
        x = rng(3).standard_normal((3, 4))
        gain = rng(4).standard_normal((1, 4))
        bias = rng(5).standard_normal((1, 4))
        eps = 1e-5
        expected = np.zeros_like(x)
        for i in range(3):
            row = x[i]
            mu = sum(row) / 4
            var = sum((v - mu) ** 2 for v in row) / 4
            for j in range(4):
                expected[i, j] = (row[j] - mu) / np.sqrt(var + eps) * gain[0, j] + bias[0, j]
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps=eps)
        np.testing.assert_allclose(out.value, expected, atol=1e-10)


def softmax_calls(monkeypatch):
    """The (scores shape, axis) of each softmax attention takes from now on."""
    calls, softmax = [], tensor.softmax

    def spy(x, out=None, axis=-1):
        calls.append((x.shape, axis))
        return softmax(x, out=out, axis=axis)

    monkeypatch.setattr(tensor, "softmax", spy)
    return calls


def identity_attention(e):
    eye = np.eye(e)
    return AttentionParams(*(Tensor(eye.copy()) for _ in range(4)))


class TestMultiHeadAttention:
    def test_single_key_broadcasts_value(self):
        e = 4
        q = rng(0).standard_normal((3, e))
        v_row = rng(1).standard_normal((1, e))
        out = multi_head_attention(Tensor(q), Tensor(v_row.copy()), Tensor(v_row),
                                   identity_attention(e), heads=1)
        np.testing.assert_allclose(out.value, np.repeat(v_row, 3, axis=0), atol=1e-12)

    def test_output_shape(self):
        g = rng(2)
        out = multi_head_attention(
            Tensor(g.standard_normal((5, 8))),
            Tensor(g.standard_normal((12, 8))),
            Tensor(g.standard_normal((12, 8))),
            AttentionParams(*(Tensor(g.standard_normal((8, 8))) for _ in range(4))),
            heads=2,
        )
        assert out.value.shape == (5, 8)

    def test_scalar_oracle_one_head(self):
        g = rng(7)
        e = 4
        q, k, v = (g.standard_normal((2, e)) for _ in range(3))
        ws = [g.standard_normal((e, e)) for _ in range(4)]
        out = multi_head_attention(Tensor(q), Tensor(k), Tensor(v),
                                   AttentionParams(*(Tensor(w) for w in ws)), heads=1)
        qp, kp, vp = q @ ws[0], k @ ws[1], v @ ws[2]
        expected = np.zeros((2, e))
        for i in range(2):
            logits = [qp[i] @ kp[j] / np.sqrt(e) for j in range(2)]
            mx = max(logits)
            weights = [np.exp(l - mx) for l in logits]
            weights = [w / sum(weights) for w in weights]
            attended = sum(w * vp[j] for j, w in enumerate(weights))
            expected[i] = attended @ ws[3]
        np.testing.assert_allclose(out.value, expected, atol=1e-10)

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (1, 5, 4), (1, 5, 4)),  # 2 query images, 1 key/value image
        ((3, 4), (5, 4), (6, 4)),  # k and v of different rows
    ])
    def test_shape_contract(self, shapes):
        g = rng(5)
        with pytest.raises(ShapeError):
            multi_head_attention(*(Tensor(g.standard_normal(s)) for s in shapes),
                                 identity_attention(4), heads=1)

    def test_heads_must_divide(self):
        g = rng(0)
        with pytest.raises(ConfigurationError):
            multi_head_attention(
                Tensor(g.standard_normal((2, 6))),
                Tensor(g.standard_normal((2, 6))),
                Tensor(g.standard_normal((2, 6))),
                identity_attention(6),
                heads=4,
            )

    def test_one_node_whose_parents_are_inputs_and_weights(self, monkeypatch):
        g = rng(4)
        q, k, v = (param(g.standard_normal((n, 4))) for n in (2, 3, 3))
        p = AttentionParams(*(param(g.standard_normal((4, 4))) for _ in range(4)))
        created = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        out = multi_head_attention(q, k, v, p, heads=2)
        assert created == [out]
        expected = (q, k, v, p.wq, p.wk, p.wv, p.wo)
        assert len(out._parents) == len(expected)
        assert all(a is b for a, b in zip(out._parents, expected))

    @staticmethod
    def _grad_check(heads, sharing, q_rows, kv_rows):
        g = rng(11 + heads)
        e = 8
        q, k, v = (param(g.standard_normal((n, e))) for n in (q_rows, kv_rows, kv_rows))
        if sharing == "k_is_v":
            v = k
        elif sharing == "q_is_k_is_v":
            k = v = q
        p = AttentionParams(*(param(g.standard_normal((e, e)) * 0.5) for _ in range(4)))
        weight = Tensor(g.standard_normal((q.shape[0], e)))
        leaves = list({id(t): t for t in (q, k, v, *(w for _, w in p.tensors()))}.values())

        def loss_fn():
            return mean_all(mul(multi_head_attention(q, k, v, p, heads), weight))

        return grad_check(loss_fn, leaves)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("sharing", ["distinct", "k_is_v", "q_is_k_is_v"])
    def test_grad_check(self, heads, sharing):
        assert self._grad_check(heads, sharing, 3, 5) < 1e-6

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("sharing", ["distinct", "k_is_v"])
    def test_grad_check_key_major(self, heads, sharing):
        # more queries than keys: the scores are laid out (keys, queries)
        assert self._grad_check(heads, sharing, 6, 3) < 1e-6

    @pytest.mark.parametrize("rows, key_major", [
        ((6, 3), True), ((3, 6), False), ((5, 5), False), ((40, 31), True), ((40, 32), False)])
    def test_softmax_is_kept_along_the_longer_axis_below_32_keys(self, monkeypatch, rows,
                                                                  key_major):
        g = rng(45)
        (nq, nk), e = rows, 8
        q, kv = param(g.standard_normal((2, nq, e))), param(g.standard_normal((2, nk, e)))
        p = AttentionParams(*(param(g.standard_normal((e, e)) * 0.5) for _ in range(4)))
        calls = softmax_calls(monkeypatch)
        backward(mean_all(multi_head_attention(q, kv, kv, p, heads=2)))
        layout, axis = ((nk, nq), -2) if key_major else ((nq, nk), -1)
        assert calls == [((2, 2, *layout), axis)]

    def test_mixed_stack_and_image_rejected(self):
        g = rng(6)
        p = AttentionParams(*(param(g.standard_normal((4, 4))) for _ in range(4)))
        q, kv = Tensor(g.standard_normal((2, 3, 4))), Tensor(g.standard_normal((5, 4)))
        with pytest.raises(ShapeError):
            multi_head_attention(q, kv, kv, p, heads=2)

    @staticmethod
    def _chunked_and_whole(monkeypatch, chunk_bytes, q_rows, kv_rows):
        g = rng(40)
        q, kv = param(g.standard_normal((5, q_rows, 8))), param(g.standard_normal((5, kv_rows, 8)))
        p = AttentionParams(*(param(g.standard_normal((8, 8)) * 0.5) for _ in range(4)))
        weight = Tensor(g.standard_normal((5, q_rows, 8)))
        leaves = (q, kv, *(w for _, w in p.tensors()))

        def run():
            out = multi_head_attention(q, kv, kv, p, heads=2)
            backward(mean_all(mul(out, weight)))
            return [out.value, *(t.grad for t in leaves)]

        whole = run()
        monkeypatch.setattr(tensor, "CHUNK_BYTES", chunk_bytes)
        return run(), whole

    # 2 heads x 4 x 6 float64 scores are 384 bytes per image: one image per
    # chunk, then chunks of 2, 2 and 1 images
    @pytest.mark.parametrize("chunk_bytes", [1, 768])
    def test_score_chunks_change_no_bit(self, monkeypatch, chunk_bytes):
        chunked, whole = self._chunked_and_whole(monkeypatch, chunk_bytes, 4, 6)
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))

    @pytest.mark.parametrize("chunk_bytes", [1, 768])
    def test_key_major_score_chunks_change_no_bit(self, monkeypatch, chunk_bytes):
        chunked, whole = self._chunked_and_whole(monkeypatch, chunk_bytes, 6, 4)
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))

    @pytest.mark.parametrize("q_rows, kv_rows", [(4, 6), (6, 4)])  # both score layouts
    def test_backward_keeps_no_projection(self, q_rows, kv_rows):
        # backward forms q @ wq, k @ wk and v @ wv again from the inputs it keeps
        g = rng(41)
        q, k, v = (param(g.standard_normal((3, n, 8))) for n in (q_rows, kv_rows, kv_rows))
        p = AttentionParams(*(param(g.standard_normal((8, 8))) for _ in range(4)))
        kept = multi_head_attention(q, k, v, p, heads=2).node()._backward
        found, seen, todo = [], set(), [*kept.args, kept.func]
        while todo:
            x = todo.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, np.ndarray):
                found.append(x)
                todo.append(x.base)
            elif isinstance(x, (list, tuple)):
                todo.extend(x)
            elif isinstance(x, Tensor):
                todo.extend((x.value, x.grad, x._parents, x._backward))
            elif isinstance(x, AttentionParams):
                todo.extend(vars(x).values())
            elif getattr(x, "__closure__", None):
                todo.extend(c.cell_contents for c in x.__closure__)
        projections = [x.value @ w.value for x, w in ((q, p.wq), (k, p.wk), (v, p.wv))]
        assert not [a for a in found for proj in projections
                    if a.shape == proj.shape and np.allclose(a, proj)]
        assert len(found) == 9  # q, k, v, four weights, the heads' output and the softmax


# sha-256 (first 16 hex digits) of the visual-branch attention node's value and
# of each gradient after one backward, at (images, query rows, keys): 8 x 85 x
# 12 as a7 trains, 2 x 1,445 x 16 as at 240 px. Recorded on the query-major
# layout that the key-major one replaced.
VISUAL_BRANCH_DIGESTS = {
    ((8, 85, 12), "float32"): {
        "out": "9faee41f669c6682", "q": "b098c1566c7fedf8", "k": "b02f2a5634d8d451",
        "v": "b078b340308be9c3", "wq": "1f6decc40ba6a70a", "wk": "f965b6d700c775bb",
        "wv": "e97b7745fd398fca", "wo": "12bf5d8d67218e4c"},
    ((8, 85, 12), "float64"): {
        "out": "f1b260e12c62f902", "q": "3d8f7a97e6868648", "k": "95fb98c21b13ec7b",
        "v": "a4a97a52ba2006d9", "wq": "9a1feee1bd67d3cc", "wk": "c6290812d01cf7cc",
        "wv": "ed9e569913023baf", "wo": "9ebd6a629b1686f2"},
    ((2, 1445, 16), "float32"): {
        "out": "dd37523ceb7c2c9a", "q": "99d456b45fe7eb2b", "k": "a9804dc84c68f516",
        "v": "3b3f7f88a0dc3074", "wq": "3d916736dec45d44", "wk": "25e4a165945af2de",
        "wv": "faaa326e66f4bb11", "wo": "40cebef439ae5ff8"},
    ((2, 1445, 16), "float64"): {
        "out": "7f711e96b2dbc628", "q": "8b6efccf0d891928", "k": "c291acd1b98dfaba",
        "v": "665bbdb23ae67911", "wq": "8b14bc3246f7b047", "wk": "7d6cd2560c15531c",
        "wv": "dfe39a3dd6bcafb2", "wo": "996836386fbcd570"},
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(8, 85, 12), (2, 1445, 16)])
def test_visual_branch_node_is_pinned(monkeypatch, shape, dtype):
    images, rows, keys = shape
    g, e = rng(), 16
    q = param(g.standard_normal((images, rows, e)).astype(dtype))
    k, v = (param(g.standard_normal((images, keys, e)).astype(dtype)) for _ in range(2))
    p = AttentionParams(*(param((g.standard_normal((e, e)) * 0.5).astype(dtype))
                          for _ in range(4)))
    weight = Tensor(g.standard_normal((images, rows, e)).astype(dtype))
    calls = softmax_calls(monkeypatch)
    out = multi_head_attention(q, k, v, p, heads=2)
    backward(mean_all(mul(out, weight)))
    # key-major, a chunk of images at a time
    assert {(scores[1:], axis) for scores, axis in calls} == {((2, keys, rows), -2)}
    assert sum(scores[0] for scores, _ in calls) == images
    named = {"out": out.value, "q": q.grad, "k": k.grad, "v": v.grad,
             **{n: t.grad for n, t in p.tensors()}}
    digests = {n: hashlib.sha256(a.tobytes()).hexdigest()[:16] for n, a in named.items()}
    assert digests == VISUAL_BRANCH_DIGESTS[shape, dtype]


# sha-256 (first 16 hex digits) of the layer norm node's value and of each
# gradient after one backward, at (images, rows, 16): 5 x 1,445 kv rows as at
# 240 px, 11 x 600 label rows as vocab-600 evaluates and 8 x 85 as a7 trains.
# The first two sum their rows from column views, the last by add.reduce;
# recorded when all three took add.reduce.
LAYER_NORM_DIGESTS = {
    ((5, 1445, 16), "float32"): {
        "out": "2da24bd085165530", "x": "5822fd76ba02df2f", "gain": "6efbd658df79b6bc",
        "bias": "4929b6b4279ecafe"},
    ((5, 1445, 16), "float64"): {
        "out": "2ad809aedfc88a94", "x": "754db44632990ed8", "gain": "19f45c9cffa81174",
        "bias": "b47d47717bea926e"},
    ((11, 600, 16), "float32"): {
        "out": "bc1964f63dd5d84f", "x": "fc804ad26a66e495", "gain": "5e862bb0d50435db",
        "bias": "5b350b7fe08fa904"},
    ((11, 600, 16), "float64"): {
        "out": "7be8d7b93373d125", "x": "7040b1779a314aeb", "gain": "1d4f41f69dee78c0",
        "bias": "af6d2b26e8165c62"},
    ((8, 85, 16), "float32"): {
        "out": "cf83a99a22697f1b", "x": "b30091953f39da36", "gain": "44eea9e028d34cee",
        "bias": "20e42ac88fe8f647"},
    ((8, 85, 16), "float64"): {
        "out": "c379bdefcaa379fb", "x": "32e6e0f06af3f5d2", "gain": "95aacca2a149a974",
        "bias": "c99307670b224a4b"},
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(5, 1445, 16), (11, 600, 16), (8, 85, 16)])
def test_layer_norm_node_is_pinned(shape, dtype):
    g = rng()
    x = param((g.standard_normal(shape) * 2 + 1).astype(dtype))
    gain, bias = (param(g.standard_normal((1, shape[-1])).astype(dtype)) for _ in range(2))
    weight = Tensor(g.standard_normal(shape).astype(dtype))
    out = layer_norm(x, gain, bias)
    backward(mean_all(mul(out, weight)))
    named = {"out": out.value, "x": x.grad, "gain": gain.grad, "bias": bias.grad}
    digests = {n: hashlib.sha256(a.tobytes()).hexdigest()[:16] for n, a in named.items()}
    assert digests == LAYER_NORM_DIGESTS[shape, dtype]


class TestBatchAxisGradients:
    """Finite-difference checks with (batch, rows, cols) inputs and shared
    2-D parameters."""

    def _check(self, build, *leaves):
        weight = Tensor(rng(99).standard_normal(build().value.shape))
        return grad_check(lambda: mean_all(mul(build(), weight)), list(leaves))

    def test_matmul(self):
        g = rng(31)
        x, w = param(g.standard_normal((3, 4, 5))), param(g.standard_normal((5, 2)))
        assert self._check(lambda: matmul(x, w), x, w) < 1e-6

    def test_add_rowvec(self):
        g = rng(32)
        x, v = param(g.standard_normal((3, 4, 5))), param(g.standard_normal((1, 5)))
        assert self._check(lambda: add_rowvec(x, v), x, v) < 1e-6

    def test_layer_norm(self):
        g = rng(33)
        x = param(g.standard_normal((3, 4, 5)))
        gain, bias = param(g.standard_normal((1, 5))), param(g.standard_normal((1, 5)))
        assert self._check(lambda: layer_norm(x, gain, bias), x, gain, bias) < 1e-6

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention(self, heads):
        g = rng(34 + heads)
        q, kv = param(g.standard_normal((3, 4, 8))), param(g.standard_normal((3, 6, 8)))
        p = AttentionParams(*(param(g.standard_normal((8, 8)) * 0.5) for _ in range(4)))
        err = self._check(lambda: multi_head_attention(q, kv, kv, p, heads),
                          q, kv, *(w for _, w in p.tensors()))
        assert err < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (16, 16), (1, 64)])
@pytest.mark.parametrize("images", [1, 2, 3, 8, 9, 17])
def test_image_sum_adds_images_in_order(images, shape, dtype):
    # magnitudes over 16 decades: any other order of additions rounds differently
    g = rng(images)
    x = (g.standard_normal((images, *shape))
         * 10.0 ** g.uniform(-8, 8, (images, *shape))).astype(dtype)
    out = tensor._image_sum(x)
    expect = np.cumsum(x, axis=0)[-1]
    assert out.dtype == dtype and out.shape == shape and out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(85, 16), (1, 1, 1), (8, 12, 1), (8, 85, 1), (3, 7, 5),
                                   (8, 85, 16), (8, 1445, 16)])
def test_column_and_image_sums_equal_per_image_loops(shape, dtype):
    g = rng(shape[-2])
    x = (g.standard_normal(shape) * 10.0 ** g.uniform(-8, 8, shape)).astype(dtype)
    stack = x if x.ndim == 3 else x[None]
    per_image = []
    for image in stack:
        if shape[-1] == 1:
            # numpy sums a lone column pairwise, as the engine always has
            per_image.append(np.add.reduce(image, axis=0))
        else:
            acc = np.zeros(shape[-1], dtype)
            for row in image:
                acc += row
            per_image.append(acc)
    expect = per_image[0].copy()
    for cols in per_image[1:]:
        expect += cols
    assert tensor._column_sum(x).shape == (1, shape[-1])
    assert tensor._column_sum(x).tobytes() == expect.tobytes()
    assert tensor._image_sum(np.stack(per_image)[:, None, :]).tobytes() == expect.tobytes()


class TestFeedForward:
    def _params(self, g, e, h):
        return FeedForwardParams(
            w_inner=Tensor(g.standard_normal((e, h))),
            b_inner=Tensor(g.standard_normal((1, h))),
            w_outer=Tensor(g.standard_normal((h, e))),
            b_outer=Tensor(g.standard_normal((1, e))),
        )

    def test_all_negative_preactivation_gives_outer_bias(self):
        e, h = 3, 4
        p = FeedForwardParams(
            w_inner=Tensor(np.zeros((e, h))),
            b_inner=Tensor(np.full((1, h), -5.0)),
            w_outer=Tensor(rng(1).standard_normal((h, e))),
            b_outer=Tensor(rng(2).standard_normal((1, e))),
        )
        out = feed_forward(Tensor(rng(0).standard_normal((2, e))), p)
        np.testing.assert_allclose(out.value, np.repeat(p.b_outer.value, 2, axis=0))

    def test_zero_everything(self):
        e, h = 3, 4
        p = FeedForwardParams(
            w_inner=Tensor(np.zeros((e, h))), b_inner=Tensor(np.zeros((1, h))),
            w_outer=Tensor(np.zeros((h, e))), b_outer=Tensor(np.zeros((1, e))),
        )
        out = feed_forward(Tensor(rng(0).standard_normal((5, e))), p)
        np.testing.assert_array_equal(out.value, 0.0)

    def test_loop_oracle(self):
        g = rng(9)
        e, h = 4, 6
        p = self._params(g, e, h)
        x = g.standard_normal((2, e))
        expected = np.zeros((2, e))
        for i in range(2):
            hidden = [max(0.0, x[i] @ p.w_inner.value[:, j] + p.b_inner.value[0, j])
                      for j in range(h)]
            for j in range(e):
                expected[i, j] = sum(
                    hidden[m] * p.w_outer.value[m, j] for m in range(h)
                ) + p.b_outer.value[0, j]
        np.testing.assert_allclose(feed_forward(Tensor(x), p).value, expected,
                                   atol=1e-10)


class TestDropout:
    def test_rate_zero_identity(self):
        x = rng(0).standard_normal((4, 4))
        out = dropout(Tensor(x), 0.0, rng(1).random(x.shape))
        np.testing.assert_array_equal(out.value, x)

    def test_inference_identity(self):
        x = rng(0).standard_normal((4, 4))
        out = dropout(Tensor(x), 0.9, None)
        np.testing.assert_array_equal(out.value, x)

    def test_survivor_fraction_and_mean(self):
        x = np.ones((400, 250))
        out = dropout(Tensor(x), 0.5, rng(2).random(x.shape)).value
        survivors = np.count_nonzero(out) / out.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.02

    def test_same_stream_state_same_mask(self):
        x = rng(0).standard_normal((8, 8))
        a = dropout(Tensor(x), 0.3, rng(5).random(x.shape)).value
        b = dropout(Tensor(x), 0.3, rng(5).random(x.shape)).value
        np.testing.assert_array_equal(a, b)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigurationError):
            dropout(Tensor(np.zeros((2, 2))), 1.0, rng(0).random((2, 2)))


class TestBackwardContracts:
    def test_frozen_leaf_gets_no_grad(self):
        frozen = param(rng(0).standard_normal((3, 3)), trainable=False)
        free = param(rng(1).standard_normal((3, 3)))
        loss = mean_all(mul(add(frozen, free), add(frozen, free)))
        backward(loss)
        assert frozen.grad is None
        assert np.any(free.grad != 0)

    def test_backward_consumes_the_graph(self):
        g = rng(4)
        x = Tensor(g.standard_normal((3, 4)))
        w = param(g.standard_normal((4, 4)))
        hidden = relu(matmul(x, w))
        saved = weakref.ref(hidden.value)
        loss = mean_all(mul(hidden, hidden))
        del hidden
        backward(loss)
        # the caller still holds the root, but no longer the activations under it
        assert saved() is None
        assert loss._parents == () and loss._backward is None and loss.grad is None
        assert np.any(w.grad != 0)
        assert x.grad is None

    def test_shared_node_accumulates(self):
        x = param(np.array([[2.0]]))
        loss = mean_all(mul(x, x))  # x^2, dx = 2x
        backward(loss)
        np.testing.assert_allclose(x.grad, [[4.0]])

    def test_finite_outputs_after_ops(self):
        g = rng(3)
        x = Tensor(g.standard_normal((4, 6)) * 100)
        for out in (softmax(x.value), sigmoid(x).value,
                    multi_head_attention(x, x, x, identity_attention(6), heads=2).value):
            assert np.isfinite(out).all()
