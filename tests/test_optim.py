import numpy as np
import pytest

from adds import optim
from adds.errors import ConfigurationError, NumericError
from adds.optim import AdamState, adam_step, grad_check
from adds.rng import SeedStreams
from adds.tensor import Tensor, backward, matmul, mean_all, mul, param, scale


def rng(seed=0):
    return SeedStreams(seed).stream("test")


class TestAdam:
    def test_first_step_hand_oracle(self):
        g = rng(1)
        value = g.standard_normal((3, 2))
        grad = g.standard_normal((3, 2))
        p = param(value.copy())
        p.grad = grad.copy()
        state = AdamState.for_params([p])
        lr, eps = 1e-2, 1e-8
        adam_step([p], state, lr, wd=0.0, eps=eps)
        # after one step the bias-corrected moments are exactly g and g*g
        expected = value - lr * grad / (np.abs(grad) + eps)
        np.testing.assert_allclose(p.value, expected, atol=1e-12)
        assert state.step == 1

    def test_two_step_loop_oracle(self):
        g = rng(2)
        p = param(g.standard_normal((2, 2)))
        grads = [g.standard_normal((2, 2)) for _ in range(2)]
        state = AdamState.for_params([p])
        ref = p.value.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        b1, b2, lr, eps = 0.9, 0.999, 3e-3, 1e-8
        for t, grad in enumerate(grads, start=1):
            p.grad = grad.copy()
            adam_step([p], state, lr, eps=eps)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.value, ref, atol=1e-12)

    def test_decoupled_weight_decay(self):
        p = param(np.full((2, 2), 2.0))
        p.grad = np.zeros((2, 2))
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.1, wd=0.5)
        # zero gradient leaves only the decay term: value *= 1 - lr*wd
        np.testing.assert_allclose(p.value, 2.0 * (1 - 0.1 * 0.5), atol=1e-12)

    def test_frozen_param_untouched(self):
        p = param(rng(3).standard_normal((2, 2)), trainable=False)
        before = p.value.copy()
        p.grad = np.ones((2, 2))
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.1, wd=0.5)
        np.testing.assert_array_equal(p.value, before)

    def test_nonpositive_lr_rejected(self):
        p = param(np.zeros((1, 1)))
        state = AdamState.for_params([p])
        for lr in (0.0, -1e-3):
            with pytest.raises(ConfigurationError):
                adam_step([p], state, lr)

    def test_preserves_float32(self):
        p = param(rng(4).standard_normal((2, 2)).astype(np.float32))
        p.grad = np.ones((2, 2), dtype=np.float32)
        state = AdamState.for_params([p])
        adam_step([p], state, 1e-3, wd=1e-2)
        assert p.value.dtype == np.float32


def loop_adam_step(params, m, v, t, lr, wd, betas=(0.9, 0.999), eps=1e-8):
    """Reference: one Adam step parameter by parameter, on private copies."""
    b1, b2 = betas
    for i, (value, g) in enumerate(params):
        dt = value.dtype
        if wd:
            value -= dt.type(lr * wd) * value
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
        m_hat = m[i] / (1.0 - b1**t)
        v_hat = v[i] / (1.0 - b2**t)
        value -= (dt.type(lr) * m_hat / (np.sqrt(v_hat) + dt.type(eps))).astype(dt)


SHAPES = [(3, 4), (1, 7), (16, 16), (1, 1), (5, 2)]


class TestFlatBuffer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_twenty_steps_match_per_array_loop_bitwise(self, dtype):
        g = rng(20)
        params = [param(g.standard_normal(s).astype(dtype)) for s in SHAPES]
        frozen = param(g.standard_normal((2, 3)).astype(dtype), trainable=False)
        params.insert(2, frozen)
        live = [p for p in params if p.trainable]
        ref = [p.value.copy() for p in live]
        ref_m = [np.zeros_like(r) for r in ref]
        ref_v = [np.zeros_like(r) for r in ref]
        state = AdamState.for_params(params)
        lr, wd = 3e-2, 1e-2
        for t in range(1, 21):
            grads = [g.standard_normal(p.value.shape).astype(dtype) for p in live]
            for p, grad in zip(live, grads):
                p.grad = grad.copy()
            live[3].grad = None  # a parameter the loss did not reach
            grads[3] = np.zeros_like(grads[3])
            adam_step(params, state, lr, wd=wd)
            loop_adam_step(list(zip(ref, grads)), ref_m, ref_v, t, lr, wd)
        assert state.step == 20
        i = 0
        for j, p in enumerate(params):
            if not p.trainable:
                np.testing.assert_array_equal(state.m[j], 0)
                continue
            assert p.value.dtype == dtype
            np.testing.assert_array_equal(p.value, ref[i])
            np.testing.assert_array_equal(state.m[j], ref_m[i])
            np.testing.assert_array_equal(state.v[j], ref_v[i])
            i += 1

    def test_params_and_moments_are_views_of_the_flat_buffers(self):
        g = rng(21)
        params = [param(g.standard_normal(s)) for s in SHAPES]
        before = [p.value.copy() for p in params]
        state = AdamState.for_params(params)
        assert state.values.size == sum(p.value.size for p in params)
        for p, m, v, b in zip(params, state.m, state.v, before):
            assert np.shares_memory(p.value, state.values)
            assert np.shares_memory(m, state.flat_m)
            assert np.shares_memory(v, state.flat_v)
            np.testing.assert_array_equal(p.value, b)

    def test_rebound_value_raises_before_any_update(self):
        g = rng(22)
        params = [param(g.standard_normal(s)) for s in SHAPES]
        state = AdamState.for_params(params)
        for p in params:
            p.grad = np.ones_like(p.value)
        params[1].value = params[1].value.copy()
        values = state.values.copy()
        with pytest.raises(ConfigurationError, match="in place"):
            adam_step(params, state, 1e-2, wd=1e-2)
        np.testing.assert_array_equal(state.values, values)
        assert state.step == 0

    def test_frozen_after_packing_raises(self):
        params = [param(np.ones((2, 2))), param(np.ones((1, 2)))]
        state = AdamState.for_params(params)
        params[0].trainable = False
        with pytest.raises(ConfigurationError):
            adam_step(params, state, 1e-2)

    def test_mixed_dtypes_raise(self):
        params = [param(np.ones((2, 2), np.float32)), param(np.ones((1, 2), np.float64))]
        with pytest.raises(ConfigurationError, match="dtypes"):
            AdamState.for_params(params)
        # a frozen parameter is not packed, so its dtype does not matter
        params[1].trainable = False
        AdamState.for_params(params)


class TestGradCheck:
    def test_quadratic_passes(self):
        theta = param(rng(5).standard_normal((3, 3)))

        def loss_fn():
            return scale(mean_all(mul(theta, theta)), 0.5 * theta.value.size)

        assert grad_check(loss_fn, [theta]) < 1e-9

    def test_bilinear_passes(self):
        a = param(rng(6).standard_normal((3, 4)))
        b = param(rng(7).standard_normal((4, 2)))

        def loss_fn():
            return mean_all(matmul(a, b))

        assert grad_check(loss_fn, [a, b]) < 1e-8

    def test_detects_wrong_gradient(self):
        theta = param(rng(8).standard_normal((2, 2)))

        def loss_fn():
            inner = scale(mean_all(mul(theta, theta)), 0.5 * theta.value.size)
            extra = 0.1 * float(np.sum(theta.value))
            out = Tensor(inner.value + extra, _parents=(inner,),
                         _backward=lambda g: np.add(inner.grad, g, out=inner.grad))
            return out

        assert grad_check(loss_fn, [theta]) > 1e-2

    def test_param_outside_graph_ok(self):
        used = param(rng(9).standard_normal((2, 2)))
        unused = param(rng(10).standard_normal((2, 2)))

        def loss_fn():
            return mean_all(mul(used, used))

        assert grad_check(loss_fn, [used, unused]) < 1e-8

    def test_stale_gradient_of_unreached_param_ignored(self):
        # b's gradient from an earlier graph is not the gradient of a loss
        # that does not reach b
        a = param(rng(13).standard_normal((2, 2)))
        b = param(rng(14).standard_normal((2, 2)))
        backward(mean_all(mul(b, b)))
        assert np.any(b.grad != 0)
        assert grad_check(lambda: mean_all(mul(a, a)), [a, b]) < 1e-8

    def test_frozen_param_with_gradient_named_by_position(self, monkeypatch):
        used = param(rng(11).standard_normal((2, 2)))
        frozen = param(rng(12).standard_normal((2, 2)), trainable=False)

        def leaky_backward(root):
            # breaks the contract that frozen leaves carry zero gradient
            backward(root)
            frozen.grad = np.ones((2, 2))

        monkeypatch.setattr(optim, "backward", leaky_backward)

        def loss_fn():
            return mean_all(mul(used, used))

        with pytest.raises(AssertionError, match=r"params\[1\]"):
            grad_check(loss_fn, [used, frozen])

    @pytest.mark.parametrize("eps", [0.0, -1e-5, np.inf, np.nan])
    def test_step_must_be_finite_and_positive(self, eps):
        theta = param(rng(5).standard_normal((2, 2)))
        with pytest.raises(ConfigurationError, match="finite-difference step"):
            grad_check(lambda: mean_all(mul(theta, theta)), [theta], eps=eps)

    def test_nonfinite_loss_raises(self):
        theta = param(np.array([[np.inf]]))

        def loss_fn():
            return mean_all(mul(theta, theta))

        with pytest.raises(NumericError):
            grad_check(loss_fn, [theta])
