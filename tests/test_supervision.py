import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ref_bce

from adds.errors import ConfigurationError
from adds.rng import SeedStreams
from adds.supervision import (
    AslConfig,
    asl_loss,
    asl_loss_node,
    select_labels,
)
from adds.tensor import backward, param


def rng(seed=0):
    return SeedStreams(seed).stream("test")


class TestAslConfig:
    def test_defaults(self):
        cfg = AslConfig()
        assert (cfg.gamma_pos, cfg.gamma_neg, cfg.margin) == (0.0, 4.0, 0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AslConfig(gamma_neg=-1)
        with pytest.raises(ConfigurationError):
            AslConfig(margin=1.0)

    @pytest.mark.parametrize("name", ["gamma_pos", "gamma_neg"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_exponent_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match="finite"):
            AslConfig(**{name: value})


class TestAslValue:
    def test_negative_hand_value(self):
        # gamma-=4, m=0.05, p=0.3, y=0: shifted p is 0.25, so the loss is
        # 0.25^4 * (-log 0.75) = 1.1239...e-3
        value, _ = asl_loss([0.3], [0], AslConfig())
        expected = 0.25**4 * -np.log(0.75)
        assert abs(value - expected) < 1e-12
        assert abs(value - 1.124e-3) < 1e-6

    def test_positive_hand_value(self):
        value, _ = asl_loss([0.3], [1], AslConfig())
        assert abs(value - (-np.log(0.3))) < 1e-12

    def test_easy_negative_fully_suppressed(self):
        value, grad = asl_loss([0.04], [0], AslConfig(margin=0.05))
        assert value == 0.0
        assert grad[0] == 0.0

    def test_mean_over_classes(self):
        cfg = AslConfig()
        v_each = [asl_loss([p], [y], cfg)[0]
                  for p, y in ((0.3, 1), (0.9, 0), (0.6, 1))]
        v_all, _ = asl_loss([0.3, 0.9, 0.6], [1, 0, 1], cfg)
        assert abs(v_all - np.mean(v_each)) < 1e-12

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_bce_reduction(self, seed):
        g = rng(seed)
        p = g.uniform(0.0, 1.0, size=32)
        y = g.integers(0, 2, size=32)
        value, _ = asl_loss(p, y, AslConfig(gamma_pos=0, gamma_neg=0, margin=0))
        assert abs(value - ref_bce(p, y)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            asl_loss([0.5, 0.5], [1], AslConfig())

    @pytest.mark.parametrize("cfg", [AslConfig(), AslConfig(gamma_pos=1.5, margin=0.1)])
    def test_rows_equal_one_call_per_image_bitwise(self, cfg):
        g = rng(13)
        p = g.uniform(0.0, 1.0, size=(5, 37))
        y = g.integers(0, 2, size=(5, 37))
        values, grad = asl_loss(p, y, cfg)
        assert values.shape == (5,)
        for row in range(5):
            value, grad_row = asl_loss(p[row], y[row], cfg)
            assert isinstance(value, float) and value == values[row]
            np.testing.assert_array_equal(grad_row, grad[row])


class TestAslGradient:
    @pytest.mark.parametrize("cfg", [
        AslConfig(),
        AslConfig(gamma_pos=1.5, gamma_neg=2.0, margin=0.1),
        AslConfig(gamma_pos=0, gamma_neg=0, margin=0),
    ])
    def test_matches_central_difference(self, cfg):
        g = rng(11)
        # stay away from the clamp edges and the margin kink
        p = g.uniform(0.15, 0.85, size=16)
        p = p[np.abs(p - cfg.margin) > 1e-3]
        y = g.integers(0, 2, size=p.size)
        _, grad = asl_loss(p, y, cfg)
        eps = 1e-6
        for j in range(p.size):
            up, down = p.copy(), p.copy()
            up[j] += eps
            down[j] -= eps
            numeric = (asl_loss(up, y, cfg)[0]
                       - asl_loss(down, y, cfg)[0]) / (2 * eps)
            assert abs(grad[j] - numeric) < 1e-6

    def test_node_backward_matches_grad(self):
        g = rng(12)
        p = g.uniform(0.1, 0.9, size=(5, 1))
        y = g.integers(0, 2, size=5)
        cfg = AslConfig()
        node_in = param(p.copy())
        loss = asl_loss_node(node_in, y, cfg)
        backward(loss)
        value, grad = asl_loss(p.reshape(-1), y, cfg)
        assert abs(loss.value[0, 0] - value) < 1e-12
        np.testing.assert_allclose(node_in.grad, grad.reshape(5, 1), atol=1e-12)


class TestSelectLabels:
    def test_size_law_and_membership(self):
        labels = np.zeros((3, 20), dtype=int)
        labels[0, [2, 5]] = 1
        labels[2, [5, 11]] = 1
        sel = select_labels(labels, alpha=3, stream=rng(1))
        assert set(sel.positives) == {2, 5, 11}
        assert len(sel.sampled_negatives) == min(3 * 3, 20 - 3)
        assert set(sel.selected) == set(sel.positives) | set(sel.sampled_negatives)
        assert np.all(np.diff(sel.selected) > 0)
        assert not set(sel.sampled_negatives) & set(sel.positives)

    def test_capped_by_available_negatives(self):
        labels = np.ones((1, 6), dtype=int)
        labels[0, 5] = 0
        sel = select_labels(labels, alpha=3, stream=rng(2))
        assert len(sel.sampled_negatives) == 1
        assert len(sel.selected) == 6

    def test_alpha_zero_keeps_positives_only(self):
        labels = np.zeros((2, 10), dtype=int)
        labels[:, 3] = 1
        sel = select_labels(labels, alpha=0, stream=rng(3))
        np.testing.assert_array_equal(sel.selected, [3])

    def test_no_positives_selects_nothing(self):
        sel = select_labels(np.zeros((2, 8), dtype=int), alpha=3, stream=rng(4))
        assert sel.selected.size == 0

    def test_deterministic_per_stream_state(self):
        labels = np.zeros((1, 50), dtype=int)
        labels[0, :4] = 1
        a = select_labels(labels, alpha=2, stream=rng(7)).selected
        b = select_labels(labels, alpha=2, stream=rng(7)).selected
        np.testing.assert_array_equal(a, b)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            select_labels(np.zeros((1, 4)), alpha=-1, stream=rng(0))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        labels = np.zeros((1, 4))
        labels[0, 0] = 1
        with pytest.raises(ConfigurationError, match="alpha"):
            select_labels(labels, alpha=alpha, stream=rng(0))

    def test_huge_alpha_takes_every_negative(self):
        # alpha * |pos| overflows to inf; the cap still holds
        labels = np.zeros((1, 8), dtype=int)
        labels[0, [1, 4, 6]] = 1
        sel = select_labels(labels, alpha=1e308, stream=rng(5))
        np.testing.assert_array_equal(sel.selected, np.arange(8))

