import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ref_average_precision, ref_f1_at_k, ref_map

from adds.metrics import (
    f1_at_k,
    mean_average_precision,
    metrics_report,
    top_k_predictions,
)
from adds.rng import SeedStreams


def rng(seed=0):
    return SeedStreams(seed).stream("test")


def average_precision(scores, labels):
    """AP of one class: the mAP of its one-column score and label matrices."""
    return mean_average_precision(np.asarray(scores)[:, None],
                                  np.asarray(labels)[:, None])[0]


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1, 0.0], [1, 1, 0, 0]) == 1.0

    def test_hand_example(self):
        # positives land at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        ap = average_precision([0.9, 0.5, 0.7], [1, 1, 0])
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_tie_breaks_by_sample_index(self):
        # equal scores: the earlier sample ranks first, so a positive at
        # index 0 beats a negative at index 1
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5

    @given(st.integers(0, 2**31), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, n):
        g = rng(seed)
        scores = g.standard_normal(n)
        labels = g.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(g.integers(0, n))] = 1
        assert abs(average_precision(scores, labels)
                   - ref_average_precision(scores, labels)) < 1e-12


class TestMeanAveragePrecision:
    def test_skips_empty_classes(self):
        scores = rng(1).standard_normal((4, 3))
        labels = np.array([[1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0]])
        mAP, per_class, skipped = mean_average_precision(scores, labels)
        assert sorted(per_class) == [0]
        assert skipped == [1, 2]
        assert mAP == per_class[0]

    @given(st.integers(0, 2**31), st.integers(1, 40), st.integers(1, 12),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_equals_per_class_average_precision(self, seed, n, k, dtype):
        # three score values (-0.0 and 0.0 tie) make most ranks ties, and a
        # sparse label matrix leaves some columns all negative
        g = rng(seed)
        scores = g.choice(np.array([-0.0, 0.0, 0.5], dtype), size=(n, k))
        labels = (g.random((n, k)) < 0.2).astype(np.int8)
        mAP, per_class, skipped = mean_average_precision(scores, labels)
        expect = {c: mean_average_precision(scores[:, [c]], labels[:, [c]])[0]
                  for c in range(k) if labels[:, c].any()}
        assert per_class == expect
        assert skipped == [c for c in range(k) if not labels[:, c].any()]
        assert mAP == (np.mean(list(expect.values())) if expect else 0.0)

    def test_all_classes_empty(self):
        mAP, per_class, skipped = mean_average_precision(
            np.zeros((2, 2)), np.zeros((2, 2))
        )
        assert mAP == 0.0 and per_class == {} and skipped == [0, 1]


class TestTopK:
    def test_exactly_k_per_row(self):
        scores = rng(2).standard_normal((5, 7))
        pred = top_k_predictions(scores, 3)
        np.testing.assert_array_equal(pred.sum(axis=1), 3)

    def test_tie_breaks_by_class_index(self):
        pred = top_k_predictions(np.array([[0.5, 0.5, 0.5]]), 2)
        np.testing.assert_array_equal(pred, [[1, 1, 0]])

    def test_k_larger_than_classes(self):
        pred = top_k_predictions(np.array([[0.1, 0.2]]), 5)
        np.testing.assert_array_equal(pred, [[1, 1]])


class TestF1AtK:
    def test_perfect_at_matching_k(self):
        scores = np.array([[0.9, 0.8, 0.1], [0.1, 0.9, 0.8]])
        labels = np.array([[1, 1, 0], [0, 1, 1]])
        assert f1_at_k(scores, labels, 2) == 1.0

    def test_no_true_positives(self):
        scores = np.array([[0.9, 0.1]])
        labels = np.array([[0, 1]])
        assert f1_at_k(scores, labels, 1) == 0.0

    def test_hand_micro_example(self):
        # 2 images, k=1: one hit and one miss; 3 true labels total
        scores = np.array([[0.9, 0.1, 0.0], [0.9, 0.1, 0.0]])
        labels = np.array([[1, 1, 0], [0, 1, 0]])
        # tp=1, predicted=2, true=3: p=1/2, r=1/3
        expected = 2 * 0.5 * (1 / 3) / (0.5 + 1 / 3)
        assert abs(f1_at_k(scores, labels, 1) - expected) < 1e-12

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            f1_at_k(np.array([[0.9, 0.5, 0.1]]), np.array([[1, 1, 0]]), k)


class TestAgainstBruteForce:
    def test_exhaustive_small_label_patterns(self):
        # every label matrix for shapes up to 2x3 under a fixed score draw
        for n, c in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            scores = rng(100 * n + c).standard_normal((n, c))
            for bits in itertools.product([0, 1], repeat=n * c):
                labels = np.array(bits).reshape(n, c)
                mAP, _, _ = mean_average_precision(scores, labels)
                assert abs(mAP - ref_map(scores, labels)) < 1e-12
                for k in range(1, c + 1):
                    assert abs(f1_at_k(scores, labels, k)
                               - ref_f1_at_k(scores, labels, k)) < 1e-12

    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_shapes_with_score_ties(self, seed, n, c):
        g = rng(seed)
        # quantized scores force plenty of ties through the tie-break path
        scores = np.round(g.uniform(0, 1, size=(n, c)) * 4) / 4
        labels = g.integers(0, 2, size=(n, c))
        mAP, _, _ = mean_average_precision(scores, labels)
        assert abs(mAP - ref_map(scores, labels)) < 1e-12
        for k in (1, 3):
            assert abs(f1_at_k(scores, labels, k)
                       - ref_f1_at_k(scores, labels, k)) < 1e-12


class TestReport:
    def test_fields(self):
        g = rng(9)
        scores = g.standard_normal((6, 4))
        labels = g.integers(0, 2, size=(6, 4))
        labels[:, 0] = 1
        report = metrics_report(scores, labels, ks=(1, 2))
        assert report.n_samples == 6
        assert set(report.f1_at) == {1, 2}
        assert report.map == mean_average_precision(scores, labels)[0]
