import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import grad_check
from wtal import numkit
from wtal.config import LossConfig
from wtal.losses import (attention_norm_loss, classification_loss,
                         classification_loss_grad, pseudo_gt_loss,
                         total_loss)


def scatter_add_attention_norm_loss(attention, s):
    """The attention_norm_loss that built its gradient with np.add.at,
    kept as its oracle."""
    t = attention.shape[0]
    l = max(1, t // int(s))
    ascending = np.argsort(attention, kind="stable")
    bottom = ascending[:l]
    descending = np.argsort(-attention, kind="stable")
    top = descending[:l]
    value = float(attention[bottom].mean() - attention[top].mean())
    grad = np.zeros(t)
    np.add.at(grad, bottom, 1.0 / l)
    np.add.at(grad, top, -1.0 / l)
    return value, grad


class TestClassificationLoss:
    def test_perfect_prediction(self):
        assert classification_loss(np.array([1.0, 0.0]),
                                   np.array([1.0, 0.0])) == 0.0

    def test_symmetric_half(self):
        val = classification_loss(np.array([0.5, 0.5]),
                                  np.array([0.5, 0.5]))
        assert abs(val - math.log(2.0)) < 1e-12

    def test_hand_value(self):
        val = classification_loss(np.array([1.0, 0.0]),
                                  np.array([0.25, 0.75]))
        assert abs(val - 1.3862943611198906) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = int(rng.integers(2, 6))
            y = np.zeros(c)
            y[rng.choice(c, size=rng.integers(1, c + 1),
                         replace=False)] = 1.0
            y /= y.sum()
            y_hat = numkit.softmax(rng.normal(size=c))
            assert classification_loss(y, y_hat) >= 0.0

    def test_zero_prediction_hits_log_floor(self):
        val = classification_loss(np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]))
        assert abs(val - (-math.log(1e-12))) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        c = 4
        y = np.zeros(c)
        y[rng.choice(c, size=2, replace=False)] = 0.5
        params = {"y_hat": rng.uniform(0.1, 0.9, size=c)}

        def fn(p):
            return (classification_loss(y, p["y_hat"]),
                    {"y_hat": classification_loss_grad(y, p["y_hat"])})

        assert grad_check(fn, params).passed


class TestAttentionNormLoss:
    def test_constant_sequence_zero(self):
        val, grad = attention_norm_loss(np.full(10, 0.5), 8)
        assert val == 0.0
        # the top and bottom pick the same lowest index, contributions cancel
        np.testing.assert_allclose(grad, np.zeros(10))

    def test_extreme_sequence(self):
        val, _ = attention_norm_loss(np.array([1.0, 1.0, 0.0, 0.0]), 2)
        assert val == -1.0

    def test_hand_value(self):
        val, grad = attention_norm_loss(np.array([0.9, 0.8, 0.1, 0.2]), 8)
        assert abs(val - (-0.8)) < 1e-12
        np.testing.assert_allclose(grad, [-1.0, 0.0, 1.0, 0.0])

    def test_range_open_below_closed_above(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            t = int(rng.integers(1, 30))
            a = rng.uniform(size=t)
            val, _ = attention_norm_loss(a, 8)
            assert -1.0 < val <= 0.0
            if np.unique(a).size == t and t > 1:
                assert val < 0.0

    def test_zero_iff_constant(self):
        val, _ = attention_norm_loss(np.array([0.3, 0.3, 0.3]), 8)
        assert val == 0.0
        val, _ = attention_norm_loss(np.array([0.3, 0.3001, 0.3]), 8)
        assert val < 0.0

    def test_tie_break_lowest_index_first(self):
        # duplicated max at indices 0 and 2; duplicated min at 1 and 3.
        # index selection must charge the earliest occurrences.
        _, grad = attention_norm_loss(np.array([0.9, 0.1, 0.9, 0.1]), 4)
        np.testing.assert_allclose(grad, [-1.0, 1.0, 0.0, 0.0])

    def test_overlap_when_l_exceeds_half(self):
        # T=3, s=1 -> l=3: every index is in both the top and bottom set
        val, grad = attention_norm_loss(np.array([0.2, 0.5, 0.8]), 1)
        assert abs(val) < 1e-15
        np.testing.assert_allclose(grad, np.zeros(3))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariant(self, values, s):
        a = np.array(values)
        base, _ = attention_norm_loss(a, s)
        rng = np.random.default_rng(len(values))
        shuffled, _ = attention_norm_loss(rng.permutation(a), s)
        assert abs(base - shuffled) < 1e-12

    # few distinct values, so ties are common; s 1 (or T 1) gives 2l > T,
    # where an index is in both the top and the bottom set
    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                              st.floats(min_value=0.0, max_value=1.0)),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_scatter_add_oracle(self, values, s):
        a = np.array(values)
        value, grad = attention_norm_loss(a, s)
        expected_value, expected_grad = scatter_add_attention_norm_loss(a, s)
        assert value == expected_value
        assert grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_finite_difference_away_from_ties(self, seed):
        rng = np.random.default_rng(400 + seed)
        t = 12
        while True:
            a = rng.uniform(0.05, 0.95, size=t)
            if np.min(np.diff(np.sort(a))) > 1e-3:
                break
        params = {"a": a}

        def fn(p):
            val, grad = attention_norm_loss(p["a"], 4)
            return val, {"a": grad}

        assert grad_check(fn, params).passed


class TestPseudoGtLoss:
    def test_exact_match_is_zero(self):
        val, grad = pseudo_gt_loss(np.array([0.2, 0.8]),
                                   np.array([0.2, 0.8]))
        assert val == 0.0
        np.testing.assert_allclose(grad, [0.0, 0.0])

    def test_symmetric_half(self):
        val, _ = pseudo_gt_loss(np.array([0.5, 0.5]),
                                np.array([1.0, 0.0]))
        assert abs(val - 0.25) < 1e-12

    def test_hand_value(self):
        val, _ = pseudo_gt_loss(np.array([0.2, 0.9, 0.4]),
                                np.array([0.0, 1.0, 1.0]))
        assert abs(val - 0.41 / 3.0) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_finite_difference(self, seed):
        rng = np.random.default_rng(500 + seed)
        gt = rng.integers(0, 2, size=8).astype(float)
        params = {"a": rng.uniform(size=8)}

        def fn(p):
            val, grad = pseudo_gt_loss(p["a"], gt)
            return val, {"a": grad}

        assert grad_check(fn, params).passed


class TestTotalLoss:
    def test_weights_zero(self):
        cfg = LossConfig(alpha=0.0, gamma=0.0)
        assert total_loss(1.7, -0.4, cfg, gt_value=None) == 1.7

    def test_base_combination(self):
        cfg = LossConfig(alpha=0.1)
        assert abs(total_loss(1.0, -0.5, cfg, gt_value=None) - 0.95) < 1e-12

    def test_full_combination(self):
        cfg = LossConfig(alpha=0.1, gamma=2.0)
        val = total_loss(1.0, -1.0, cfg, gt_value=0.25)
        assert abs(val - 1.4) < 1e-12

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            LossConfig(s=0)
