import numpy as np
import pytest

from wtal import numkit
from wtal.numkit import ShapeError


class TestTemporalConv:
    def test_identity_kernel(self):
        inp = np.arange(12.0).reshape(4, 3)
        w = np.eye(3)[None, :, :]
        out = numkit.temporal_conv_forward(inp, w, np.zeros(3))
        np.testing.assert_allclose(out, inp)

    def test_zero_weights_give_bias(self):
        inp = np.random.default_rng(0).normal(size=(5, 2))
        w = np.zeros((3, 2, 4))
        b = np.array([1.0, -2.0, 0.5, 3.0])
        out = numkit.temporal_conv_forward(inp, w, b)
        for row in out:
            np.testing.assert_allclose(row, b)

    def test_hand_convolution_with_zero_padding(self):
        inp = np.array([[1.0], [2.0], [3.0]])
        w = np.ones((3, 1, 1))
        out = numkit.temporal_conv_forward(inp, w, np.zeros(1))
        np.testing.assert_allclose(out[:, 0], [3.0, 6.0, 5.0])

    def test_output_length_matches_input(self):
        rng = np.random.default_rng(3)
        for t in (1, 2, 7, 20):
            inp = rng.normal(size=(t, 4))
            w = rng.normal(size=(5, 4, 6))
            out = numkit.temporal_conv_forward(inp, w, rng.normal(size=6))
            assert out.shape == (t, 6)

    def test_rejects_even_kernel(self):
        with pytest.raises(ShapeError):
            numkit.temporal_conv_forward(np.ones((3, 2)),
                                         np.ones((2, 2, 2)), np.zeros(2))

    def test_rejects_empty_input(self):
        with pytest.raises(ShapeError):
            numkit.temporal_conv_forward(np.ones((0, 2)),
                                         np.ones((3, 2, 2)), np.zeros(2))

    def test_backward_without_input_gradient(self):
        rng = np.random.default_rng(4)
        inp = rng.normal(size=(6, 3))
        w = rng.normal(size=(3, 3, 2))
        d_out = rng.normal(size=(6, 2))
        _, d_w, d_b = numkit.temporal_conv_backward(inp, w, d_out)
        d_inp, d_w2, d_b2 = numkit.temporal_conv_backward(
            inp, w, d_out, need_input=False)
        assert d_inp is None
        np.testing.assert_array_equal(d_w2, d_w)
        np.testing.assert_array_equal(d_b2, d_b)


class TestFc:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            numkit.fc_forward(x, np.eye(3), np.zeros(3)), x)

    def test_zero_weights_bias_only(self):
        out = numkit.fc_forward(np.array([5.0]), np.zeros((1, 1)),
                                np.array([0.3]))
        np.testing.assert_allclose(out, [0.3])

    def test_hand_arithmetic(self):
        out = numkit.fc_forward(np.array([1.0, 2.0]),
                                np.array([[1.0], [-1.0]]), np.array([0.5]))
        np.testing.assert_allclose(out, [-0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            numkit.fc_forward(np.ones(3), np.ones((2, 2)), np.zeros(2))


class TestNonlinearities:
    def test_sigmoid_at_zero(self):
        assert numkit.sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_monotone_and_bounded(self):
        x = np.linspace(-30, 30, 101)
        s = numkit.sigmoid(x)
        assert np.all(np.diff(s) > 0)
        assert np.all((s > 0) & (s < 1))

    def test_sigmoid_extreme_inputs_no_overflow(self):
        s = numkit.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(s))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(numkit.softmax(np.zeros(2)), [0.5, 0.5])

    def test_softmax_large_logits_stable(self):
        np.testing.assert_allclose(
            numkit.softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])

    def test_softmax_is_distribution(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(scale=10, size=rng.integers(2, 9))
            p = numkit.softmax(z)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_sigmoid_gradient_at_zero(self):
        np.testing.assert_allclose(
            numkit.sigmoid_backward(np.array(0.5), np.array(1.0)), 0.25)


def _layer_grad_check(fn, params, seed_note, tol=1e-4):
    report = numkit.grad_check(fn, params, h=1e-5, tol=tol)
    assert report.passed, (seed_note, report)


class TestBackwardFiniteDifference:
    """Every layer's analytic gradient matches central differences."""

    @pytest.mark.parametrize("seed", range(20))
    def test_temporal_conv(self, seed):
        rng = np.random.default_rng(seed)
        inp = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 4))
        params = {"w": rng.normal(size=(3, 3, 4)), "b": rng.normal(size=4)}

        def fn(p):
            out = numkit.temporal_conv_forward(inp, p["w"], p["b"])
            diff = out - target
            d_out = 2.0 * diff
            _, d_w, d_b = numkit.temporal_conv_backward(inp, p["w"], d_out)
            return float((diff * diff).sum()), {"w": d_w, "b": d_b}

        _layer_grad_check(fn, params, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_conv_input_gradient(self, seed):
        rng = np.random.default_rng(100 + seed)
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        target = rng.normal(size=(5, 3))
        params = {"x": rng.normal(size=(5, 2))}

        def fn(p):
            out = numkit.temporal_conv_forward(p["x"], w, b)
            diff = out - target
            d_x, _, _ = numkit.temporal_conv_backward(p["x"], w, 2.0 * diff)
            return float((diff * diff).sum()), {"x": d_x}

        _layer_grad_check(fn, params, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_fc(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(size=4)
        target = rng.normal(size=3)
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3),
                  "x": x.copy()}

        def fn(p):
            out = numkit.fc_forward(p["x"], p["w"], p["b"])
            diff = out - target
            d_x, d_w, d_b = numkit.fc_backward(p["x"], p["w"], 2.0 * diff)
            return float((diff * diff).sum()), {"w": d_w, "b": d_b,
                                                "x": d_x}

        _layer_grad_check(fn, params, seed)

    def test_fc_bias_gradient_equals_upstream(self):
        rng = np.random.default_rng(5)
        upstream = rng.normal(size=3)
        _, _, d_b = numkit.fc_backward(rng.normal(size=4),
                                       rng.normal(size=(4, 3)), upstream)
        np.testing.assert_allclose(d_b, upstream)

    @pytest.mark.parametrize("seed", range(20))
    def test_sigmoid_softmax_chain(self, seed):
        rng = np.random.default_rng(300 + seed)
        target = numkit.softmax(rng.normal(size=4))
        params = {"z": rng.normal(size=4)}

        def fn(p):
            s = numkit.sigmoid(p["z"])
            probs = numkit.softmax(s)
            diff = probs - target
            d_s = numkit.softmax_backward(probs, 2.0 * diff)
            d_z = numkit.sigmoid_backward(s, d_s)
            return float((diff * diff).sum()), {"z": d_z}

        _layer_grad_check(fn, params, seed)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = np.array([1.0, -2.0])
        state = numkit.adam_init(params, 1e-4)
        numkit.adam_step(params, np.zeros(2), state)
        np.testing.assert_allclose(params, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_bias_correction(self):
        # with g=1 the bias-corrected moments are both 1, so the update
        # is the learning rate (up to epsilon)
        params = np.array([0.0])
        state = numkit.adam_init(params, learning_rate=1e-4)
        numkit.adam_step(params, np.array([1.0]), state)
        np.testing.assert_allclose(params, [-1e-4], rtol=1e-6)

    def test_constant_gradient_monotone(self):
        params = np.array([1.0])
        state = numkit.adam_init(params, learning_rate=0.01)
        seen = [params[0]]
        for _ in range(5):
            numkit.adam_step(params, np.array([2.0]), state)
            seen.append(params[0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = numkit.adam_init(params, 1e-4)
        with pytest.raises(ShapeError):
            numkit.adam_step(params, np.zeros(2), state)

    def test_flat_step_matches_per_name_reference(self):
        """The flat update gives the bits of the same update applied to
        each named array on its own."""
        rng = np.random.default_rng(11)
        shapes = {"w": (3, 4, 2), "b": (2,), "s": ()}
        named = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        flat = np.concatenate([v.ravel() for v in named.values()])
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        moments = {k: (np.zeros_like(v), np.zeros_like(v))
                   for k, v in named.items()}
        state = numkit.adam_init(flat, learning_rate=lr)
        for t in range(1, 8):
            grads = {k: rng.normal(size=v.shape) for k, v in named.items()}
            numkit.adam_step(
                flat, np.concatenate([g.ravel() for g in grads.values()]),
                state)
            bc1 = 1.0 - beta1 ** t
            bc2 = 1.0 - beta2 ** t
            for k, p in named.items():
                m, v = moments[k]
                m *= beta1
                m += (1.0 - beta1) * grads[k]
                v *= beta2
                v += (1.0 - beta2) * np.square(grads[k])
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            np.testing.assert_array_equal(
                flat, np.concatenate([v.ravel() for v in named.values()]))

class TestGradCheck:
    def test_quadratic(self):
        def fn(p):
            return float(p["x"][0] ** 2), {"x": 2.0 * p["x"]}

        report = numkit.grad_check(fn, {"x": np.array([3.0])})
        assert report.max_rel_error < 1e-8
        assert report.passed

    def test_flags_corrupted_gradient(self):
        def fn(p):
            return float(p["x"][0] ** 2), {"x": 2.2 * p["x"]}  # +10% wrong

        report = numkit.grad_check(fn, {"x": np.array([3.0])})
        assert not report.passed
        assert report.worst_param == "x"
