import numpy as np
import pytest

from gradcheck import grad_check
from wtal import basemodel, consensus, losses, numkit, synthdata
from wtal.basemodel import ShapeError, StreamModel
from wtal.config import LossConfig, ModelConfig, RefinementConfig


def make_model(feature_dim=4, num_classes=3, embed_dim=None, seed=0):
    config = ModelConfig(feature_dim=feature_dim, num_classes=num_classes,
                         embed_dim=embed_dim)
    return StreamModel.initialize(config, "rgb", np.random.default_rng(seed))


class TestForward:
    def test_outputs_are_probabilities(self):
        model = make_model()
        rng = np.random.default_rng(1)
        fp = basemodel.infer(model, rng.normal(size=(7, 4)))
        assert np.all((fp.attention > 0) & (fp.attention < 1))
        np.testing.assert_allclose(fp.tcam.sum(axis=1), np.ones(7),
                                   atol=1e-9)
        assert abs(fp.video_prediction.sum() - 1.0) < 1e-9

    def test_zeroed_attention_head_pools_to_mean(self):
        model = make_model()
        model.params["att_w"][...] = np.zeros_like(model.params["att_w"])
        model.params["att_b"][...] = np.array(0.0)
        fp = basemodel.forward(model,
                               np.random.default_rng(2).normal(size=(6, 4)))
        np.testing.assert_allclose(fp.attention, np.full(6, 0.5))
        np.testing.assert_allclose(fp.foreground_feature,
                                   fp.embedded.mean(axis=0))

    def test_single_snippet_pools_to_itself(self):
        model = make_model()
        fp = basemodel.forward(model,
                               np.random.default_rng(3).normal(size=(1, 4)))
        np.testing.assert_allclose(fp.foreground_feature, fp.embedded[0])

    def test_zeroed_classifier_gives_uniform(self):
        model = make_model(num_classes=4)
        model.params["cls_w"][...] = np.zeros_like(model.params["cls_w"])
        model.params["cls_b"][...] = np.zeros_like(model.params["cls_b"])
        fp = basemodel.infer(model,
                             np.random.default_rng(4).normal(size=(5, 4)))
        np.testing.assert_allclose(fp.tcam, np.full((5, 4), 0.25))
        np.testing.assert_allclose(fp.video_prediction, np.full(4, 0.25))

    def test_tcam_row_equals_classifier_on_embedded_row(self):
        model = make_model()
        fp = basemodel.infer(model,
                             np.random.default_rng(5).normal(size=(6, 4)))
        for i in range(6):
            row = numkit.softmax(numkit.fc_forward(
                fp.embedded[i], model.params["cls_w"],
                model.params["cls_b"]))
            np.testing.assert_allclose(fp.tcam[i], row, atol=1e-12)

    def test_infer_is_forward_plus_tcam(self):
        model = make_model()
        features = np.random.default_rng(6).normal(size=(6, 4))
        plain = basemodel.forward(model, features)
        full = basemodel.infer(model, features)
        assert plain.tcam is None
        for name in ("attention", "video_prediction", "embedded",
                     "foreground_feature"):
            np.testing.assert_array_equal(getattr(full, name),
                                          getattr(plain, name))

    def test_feature_width_mismatch(self):
        with pytest.raises(ShapeError):
            basemodel.forward(make_model(feature_dim=4), np.ones((5, 3)))

    def test_initialization_is_seeded(self):
        a = make_model(seed=9).params
        b = make_model(seed=9).params
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_params_are_views_of_flat(self):
        model = make_model(embed_dim=5)
        assert model.flat.ndim == 1
        assert [(k, v.shape) for k, v in model.params.items()] == \
            basemodel.param_layout(model.config)
        assert sum(v.size for v in model.params.values()) == model.flat.size
        for value in model.params.values():
            assert np.shares_memory(value, model.flat)
        model.flat[:] = np.arange(model.flat.size)
        offset = 0
        for value in model.params.values():
            np.testing.assert_array_equal(
                value.ravel(), np.arange(offset, offset + value.size))
            offset += value.size

    def test_constructor_takes_no_params(self):
        model = make_model()
        with pytest.raises(TypeError):
            StreamModel(config=model.config, modality="rgb",
                        params=dict(model.params))

    def test_rebinding_a_param_raises(self):
        model = make_model()
        before = model.flat.copy()
        with pytest.raises(TypeError):
            model.params["att_w"] = np.zeros_like(model.params["att_w"])
        with pytest.raises(TypeError):
            del model.params["cls_b"]
        np.testing.assert_array_equal(model.flat, before)
        assert np.shares_memory(model.params["att_w"], model.flat)

    def test_streams_do_not_share_parameters(self):
        config = ModelConfig(feature_dim=4, num_classes=3)
        rng = np.random.default_rng(0)
        rgb = StreamModel.initialize(config, "rgb", rng)
        flow = StreamModel.initialize(config, "flow", rng)
        assert not np.array_equal(rgb.params["att_w"],
                                  flow.params["att_w"])


def new_buffer(model):
    """A zeroed gradient buffer for basemodel.backward on model."""
    return StreamModel(config=model.config, modality=model.modality)


def full_loss_and_grads(model, features, label, gt=None):
    """The trainer's per-video objective at the default loss weights and
    its gradient through the whole model; pseudo GT ``gt`` makes it an
    objective of iteration 1. Each call writes its gradient into a new
    buffer, as grad_check keeps the first call's gradient while it calls
    again."""
    fp = basemodel.forward(model, features)
    *_, total, d_att, d_pred = losses.video_objective(fp, label, gt,
                                                      LossConfig())
    return total, basemodel.backward(model, fp, d_attention=d_att,
                                     d_prediction=d_pred,
                                     out=new_buffer(model))


class TestBackward:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_loss_finite_difference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = make_model(feature_dim=4, num_classes=3, embed_dim=5,
                           seed=seed)
        features = rng.normal(size=(6, 4))
        label = np.array([0.5, 0.5, 0.0])
        gt = rng.integers(0, 2, size=6).astype(float) if seed % 2 else None

        # grad_check moves model.params in place, views into model.flat
        def fn(params):
            return full_loss_and_grads(model, features, label, gt=gt)

        report = grad_check(fn, model.params)
        assert report.passed, report

    def test_doubling_upstream_doubles_gradients(self):
        model = make_model()
        rng = np.random.default_rng(6)
        features = rng.normal(size=(5, 4))
        fp = basemodel.forward(model, features)
        d_att = rng.normal(size=5)
        d_pred = rng.normal(size=3)
        g1 = basemodel.backward(model, fp, d_attention=d_att,
                                d_prediction=d_pred, out=new_buffer(model))
        g2 = basemodel.backward(model, fp, d_attention=2 * d_att,
                                d_prediction=2 * d_pred,
                                out=new_buffer(model))
        for key in g1:
            np.testing.assert_allclose(g2[key], 2.0 * g1[key], atol=1e-12)

    def test_out_buffer_is_overwritten(self):
        model = make_model()
        rng = np.random.default_rng(8)
        fp = basemodel.forward(model, rng.normal(size=(5, 4)))
        upstream = {"d_attention": rng.normal(size=5),
                    "d_prediction": rng.normal(size=3)}
        fresh = basemodel.backward(model, fp, out=new_buffer(model),
                                   **upstream)
        buf = new_buffer(model)
        buf.flat[:] = np.nan
        buf.flat[::2] = 1e300
        reused = basemodel.backward(model, fp, out=buf, **upstream)
        assert list(reused) == list(fresh)
        for key in fresh:
            assert np.shares_memory(reused[key], buf.flat)
            np.testing.assert_array_equal(reused[key], fresh[key])

    def test_out_buffer_keeps_its_views(self):
        model = make_model()
        rng = np.random.default_rng(9)
        fp = basemodel.forward(model, rng.normal(size=(5, 4)))
        buf = StreamModel(config=model.config, modality="rgb")
        first, second = (basemodel.backward(
            model, fp, d_attention=rng.normal(size=5),
            d_prediction=rng.normal(size=3), out=buf) for _ in range(2))
        for key in first:
            assert second[key] is first[key] is buf.params[key]

    def test_out_buffer_of_other_config_rejected(self):
        model = make_model()
        fp = basemodel.forward(model, np.ones((5, 4)))
        other = make_model(embed_dim=5)
        with pytest.raises(ShapeError, match="does not match"):
            basemodel.backward(model, fp, d_attention=np.ones(5),
                               d_prediction=np.ones(3), out=other)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_model(seed=13)
        path = tmp_path / "model.ckpt"
        basemodel.save_checkpoint(path, model, meta={"epoch": 3})
        loaded, meta = basemodel.load_checkpoint(path)
        assert meta == {"epoch": 3}
        assert loaded.modality == "rgb"
        assert loaded.config == model.config
        for key in model.params:
            np.testing.assert_array_equal(loaded.params[key],
                                          model.params[key])

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x10\x00\x00\x00" + b'{"x": 1}' + b" " * 8)
        with pytest.raises(ValueError):
            basemodel.load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.ckpt"
        basemodel.save_checkpoint(path, model, meta={})
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 16])
        with pytest.raises(ValueError):
            basemodel.load_checkpoint(path)


# every layer kernel; none converts its inputs, so the model must hand
# each of them float64 arrays
KERNELS = ("temporal_conv_forward", "temporal_conv_backward", "fc_forward",
           "fc_backward", "sigmoid", "sigmoid_backward", "relu",
           "relu_backward", "softmax", "softmax_backward")


def test_kernels_get_float64_arrays(monkeypatch):
    """One epoch of training and one infer pass give every layer kernel
    float64 ndarrays only (need_input is the one flag)."""
    calls = dict.fromkeys(KERNELS, 0)

    def checked(name, kernel):
        def run(*args, **kwargs):
            calls[name] += 1
            for value in [*args, *kwargs.values()]:
                if isinstance(value, bool):
                    continue
                assert type(value) is np.ndarray, (name, type(value))
                assert value.dtype == np.float64, (name, value.dtype)
            return kernel(*args, **kwargs)
        return run

    for name in KERNELS:
        kernel = getattr(numkit, name)
        monkeypatch.setattr(numkit, name, checked(name, kernel))
    dataset = synthdata.generate(synthdata.GeneratorConfig(
        num_train=3, num_test=1, num_classes=3, feature_dim=6,
        t_range=(10, 14), seed=4))
    config = ModelConfig(feature_dim=6, num_classes=3)
    model = StreamModel.initialize(config, "rgb", np.random.default_rng(0))
    consensus._train_one_iteration(model, dataset.train, None, 0, 1,
                                   LossConfig(), RefinementConfig(),
                                   np.random.default_rng(1))
    basemodel.infer(model, dataset.test[0].rgb)
    assert all(calls.values()), calls
