import csv
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import consensus, synthdata
from wtal.config import LossConfig, ModelConfig, RefinementConfig
from wtal.consensus import (LogRow, compute_pseudo_gt, fuse_attention,
                            load_pseudo_gt, make_pseudo_gt, max_pool_smooth,
                            run_refinement, save_pseudo_gt)


def tiny_dataset(seed=0):
    config = synthdata.GeneratorConfig(
        num_train=4, num_test=2, num_classes=3, feature_dim=8,
        t_range=(15, 25), actions_per_video=(1, 2), seed=seed)
    return synthdata.generate(config)


def tiny_refinement(train, iterations=1, seed=0, **overrides):
    model_cfg = ModelConfig(feature_dim=train[0].rgb.shape[1],
                            num_classes=train[0].label.shape[0])
    refine_cfg = RefinementConfig(iterations=iterations, epochs_initial=3,
                                  epochs_refine=2, **overrides)
    return run_refinement(train, model_cfg, LossConfig(), refine_cfg, seed)


class TestFuseAttention:
    def test_beta_one_returns_rgb(self):
        rgb = np.array([0.1, 0.9, 0.4])
        np.testing.assert_array_equal(
            fuse_attention(rgb, np.array([0.5, 0.5, 0.5]), 1.0), rgb)

    # attention, T-CAM and prediction values: [0, 1], zero and
    # subnormals included
    UNIT = st.floats(0.0, 1.0) | st.sampled_from(
        [0.0, 5e-324, 1e-310, np.finfo(np.float64).tiny])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=20))
    def test_weight_one_or_zero_is_one_stream_bitwise(self, pairs):
        rgb, flow = np.array(pairs).T
        assert fuse_attention(rgb, flow, 1.0).tobytes() == rgb.tobytes()
        assert fuse_attention(rgb, flow, 0.0).tobytes() == flow.tobytes()

    def test_single_element_arithmetic(self):
        np.testing.assert_allclose(
            fuse_attention(np.array([1.0]), np.array([0.0]), 0.4), [0.4])

    def test_equal_inputs_fixed_point(self):
        a = np.array([0.2, 0.6])
        for beta in (0.0, 0.3, 0.7, 1.0):
            np.testing.assert_allclose(fuse_attention(a, a, beta), a)

    def test_bounded_by_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rgb = rng.uniform(size=10)
            flow = rng.uniform(size=10)
            fused = fuse_attention(rgb, flow, rng.uniform())
            lo = np.minimum(rgb, flow)
            hi = np.maximum(rgb, flow)
            assert np.all(fused >= lo - 1e-12)
            assert np.all(fused <= hi + 1e-12)

    def test_invalid_beta(self):
        # the fusion weight is checked where it enters, in the refinement
        # config that supplies it to fuse_attention
        for beta in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="field 'beta' is"):
                RefinementConfig(beta=beta)
        for beta in (0.0, 1.0):
            assert RefinementConfig(beta=beta).beta == beta


class TestMaxPoolSmooth:
    def test_kernel_one_is_identity(self):
        a = np.array([0.1, 0.8, 0.3])
        np.testing.assert_array_equal(max_pool_smooth(a, 1), a)

    def test_hand_windowing_truncated_boundaries(self):
        out = max_pool_smooth(np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 3)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_constant_unchanged(self):
        a = np.full(7, 0.4)
        np.testing.assert_array_equal(max_pool_smooth(a, 5), a)

    def test_extensive(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = rng.uniform(size=12)
            assert np.all(max_pool_smooth(a, 3) >= a)

    def test_monotone_in_input(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            a = rng.uniform(size=12)
            b = a + rng.uniform(size=12)
            assert np.all(max_pool_smooth(b, 5) >= max_pool_smooth(a, 5))

    @staticmethod
    def reference(attention, kernel):
        """One max per position over its truncated window."""
        a = np.asarray(attention, dtype=np.float64)
        half = kernel // 2
        return np.array([a[max(0, i - half):i + half + 1].max()
                         for i in range(len(a))])

    # every float, NaN and +-inf among them; assert_array_equal counts NaN
    # equal to NaN and +0.0 equal to -0.0, whose max may be either
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats() | st.floats(0.0, 1.0), min_size=1,
                           max_size=40),
           kernel=st.integers(0, 25).map(lambda k: 2 * k + 1))
    def test_matches_reference_loop(self, values, kernel):
        out = max_pool_smooth(np.array(values), kernel)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, self.reference(values, kernel))


class TestMakePseudoGt:
    def test_hard_strict_at_threshold(self):
        gt = make_pseudo_gt(np.array([0.6, 0.5, 0.4]), "hard", 0.5)
        np.testing.assert_array_equal(gt, [1.0, 0.0, 0.0])

    def test_hard_other_threshold(self):
        gt = make_pseudo_gt(np.array([0.56, 0.54]), "hard", 0.55)
        np.testing.assert_array_equal(gt, [1.0, 0.0])

    def test_soft_copies_input(self):
        fused = np.array([0.2, 0.8, 0.5])
        gt = make_pseudo_gt(fused, "soft", 0.5)
        np.testing.assert_array_equal(gt, fused)
        fused[0] = 0.9
        assert gt[0] == 0.2

    def test_hard_is_binary(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            gt = make_pseudo_gt(rng.uniform(size=20), "hard", 0.5)
            assert set(np.unique(gt)) <= {0.0, 1.0}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_pseudo_gt(np.array([1.2]), "soft", 0.5)

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1e-300])
    def test_value_outside_unit_interval_rejected(self, kind, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_pseudo_gt(np.array([0.2, bad, 0.9]), kind, 0.5)


class TestPseudoGtCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        values = np.random.default_rng(3).uniform(size=17)
        path = tmp_path / "v.csv"
        save_pseudo_gt(path, values)
        assert path.read_text().splitlines()[0] == "snippet,pseudo_gt"
        np.testing.assert_array_equal(load_pseudo_gt(path, 17), values)

    @pytest.mark.parametrize("values", [
        np.array([]), np.array([0.5]),
        np.array([0.0, 1.0, 1e-17, 0.1 + 0.2, float("nan"), 5e-324]),
        np.random.default_rng(4).uniform(size=300)])
    def test_bytes_match_csv_writer(self, tmp_path, values):
        save_pseudo_gt(tmp_path / "new.csv", values)
        with open(tmp_path / "ref.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snippet", "pseudo_gt"])
            for i, value in enumerate(values, start=1):
                writer.writerow([i, repr(float(value))])
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    # literal bytes: the test above builds its reference with csv.writer,
    # the writer under test, so it cannot see the bytes change
    @pytest.mark.parametrize("values, expected", [
        ([], b"snippet,pseudo_gt\r\n"),
        ([0.0, 1.0, 5e-324, float("nan")],
         b"snippet,pseudo_gt\r\n1,0.0\r\n2,1.0\r\n3,5e-324\r\n4,nan\r\n")],
        ids=["empty", "values"])
    def test_literal_bytes(self, tmp_path, values, expected):
        save_pseudo_gt(tmp_path / "v.csv", np.array(values))
        assert (tmp_path / "v.csv").read_bytes() == expected

    def test_row_count_must_match(self, tmp_path):
        path = tmp_path / "v.csv"
        save_pseudo_gt(path, np.array([0.0, 1.0]))
        with pytest.raises(synthdata.DataError, match="expected 3"):
            load_pseudo_gt(path, 3)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("")
        with pytest.raises(synthdata.DataError, match="missing column"):
            load_pseudo_gt(path, 1)


class TestTrainingLog:
    @pytest.mark.parametrize("rows", [
        [], [LogRow(0, 0, "rgb", 0.1 + 0.2, -0.5, None, 1e-17),
             LogRow(1, 12, "flow", 5e-324, -0.0, 0.25, float("nan"))]],
        ids=["no-rows", "rows"])
    def test_bytes_match_csv_writer(self, tmp_path, rows):
        consensus.save_training_log(tmp_path / "new.csv", rows)
        with open(tmp_path / "ref.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(LogRow)])
            writer.writerows(astuple(row) for row in rows)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    # literal bytes: the test above builds its reference with csv.writer,
    # the writer under test, so it cannot see the bytes change
    HEADER = (b"iteration,epoch,stream,mean_cls_loss,mean_att_loss,"
              b"mean_gt_loss,mean_total_loss\r\n")

    @pytest.mark.parametrize("rows, body", [
        ([], b""),
        ([LogRow(0, 0, "rgb", 0.1 + 0.2, -0.5, None, 1e-17),
          LogRow(1, 12, "flow", 5e-324, -0.0, 0.25, float("nan"))],
         b"0,0,rgb,0.30000000000000004,-0.5,,1e-17\r\n"
         b"1,12,flow,5e-324,-0.0,0.25,nan\r\n")],
        ids=["no-rows", "rows"])
    def test_literal_bytes(self, tmp_path, rows, body):
        consensus.save_training_log(tmp_path / "log.csv", rows)
        assert (tmp_path / "log.csv").read_bytes() == self.HEADER + body


class TestRefinementConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(beta=1.5)
        with pytest.raises(ValueError):
            RefinementConfig(theta=0.0)
        with pytest.raises(ValueError):
            RefinementConfig(kind="medium")
        with pytest.raises(ValueError):
            RefinementConfig(smoothing_kernel=4)


class TestRunRefinement:
    def test_zero_iterations_no_pseudo_gt(self):
        dataset = tiny_dataset()
        result = tiny_refinement(dataset.train, iterations=0)
        assert len(result.checkpoints) == 1
        assert result.pseudo_gt == [None]
        assert all(row.mean_gt_loss is None for row in result.log_rows)

    def test_checkpoints_per_iteration_and_streams(self):
        dataset = tiny_dataset()
        result = tiny_refinement(dataset.train, iterations=2)
        assert len(result.checkpoints) == 3
        for snapshot in result.checkpoints:
            assert set(snapshot) == {"rgb", "flow"}
        assert len(result.pseudo_gt) == 3
        assert result.pseudo_gt[0] is None
        for pseudo in result.pseudo_gt[1:]:
            assert set(pseudo) == {v.id for v in dataset.train}

    def test_log_rows_cover_schedule(self):
        dataset = tiny_dataset()
        result = tiny_refinement(dataset.train, iterations=1)
        # 2 streams x (3 initial + 2 refine) epochs
        assert len(result.log_rows) == 2 * (3 + 2)
        assert {r.stream for r in result.log_rows} == {"rgb", "flow"}
        for row in result.log_rows:
            assert np.isfinite(row.mean_total_loss)
            if row.iteration == 0:
                assert row.mean_gt_loss is None
            else:
                assert row.mean_gt_loss is not None

    def test_fixed_seed_bit_identical(self):
        dataset = tiny_dataset()
        a = tiny_refinement(dataset.train, iterations=1, seed=3)
        b = tiny_refinement(dataset.train, iterations=1, seed=3)
        assert [(r.iteration, r.epoch, r.stream, r.mean_total_loss)
                for r in a.log_rows] == \
            [(r.iteration, r.epoch, r.stream, r.mean_total_loss)
             for r in b.log_rows]
        for sa, sb in zip(a.checkpoints, b.checkpoints):
            for stream in ("rgb", "flow"):
                for key in sa[stream].params:
                    np.testing.assert_array_equal(sa[stream].params[key],
                                                  sb[stream].params[key])

    def test_pseudo_gt_pure_function_of_checkpoints(self):
        dataset = tiny_dataset()
        refine_cfg = RefinementConfig(iterations=1, epochs_initial=3,
                                      epochs_refine=2)
        result = tiny_refinement(dataset.train, iterations=1)
        recomputed = compute_pseudo_gt(result.checkpoints[0], dataset.train,
                                       refine_cfg)
        for vid, gt in result.pseudo_gt[1].items():
            np.testing.assert_array_equal(gt, recomputed[vid])

    def test_pseudo_gt_kind_contracts(self):
        dataset = tiny_dataset()
        hard = tiny_refinement(dataset.train, iterations=1, kind="hard")
        soft = tiny_refinement(dataset.train, iterations=1, kind="soft")
        for gt in hard.pseudo_gt[1].values():
            assert set(np.unique(gt)) <= {0.0, 1.0}
        for gt in soft.pseudo_gt[1].values():
            assert np.all((gt >= 0.0) & (gt <= 1.0))

    def test_smoothing_applies_to_pseudo_gt(self):
        dataset = tiny_dataset()
        plain = tiny_refinement(dataset.train, iterations=1, kind="soft")
        smooth = tiny_refinement(dataset.train, iterations=1, kind="soft",
                                 smoothing_kernel=5)
        # identical seeds: iteration-0 training matches, so the smoothed
        # pseudo GT must dominate the raw one elementwise
        for vid in plain.pseudo_gt[1]:
            raw = plain.pseudo_gt[1][vid]
            pooled = smooth.pseudo_gt[1][vid]
            assert np.all(pooled >= raw - 1e-12)

    def test_empty_training_set_rejected(self):
        model_cfg = ModelConfig(feature_dim=8, num_classes=3)
        with pytest.raises(ValueError):
            run_refinement([], model_cfg, LossConfig(),
                           RefinementConfig(iterations=0), seed=0)

    def test_numeric_error_carries_context(self):
        err = consensus.NumericError("rgb", 2, 5, "train_0003")
        assert err.stream == "rgb"
        assert err.iteration == 2
        assert err.epoch == 5
        assert err.video_id == "train_0003"
        assert "train_0003" in str(err)
