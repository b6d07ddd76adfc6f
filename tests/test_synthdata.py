import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import formats, synthdata
from wtal.formats import DataError
from wtal.synthdata import GeneratorConfig


def small_config(**overrides):
    fields = dict(num_train=6, num_test=3, num_classes=3, feature_dim=8,
                  t_range=(20, 30), seed=0)
    fields.update(overrides)
    return GeneratorConfig(**fields)


class TestGenerate:
    def test_single_clean_action_per_video(self):
        config = small_config(actions_per_video=(1, 1),
                              rgb_false_positive_rate=0.0,
                              flow_miss_rate=0.0)
        dataset = synthdata.generate(config)
        for video in dataset.all_videos():
            assert len(video.gt_segments) == 1
            assert not video.confounders
            assert not video.suppressed

    def test_same_seed_bit_identical(self):
        a = synthdata.generate(small_config())
        b = synthdata.generate(small_config())
        for va, vb in zip(a.all_videos(), b.all_videos()):
            assert va.id == vb.id
            np.testing.assert_array_equal(va.rgb, vb.rgb)
            np.testing.assert_array_equal(va.flow, vb.flow)
            assert va.gt_segments == vb.gt_segments

    def test_different_seed_differs(self):
        a = synthdata.generate(small_config(seed=0))
        b = synthdata.generate(small_config(seed=1))
        assert not np.array_equal(a.train[0].rgb, b.train[0].rgb)

    def test_segments_within_bounds_and_disjoint(self):
        dataset = synthdata.generate(small_config(num_train=40,
                                                  actions_per_video=(1, 3)))
        for video in dataset.all_videos():
            segs = sorted(video.gt_segments)
            for s, e, c in segs:
                assert 1 <= s <= e <= video.num_snippets
                assert 1 <= c <= dataset.num_classes
            for (_, e1, _), (s2, _, _) in zip(segs, segs[1:]):
                assert e1 < s2

    def test_label_matches_planted_segments(self):
        dataset = synthdata.generate(small_config(num_train=40))
        for video in dataset.all_videos():
            cats = {c for _, _, c in video.gt_segments}
            assert abs(video.label.sum() - 1.0) < 1e-9
            assert np.all(video.label >= 0)
            for c in range(1, dataset.num_classes + 1):
                assert (video.label[c - 1] > 0) == (c in cats)

    def test_confounders_have_rgb_energy_but_background_flow(self):
        config = small_config(num_train=100, num_test=0,
                              t_range=(40, 60), actions_per_video=(1, 1),
                              rgb_false_positive_rate=1.0,
                              flow_miss_rate=0.0)
        dataset = synthdata.generate(config)
        videos = [v for v in dataset.train if v.confounders]
        assert len(videos) > 50
        rgb_conf, rgb_bg, flow_conf, flow_bg = [], [], [], []
        for v in videos:
            inside = np.zeros(v.num_snippets, dtype=bool)
            for s, e, _ in v.gt_segments + v.confounders:
                inside[s - 1:e] = True
            conf = np.zeros(v.num_snippets, dtype=bool)
            for s, e, _ in v.confounders:
                conf[s - 1:e] = True
            bg = ~inside
            rgb_energy = (v.rgb.astype(np.float64) ** 2).sum(axis=1)
            flow_energy = (v.flow.astype(np.float64) ** 2).sum(axis=1)
            rgb_conf.append(rgb_energy[conf].mean())
            rgb_bg.append(rgb_energy[bg].mean())
            flow_conf.append(flow_energy[conf].mean())
            flow_bg.append(flow_energy[bg].mean())
        # the confounder carries the appearance signal only
        assert np.mean(rgb_conf) > 2.0 * np.mean(rgb_bg)
        assert abs(np.mean(flow_conf) - np.mean(flow_bg)) \
            < 0.5 * np.mean(flow_bg)

    def test_action_energy_exceeds_background(self):
        config = small_config(num_train=100, num_test=0, flow_miss_rate=0.0)
        dataset = synthdata.generate(config)
        gains = {"rgb": [], "flow": []}
        for v in dataset.train:
            inside = np.zeros(v.num_snippets, dtype=bool)
            for s, e, _ in v.gt_segments:
                inside[s - 1:e] = True
            for s, e, _ in v.confounders:
                inside[s - 1:e] = True
            action = np.zeros(v.num_snippets, dtype=bool)
            for s, e, _ in v.gt_segments:
                action[s - 1:e] = True
            bg = ~inside
            for name, feats in (("rgb", v.rgb), ("flow", v.flow)):
                energy = (feats.astype(np.float64) ** 2).sum(axis=1)
                gains[name].append(energy[action].mean()
                                   - energy[bg].mean())
        assert np.mean(gains["rgb"]) > 0
        assert np.mean(gains["flow"]) > 0

    def test_suppressed_actions_lack_flow_signal(self):
        config = small_config(num_train=100, num_test=0, flow_miss_rate=1.0)
        dataset = synthdata.generate(config)
        for v in dataset.train:
            assert sorted(v.suppressed) == sorted(v.gt_segments)

    def test_invalid_configs(self):
        with pytest.raises(DataError, match="^field 'num_classes' is 1, "):
            small_config(num_classes=1)
        with pytest.raises(DataError, match="^field 'feature_dim' is 1, "):
            small_config(feature_dim=1)
        with pytest.raises(DataError,
                           match=r"^field 't_range' is \[30, 20\], "):
            small_config(t_range=(30, 20))
        with pytest.raises(DataError, match="^field 'flow_miss_rate' "):
            small_config(flow_miss_rate=1.5)
        with pytest.raises(DataError, match="^field 'num_test' is -1, "):
            small_config(num_test=-1)
        with pytest.raises(DataError,
                           match="^field 'max_categories_per_video' is 0, "):
            small_config(max_categories_per_video=0)

    def test_more_categories_than_classes(self):
        """A video draws at most num_classes distinct categories, however
        many max_categories_per_video and actions_per_video allow."""
        dataset = synthdata.generate(GeneratorConfig(
            num_classes=2, max_categories_per_video=3,
            actions_per_video=(3, 3)))
        for v in dataset.all_videos():
            assert {cat for _, _, cat in v.gt_segments} <= {1, 2}
            assert v.label.shape == (2,)


class TestPlaceSegments:
    # generate relies on this for every video to carry an action
    @settings(max_examples=300, deadline=None)
    @given(t=st.integers(1, 400),
           lengths=st.lists(st.integers(1, 500), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_nothing_occupied_places_at_least_one(self, t, lengths, seed):
        rng = np.random.default_rng(seed)
        spans = synthdata._place_segments(rng, t, lengths, [])
        assert spans
        start, end = spans[0]
        assert 1 <= start <= end <= t


class TestSaveLoad:
    def test_round_trip_lossless(self, tmp_path):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        loaded = synthdata.load(tmp_path)
        assert loaded.class_names == dataset.class_names
        assert loaded.feature_dim == dataset.feature_dim
        for orig, back in zip(dataset.all_videos(), loaded.all_videos()):
            assert orig.id == back.id
            np.testing.assert_array_equal(orig.rgb, back.rgb)
            np.testing.assert_array_equal(orig.flow, back.flow)
            np.testing.assert_array_equal(orig.label, back.label)
            assert list(map(tuple, orig.gt_segments)) == back.gt_segments

    def test_shape_mismatch_detected(self, tmp_path):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entry = manifest["videos"][0]
        feature_file = tmp_path / entry["rgb_file"]
        data = feature_file.read_bytes()
        feature_file.write_bytes(data[:-4 * manifest["D"]])
        with pytest.raises(DataError):
            synthdata.load(tmp_path)

    @pytest.mark.parametrize("values,finite", [
        ([np.finfo(np.float32).max] * 2, True),
        ([-np.finfo(np.float32).max] * 2, True),
        ([np.inf, -np.inf], False),
        ([np.nan, 1.0], False),
    ], ids=["float32-max", "float32-min", "inf-and-minus-inf", "nan"])
    def test_feature_values_must_be_finite(self, tmp_path, values, finite):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        feature_file = tmp_path / manifest["videos"][0]["flow_file"]
        data = np.frombuffer(feature_file.read_bytes(), dtype="<f4").copy()
        data[:len(values)] = values
        data[-len(values):] = values
        feature_file.write_bytes(data.tobytes())
        if finite:
            loaded = synthdata.load(tmp_path)
            np.testing.assert_array_equal(loaded.train[0].flow.ravel(),
                                          data)
        else:
            with pytest.raises(DataError, match="not finite"):
                synthdata.load(tmp_path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e20, np.inf, np.nan])
    def test_finite_check_prints_no_warning(self, tmp_path, value):
        """value and -value side by side: squares that overflow float32,
        inf - inf and NaN are judged without a numpy warning."""
        synthdata.save(synthdata.generate(small_config()), tmp_path)
        path = tmp_path / feature_files(tmp_path)[0]
        data = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        data[:2] = value, -value
        path.write_bytes(data.tobytes())
        if np.isfinite(value):
            synthdata.load(tmp_path)
        else:
            with pytest.raises(DataError, match="not finite"):
                synthdata.load(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            synthdata.load(tmp_path)

    def test_missing_feature_file(self, tmp_path):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / manifest["videos"][0]["flow_file"]).unlink()
        with pytest.raises(DataError):
            synthdata.load(tmp_path)

    def test_absent_gt_segments_load_as_none(self, tmp_path):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for entry in manifest["videos"]:
            if entry["split"] == "test":
                del entry["gt_segments"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        loaded = synthdata.load(tmp_path)
        assert all(v.gt_segments is None for v in loaded.test)

    def test_invalid_gt_segment_rejected(self, tmp_path):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entry = manifest["videos"][0]
        entry["gt_segments"] = [[0, 5, 1]]  # 1-based indices start at 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError):
            synthdata.load(tmp_path)

    def test_save_is_deterministic(self, tmp_path):
        dataset = synthdata.generate(small_config())
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        synthdata.save(dataset, dir_a)
        synthdata.save(dataset, dir_b)
        for path in sorted(dir_a.iterdir()):
            assert path.read_bytes() == (dir_b / path.name).read_bytes()


def feature_files(directory, split=None):
    """Names of the feature files of the manifest's videos of split, or
    of every video when split is None."""
    manifest = json.loads((directory / "manifest.json").read_text())
    return [entry[key] for entry in manifest["videos"]
            if split in (None, entry["split"])
            for key in ("rgb_file", "flow_file")]


class TestReadManifest:
    def test_opens_no_feature_file(self, tmp_path):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        for name in feature_files(tmp_path):
            (tmp_path / name).unlink()
        manifest = synthdata.read_manifest(tmp_path)
        assert manifest.class_names == dataset.class_names
        assert manifest.feature_dim == dataset.feature_dim
        for split in ("train", "test"):
            got, want = getattr(manifest, split), getattr(dataset, split)
            assert [e.id for e in got] == [v.id for v in want]
            assert [e.num_snippets for e in got] == \
                [v.num_snippets for v in want]
            assert [e.gt_segments for e in got] == \
                [list(map(tuple, v.gt_segments)) for v in want]
            for entry, video in zip(got, want):
                np.testing.assert_array_equal(entry.label, video.label)


class TestLoadSplit:
    @pytest.mark.parametrize("split,other", [("train", "test"),
                                             ("test", "train")])
    def test_reads_only_its_split(self, tmp_path, split, other):
        dataset = synthdata.generate(small_config())
        synthdata.save(dataset, tmp_path)
        for name in feature_files(tmp_path, other):
            (tmp_path / name).unlink()
        loaded = synthdata.load(tmp_path, split=split)
        assert getattr(loaded, other) == []
        want = getattr(dataset, split)
        assert [v.id for v in getattr(loaded, split)] == [v.id for v in want]
        for orig, back in zip(want, getattr(loaded, split)):
            np.testing.assert_array_equal(orig.rgb, back.rgb)
            np.testing.assert_array_equal(orig.flow, back.flow)
        with pytest.raises(DataError, match="missing feature file"):
            synthdata.load(tmp_path)

    def test_checks_the_features_it_reads(self, tmp_path):
        synthdata.save(synthdata.generate(small_config()), tmp_path)
        path = tmp_path / feature_files(tmp_path, "test")[0]
        values = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        values[0] = np.nan
        path.write_bytes(values.tobytes())
        synthdata.load(tmp_path, split="train")
        with pytest.raises(DataError, match="not finite"):
            synthdata.load(tmp_path, split="test")


def traced_peak(function, *args, **kwargs):
    """(function's result, the peak bytes tracemalloc saw it add), also
    under a tracemalloc that was already tracing."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = function(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestFeatureWidth:
    """Features stay at their on-disk float32 width in memory;
    basemodel.forward makes the one float64 copy, a video at a time."""

    def test_generate_and_load_hold_float32_only(self, tmp_path):
        config = small_config(num_train=20, num_test=20, feature_dim=32,
                              t_range=(160, 320))
        # a first run makes what numpy sets up lazily (np.linalg, say)
        synthdata.save(synthdata.generate(small_config()), tmp_path)
        synthdata.load(tmp_path, split="test")
        dataset, generate_peak = traced_peak(synthdata.generate, config)
        synthdata.save(dataset, tmp_path)
        loaded, load_peak = traced_peak(synthdata.load, tmp_path,
                                        split="test")

        for videos in (dataset.all_videos(), loaded.test):
            for v in videos:
                for features in (v.rgb, v.flow):
                    assert features.dtype == np.float32
                    assert features.nbytes == 4 * v.num_snippets * 32

        def stored(videos):
            """Bytes of the videos' features at 4 bytes a value."""
            return sum(2 * 4 * v.num_snippets * 32 for v in videos)
        assert generate_peak < 1.25 * stored(dataset.all_videos())
        assert load_peak < 1.25 * stored(loaded.test)


class TestRepeatedKeys:
    @pytest.mark.parametrize("text,key", [
        ('{"a": 1, "a": 2}', "a"),
        ('{"a": {"b": [], "c": 1, "b": [1]}}', "b"),
        ('[{"x": 1}, {"y": 1, "y": 1}]', "y"),
    ], ids=["top-level", "nested", "in-list"])
    def test_repeated_key_is_data_error(self, tmp_path, text, key):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            formats.read_json(path)
        assert str(info.value) == f"{path}: repeated key {key!r}"

    def test_distinct_keys_read_in_order(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"b": 1, "a": {"a": 2, "b": 3}}')
        doc = formats.read_json(path)
        assert doc == {"b": 1, "a": {"a": 2, "b": 3}}
        assert list(doc) == ["b", "a"]
