"""Synthetic two-modality dataset with planted action instances.

Each video is a pair of (T, D) feature sequences (an appearance stream and
a motion stream). Background snippets are Gaussian noise; snippets inside
a planted segment additionally carry a class-specific signal direction in
each modality. Two kinds of per-modality corruption are planted on
purpose:

* scene confounders: background stretches that receive the appearance
  signal only (the motion stream sees plain background there);
* motion misses: action instances whose motion signal is suppressed
  (slow actions the motion stream cannot see).

Ground-truth segments use 1-based inclusive snippet indices; categories
are 1-based.

generate makes a dataset's videos only when they are asked for, and
save writes each video's feature files as it is made, so that
save(generate(config), directory) holds one video's features at a time.
read_video reads the features of one manifest entry, and load those of
a split.
"""

import copy
import functools
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .config import _check
from .formats import (DataError, Dataset, feature_files, read_manifest,
                      write_manifest)

# A planted action adds SIGNAL_AMPLITUDE times its class's unit direction
# to a modality. Background is Gaussian noise of standard deviation
# RGB_NOISE or FLOW_NOISE, box-filtered over NOISE_SMOOTHING (odd) snippets.
SIGNAL_AMPLITUDE = 3.0
RGB_NOISE = 0.8
FLOW_NOISE = 0.4
NOISE_SMOOTHING = 3
# Planted segments keep SEGMENT_GAP snippets apart; placing one gives up
# after PLACEMENT_ATTEMPTS draws.
SEGMENT_GAP = 2
PLACEMENT_ATTEMPTS = 50


@dataclass
class GeneratorConfig:
    num_train: int = 60
    num_test: int = 30
    num_classes: int = 5
    feature_dim: int = 32
    t_range: tuple = (40, 80)
    actions_per_video: tuple = (1, 3)
    action_length: tuple = (8, 16)
    max_categories_per_video: int = 2
    rgb_false_positive_rate: float = 0.5
    flow_miss_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        _check(self, ("num_train",), "an integer >= 1", lambda v: v >= 1)
        _check(self, ("num_test",), "an integer >= 0", lambda v: v >= 0)
        _check(self, ("num_classes", "feature_dim"), "an integer >= 2",
               lambda v: v >= 2)
        _check(self, ("max_categories_per_video",), "an integer >= 1",
               lambda v: v >= 1)
        _check(self, ("t_range", "actions_per_video", "action_length"),
               "[low, high] with 1 <= low <= high",
               lambda v: len(v) == 2 and 1 <= v[0] <= v[1])
        _check(self, ("rgb_false_positive_rate", "flow_miss_rate"),
               "a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)


@dataclass
class VideoSample:
    id: str
    label: np.ndarray                 # (C,), nonnegative, sums to 1
    rgb: np.ndarray                   # (T, D) float32, as stored on disk
    flow: np.ndarray                  # (T, D) float32, as stored on disk
    gt_segments: list | None          # [(start, end, category)] or None
    # generator bookkeeping, never serialized
    confounders: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)

    @property
    def num_snippets(self):
        return self.rgb.shape[0]

    def features(self, stream):
        """The (T, D) feature sequence of one stream, "rgb" or "flow"."""
        return self.rgb if stream == "rgb" else self.flow


def _place_segments(rng, t, lengths, occupied):
    """Place non-overlapping segments (1-based inclusive), keeping
    SEGMENT_GAP from already occupied ones. Returns the placed (start,
    end) list."""
    placed = []
    for length in lengths:
        length = min(length, t)
        for _ in range(PLACEMENT_ATTEMPTS):
            start = int(rng.integers(1, t - length + 2))
            end = start + length - 1
            ok = all(end + SEGMENT_GAP < s or start - SEGMENT_GAP > e
                     for s, e, *_ in occupied + placed)
            if ok:
                placed.append((start, end))
                break
    return placed


def _smooth_noise(rng, shape, sigma):
    """Gaussian noise with a temporal box filter of NOISE_SMOOTHING
    snippets; variance is rescaled so the per-snippet marginal stays at
    sigma^2. Snippets in real feature sequences are temporally correlated,
    which keeps the attention of a trained model from flickering inside a
    segment."""
    noise = rng.normal(0.0, sigma, size=shape)
    window = NOISE_SMOOTHING
    t = shape[0]
    half = window // 2
    padded = np.concatenate([noise[:half][::-1], noise,
                             noise[-half:][::-1]], axis=0)
    kernel = np.ones(window) / np.sqrt(window)
    acc = padded[0:t] * kernel[0]
    for j in range(1, window):
        acc += padded[j:j + t] * kernel[j]
    return acc


def _signal_directions(rng, num_classes, dim):
    dirs = rng.normal(size=(num_classes, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


class GeneratedDataset(Dataset):
    """A dataset whose videos are made when they are asked for:
    split_videos() makes them one at a time, and train, test and
    all_videos() make them all, once, and hold them. Here train and test
    are read-only properties, not the fields of a Dataset."""

    def __init__(self, class_names, feature_dim, split_videos):
        self.class_names = class_names
        self.feature_dim = feature_dim
        self.split_videos = split_videos

    @functools.cached_property
    def _held(self):
        held = {"train": [], "test": []}
        for split, video in self.split_videos():
            held[split].append(video)
        return held

    @property
    def train(self):
        return self._held["train"]

    @property
    def test(self):
        return self._held["test"]


def generate(config):
    """The dataset of config, deterministic in its seed: one rng draws the
    rgb and the flow signal directions here, then every train video and
    every test video as GeneratedDataset asks for them."""
    rng = np.random.default_rng(config.seed)
    c, d = config.num_classes, config.feature_dim
    rgb_dirs = _signal_directions(rng, c, d)
    flow_dirs = _signal_directions(rng, c, d)
    class_names = [f"action_{i + 1}" for i in range(c)]

    def make_video(rng, vid):
        t = int(rng.integers(config.t_range[0], config.t_range[1] + 1))
        n_actions = int(rng.integers(config.actions_per_video[0],
                                     config.actions_per_video[1] + 1))
        n_cats = int(rng.integers(1, config.max_categories_per_video + 1))
        cats = rng.choice(c, size=min(n_cats, n_actions, c), replace=False)
        action_cats = [int(cats[i % len(cats)]) for i in range(n_actions)]
        lengths = [int(rng.integers(config.action_length[0],
                                    config.action_length[1] + 1))
                   for _ in range(n_actions)]
        # with nothing occupied the first of n_actions >= 1 lengths is
        # placed on its first draw, so a video carries at least one action
        spans = _place_segments(rng, t, lengths, [])
        segments = [(s, e, cat + 1)
                    for (s, e), cat in zip(spans, action_cats)]

        rgb = _smooth_noise(rng, (t, d), RGB_NOISE)
        flow = _smooth_noise(rng, (t, d), FLOW_NOISE)
        suppressed = []
        for start, end, cat in segments:
            rgb[start - 1:end] += SIGNAL_AMPLITUDE * rgb_dirs[cat - 1]
            if rng.random() < config.flow_miss_rate:
                suppressed.append((start, end, cat))
            else:
                flow[start - 1:end] += SIGNAL_AMPLITUDE * flow_dirs[cat - 1]

        confounders = []
        if rng.random() < config.rgb_false_positive_rate:
            length = int(rng.integers(config.action_length[0],
                                      config.action_length[1] + 1))
            spans = _place_segments(rng, t, [length],
                                    [(s, e) for s, e, _ in segments])
            if spans:
                cat = int(rng.integers(0, c)) + 1
                s0, e0 = spans[0]
                rgb[s0 - 1:e0] += SIGNAL_AMPLITUDE * rgb_dirs[cat - 1]
                confounders.append((s0, e0, cat))

        label = np.zeros(c)
        for _, _, cat in segments:
            label[cat - 1] = 1.0
        label /= label.sum()
        # kept at the on-disk width, so save/load is bit-exact
        return VideoSample(id=vid, label=label, rgb=rgb.astype(np.float32),
                           flow=flow.astype(np.float32),
                           gt_segments=sorted(segments),
                           confounders=confounders, suppressed=suppressed)

    def split_videos():
        # from a copy of the rng as it stands after the directions, so
        # that every call makes the same videos
        videos_rng = copy.deepcopy(rng)
        for split, count in (("train", config.num_train),
                             ("test", config.num_test)):
            for i in range(count):
                yield split, make_video(videos_rng, f"{split}_{i:04d}")

    return GeneratedDataset(class_names, d, split_videos)


# ---------------------------------------------------------------------------
# on-disk format: manifest.json (formats.write_manifest, read_manifest)
# + raw little-endian float32 feature files

def save(dataset, directory):
    """Write dataset into directory: each video's two feature files as
    dataset.split_videos() gives the video, then manifest.json. Of a
    video only its manifest fields (id, T, label, GT) are kept, so a
    dataset from generate is never held whole. Returns what was written,
    as a Dataset of videos that have only those fields."""
    os.makedirs(directory, exist_ok=True)
    saved = Dataset(class_names=dataset.class_names,
                    feature_dim=dataset.feature_dim, train=[], test=[])
    for split, v in dataset.split_videos():
        for name, arr in zip(feature_files(v.id), (v.rgb, v.flow)):
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        getattr(saved, split).append(SimpleNamespace(
            id=v.id, num_snippets=v.num_snippets, label=v.label,
            gt_segments=v.gt_segments))
    write_manifest(directory, saved)
    return saved


def _read_features(where, path, t, d):
    """The (T, D) float32 features at path, a read-only view of the bytes
    read; a fault names where (the manifest entry, whose T and D may be at
    fault as much as the file) too."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:
        raise DataError(f"{where}: missing feature file {path}") from exc
    if len(raw) != 4 * t * d:
        raise DataError(f"{where}: {path}: expected {t}x{d} float32 values, "
                        f"found {len(raw)} bytes")
    values = np.frombuffer(raw, dtype="<f4")
    # np.isfinite makes one temporary, a bool per value (a quarter of the
    # file's bytes). A float32 sum of squares overflows once |v| > ~1.8e19,
    # which would reject finite data, and a plain sum meets inf - inf,
    # which prints a numpy warning.
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DataError(f"{where}: {path}: value {values[bad]} at snippet "
                        f"{bad // d + 1}, dimension {bad % d + 1} is not "
                        "finite")
    return values.reshape(t, d)


def read_video(entry):
    """The video of a formats.ManifestEntry, its features read and checked
    (_read_features)."""
    rgb, flow = (_read_features(entry.where, path, entry.num_snippets,
                                entry.feature_dim)
                 for path in (entry.rgb_path, entry.flow_path))
    return VideoSample(id=entry.id, label=np.array(entry.label),
                       rgb=rgb, flow=flow, gt_segments=entry.gt_segments)


def load(directory, split=None):
    """The dataset in directory with the features of the videos of split
    ("train" or "test"), or of both splits when split is None; the other
    split is left empty and none of its feature files is opened."""
    manifest = read_manifest(directory)

    def videos(name):
        if split not in (None, name):
            return []
        return [read_video(entry) for entry in getattr(manifest, name)]

    return Dataset(class_names=manifest.class_names,
                   feature_dim=manifest.feature_dim,
                   train=videos("train"), test=videos("test"))
