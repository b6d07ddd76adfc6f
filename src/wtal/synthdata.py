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
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised for invalid configurations or malformed dataset files."""


def finite_number(value):
    """Whether a parsed JSON value is a number with a finite float value;
    a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int too large for a float
        return False


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
    signal_amplitude: float = 3.0
    rgb_noise: float = 0.8
    flow_noise: float = 0.4
    noise_smoothing: int = 3   # odd box width; temporal noise correlation
    rgb_false_positive_rate: float = 0.5
    flow_miss_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2 or self.feature_dim < 2:
            raise DataError("need num_classes >= 2 and feature_dim >= 2")
        for lo, hi in (self.t_range, self.actions_per_video,
                       self.action_length):
            if lo > hi or lo < 1:
                raise DataError("ranges must be nonempty and positive")
        for rate in (self.rgb_false_positive_rate, self.flow_miss_rate):
            if not 0.0 <= rate <= 1.0:
                raise DataError("rates must lie in [0, 1]")
        if self.num_train < 1 or self.num_test < 0:
            raise DataError("need at least one training video")
        if self.noise_smoothing < 1 or self.noise_smoothing % 2 == 0:
            raise DataError("noise_smoothing must be odd and positive")


@dataclass
class VideoSample:
    id: str
    label: np.ndarray                 # (C,), nonnegative, sums to 1
    rgb: np.ndarray                   # (T, D) float64
    flow: np.ndarray                  # (T, D) float64
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


@dataclass
class Dataset:
    class_names: list
    feature_dim: int
    train: list
    test: list

    @property
    def num_classes(self):
        return len(self.class_names)

    def all_videos(self):
        return list(self.train) + list(self.test)


def _place_segments(rng, t, lengths, occupied, gap=2, attempts=50):
    """Place non-overlapping segments (1-based inclusive), keeping a gap
    from already occupied ones. Returns the placed (start, end) list."""
    placed = []
    for length in lengths:
        length = min(length, t)
        for _ in range(attempts):
            start = int(rng.integers(1, t - length + 2))
            end = start + length - 1
            ok = all(end + gap < s or start - gap > e
                     for s, e, *_ in occupied + placed)
            if ok:
                placed.append((start, end))
                break
    return placed


def _smooth_noise(rng, shape, sigma, window):
    """Gaussian noise with a temporal box filter; variance is rescaled so
    the per-snippet marginal stays at sigma^2. Snippets in real feature
    sequences are temporally correlated, which keeps the attention of a
    trained model from flickering inside a segment."""
    noise = rng.normal(0.0, sigma, size=shape)
    if window <= 1:
        return noise
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


def generate(config):
    """Build a dataset deterministically from the config (seed included)."""
    rng = np.random.default_rng(config.seed)
    c, d = config.num_classes, config.feature_dim
    rgb_dirs = _signal_directions(rng, c, d)
    flow_dirs = _signal_directions(rng, c, d)
    class_names = [f"action_{i + 1}" for i in range(c)]

    def make_video(vid):
        t = int(rng.integers(config.t_range[0], config.t_range[1] + 1))
        n_actions = int(rng.integers(config.actions_per_video[0],
                                     config.actions_per_video[1] + 1))
        n_cats = int(rng.integers(1, config.max_categories_per_video + 1))
        cats = rng.choice(c, size=min(n_cats, n_actions), replace=False)
        action_cats = [int(cats[i % len(cats)]) for i in range(n_actions)]
        lengths = [int(rng.integers(config.action_length[0],
                                    config.action_length[1] + 1))
                   for _ in range(n_actions)]
        spans = _place_segments(rng, t, lengths, [])
        segments = [(s, e, cat + 1)
                    for (s, e), cat in zip(spans, action_cats)]
        # a video always carries at least one action
        if not segments:
            length = min(lengths[0], t)
            segments = [(1, length, action_cats[0] + 1)]

        rgb = _smooth_noise(rng, (t, d), config.rgb_noise,
                            config.noise_smoothing)
        flow = _smooth_noise(rng, (t, d), config.flow_noise,
                             config.noise_smoothing)
        suppressed = []
        for start, end, cat in segments:
            rgb[start - 1:end] += config.signal_amplitude * rgb_dirs[cat - 1]
            if rng.random() < config.flow_miss_rate:
                suppressed.append((start, end, cat))
            else:
                flow[start - 1:end] += (config.signal_amplitude
                                        * flow_dirs[cat - 1])

        confounders = []
        if rng.random() < config.rgb_false_positive_rate:
            length = int(rng.integers(config.action_length[0],
                                      config.action_length[1] + 1))
            spans = _place_segments(rng, t, [length],
                                    [(s, e) for s, e, _ in segments])
            if spans:
                cat = int(rng.integers(0, c)) + 1
                s0, e0 = spans[0]
                rgb[s0 - 1:e0] += config.signal_amplitude * rgb_dirs[cat - 1]
                confounders.append((s0, e0, cat))

        label = np.zeros(c)
        for _, _, cat in segments:
            label[cat - 1] = 1.0
        label /= label.sum()
        # quantize to the on-disk precision so save/load is bit-exact
        rgb = rgb.astype(np.float32).astype(np.float64)
        flow = flow.astype(np.float32).astype(np.float64)
        return VideoSample(id=vid, label=label, rgb=rgb, flow=flow,
                           gt_segments=sorted(segments),
                           confounders=confounders, suppressed=suppressed)

    train = [make_video(f"train_{i:04d}") for i in range(config.num_train)]
    test = [make_video(f"test_{i:04d}") for i in range(config.num_test)]
    return Dataset(class_names=class_names, feature_dim=d,
                   train=train, test=test)


# ---------------------------------------------------------------------------
# on-disk format: manifest.json + raw little-endian float32 feature files

def save(dataset, directory):
    os.makedirs(directory, exist_ok=True)
    videos = []
    for split, samples in (("train", dataset.train), ("test", dataset.test)):
        for v in samples:
            rgb_file = f"{v.id}_rgb.bin"
            flow_file = f"{v.id}_flow.bin"
            for name, arr in ((rgb_file, v.rgb), (flow_file, v.flow)):
                with open(os.path.join(directory, name), "wb") as fh:
                    fh.write(np.ascontiguousarray(arr,
                                                  dtype="<f4").tobytes())
            entry = {
                "id": v.id,
                "split": split,
                "T": int(v.num_snippets),
                "label": [float(x) for x in v.label],
                "rgb_file": rgb_file,
                "flow_file": flow_file,
            }
            if v.gt_segments is not None:
                entry["gt_segments"] = [[int(s), int(e), int(c)]
                                        for s, e, c in v.gt_segments]
            videos.append(entry)
    manifest = {
        "C": dataset.num_classes,
        "D": dataset.feature_dim,
        "class_names": dataset.class_names,
        "videos": videos,
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_features(where, path, t, d):
    """The (T, D) features at path; a fault names where (the manifest
    entry, whose T and D may be at fault as much as the file) too."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:
        raise DataError(f"{where}: missing feature file {path}") from exc
    if len(raw) != 4 * t * d:
        raise DataError(f"{where}: {path}: expected {t}x{d} float32 values, "
                        f"found {len(raw)} bytes")
    values = np.frombuffer(raw, dtype="<f4")
    features = values.astype(np.float64).reshape(t, d)
    flat = features.ravel()
    # squares of float32 values cannot overflow a float64 sum, so it is
    # finite exactly when every value is; unlike np.isfinite(values).all()
    # it makes no temporary array (those raised the peak memory of loading
    # a data set by about 0.3 MB), and unlike a plain sum it never meets
    # inf - inf, which would print a numpy warning
    if not math.isfinite(flat @ flat):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DataError(f"{where}: {path}: value {values[bad]} at snippet "
                        f"{bad // d + 1}, dimension {bad % d + 1} is not "
                        "finite")
    return features


def read_json(path):
    """The JSON document in the file at path. A missing file, bytes that
    are not UTF-8, invalid JSON and nesting too deep to parse are each a
    one-line DataError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}, column "
                        f"{exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _integer(where, key, value, least):
    """value if it is a JSON integer >= least, else a DataError naming
    where and the field key."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DataError(f"{where}: field {key!r} is {json.dumps(value)}, "
                        f"expected an integer >= {least}")
    return value


def load(directory):
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: expected a JSON object")
    for key in ("C", "D", "class_names", "videos"):
        if key not in manifest:
            raise DataError(f"{manifest_path}: missing field {key!r}")
    c = _integer(manifest_path, "C", manifest["C"], least=2)
    d = _integer(manifest_path, "D", manifest["D"], least=1)
    class_names = manifest["class_names"]
    entries = manifest["videos"]
    if not (isinstance(class_names, list) and len(class_names) == c
            and all(isinstance(name, str) for name in class_names)):
        raise DataError(f"{manifest_path}: field 'class_names' is not a "
                        f"list of C = {c} strings")
    repeated = [n for i, n in enumerate(class_names) if n in class_names[:i]]
    if repeated:
        raise DataError(f"{manifest_path}: field 'class_names' is a list "
                        f"that repeats {repeated[0]!r}")
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: field 'videos' is not a list")
    splits = {"train": [], "test": []}
    seen = set()
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: video #{index} is not an "
                            "object")
        where = f"{manifest_path}: video {entry.get('id', f'#{index}')}"
        for key in ("id", "T", "label", "rgb_file", "flow_file"):
            if key not in entry:
                raise DataError(f"{where}: missing field {key!r}")
        for key in ("id", "rgb_file", "flow_file"):
            if not isinstance(entry[key], str):
                raise DataError(f"{where}: field {key!r} is "
                                f"{json.dumps(entry[key])}, expected a string")
        if entry["id"] in seen:
            raise DataError(f"{where}: repeated video id")
        seen.add(entry["id"])
        split = entry.get("split", "train")
        if split not in ("train", "test"):
            raise DataError(f"{where}: unknown split {split!r} (expected "
                            "'train' or 'test')")
        t = _integer(where, "T", entry["T"], least=1)
        label = entry["label"]
        if not (isinstance(label, list) and len(label) == c
                and all(map(finite_number, label))):
            raise DataError(f"{where}: field 'label' is not a list of {c} "
                            "finite numbers")
        label = np.asarray(label, dtype=np.float64)
        rgb, flow = (_read_features(where, os.path.join(directory, name), t, d)
                     for name in (entry["rgb_file"], entry["flow_file"]))
        gt = entry.get("gt_segments")
        if gt is not None:
            if not (isinstance(gt, list) and all(
                    isinstance(seg, list) and len(seg) == 3
                    and all(type(v) is int for v in seg) for seg in gt)):
                raise DataError(f"{where}: field 'gt_segments' is not a "
                                "list of [start, end, category] integers")
            gt = [tuple(seg) for seg in gt]
            for s, e, cat in gt:
                if not (1 <= s <= e <= t) or not (1 <= cat <= c):
                    raise DataError(f"{where}: field 'gt_segments' holds "
                                    f"invalid segment {[s, e, cat]}")
        sample = VideoSample(id=entry["id"], label=label, rgb=rgb,
                             flow=flow, gt_segments=gt)
        splits[split].append(sample)
    return Dataset(class_names=class_names, feature_dim=d,
                   train=splits["train"], test=splits["test"])
