"""The JSON files the CLI reads and writes, the CSV body writer, the
localization modes, and the errors the CLI reports.

A dataset directory holds manifest.json (classes, feature width, and per
video its id, split, T, label, feature file names and ground truth) next
to the raw feature files, which this module never opens. A proposals
file holds {"results": {video_id: [{label, score, segment}]}}. Both are
read and written here, and every JSON file is written by write_json.
Every CSV file (the training log, pseudo ground truth, plot data) is
written by write_csv. Every reader checks what it reads and raises a
one-line DataError naming the file and the field. The module imports no
numpy, so ``wtal eval``, which reads these two files and a config, never
loads it.
"""

import json
import math
import os
from dataclasses import dataclass


class DataError(ValueError):
    """Raised for invalid configurations or malformed dataset files."""


class NumericError(RuntimeError):
    """Non-finite loss during training; carries stream/epoch/video."""

    def __init__(self, stream, iteration, epoch, video_id):
        super().__init__(
            f"non-finite loss: stream={stream} iteration={iteration} "
            f"epoch={epoch} video={video_id}")
        self.stream = stream
        self.iteration = iteration
        self.epoch = epoch
        self.video_id = video_id

    def __reduce__(self):
        # a worker process sends it to the parent pickled
        return type(self), (self.stream, self.iteration, self.epoch,
                            self.video_id)


def finite_number(value):
    """Whether a parsed JSON value is a number with a finite float value;
    a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int too large for a float
        return False


def unique_keys(pairs):
    """A json object_pairs_hook: the dict of pairs; a key that occurs
    twice is a DataError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DataError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def read_json(path):
    """The JSON document in the file at path. A missing file, bytes that
    are not UTF-8, invalid JSON, a key repeated within one object and
    nesting too deep to parse are each a one-line DataError naming the
    path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError as exc:
        raise DataError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}, column "
                        f"{exc.colno}: {exc.msg}") from exc
    except (DataError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_json(path, payload):
    """Write payload to path: UTF-8 JSON, indent 2, sorted keys, newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, columns):
    """Write a CSV of the header and one row per index of the equal-length
    columns, as csv.writer writes cells that need no quoting: a str as it
    is, an int in decimal, a float as its shortest round-trip repr, each
    row ending in \\r\\n. Columns of unequal length are a ValueError."""
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(map(row.__mod__, zip(*columns, strict=True))))


# ---------------------------------------------------------------------------
# manifest.json

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


@dataclass
class ManifestEntry:
    """One checked video entry of a manifest; its features are not
    read."""
    id: str
    label: list                       # C floats, nonnegative, sum to 1
    num_snippets: int
    rgb_path: str
    flow_path: str
    gt_segments: list | None
    where: str                        # "<manifest path>: video <id>"


def integer_field(where, key, value, least):
    """value if it is a JSON integer >= least, else a DataError naming
    where and the field key."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DataError(f"{where}: field {key!r} is {json.dumps(value)}, "
                        f"expected an integer >= {least}")
    return value


def _label(where, value, c):
    """The floats of a label that is a distribution over c classes, else
    a DataError naming where and the field 'label'."""
    if not (isinstance(value, list) and len(value) == c
            and all(map(finite_number, value))):
        raise DataError(f"{where}: field 'label' is not a list of {c} "
                        "finite numbers")
    label = [float(x) for x in value]
    # entries in [0, 1] first, so that fsum cannot overflow
    if not (all(0.0 <= x <= 1.0 for x in label)
            and abs(math.fsum(label) - 1.0) <= 1e-9):
        raise DataError(f"{where}: field 'label' is {json.dumps(value)}, "
                        "expected nonnegative numbers that sum to 1")
    return label


def read_manifest(directory):
    """The checked manifest of the dataset in directory, as a Dataset
    whose splits hold ManifestEntry objects. No feature file is opened.
    Every fault is a one-line DataError naming manifest.json and the
    field."""
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: expected a JSON object")
    for key in ("C", "D", "class_names", "videos"):
        if key not in manifest:
            raise DataError(f"{manifest_path}: missing field {key!r}")
    c = integer_field(manifest_path, "C", manifest["C"], least=2)
    d = integer_field(manifest_path, "D", manifest["D"], least=1)
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
        # plot and the pseudo-GT dump write one file named {id}.csv
        if entry["id"] in ("", ".", "..") or {"/", "\0"} & set(entry["id"]):
            raise DataError(f"{manifest_path}: video #{index}: field 'id' is "
                            f"{json.dumps(entry['id'])}, expected a plain "
                            "file name")
        if entry["id"] in seen:
            raise DataError(f"{where}: repeated video id")
        seen.add(entry["id"])
        split = entry.get("split", "train")
        if split not in ("train", "test"):
            raise DataError(f"{where}: unknown split {split!r} (expected "
                            "'train' or 'test')")
        t = integer_field(where, "T", entry["T"], least=1)
        label = _label(where, entry["label"], c)
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
        splits[split].append(ManifestEntry(
            id=entry["id"], label=label, num_snippets=t,
            rgb_path=os.path.join(directory, entry["rgb_file"]),
            flow_path=os.path.join(directory, entry["flow_file"]),
            gt_segments=gt, where=where))
    return Dataset(class_names=class_names, feature_dim=d,
                   train=splits["train"], test=splits["test"])


def feature_files(video_id):
    """The names of a video's RGB and flow feature files."""
    return f"{video_id}_rgb.bin", f"{video_id}_flow.bin"


def write_manifest(directory, dataset):
    """Write manifest.json of dataset, whose videos have an id,
    num_snippets, label and gt_segments (or None), into directory."""
    videos = []
    for split in ("train", "test"):
        for v in getattr(dataset, split):
            rgb_file, flow_file = feature_files(v.id)
            entry = {"id": v.id, "split": split, "T": int(v.num_snippets),
                     "label": [float(x) for x in v.label],
                     "rgb_file": rgb_file, "flow_file": flow_file}
            if v.gt_segments is not None:
                entry["gt_segments"] = [[int(s), int(e), int(c)]
                                        for s, e, c in v.gt_segments]
            videos.append(entry)
    write_json(os.path.join(directory, "manifest.json"),
               {"C": dataset.num_classes, "D": dataset.feature_dim,
                "class_names": dataset.class_names, "videos": videos})


# ---------------------------------------------------------------------------
# proposals JSON

# The localization modes, in the order of `wtal localize --mode`'s
# choices; numpy-free here, so that the CLI parser loads no numpy for
# them. localization.MODES is this tuple.
MODES = ("fused", "rgb", "flow")


@dataclass
class ActionProposal:
    video_id: str
    start: float      # snippet units
    end: float
    category: int     # 1-based
    score: float


def proposals_to_json(proposals, class_names):
    """Export shape: {"results": {video_id: [{label, score, segment}]}}."""
    results = {}
    for p in sorted(proposals, key=lambda p: (p.video_id, -p.score,
                                              p.start, p.category)):
        results.setdefault(p.video_id, []).append({
            "label": class_names[p.category - 1],
            "score": p.score,
            "segment": [p.start, p.end],
        })
    return {"results": results}


def _proposal_from_json(video_id, entry, name_to_index):
    def invalid(key, expected):
        found = f"is {entry[key]!r}" if key in entry else "is missing"
        return DataError(f"video {video_id}: field {key!r} {found}, "
                         f"expected {expected}")

    if not isinstance(entry, dict):
        raise DataError(f"video {video_id}: proposal {entry!r} is not an "
                        "object")
    label = entry.get("label")
    if not isinstance(label, str) or label not in name_to_index:
        raise invalid("label", "one of the dataset's class names")
    if not finite_number(entry.get("score")):
        raise invalid("score", "a finite number")
    segment = entry.get("segment")
    if not (isinstance(segment, list) and len(segment) == 2
            and all(map(finite_number, segment))
            and segment[0] < segment[1]):
        raise invalid("segment", "two finite numbers, start < end")
    return ActionProposal(video_id=video_id, start=float(segment[0]),
                          end=float(segment[1]),
                          category=name_to_index[label],
                          score=float(entry["score"]))


def proposals_from_json(payload, class_names):
    """Proposals of a proposals_to_json payload; a malformed entry raises
    DataError naming the video and the field."""
    name_to_index = {name: i + 1 for i, name in enumerate(class_names)}
    results = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(results, dict):
        raise DataError("field 'results' is not an object of video ids")
    proposals = []
    for video_id, entries in results.items():
        if not isinstance(entries, list):
            raise DataError(f"video {video_id}: proposals are not a list")
        proposals.extend(_proposal_from_json(video_id, entry, name_to_index)
                         for entry in entries)
    return proposals


def save_proposals(path, proposals, class_names):
    write_json(path, proposals_to_json(proposals, class_names))


def load_proposals(path, class_names):
    payload = read_json(path)
    try:
        return proposals_from_json(payload, class_names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
