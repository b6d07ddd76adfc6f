"""The JSON files the CLI reads and writes, the localization modes, and
the errors the CLI reports.

A dataset directory holds manifest.json (classes, feature width, and per
video its id, split, T, label, feature file names and ground truth) next
to the raw feature files, which this module never opens. A proposals
file holds {"results": {video_id: [{label, score, segment}]}}. Both are
read and written here, and every JSON file is written by write_json.
parse_json is the one JSON parse and check_object the one check of a
JSON object's keys and value types, for the config, the manifest, the
proposals file and a checkpoint header alike. Every reader checks what
it reads and raises a one-line DataError naming the file and the field,
echoing an input through shown. The module imports no numpy, so ``wtal
eval``, which reads these two files and a config, never loads it.
"""

import json
import math
import os
import types
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
                raise DataError(f"repeated key {shown(key, repr)}")
            seen.add(key)
    return obj


def parse_json(where, data):
    """The JSON document in the bytes data, decoded as UTF-8. Bytes that
    are not UTF-8 (a BOM included), invalid JSON, a key repeated within
    one object, an integer too long to convert and nesting too deep to
    parse are each a one-line DataError naming where."""
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: invalid JSON at line {exc.lineno}, column "
                        f"{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def read_json(path):
    """The JSON document in the file at path, by parse_json; a missing
    file is a DataError naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise DataError(f"{path}: file not found") from exc
    return parse_json(path, data)


def _json_text(value):
    """value's JSON text. A value json cannot encode is written as its
    Python value, ``item()``, if it has one (a numpy scalar), else as its
    repr."""
    return json.dumps(
        value, default=lambda v: v.item() if hasattr(v, "item") else repr(v))


def shown(value, form=_json_text):
    """value as a message shows it: form(value), by default its JSON
    text, cut after 60 characters. Every message that echoes an input
    echoes it through here."""
    text = form(value)
    return text if len(text) <= 60 else text[:60] + "..."


_JSON_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), list: ("a list", "lists"),
               dict: ("a JSON object", "JSON objects"),
               type(None): ("null", "nulls")}


def _fits(value, hint):
    """Whether a parsed JSON value fits a type hint. A bool is never a
    number, an int fits a float, a list fits a tuple when each element
    fits, and X | None also takes null."""
    if hint is float:
        return finite_number(value)
    if type(hint) is type:
        return isinstance(value, hint) and not isinstance(value, bool)
    if type(hint) is types.GenericAlias:   # tuple[X, ...]
        each = hint.__args__[0]
        return isinstance(value, list) and all(_fits(v, each) for v in value)
    return any(_fits(value, h) for h in hint.__args__)   # X | Y


def _describe(hint, many=False):
    """What a value of the type hint is, in words; many: in the plural."""
    if type(hint) is types.GenericAlias:
        each = _describe(hint.__args__[0], many=True)
        return f"lists of {each}" if many else f"a list of {each}"
    if type(hint) is types.UnionType:
        return " or ".join(_describe(h, many) for h in hint.__args__)
    return _JSON_NAMES[hint][many]


def check_object(where, raw, hints, optional=()):
    """Raise a one-line DataError naming where unless raw is a JSON
    object whose keys are keys of hints, each set to a value of its type
    hint (int, float, str, list, dict, None, tuple[X, ...] for a list of
    X, or a union of these), and which sets every key of hints that is
    not in optional; the first key missing in the order of hints is
    named."""
    if not isinstance(raw, dict):
        raise DataError(f"{where}: expected a JSON object, got {shown(raw)}")
    for key, value in raw.items():
        if key not in hints:
            raise DataError(f"{where}: unknown field {shown(key, repr)} "
                            f"(expected one of {sorted(hints)})")
        if not _fits(value, hints[key]):
            raise DataError(f"{where}: field {key!r} is {shown(value)}, "
                            f"expected {_describe(hints[key])}")
    for key in hints:
        if key not in raw and key not in optional:
            raise DataError(f"{where}: missing field {key!r}")


def write_json(path, payload):
    """Write payload to path: UTF-8 JSON, indent 2, sorted keys, newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    """value, an integer that check_object has passed, if it is >= least,
    else a DataError naming where and the field key."""
    if value < least:
        raise DataError(f"{where}: field {key!r} is {shown(value)}, "
                        f"expected an integer >= {least}")
    return value


def _label(where, value, c):
    """The floats of a label, a list of finite numbers, if it is a
    distribution over c classes, else a DataError naming where and the
    field 'label'."""
    if len(value) != c:
        raise DataError(f"{where}: field 'label' is {shown(value)}, "
                        f"expected a list of {c} numbers")
    label = [float(x) for x in value]
    # entries in [0, 1] first, so that fsum cannot overflow
    if not (all(0.0 <= x <= 1.0 for x in label)
            and abs(math.fsum(label) - 1.0) <= 1e-9):
        raise DataError(f"{where}: field 'label' is {shown(value)}, "
                        "expected nonnegative numbers that sum to 1")
    return label


_MANIFEST_HINTS = {"C": int, "D": int, "class_names": tuple[str, ...],
                   "videos": list}
_ENTRY_HINTS = {"id": str, "split": str, "T": int, "label": tuple[float, ...],
                "rgb_file": str, "flow_file": str,
                "gt_segments": tuple[tuple[int, ...], ...] | None}


def read_manifest(directory):
    """The checked manifest of the dataset in directory, as a Dataset
    whose splits hold ManifestEntry objects. No feature file is opened.
    Every fault is a one-line DataError naming manifest.json and the
    field."""
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = read_json(manifest_path)
    check_object(manifest_path, manifest, _MANIFEST_HINTS)
    c = integer_field(manifest_path, "C", manifest["C"], least=2)
    d = integer_field(manifest_path, "D", manifest["D"], least=1)
    class_names = manifest["class_names"]
    if len(class_names) != c:
        raise DataError(f"{manifest_path}: field 'class_names' is not a "
                        f"list of C = {c} strings")
    repeated = [n for i, n in enumerate(class_names) if n in class_names[:i]]
    if repeated:
        raise DataError(f"{manifest_path}: field 'class_names' is a list "
                        f"that repeats {shown(repeated[0])}")
    splits = {"train": [], "test": []}
    seen = set()
    for index, entry in enumerate(manifest["videos"]):
        video_id = entry.get("id") if isinstance(entry, dict) else None
        # plot and the pseudo-GT dump write one file named {id}.csv
        plain = (isinstance(video_id, str) and video_id not in ("", ".", "..")
                 and not {"/", "\0"} & set(video_id))
        shown_id = shown(video_id, str) if plain else f"#{index}"
        where = f"{manifest_path}: video {shown_id}"
        check_object(where, entry, _ENTRY_HINTS,
                     optional=("split", "gt_segments"))
        if not plain:
            raise DataError(f"{where}: field 'id' is {shown(video_id)}, "
                            "expected a plain file name")
        if video_id in seen:
            raise DataError(f"{where}: repeated video id")
        seen.add(video_id)
        split = entry.get("split", "train")
        if split not in ("train", "test"):
            raise DataError(f"{where}: field 'split' is {shown(split)}, "
                            'expected "train" or "test"')
        t = integer_field(where, "T", entry["T"], least=1)
        label = _label(where, entry["label"], c)
        gt = entry.get("gt_segments")
        if gt is not None:
            gt = [tuple(seg) for seg in gt]
            for seg in gt:
                if not (len(seg) == 3 and 1 <= seg[0] <= seg[1] <= t
                        and 1 <= seg[2] <= c):
                    raise DataError(f"{where}: field 'gt_segments' holds "
                                    f"invalid segment {shown(list(seg))}")
        splits[split].append(ManifestEntry(
            id=video_id, label=label, num_snippets=t,
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


_PROPOSALS_HINTS = {"results": dict, "version": str, "external_data": dict}
_PROPOSAL_HINTS = {"label": str, "score": float, "segment": tuple[float, ...]}


def proposals_from_json(payload, class_names, where):
    """Proposals of a proposals_to_json payload, whose top level may also
    hold ActivityNet's version and external_data; a fault is a one-line
    DataError naming where, the video and the field."""
    check_object(where, payload, _PROPOSALS_HINTS,
                 optional=("version", "external_data"))
    name_to_index = {name: i + 1 for i, name in enumerate(class_names)}
    proposals = []
    for video_id, entries in payload["results"].items():
        video = f"{where}: video {shown(video_id, str)}"
        if not isinstance(entries, list):
            raise DataError(f"{video}: proposals are not a list")
        for entry in entries:
            check_object(video, entry, _PROPOSAL_HINTS)
            label, segment = entry["label"], entry["segment"]
            if label not in name_to_index:
                raise DataError(f"{video}: field 'label' is {shown(label)}, "
                                "expected one of the dataset's class names")
            if len(segment) != 2 or not segment[0] < segment[1]:
                raise DataError(f"{video}: field 'segment' is "
                                f"{shown(segment)}, expected two numbers, "
                                "start < end")
            proposals.append(ActionProposal(
                video_id=video_id, start=float(segment[0]),
                end=float(segment[1]), category=name_to_index[label],
                score=float(entry["score"])))
    return proposals


def save_proposals(path, proposals, class_names):
    write_json(path, proposals_to_json(proposals, class_names))


def load_proposals(path, class_names):
    return proposals_from_json(read_json(path), class_names, where=path)
