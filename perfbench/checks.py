"""Checks on what each stage wrote. A check returns a list of problems;
an empty list means the output is accepted."""

import csv
import hashlib
import json
import math
import os


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_json(path, problems):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: unreadable: {exc}")
        return None


def check_dataset(data_dir, train_videos, test_videos):
    problems = []
    manifest = _load_json(os.path.join(data_dir, "manifest.json"), problems)
    if manifest is not None:
        splits = [v.get("split") for v in manifest.get("videos", [])]
        if (splits.count("train"), splits.count("test")) != (train_videos,
                                                            test_videos):
            problems.append(f"{data_dir}: expected {train_videos} train and "
                            f"{test_videos} test videos")
    return problems


def check_training_log(path, expected_rows):
    """Row count is 2 x (epochs_initial + iterations x epochs_refine) and
    every loss is finite."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        if not math.isfinite(float(row["mean_total_loss"])):
            problems.append(f"{path}: non-finite loss in {row}")
            break
    return problems


def check_proposals(path, class_names):
    """Finite scores, start < end, labels the dataset knows."""
    problems = []
    payload = _load_json(path, problems)
    if payload is None:
        return problems
    known = set(class_names)
    for video_id, entries in payload.get("results", {}).items():
        for entry in entries:
            start, end = entry["segment"]
            if not math.isfinite(entry["score"]):
                problems.append(f"{path}: {video_id}: non-finite score")
            if not start < end:
                problems.append(f"{path}: {video_id}: segment {start}..{end}")
            if entry["label"] not in known:
                problems.append(f"{path}: {video_id}: unknown label "
                                f"{entry['label']!r}")
    return problems


def count_proposals(path):
    with open(path, "r", encoding="utf-8") as fh:
        return sum(len(v) for v in json.load(fh)["results"].values())


def _report_values(report):
    yield "average_mAP", report["average_mAP"]
    for key in ("precision_at_0.5", "recall_at_0.5", "f_measure_at_0.5"):
        yield key, report[key]
    for threshold, value in report["mAP"].items():
        yield f"mAP@{threshold}", value
    for threshold, per_class in report["per_class_AP"].items():
        for cls, value in per_class.items():
            if value is not None:
                yield f"AP@{threshold}/class {cls}", value


def check_report(path):
    """Every reported value is finite and within [0, 1]."""
    problems = []
    report = _load_json(path, problems)
    if report is None:
        return problems
    for key, value in _report_values(report):
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and 0.0 <= value <= 1.0):
            problems.append(f"{path}: {key} = {value!r}")
    return problems


def quality(report_path):
    """The three quality figures of an eval report."""
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    return {"map_at_0.5": report["mAP"]["0.5"],
            "average_map": report["average_mAP"],
            "f_measure_at_0.5": report["f_measure_at_0.5"]}


def count_gt(report_path):
    with open(report_path, "r", encoding="utf-8") as fh:
        return json.load(fh)["counts"]["GT"]


def check_plots(plot_dir, test_videos):
    try:
        names = os.listdir(plot_dir)
    except OSError as exc:
        return [f"{plot_dir}: unreadable: {exc}"]
    counts = (sum(n.endswith(".csv") for n in names),
              sum(n.endswith(".svg") for n in names))
    if counts != (test_videos, test_videos):
        return [f"{plot_dir}: {counts[0]} CSV and {counts[1]} SVG files, "
                f"expected {test_videos} of each"]
    return []


def class_names(data_dir):
    with open(os.path.join(data_dir, "manifest.json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)["class_names"]


def check_stage(stage_name, workload):
    """The checks that apply after ``stage_name`` exits 0."""
    w = workload
    if stage_name in ("gen-data", "generate"):
        return check_dataset(w.data_dir, w.train_videos, w.test_videos)
    if stage_name == "train":
        return check_training_log(w.training_log, w.log_rows)
    if stage_name == "localize":
        return check_proposals(w.proposals, class_names(w.data_dir))
    if stage_name == "eval":
        return check_report(w.report)
    if stage_name == "plot":
        return check_plots(w.plot_dir, w.test_videos)
    raise ValueError(f"unknown stage {stage_name!r}")


def digest_of(stage_name, workload):
    """Digest of the artifact the determinism contract covers, if any."""
    if stage_name == "train":
        return sha256(workload.training_log)
    if stage_name == "localize":
        return sha256(workload.proposals)
    return None
