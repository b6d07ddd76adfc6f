"""Interval matching and detection metrics: IoU, per-class average
precision, mAP over IoU thresholds, and precision/recall/F-measure.

Ground-truth segments arrive as 1-based inclusive snippet index triples
(start, end, category); they are measured on the real line as the
interval [start - 1, end], the same unit proposals use.
"""

import json
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class EvaluationConfig:
    thresholds: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                     0.9)

    def __post_init__(self):
        self.thresholds = tuple(self.thresholds)
        if not self.thresholds:
            raise ValueError("thresholds must not be empty")
        if not all(0.0 < t <= 1.0 for t in self.thresholds):
            raise ValueError("thresholds must lie in (0, 1]")
        # mAP is keyed by threshold but averaged over the list's length
        if len(set(self.thresholds)) != len(self.thresholds):
            raise ValueError("thresholds must not repeat")


@dataclass
class GroundTruthSegment:
    video_id: str
    start: float
    end: float
    category: int   # 1-based


def gt_from_videos(videos):
    """Flatten dataset ground truth into real-line segments."""
    segments = []
    for video in videos:
        if video.gt_segments is None:
            raise ValueError(f"video {video.id} has no field 'gt_segments', "
                             "so it cannot be evaluated")
        for s, e, c in video.gt_segments:
            segments.append(GroundTruthSegment(video_id=video.id,
                                               start=float(s - 1),
                                               end=float(e), category=c))
    return segments


def iou(a, b):
    """Intersection over union of two (start, end) intervals on the real
    line; 0 when disjoint."""
    a_start, a_end = a
    b_start, b_end = b
    if a_start > a_end or b_start > b_end:
        raise ValueError("invalid interval")
    inter = min(a_end, b_end) - max(a_start, b_start)
    if inter <= 0:
        return 0.0
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / union


def _match(proposals, gts, threshold):
    """Greedy matching in score order: each proposal takes the unmatched
    same-video GT with highest IoU >= threshold, the first in gts order
    on a tie. Returns TP flags in the sorted proposal order."""
    pools = defaultdict(list)   # video id -> its unmatched GT, gts order
    for g in gts:
        pools[g.video_id].append(g)
    flags = []
    for p in sorted(proposals, key=lambda p: (-p.score, p.start, p.video_id)):
        pool = pools[p.video_id]
        best = -1
        best_iou = 0.0
        for gi, g in enumerate(pool):
            overlap = iou((p.start, p.end), (g.start, g.end))
            if overlap >= threshold and overlap > best_iou:
                best = gi
                best_iou = overlap
        if best >= 0:
            del pool[best]
        flags.append(best >= 0)
    return flags


def average_precision(proposals, gts, iou_threshold):
    """All-point average precision for one class.

    Returns None when there is no ground truth for the class (the class
    is then excluded from the mean, with a note in the report).
    """
    if not gts:
        return None
    flags = _match(proposals, gts, iou_threshold)
    tp = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
            total += tp / rank
    return total / len(gts)


@dataclass
class EvalReport:
    thresholds: list
    map_at_threshold: dict                 # threshold -> mAP
    average_map: float
    per_class_ap: dict                     # threshold -> {class: AP|None}
    precision: float
    recall: float
    f_measure: float
    tp: int
    fp: int
    num_gt: int
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "thresholds": self.thresholds,
            "mAP": {f"{t:g}": self.map_at_threshold[t]
                    for t in self.thresholds},
            "average_mAP": self.average_map,
            "per_class_AP": {f"{t:g}": {str(c): ap for c, ap in
                                        self.per_class_ap[t].items()}
                             for t in self.thresholds},
            "precision_at_0.5": self.precision,
            "recall_at_0.5": self.recall,
            "f_measure_at_0.5": self.f_measure,
            "counts": {"TP": self.tp, "FP": self.fp, "GT": self.num_gt},
            "notes": self.notes,
        }

    def to_text(self):
        lines = ["threshold    mAP"]
        for t in self.thresholds:
            lines.append(f"{t:9.2f} {self.map_at_threshold[t]:8.4f}")
        lines.append(f"average mAP {self.average_map:8.4f}")
        lines.append(f"precision@0.5 {self.precision:.4f}  "
                     f"recall@0.5 {self.recall:.4f}  "
                     f"F-measure {self.f_measure:.4f}")
        lines.append(f"TP {self.tp}  FP {self.fp}  GT {self.num_gt}")
        return "\n".join(lines) + "\n"


def _by_category(items):
    """{category: items of it, in input order}; an absent category reads
    as an empty list."""
    groups = defaultdict(list)
    for item in items:
        groups[item.category].append(item)
    return groups


def map_at(proposals, gts, thresholds, num_classes):
    """Mean over classes of AP at each threshold, plus the average mAP
    over the threshold list. Classes with no GT are excluded."""
    if not gts:
        raise ValueError("no ground truth segments")
    classes = range(1, num_classes + 1)
    by_class_props = _by_category(proposals)
    by_class_gts = _by_category(gts)
    notes = [f"class {c}: no ground truth, excluded" for c in classes
             if c not in by_class_gts]
    per_class = {}
    map_values = {}
    for threshold in thresholds:
        aps = {c: average_precision(by_class_props[c], by_class_gts[c],
                                    threshold) for c in classes}
        per_class[threshold] = aps
        valid = [ap for ap in aps.values() if ap is not None]
        map_values[threshold] = sum(valid) / len(valid) if valid else 0.0
    return per_class, map_values, notes


def precision_recall_f(proposals, gts, iou_threshold=0.5):
    """Detection (precision, recall, F, TP count) at one IoU threshold,
    greedy matching per class and per video in descending score order."""
    by_class_props = _by_category(proposals)
    # a class with proposals but no GT adds no TP
    tp = sum(sum(_match(by_class_props[c], class_gts, iou_threshold))
             for c, class_gts in _by_category(gts).items())
    n_props = len(proposals)
    n_gt = len(gts)
    precision = tp / n_props if n_props else 0.0
    recall = tp / n_gt if n_gt else 0.0
    f = 2 * precision * recall / (precision + recall) \
        if precision + recall > 0 else 0.0
    return precision, recall, f, tp


def evaluate(proposals, gts, thresholds, num_classes):
    """Full report: mAP at each threshold plus P/R/F at IoU 0.5."""
    per_class, map_values, notes = map_at(proposals, gts, thresholds,
                                          num_classes)
    precision, recall, f, tp = precision_recall_f(proposals, gts, 0.5)
    return EvalReport(
        thresholds=list(thresholds),
        map_at_threshold=map_values,
        average_map=sum(map_values.values()) / len(thresholds),
        per_class_ap=per_class,
        precision=precision, recall=recall, f_measure=f,
        tp=tp, fp=len(proposals) - tp, num_gt=len(gts),
        notes=notes)


def save_report(path_json, path_text, report):
    with open(path_json, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(path_text, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
