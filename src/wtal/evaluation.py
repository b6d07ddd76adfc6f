"""Interval matching and detection metrics: IoU, per-class average
precision, mAP over IoU thresholds, and precision/recall/F-measure.

Ground-truth segments arrive as 1-based inclusive snippet index triples
(start, end, category); they are measured on the real line as the
interval [start - 1, end], the same unit proposals use.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from .formats import write_json


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
    line, each with start <= end, which every input path guarantees; 0
    when disjoint."""
    a_start, a_end = a
    b_start, b_end = b
    inter = min(a_end, b_end) - max(a_start, b_start)
    if inter <= 0:
        return 0.0
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / union


def _overlaps(proposals, gts):
    """The proposals ranked by (-score, start, video_id), input order on a
    full tie, each with its (index into gts, IoU) pairs of IoU > 0
    against the GT of its own video, in gts order. Every IoU is computed
    here once and serves every threshold."""
    pools = defaultdict(list)   # video id -> [(index into gts, GT)]
    for gi, g in enumerate(gts):
        pools[g.video_id].append((gi, g))
    ranked = []
    for p in sorted(proposals, key=lambda p: (-p.score, p.start, p.video_id)):
        pairs = []
        for gi, g in pools.get(p.video_id, ()):
            overlap = iou((p.start, p.end), (g.start, g.end))
            if overlap > 0:     # thresholds lie in (0, 1]
                pairs.append((gi, overlap))
        ranked.append(pairs)
    return ranked


def _match(overlaps, threshold):
    """Greedy matching in rank order over _overlaps records: each
    proposal takes the unmatched GT with highest IoU >= threshold, the
    first in gts order on a tie. Returns the TP flags in rank order."""
    taken = set()
    flags = []
    for pairs in overlaps:
        best = -1
        best_iou = 0.0
        for gi, overlap in pairs:
            if overlap >= threshold and overlap > best_iou \
                    and gi not in taken:
                best = gi
                best_iou = overlap
        if best >= 0:
            taken.add(best)
        flags.append(best >= 0)
    return flags


def _ap_of_flags(flags, num_gt):
    """All-point average precision of TP flags in rank order."""
    tp = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
            total += tp / rank
    return total / num_gt


def average_precision(proposals, gts, iou_threshold):
    """All-point average precision for one class.

    Returns None when there is no ground truth for the class (the class
    is then excluded from the mean, with a note in the report). Only the
    tests call it (``map_at`` scores each class from ``class_overlaps``),
    and the benchmark's tracer lists it among the names it wraps.
    """
    if not gts:
        return None
    return _ap_of_flags(_match(_overlaps(proposals, gts), iou_threshold),
                        len(gts))


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


def class_overlaps(proposals, gts):
    """{category: (_overlaps records of its proposals against its GT,
    its GT count)} for each category that has GT. map_at and
    precision_recall_f take it to share one IoU pass."""
    by_class_props = _by_category(proposals)
    return {c: (_overlaps(by_class_props[c], class_gts), len(class_gts))
            for c, class_gts in _by_category(gts).items()}


def map_at(overlaps, thresholds, num_classes):
    """Per-class AP and the mean over classes of AP at each threshold,
    from ``overlaps``, the class_overlaps of the proposals and the GT.
    Classes with no GT are excluded, each with a note."""
    if not overlaps:    # it has a key for each class with GT
        raise ValueError("no ground truth segments")
    classes = range(1, num_classes + 1)
    notes = [f"class {c}: no ground truth, excluded" for c in classes
             if c not in overlaps]
    per_class = {}
    map_values = {}
    for threshold in thresholds:
        aps = {c: _ap_of_flags(_match(overlaps[c][0], threshold),
                               overlaps[c][1])
               if c in overlaps else None for c in classes}
        per_class[threshold] = aps
        valid = [ap for ap in aps.values() if ap is not None]
        map_values[threshold] = sum(valid) / len(valid) if valid else 0.0
    return per_class, map_values, notes


def precision_recall_f(proposals, gts, iou_threshold, overlaps):
    """Detection (precision, recall, F, TP count) at one IoU threshold,
    greedy matching per class and per video in descending score order.
    ``overlaps`` is class_overlaps(proposals, gts)."""
    # a class with proposals but no GT adds no TP
    tp = sum(sum(_match(records, iou_threshold))
             for records, _ in overlaps.values())
    n_props = len(proposals)
    n_gt = len(gts)
    precision = tp / n_props if n_props else 0.0
    recall = tp / n_gt if n_gt else 0.0
    f = 2 * precision * recall / (precision + recall) \
        if precision + recall > 0 else 0.0
    return precision, recall, f, tp


def evaluate(proposals, gts, thresholds, num_classes):
    """Full report: mAP at each threshold plus P/R/F at IoU 0.5, from one
    IoU pass."""
    overlaps = class_overlaps(proposals, gts)
    per_class, map_values, notes = map_at(overlaps, thresholds, num_classes)
    precision, recall, f, tp = precision_recall_f(proposals, gts, 0.5,
                                                  overlaps)
    return EvalReport(
        thresholds=list(thresholds),
        map_at_threshold=map_values,
        average_map=sum(map_values.values()) / len(thresholds),
        per_class_ap=per_class,
        precision=precision, recall=recall, f_measure=f,
        tp=tp, fp=len(proposals) - tp, num_gt=len(gts),
        notes=notes)


def save_report(path_json, path_text, report):
    write_json(path_json, report.to_json())
    with open(path_text, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
