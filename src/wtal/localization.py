"""Proposal extraction and scoring from trained two-stream outputs.

Pipeline per video: fuse the two streams' attention / T-CAM / video
prediction, upsample by a fixed factor via linear interpolation, pick the
top-k video-level categories, threshold the attention at 0.5 to get
candidate segments, and score every (segment, category) pair with an
outer-inner contrastive score on the attention-weighted T-CAM. Proposals
with non-positive scores are discarded.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .consensus import fuse_attention
from .synthdata import DataError, finite_number, read_json


@dataclass
class LocalizationConfig:
    upsample_factor: int = 8
    attention_threshold: float = 0.5
    top_k: int = 2
    class_score_floor: float = 0.1

    def __post_init__(self):
        if self.upsample_factor < 1:
            raise ValueError("upsample_factor must be >= 1")
        if not 0.0 < self.attention_threshold < 1.0:
            raise ValueError("attention_threshold must lie in (0, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class ActionProposal:
    video_id: str
    start: float      # snippet units
    end: float
    category: int     # 1-based
    score: float


def upsample_linear(sequence, factor):
    """Linear upsampling; output index j reads source coordinate
    (j + 0.5) / factor - 0.5, clamped to [0, T-1]. Matrices are
    upsampled per column."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    seq = np.asarray(sequence, dtype=np.float64)
    t = seq.shape[0]
    if t < 1:
        raise ValueError("sequence must be nonempty")
    j = np.arange(t * factor)
    p = np.clip((j + 0.5) / factor - 0.5, 0.0, t - 1.0)
    i0 = np.floor(p).astype(int)
    i1 = np.minimum(i0 + 1, t - 1)
    frac = p - i0
    if seq.ndim == 1:
        return (1.0 - frac) * seq[i0] + frac * seq[i1]
    return (1.0 - frac)[:, None] * seq[i0] + frac[:, None] * seq[i1]


def select_categories(probs, top_k, floor):
    """Top-k categories (1-based) by fused probability, excluding any with
    probability strictly below the floor. Ties break on lower index."""
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-probs, kind="stable")[:top_k]
    return [int(i) + 1 for i in order if probs[i] >= floor]


def extract_segments(attention, threshold):
    """Maximal runs of attention > threshold (strict), as 1-based
    inclusive index pairs, sorted and disjoint."""
    above = np.asarray(attention, dtype=np.float64) > threshold
    # padded by off at both ends, the mask changes at each run's 0-based
    # start and again at its 1-based inclusive end
    mask = np.zeros(above.size + 2, dtype=bool)
    mask[1:-1] = above
    edges = np.flatnonzero(mask[1:] != mask[:-1])
    return list(zip((edges[0::2] + 1).tolist(), edges[1::2].tolist()))


def oic_score(start, end, weights):
    """Outer-inner contrastive score of a (start, end) segment (1-based
    inclusive) over a weight sequence (attention-weighted T-CAM column).

    Inner mean over the segment minus the mean over the surrounding
    margins, which extend L/4 on each side (L = end - start), rounded
    outward and clamped to the sequence. Lengths count snippets
    (end - start + 1); if clamping leaves no margin the outer term is 0.
    """
    w = np.asarray(weights, dtype=np.float64)
    t = w.shape[0]
    if not (1 <= start <= end <= t):
        raise ValueError("proposal out of range")
    length = end - start
    outer_start = max(1, math.floor(start - length / 4.0))
    outer_end = min(t, math.ceil(end + length / 4.0))
    inner_sum = float(w[start - 1:end].sum())
    inner_len = end - start + 1
    inner_mean = inner_sum / inner_len
    outer_sum = float(w[outer_start - 1:outer_end].sum())
    outer_len = outer_end - outer_start + 1
    if outer_len == inner_len:
        return inner_mean
    margin_mean = (outer_sum - inner_sum) / (outer_len - inner_len)
    return inner_mean - margin_mean


def localize(video_id, rgb_out, flow_out, config, beta, mode="fused"):
    """Turn two streams' forward outputs into scored proposals.

    mode selects which attention/T-CAM/prediction drive localization:
    "fused" (convex combination with beta), "rgb", or "flow"; a single
    stream is the fusion with weight 1 or 0 on the rgb stream.
    """
    weights = {"fused": beta, "rgb": 1.0, "flow": 0.0}
    if mode not in weights:
        raise ValueError(f"unknown mode {mode!r}")
    attention, tcam, prediction = (
        fuse_attention(getattr(rgb_out, name), getattr(flow_out, name),
                       weights[mode])
        for name in ("attention", "tcam", "video_prediction"))

    factor = config.upsample_factor
    att_up = upsample_linear(attention, factor)
    tcam_up = upsample_linear(tcam, factor)
    categories = select_categories(prediction, config.top_k,
                                   config.class_score_floor)
    # attention is class-agnostic, so one segment set serves every category
    segments = extract_segments(att_up, config.attention_threshold)
    proposals = []
    for category in categories:
        weights = att_up * tcam_up[:, category - 1]
        for seg_start, seg_end in segments:
            score = oic_score(seg_start, seg_end, weights)
            if score > 0.0:
                proposals.append(ActionProposal(
                    video_id=video_id,
                    start=(seg_start - 1) / factor,
                    end=seg_end / factor,
                    category=category,
                    score=score))
    return proposals


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(proposals_to_json(proposals, class_names), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def load_proposals(path, class_names):
    payload = read_json(path)
    try:
        return proposals_from_json(payload, class_names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
