"""Proposal extraction and scoring from trained two-stream outputs.

Pipeline per video: fuse the two streams' attention / T-CAM / video
prediction, upsample by a fixed factor via linear interpolation, pick the
top-k video-level categories, threshold the attention at 0.5 to get
candidate segments, and score every (segment, category) pair with an
outer-inner contrastive score on the attention-weighted T-CAM. Proposals
with non-positive scores are discarded. The numeric functions take the
float64 arrays of ``basemodel.infer`` (or arrays computed from them) as
they are; none converts its input.
"""

import math

import numpy as np

# The proposals file format and MODES live in formats. The file's writer
# and reader are also looked up here: cmd_localize calls save_proposals
# through this module, and the benchmark's tracer wraps both at it.
from .formats import (MODES, ActionProposal, load_proposals,  # noqa: F401
                      save_proposals)
from .numkit import fuse_attention


def upsample_linear(sequence, factor):
    """Linear upsampling of a nonempty sequence by an integer factor >= 1;
    output index j reads source coordinate (j + 0.5) / factor - 0.5,
    clamped to [0, T-1]. Matrices are upsampled per column."""
    t = sequence.shape[0]
    j = np.arange(t * factor)
    p = np.clip((j + 0.5) / factor - 0.5, 0.0, t - 1.0)
    i0 = np.floor(p).astype(int)
    i1 = np.minimum(i0 + 1, t - 1)
    frac = p - i0
    if sequence.ndim == 1:
        return (1.0 - frac) * sequence[i0] + frac * sequence[i1]
    return ((1.0 - frac)[:, None] * sequence[i0]
            + frac[:, None] * sequence[i1])


def select_categories(probs, top_k, floor):
    """Top-k categories (1-based) by fused probability, excluding any with
    probability strictly below the floor. Ties break on lower index."""
    order = np.argsort(-probs, kind="stable")[:top_k]
    return [int(i) + 1 for i in order if probs[i] >= floor]


def extract_segments(attention, threshold):
    """Maximal runs of attention > threshold (strict), as 1-based
    inclusive index pairs, sorted and disjoint."""
    above = attention > threshold
    # padded by off at both ends, the mask changes at each run's 0-based
    # start and again at its 1-based inclusive end
    mask = np.zeros(above.size + 2, dtype=bool)
    mask[1:-1] = above
    edges = np.flatnonzero(mask[1:] != mask[:-1])
    return list(zip((edges[0::2] + 1).tolist(), edges[1::2].tolist()))


def oic_score(start, end, weights):
    """Outer-inner contrastive score of a (start, end) segment (1-based
    inclusive, 1 <= start <= end <= T, as extract_segments gives it) over
    a weight sequence (attention-weighted T-CAM column).

    Inner mean over the segment minus the mean over the surrounding
    margins, which extend L/4 on each side (L = end - start), rounded
    outward and clamped to the sequence. Lengths count snippets
    (end - start + 1); if clamping leaves no margin the outer term is 0.
    """
    t = weights.shape[0]
    length = end - start
    outer_start = max(1, math.floor(start - length / 4.0))
    outer_end = min(t, math.ceil(end + length / 4.0))
    inner_sum = float(weights[start - 1:end].sum())
    inner_len = end - start + 1
    inner_mean = inner_sum / inner_len
    outer_sum = float(weights[outer_start - 1:outer_end].sum())
    outer_len = outer_end - outer_start + 1
    if outer_len == inner_len:
        return inner_mean
    margin_mean = (outer_sum - inner_sum) / (outer_len - inner_len)
    return inner_mean - margin_mean


def localize(video_id, rgb_out, flow_out, config, beta, mode):
    """Turn two streams' forward outputs into scored proposals.

    mode, one of MODES, selects which attention/T-CAM/prediction drive
    localization: "fused" (convex combination with beta), "rgb" or
    "flow"; a single stream is the fusion with weight 1 or 0 on rgb.
    """
    weights = dict(zip(MODES, (beta, 1.0, 0.0)))
    attention, tcam, prediction = (
        fuse_attention(getattr(rgb_out, name), getattr(flow_out, name),
                       weights[mode])
        for name in ("attention", "tcam", "video_prediction"))

    factor = config.upsample_factor
    att_up = upsample_linear(attention, factor)
    categories = select_categories(prediction, config.top_k,
                                   config.class_score_floor)
    # upsampling is per column, so only the scored columns are upsampled
    tcam_up = upsample_linear(tcam[:, [c - 1 for c in categories]], factor)
    # attention is class-agnostic, so one segment set serves every category
    segments = extract_segments(att_up, config.attention_threshold)
    proposals = []
    for column, category in enumerate(categories):
        weighted = att_up * tcam_up[:, column]
        for seg_start, seg_end in segments:
            score = oic_score(seg_start, seg_end, weighted)
            if score > 0.0:
                proposals.append(ActionProposal(
                    video_id=video_id,
                    start=(seg_start - 1) / factor,
                    end=seg_end / factor,
                    category=category,
                    score=score))
    return proposals
