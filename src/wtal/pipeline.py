"""Glue between trained models, localization, and evaluation; also the
plot-data emission (per-video attention CSV + SVG)."""

import csv
import os

import numpy as np

from . import basemodel, evaluation, localization
from .consensus import STREAMS, fuse_attention


def stream_outputs(models, video):
    """Forward both streams on one video."""
    return {s: basemodel.forward(models[s], video.features(s))
            for s in STREAMS}


def localize_dataset(models, videos, loc_cfg, beta, mode="fused"):
    proposals = []
    for video in videos:
        outs = stream_outputs(models, video)
        proposals.extend(localization.localize(video.id, outs["rgb"],
                                               outs["flow"], loc_cfg, beta,
                                               mode=mode))
    return proposals


def evaluate_models(models, videos, loc_cfg, beta, thresholds, num_classes,
                    mode="fused"):
    proposals = localize_dataset(models, videos, loc_cfg, beta, mode=mode)
    gts = evaluation.gt_from_videos(videos)
    return evaluation.evaluate(proposals, gts, thresholds, num_classes)


# ---------------------------------------------------------------------------
# plot emission

def write_attention_csv(path, attention, factor, pseudo=None):
    """Per-video CSV of the upsampled (rgb, flow, fused) attention rows;
    one row per upsampled time step (T * factor rows). ``pseudo`` holds
    one value per snippet. Every number is written as its shortest
    round-trip ``repr``."""
    n = len(attention[0])
    columns = [((np.arange(n) + 0.5) / factor).tolist()]
    columns += [np.asarray(a, dtype=np.float64).tolist() for a in attention]
    header = ["time", "attention_rgb", "attention_flow", "attention_fuse"]
    if pseudo is not None:
        header.append("pseudo_gt")
        columns.append(np.repeat(np.asarray(pseudo, dtype=np.float64),
                                 factor).tolist())
    # csv writes a float as its repr and never quotes one, so one format
    # per row gives csv.writer's bytes without its per-field checks
    row = ",".join(["%r"] * len(columns)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(map(row.__mod__, zip(*columns, strict=True))))


def _format_2f(values):
    """``f"{v:.2f}"`` of each value of a float64 array, as a list."""
    values = values.tolist()
    return ("%.2f " * len(values) % tuple(values)).split()


def _svg_polyline(x_points, values, y0, height, color):
    """``x_points`` are the formatted x coordinates, each ending in a
    comma."""
    values = np.asarray(values, dtype=np.float64)
    y_points = _format_2f(y0 + height * (1.0 - values))
    points = " ".join(map(str.__add__, x_points, y_points))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{points}"/>')


def write_attention_svg(path, video, attention, proposals):
    """Small static figure: one row per upsampled attention sequence
    (rgb, flow, fused), ground-truth segments as gray boxes, proposals as
    green boxes."""
    rgb, flow, fused = attention
    width = 640.0
    row_h = 60.0
    pad = 10.0
    t = video.num_snippets
    x_per_snippet = width / t
    x_points = [x + "," for x in _format_2f(
        (np.arange(len(rgb)) + 0.5) * (width / len(rgb)))]
    rows = [("rgb", rgb, "#d62728"), ("flow", flow, "#1f77b4"),
            ("fuse", fused, "#2ca02c")]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width:.0f}" '
             f'height="{(row_h + pad) * len(rows) + 2 * pad:.0f}">']
    if video.gt_segments:
        for s, e, _ in video.gt_segments:
            x = (s - 1) * x_per_snippet
            w = (e - s + 1) * x_per_snippet
            parts.append(f'<rect x="{x:.2f}" y="0" width="{w:.2f}" '
                         f'height="{(row_h + pad) * len(rows):.2f}" '
                         f'fill="#cccccc" fill-opacity="0.4"/>')
    for idx, (name, values, color) in enumerate(rows):
        y0 = pad + idx * (row_h + pad)
        parts.append(f'<text x="2" y="{y0 + 10:.2f}" font-size="10">'
                     f'{name}</text>')
        parts.append(_svg_polyline(x_points, values, y0, row_h, color))
    for p in proposals:
        x = p.start * x_per_snippet
        w = (p.end - p.start) * x_per_snippet
        y0 = pad + 2 * (row_h + pad)
        parts.append(f'<rect x="{x:.2f}" y="{y0:.2f}" width="{w:.2f}" '
                     f'height="{row_h:.2f}" fill="none" '
                     f'stroke="#2ca02c" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def write_plot_bundle(out_dir, models, videos, loc_cfg, beta,
                      pseudo_by_video=None):
    os.makedirs(out_dir, exist_ok=True)
    factor = loc_cfg.upsample_factor
    for video in videos:
        outs = stream_outputs(models, video)
        proposals = localization.localize(video.id, outs["rgb"],
                                          outs["flow"], loc_cfg, beta)
        # upsample, then fuse; localize fuses first, which differs in bits
        rgb, flow = (localization.upsample_linear(outs[s].attention, factor)
                     for s in STREAMS)
        attention = (rgb, flow, fuse_attention(rgb, flow, beta))
        pseudo = (pseudo_by_video or {}).get(video.id)
        write_attention_csv(os.path.join(out_dir, f"{video.id}.csv"),
                            attention, factor, pseudo=pseudo)
        write_attention_svg(os.path.join(out_dir, f"{video.id}.svg"),
                            video, attention, proposals)
