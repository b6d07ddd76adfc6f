"""Glue between trained models, localization, and evaluation; also the
plot-data emission (per-video attention CSV + SVG)."""

import os

import numpy as np

from . import basemodel, evaluation, localization, parallel
from .consensus import STREAMS
from .formats import write_csv
from .numkit import fuse_attention


def stream_outputs(models, video):
    """Both streams' inference outputs, T-CAM included, on one video."""
    return {s: basemodel.infer(models[s], video.features(s))
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

# repr((j + 0.5) / factor), the CSV time of row j, depends on nothing but j
# and the factor. Per factor, a process keeps the longest such column it
# has written so far and slices it for each video; no file depends on
# what is kept.
_TIMES = {}


def _time_column(n, factor):
    """repr((j + 0.5) / factor) for j = 0, ..., n - 1, as a list."""
    times = _TIMES.setdefault(factor, [])
    if len(times) < n:
        times.extend(map(repr, ((np.arange(len(times), n) + 0.5)
                                / factor).tolist()))
    return times[:n]


def write_attention_csv(path, attention, factor, pseudo=None):
    """Per-video CSV of the upsampled (rgb, flow, fused) attention rows;
    one row per upsampled time step (T * factor rows). ``pseudo`` holds
    one value per snippet. Every number is written as its shortest
    round-trip ``repr``; the time column is sliced from one formatted
    per process (``_time_column``), the others are formatted per value."""
    columns = [_time_column(len(attention[0]), factor)]
    columns += [np.asarray(a, dtype=np.float64).tolist() for a in attention]
    header = ["time", "attention_rgb", "attention_flow", "attention_fuse"]
    if pseudo is not None:
        header.append("pseudo_gt")
        columns.append(np.repeat(np.asarray(pseudo, dtype=np.float64),
                                 factor).tolist())
    write_csv(path, header, columns)


# "%.2f" % v prints the exact product 100 v rounded to an integer, a tie
# to even, as hundredths. For finite v >= 0 whose s = fl(100 v) is below
# 1e5, s is within 2**-37 of that product, so np.rint(s) is the same
# integer wherever s lies farther than _TIE_BAND from a half-integer.
# Every other value (negative, -0.0, not finite, too large, or in the
# band, where exact halves such as 0.125 lie) is formatted by "%.2f".
_TIE_BAND = 1e-9


def _words(texts):
    """Each text of at most 8 ASCII characters, padded on the right with
    zero bytes, as the uint64 whose memory holds those bytes."""
    return np.frombuffer("".join(t.ljust(8, "\0") for t in texts)
                         .encode("ascii"), np.uint64)


# a fast-path field is 8 bytes: the integer part 0..1000 in bytes 0-3,
# ".dd" in bytes 4-6 and the separator in byte 7; its zero bytes are
# padding. The bytes are OR-ed, which is the same in either byte order.
_WHOLE = _words(str(i) for i in range(1001))
_FRACTION = _words(f"\0\0\0\0.{i:02d}" for i in range(100))
_SEPARATOR = {sep: _words(["\0" * 7 + sep])[0] for sep in ", "}


def _format_2f(values, sep):
    """``f"{v:.2f}{sep}"`` of each value of a float64 array, in ASCII, as
    the rows of a uint8 array; zero bytes in a row are padding."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        s = values * 100.0
        fast = (~np.signbit(values) & (s < 1e5)
                & (np.abs(s - np.floor(s) - 0.5) > _TIE_BAND))
    hundredths = np.rint(np.where(fast, s, 0.0)).astype(np.intp)
    fields = (_WHOLE[hundredths // 100] | _FRACTION[hundredths % 100]
              | _SEPARATOR[sep]).view(np.uint8).reshape(-1, 8)
    slow = ~fast
    if slow.any():
        texts = [f"{v:.2f}{sep}" for v in values[slow].tolist()]
        width = max(8, *map(len, texts))
        fields = np.pad(fields, ((0, 0), (0, width - 8)))
        fields[slow] = np.frombuffer(
            "".join(t.ljust(width, "\0") for t in texts).encode("ascii"),
            np.uint8).reshape(-1, width)
    return fields


def _svg_polyline(x_fields, values, y0, height, color):
    """``x_fields`` are the x coordinates formatted by _format_2f with
    separator ",". The points string "x,y x,y ..." is one byte buffer with
    its padding dropped, decoded once."""
    values = np.asarray(values, dtype=np.float64)
    y_fields = _format_2f(y0 + height * (1.0 - values), " ")
    buf = np.concatenate([x_fields, y_fields], axis=1).reshape(-1)
    points = buf[buf != 0].tobytes().decode("ascii")[:-1]
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{points}"/>')


def write_attention_svg(path, video, attention, proposals):
    """Small static figure: one row per upsampled attention sequence
    (rgb, flow, fused), ground-truth segments as gray boxes, proposals as
    green boxes. Each polyline's coordinates are formatted as "%.2f" from
    arrays (``_format_2f``); the x coordinates once for all three."""
    rgb, flow, fused = attention
    width = 640.0
    row_h = 60.0
    pad = 10.0
    t = video.num_snippets
    x_per_snippet = width / t
    x_fields = _format_2f((np.arange(len(rgb)) + 0.5) * (width / len(rgb)),
                          ",")
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
        parts.append(_svg_polyline(x_fields, values, y0, row_h, color))
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


def _plot_video(out_dir, models, video, loc_cfg, beta, pseudo):
    """Write one video's attention CSV and SVG."""
    outs = stream_outputs(models, video)
    proposals = localization.localize(video.id, outs["rgb"], outs["flow"],
                                      loc_cfg, beta)
    factor = loc_cfg.upsample_factor
    # upsample, then fuse; localize fuses first, which differs in bits
    rgb, flow = (localization.upsample_linear(outs[s].attention, factor)
                 for s in STREAMS)
    attention = (rgb, flow, fuse_attention(rgb, flow, beta))
    write_attention_csv(os.path.join(out_dir, f"{video.id}.csv"),
                        attention, factor, pseudo=pseudo)
    write_attention_svg(os.path.join(out_dir, f"{video.id}.svg"),
                        video, attention, proposals)


def write_plot_bundle(out_dir, models, videos, loc_cfg, beta,
                      pseudo_by_video=None, workers=None):
    """Write each video's attention CSV and SVG into ``out_dir``.

    The videos are dealt over ``workers`` processes, by default the CPUs
    in this process's affinity mask, by ``parallel.fork_map``; no file
    and no error depends on their number.
    """
    os.makedirs(out_dir, exist_ok=True)
    pseudo_by_video = pseudo_by_video or {}

    def plot(video):
        _plot_video(out_dir, models, video, loc_cfg, beta,
                    pseudo_by_video.get(video.id))

    parallel.fork_map(
        plot, videos, workers or parallel.cpus(),
        lambda first: f"{out_dir}: the plot worker for video index {first}")
