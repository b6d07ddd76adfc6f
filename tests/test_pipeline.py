"""The plot writers against the per-element writers they replaced: every
file they write must keep its bytes."""

import csv

import numpy as np
import pytest

from wtal import pipeline
from wtal.localization import ActionProposal
from wtal.synthdata import VideoSample


def reference_csv(path, attention, factor, pseudo=None):
    rgb, flow, fused = attention
    header = ["time", "attention_rgb", "attention_flow", "attention_fuse"]
    if pseudo is not None:
        header.append("pseudo_gt")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(len(rgb)):
            row = [repr((j + 0.5) / factor), repr(float(rgb[j])),
                   repr(float(flow[j])), repr(float(fused[j]))]
            if pseudo is not None:
                row.append(repr(float(pseudo[j // factor])))
            writer.writerow(row)


def reference_polyline(values, x_scale, y0, height, color):
    points = " ".join(f"{(i + 0.5) * x_scale:.2f},"
                      f"{y0 + height * (1.0 - v):.2f}"
                      for i, v in enumerate(values))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{points}"/>')


def reference_svg(path, video, attention, proposals):
    rgb, flow, fused = attention
    width = 640.0
    row_h = 60.0
    pad = 10.0
    t = video.num_snippets
    x_per_snippet = width / t
    x_per_step = width / len(rgb)
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
        parts.append(reference_polyline(values, x_per_step, y0, row_h,
                                        color))
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


# 0.125 and 0.375 sit on a .2f rounding half themselves; each 1 - w / 60
# puts an SVG y coordinate, y0 + 60 * (1 - v), exactly on one
SPECIAL = [0.0, 1.0, 1e-17, 0.125, 0.375] + [
    1.0 - w / 60.0 for w in (0.125, 0.375, 5.625, 30.125)]
FACTORS = [1, 3, 8]
LENGTHS = [1, 2, 57]


def attention_rows(t, factor, seed):
    """Three rows of T * factor values; every other value of each row is
    one of SPECIAL, the rest are uniform draws."""
    rng = np.random.default_rng(seed)
    n = t * factor
    rows = rng.uniform(size=(3, n))
    for r in range(3):
        for i in range(0, n, 2):
            rows[r, i] = SPECIAL[(i // 2 + 3 * r) % len(SPECIAL)]
    return tuple(rows)


def make_video(t, gt_segments):
    return VideoSample(id="v", label=np.array([0.5, 0.5]),
                       rgb=np.zeros((t, 2)), flow=np.zeros((t, 2)),
                       gt_segments=gt_segments)


class TestAttentionCsv:
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("t", LENGTHS)
    @pytest.mark.parametrize("pseudo", [None, "hard", "soft"])
    def test_bytes_match_reference(self, tmp_path, factor, t, pseudo):
        attention = attention_rows(t, factor, seed=t * 10 + factor)
        values = None
        if pseudo == "hard":
            values = (np.arange(t) % 2).astype(np.float64)
        elif pseudo == "soft":
            values = np.resize(SPECIAL, t)
        pipeline.write_attention_csv(tmp_path / "new.csv", attention,
                                     factor, pseudo=values)
        reference_csv(tmp_path / "ref.csv", attention, factor,
                      pseudo=values)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_pseudo_of_wrong_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline.write_attention_csv(tmp_path / "a.csv",
                                         attention_rows(4, 2, seed=0), 2,
                                         pseudo=np.zeros(3))


class TestAttentionSvg:
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("t", LENGTHS)
    @pytest.mark.parametrize("gt", [None, "empty", "segments"])
    @pytest.mark.parametrize("with_proposals", [False, True])
    def test_bytes_match_reference(self, tmp_path, factor, t, gt,
                                   with_proposals):
        gt_segments = {None: None, "empty": [],
                       "segments": [(1, 1, 1), (1, t, 2)]}[gt]
        video = make_video(t, gt_segments)
        proposals = []
        if with_proposals:
            proposals = [ActionProposal("v", 0.0, float(t), 1, 0.9),
                         ActionProposal("v", 0.125, 0.375 + t - 1, 2, 0.1)]
        attention = attention_rows(t, factor, seed=t * 10 + factor)
        pipeline.write_attention_svg(tmp_path / "new.svg", video, attention,
                                     proposals)
        reference_svg(tmp_path / "ref.svg", video, attention, proposals)
        assert (tmp_path / "new.svg").read_bytes() == \
            (tmp_path / "ref.svg").read_bytes()

    def test_x_on_rounding_half_matches_reference(self, tmp_path):
        # 2,560 steps put step i at x = 0.25 * i + 0.125, a .2f half
        video = make_video(320, [(3, 40, 1)])
        attention = attention_rows(320, 8, seed=3)
        pipeline.write_attention_svg(tmp_path / "new.svg", video, attention,
                                     [])
        reference_svg(tmp_path / "ref.svg", video, attention, [])
        assert (tmp_path / "new.svg").read_bytes() == \
            (tmp_path / "ref.svg").read_bytes()
