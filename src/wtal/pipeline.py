"""Glue between trained models, localization, and evaluation: the
in-process experiment runner, and the plot-data emission (per-video
attention CSV + SVG)."""

import os

import numpy as np

from . import basemodel, consensus, evaluation, localization, parallel
from .consensus import STREAMS
from .numkit import fuse_attention


def stream_outputs(models, video):
    """Both streams' inference outputs, T-CAM included, on one video."""
    return {s: basemodel.infer(models[s], video.features(s))
            for s in STREAMS}


def localize_dataset(models, videos, loc_cfg, beta, mode):
    proposals = []
    for video in videos:
        outs = stream_outputs(models, video)
        proposals.extend(localization.localize(video.id, outs["rgb"],
                                               outs["flow"], loc_cfg, beta,
                                               mode=mode))
    return proposals


def run_experiment(dataset, sections, seed):
    """Refinement training on the train split, then each iteration's
    checkpoints scored on the test split in every localization.MODES
    mode, in memory: no file is written. ``sections`` is what
    config.resolved_config returns. Returns (RefinementResult, reports):
    reports[n][mode] is the EvalReport that `wtal localize --mode` and
    `wtal eval` give from the iteration-n checkpoints."""
    result = consensus.run_refinement(dataset.train, sections["model"],
                                      sections["loss"],
                                      sections["refinement"], seed)
    beta = sections["refinement"].beta
    gts = evaluation.gt_from_videos(dataset.test)
    reports = []
    for snapshot in result.checkpoints:
        reports.append({mode: evaluation.evaluate(
            localize_dataset(snapshot, dataset.test,
                             sections["localization"], beta, mode),
            gts, sections["evaluation"].thresholds, dataset.num_classes)
            for mode in localization.MODES})
    return result, reports


# ---------------------------------------------------------------------------
# plot emission

def _ascii_fields(texts, width=None):
    """ASCII texts as the rows of a uint8 array, each padded on the right
    with zero bytes to ``width`` bytes (default: the longest text)."""
    if width is None:
        width = max(map(len, texts), default=0)
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts)
                         .encode("ascii"), np.uint8).reshape(len(texts), width)


# repr((j + 0.5) / factor), the CSV time of row j, depends on nothing but j
# and the factor. Per factor, a process keeps the longest such column it
# has written so far, as byte rows, and slices it for each video; no file
# depends on what is kept.
_TIMES = {}


def _time_fields(n, factor):
    """repr((j + 0.5) / factor) for j = 0, ..., n - 1, as the rows of a
    uint8 array; zero bytes in a row are padding."""
    times = _TIMES.get(factor, np.empty((0, 0), np.uint8))
    if len(times) < n:
        new = _ascii_fields([repr(t) for t in ((np.arange(len(times), n)
                                                 + 0.5) / factor).tolist()])
        width = max(times.shape[1], new.shape[1])
        times = _TIMES[factor] = np.concatenate(
            [np.pad(block, ((0, 0), (0, width - block.shape[1])))
             for block in (times, new)])
    return times[:n]


_CRLF = np.frombuffer(b"\r\n", np.uint8)


def write_attention_csv(path, attention, factor, pseudo):
    """Per-video CSV of the upsampled (rgb, flow, fused) attention rows;
    one row per upsampled time step (T * factor rows). ``pseudo`` holds
    one value per snippet, or is None for no pseudo_gt column. Every
    number is written as its shortest round-trip ``repr``, as csv.writer
    writes it, each row ending in \\r\\n. The file is one byte array:
    the time column is sliced from one formatted per process
    (``_time_fields``), the three attention columns and the T pseudo GT
    values are formatted in one call (``_repr_fields``) and each pseudo
    GT field is repeated ``factor`` times; the columns are laid side by
    side with their separators, and the fields' zero-byte padding is
    dropped with one mask. Rows of unequal length are a ValueError."""
    n = len(attention[0])
    values = list(attention)
    header = ["time", "attention_rgb", "attention_flow", "attention_fuse"]
    if pseudo is not None:
        header.append("pseudo_gt")
        values.append(pseudo)
    if (any(len(row) != n for row in attention)
            or (pseudo is not None and len(pseudo) * factor != n)):
        raise ValueError("attention rows and pseudo GT of unequal length")
    fields = _repr_fields(np.concatenate(values))
    columns = [_time_fields(n, factor)]
    columns += [fields[i * n:(i + 1) * n] for i in range(3)]
    if pseudo is not None:
        columns.append(np.repeat(fields[3 * n:], factor, axis=0))
    rows = np.empty((n, sum(c.shape[1] + 1 for c in columns) + 1), np.uint8)
    start = 0
    for column in columns:
        end = start + column.shape[1]
        rows[:, start:end] = column
        rows[:, end] = ord(",")
        start = end + 1
    rows[:, -2:] = _CRLF
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii")
                 + rows[rows != 0].tobytes())


# Shortest round-trip digits of a float64 v in [1e-10, 1), exactly, for a
# whole array (Steele & White 1990; Adams, "Ryu", 2018). With v = m 2**-q
# (np.frexp, 2**52 <= m < 2**53) and e = floor(log10 v), the nearest
# 17-digit decimal is N 10**-p, p = 16 - e: N = round(M / 2**s), half to
# even, with M = m 5**p < 2**114 held in two uint64 words and s = q - p in
# [33, 59]; R = M - N 2**s is the exact remainder. N + A, in the same
# units, parses back to v iff 2 |A 2**s - R| < 5**p (5**p is odd, so the
# tie that parsing would round to even cannot occur): iff A lies in an
# integer interval [-below, above] around 0, at most 23 wide. The decimal
# repr prints is the multiple of 10**j nearest to M / 2**s, a tie to even,
# with its trailing zeros dropped, for the largest j such that a multiple
# of 10**j lies in [N - below, N + above]; with j capped at 2 it is the
# same number, as that interval holds at most one multiple of 100. repr
# itself formats every value outside the domain; powers of two (m =
# 2**52, whose neighbour below is nearer than the one above); and a value
# where e is off (the floor of M / 2**s has not 17 digits) or where
# rounding carries into an 18th digit.
_POW5 = 5 ** np.arange(17, 27, dtype=np.uint64)     # 5**p for e = -1 .. -10
_POW10 = 10 ** np.arange(17, dtype=np.int64)
_LOW32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)


def _shortest_digits(values):
    """For each value of a float64 array: (digits, e, fast). Where
    ``fast``, the shortest decimal that parses back to v is the int64
    ``digits``, a 17-digit integer, times 10**(e - 16), with its trailing
    zeros dropped; elsewhere ``digits`` is 10**16."""
    domain = (values >= 1e-10) & (values < 1.0)
    v = np.where(domain, values, 0.5)
    f, exp2 = np.frexp(v)
    m = (f * 2.0 ** 53).astype(np.int64).view(np.uint64)
    e = np.clip(np.floor(np.log10(v)).astype(np.int64), -10, -1)
    c = _POW5[-1 - e]
    s = (37 - exp2 + e).astype(np.uint64)
    # M = hi 2**64 + low, from the 32-bit halves of m and c
    mh, ml = m >> np.uint64(32), m & _LOW32
    ch, cl = c >> np.uint64(32), c & _LOW32
    mid = ml * ch + mh * cl
    lo = ml * cl
    low = lo + (mid << np.uint64(32))
    hi = mh * ch + (mid >> np.uint64(32)) + (low < lo)
    floor = ((hi << (np.uint64(64) - s)) | (low >> s)).view(np.int64)
    rem = low & ((_ONE << s) - _ONE)
    half = _ONE << (s - _ONE)
    up = (rem > half) | ((rem == half) & (floor & 1 == 1))
    n17 = floor + up
    # 2 R, and the interval: 2 A 2**s - 2 R within (-5**p, 5**p)
    shift = s.astype(np.int64) + 1
    r2 = (rem.view(np.int64) << 1) - (up.astype(np.int64) << shift)
    c = c.view(np.int64)
    whole, part = c >> shift, c & ((1 << shift) - 1)
    above = whole + ((part + r2) >> shift)
    below = whole + ((part - r2) >> shift)
    top, width = n17 + above, above + below
    j = ((top - top // 10 * 10 <= width).astype(np.intp)
         + (top - top // 100 * 100 <= width))
    power = _POW10[j]
    quotient = n17 // power
    twice = 2 * (n17 - quotient * power)
    quotient += (twice > power) | ((twice == power) & (
        (r2 > 0) | ((r2 == 0) & (quotient & 1 == 1))))
    digits = quotient * power
    fast = (domain & (f != 0.5) & (floor >= _POW10[16])
            & (digits < 10 * _POW10[16]))
    return np.where(fast, digits, _POW10[16]), e, fast


def _digit_words():
    """uint32 words of the 4 ASCII digits of 0, ..., 9999, then of the
    same with trailing zeros as zero bytes."""
    chars = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
             + np.uint8(ord("0")))
    stripped = chars.copy()
    tail = np.ones(len(chars), dtype=bool)
    for i in range(3, -1, -1):
        tail &= chars[:, i] == ord("0")
        stripped[tail, i] = 0
    return np.concatenate([chars, stripped]).view(np.uint32).ravel()


# A field is 28 bytes: 8 bytes of lead, right-aligned, then the 16 digits
# after the first in four words of _GROUP, with every trailing zero as a
# zero byte, then 4 zero bytes. Lead 10 k + d is "0." and k zeros then d
# for k = 0 .. 3 (e = -1 - k); for e <= -5 it is "d." (k = 4) or, with no
# nonzero digit after d, "d" (k = 5), and "e-05" etc. is written after the
# last digit. The 4 zero bytes leave room for it: a repr has at most 24
# bytes.
# _LEAD[0] and _LEAD[1] hold the first and the last 4 bytes of each lead.
_FIELD = 28
_GROUP = _digit_words()
_LEAD = np.frombuffer("".join(
    text.rjust(8, "\0") for text in [f"0.{'0' * k}{d}" for k in range(4)
                                     for d in range(10)]
    + [f"{d}." for d in range(10)] + [f"{d}" for d in range(10)]).encode(
        "ascii"), np.uint32).reshape(-1, 2).T.copy()
_SUFFIX = _ascii_fields([f"e-{k:02d}" for k in range(11)])


def _repr_fields(values):
    """repr(float(v)) of each value of a float64 array, in ASCII, as the
    rows of a uint8 array of _FIELD bytes; zero bytes in a row are
    padding. Values in [1e-10, 1) are formatted from arrays
    (``_shortest_digits``), each other value by repr."""
    digits, e, fast = _shortest_digits(values)
    first = digits // _POW10[16]
    rest = digits - first * _POW10[16]
    high = rest // _POW10[8]
    low = rest - high * _POW10[8]
    groups = []
    for eight in (high, low):
        four = eight // 10_000
        groups += [four, eight - four * 10_000]
    rows = np.empty((len(values), _FIELD // 4), np.uint32)
    rows[:, 6] = 0
    tail = np.ones(len(values), dtype=bool)     # no later nonzero digit
    for column in range(5, 1, -1):
        g = groups[column - 2]
        rows[:, column] = _GROUP[g + 10_000 * tail]
        tail &= g == 0
    lead = np.where(e >= -4, -1 - e, 4 + tail) * 10 + first
    rows[:, 0], rows[:, 1] = _LEAD[0][lead], _LEAD[1][lead]
    fields = rows.view(np.uint8)
    small = np.flatnonzero(e < -4)
    end = 8 + np.count_nonzero(fields[small, 8:24], axis=1)
    fields[small[:, None], end[:, None] + np.arange(4)] = _SUFFIX[-e[small]]
    slow = np.flatnonzero(~fast)
    fields[slow] = _ascii_fields([repr(v) for v in values[slow].tolist()],
                                 _FIELD)
    return fields


# "%.2f" % v prints the exact product 100 v rounded to an integer, a tie
# to even, as hundredths. For finite v >= 0 whose s = fl(100 v) is below
# 1e5, s is within 2**-37 of that product, so np.rint(s) is the same
# integer wherever s lies farther than _TIE_BAND from a half-integer.
# Every value whose 100 v is a half-integer is an odd eighth; for any v
# with 8 v integral s is exact, and np.rint rounds its ties to even as
# "%.2f" does. Every other value (negative, -0.0, not finite, too large,
# or in the band and not a multiple of 1/8) is formatted by "%.2f".
_TIE_BAND = 1e-9


# a fast-path field is 8 bytes: the integer part 0..1000 in bytes 0-3,
# ".dd" in bytes 4-6 and the separator in byte 7; its zero bytes are
# padding. The bytes are OR-ed, which is the same in either byte order.
_WHOLE = _ascii_fields([str(i) for i in range(1001)], 8).view(np.uint64)[:, 0]
_FRACTION = _ascii_fields([f"\0\0\0\0.{i:02d}" for i in range(100)],
                          8).view(np.uint64)[:, 0]
_SEPARATOR = {sep: _ascii_fields(["\0" * 7 + sep]).view(np.uint64)[0, 0]
              for sep in ", "}


def _format_2f(values, sep):
    """``f"{v:.2f}{sep}"`` of each value of a float64 array, in ASCII, as
    the rows of a uint8 array; zero bytes in a row are padding."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = values * 100.0
        eighths = values * 8.0
        fast = (~np.signbit(values) & (s < 1e5)
                & ((np.abs(s - np.floor(s) - 0.5) > _TIE_BAND)
                   | (eighths == np.floor(eighths))))
    hundredths = np.rint(np.where(fast, s, 0.0)).astype(np.intp)
    fields = (_WHOLE[hundredths // 100] | _FRACTION[hundredths % 100]
              | _SEPARATOR[sep]).view(np.uint8).reshape(-1, 8)
    slow = ~fast
    if slow.any():
        texts = [f"{v:.2f}{sep}" for v in values[slow].tolist()]
        width = max(8, *map(len, texts))
        fields = np.pad(fields, ((0, 0), (0, width - 8)))
        fields[slow] = _ascii_fields(texts, width)
    return fields


def _svg_polyline(x_fields, values, y0, height, color):
    """``x_fields`` are the x coordinates formatted by _format_2f with
    separator ",". The points string "x,y x,y ..." is one byte buffer with
    its padding dropped, decoded once."""
    y_fields = _format_2f(y0 + height * (1.0 - values), " ")
    buf = np.concatenate([x_fields, y_fields], axis=1).reshape(-1)
    points = buf[buf != 0].tobytes().decode("ascii")[:-1]
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{points}"/>')


def write_attention_svg(path, video, attention, proposals):
    """Small static figure: one row per upsampled attention sequence
    (rgb, flow, fused), ground-truth segments as gray boxes, proposals as
    green boxes. Each polyline's coordinates are formatted as "%.2f" from
    arrays (``_format_2f``); the x coordinates once, for all three."""
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
                                      loc_cfg, beta, "fused")
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
                      pseudo_by_video):
    """Write each video's attention CSV and SVG into ``out_dir``, with a
    pseudo_gt column for each video that ``pseudo_by_video`` maps to its
    pseudo GT.

    The videos are dealt over the CPUs in this process's affinity mask by
    ``parallel.fork_map``; no file and no error depends on their number.
    """
    os.makedirs(out_dir, exist_ok=True)

    def plot(video):
        _plot_video(out_dir, models, video, loc_cfg, beta,
                    pseudo_by_video.get(video.id))

    parallel.fork_map(
        plot, videos, parallel.cpus(),
        lambda first: f"{out_dir}: the plot worker for video index {first}")
