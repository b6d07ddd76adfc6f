"""The plot writers against the per-element writers they replaced: every
file they write must keep its bytes, whatever videos the same process
wrote before; and the plot bundle's worker processes, whose number
changes no file and no error."""

import csv
import json
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wtal import (basemodel, cli, consensus, localization, parallel,
                  pipeline, synthdata)
from wtal.config import (LocalizationConfig, LossConfig, ModelConfig,
                         RefinementConfig)
from wtal.formats import ActionProposal, DataError, Dataset
from wtal.numkit import fuse_attention
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


def ulps_from(value, steps):
    """The float ``steps`` representable values above ``value`` (below it
    for negative ``steps``); value is positive and finite."""
    return float((np.array(value).view(np.int64) + steps).view(np.float64))


# each class of value that the CSV writer formats by repr rather than from
# arrays: 0.0 and 1.0; powers of two; values below 1e-10, subnormals
# included; and values at and just below a power of ten, where the
# 17-digit decimal carries into the next exponent. Then the exponent
# notation of [1e-10, 1e-4), values of [0, 1] and every float64.
CSV_VALUE = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(1, 60).map(lambda k: 2.0 ** -k),
    st.floats(0.0, 1e-10, exclude_max=True),
    st.tuples(st.integers(1, 10), st.integers(-40, 0))
    .map(lambda pair: ulps_from(10.0 ** -pair[0], pair[1])),
    st.floats(1e-10, 1e-4, exclude_max=True),
    st.floats(0.0, 1.0),
    st.floats())


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

    @pytest.mark.parametrize("factor", [1, 8])
    @pytest.mark.parametrize("t", [1, 5])
    @pytest.mark.parametrize("with_pseudo", [False, True])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_are_csv_writer_cells_of_repr(self, tmp_path, factor, t,
                                                with_pseudo, data):
        n = t * factor
        attention = tuple(np.array(data.draw(
            st.lists(CSV_VALUE, min_size=n, max_size=n)), dtype=np.float64)
            for _ in range(3))
        pseudo = None
        if with_pseudo:
            pseudo = np.array(data.draw(
                st.lists(CSV_VALUE, min_size=t, max_size=t)),
                dtype=np.float64)
        pipeline.write_attention_csv(tmp_path / "new.csv", attention,
                                     factor, pseudo=pseudo)
        reference_csv(tmp_path / "ref.csv", attention, factor,
                      pseudo=pseudo)
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


# ---------------------------------------------------------------------------
# the "%.2f" formatter of the SVG coordinates

def half_or_neighbour(pair):
    """(k + 0.5) / 100, or the float one ulp below or above it."""
    k, step = pair
    value = (k + 0.5) / 100
    return float(np.nextafter(value, step * np.inf)) if step else value


# every float64 (NaN, +-inf, -0.0, subnormals and the huge among them);
# the fast path's range and beyond it, up to 1000.00 and past it; the
# rounding halves (k + 0.5) / 100 and their neighbours, negative ones
# too; and exact halves such as 0.125, where "%.2f" rounds to even
COORDINATE = st.one_of(
    st.floats(),
    st.floats(0.0, 1100.0),
    st.tuples(st.integers(-1000, 110_000), st.sampled_from([-1, 0, 1]))
    .map(half_or_neighbour),
    st.integers(-80, 8000).map(lambda k: k / 8),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     1e-17, 5e-324, 999.994999, 999.995, 999.999, 1000.0,
                     1000.005, 1e300, -1e300]))


class TestFormat2f:
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(COORDINATE, max_size=40),
           sep=st.sampled_from(", "))
    def test_every_element_is_python_format(self, values, sep):
        fields = pipeline._format_2f(np.array(values, dtype=np.float64), sep)
        assert fields.dtype == np.uint8 and len(fields) == len(values)
        assert [row[row != 0].tobytes().decode("ascii")
                for row in fields] == [f"{v:.2f}{sep}" for v in values]

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(COORDINATE, min_size=1, max_size=30),
           factor=st.sampled_from(FACTORS))
    def test_svg_bytes_match_reference(self, tmp_path_factory, values,
                                       factor):
        """Any attention values, so that y coordinates and whole
        polylines leave the fast path too."""
        t = len(values)
        row = np.resize(np.array(values, dtype=np.float64), t * factor)
        attention = (row, row[::-1].copy(), np.roll(row, 1))
        out = tmp_path_factory.mktemp("svg")
        video = make_video(t, [(1, t, 1)])
        # y0 + 60 * (1 - v) overflows for the largest v, in both writers
        with np.errstate(over="ignore"):
            pipeline.write_attention_svg(out / "new.svg", video, attention,
                                         [])
            reference_svg(out / "ref.svg", video, attention, [])
        assert (out / "new.svg").read_bytes() == \
            (out / "ref.svg").read_bytes()


# ---------------------------------------------------------------------------
# the shortest round-trip repr of the CSV attention values

def neighbour(value, step):
    """value, or the float one ulp below (step -1) or above (step 1) it."""
    return float(np.nextafter(value, step * np.inf)) if step else value


# every float64 (NaN, +-inf, +-0.0, subnormals); the array path's range
# [1e-10, 1) and its exponent-notation part below 1e-4; decimals of
# [1e-4, 1) with 1 to 16 places and their neighbours, where the shortest
# digits are few; the powers of two 2**-1 .. 2**-40, which repr formats;
# k / 2**b, whose decimals end in 5 and so give the rounding ties; the
# neighbours of 1e-1 .. 1e-11, where the decimal exponent changes; and
# the float below 1.0
REPR_VALUE = st.one_of(
    st.floats(),
    st.floats(1e-10, 1.0, exclude_max=True),
    st.floats(1e-10, 1e-4),
    st.tuples(st.floats(1e-4, 1.0, exclude_max=True), st.integers(1, 16),
              st.sampled_from([-1, 0, 1]))
    .map(lambda t: neighbour(round(t[0], t[1]), t[2])),
    st.integers(1, 40).map(lambda k: 2.0 ** -k),
    st.tuples(st.integers(1, 2 ** 40), st.integers(1, 60))
    .map(lambda t: t[0] / 2.0 ** t[1]),
    st.tuples(st.integers(1, 11), st.sampled_from([-1, 0, 1]))
    .map(lambda pair: neighbour(10.0 ** -pair[0], pair[1])),
    st.just(neighbour(1.0, -1)))


def sigmoid_attention(t, factor, seed):
    """Both streams' attention as the plot writes it: sigmoids of seeded
    logits upsampled by ``factor``, and their fusion. ``seed`` is anything
    np.random.default_rng takes."""
    rng = np.random.default_rng(seed)
    rgb, flow = (localization.upsample_linear(
        1.0 / (1.0 + np.exp(-rng.normal(scale=4.0, size=t))), factor)
        for _ in range(2))
    return rgb, flow, fuse_attention(rgb, flow, 0.5)


def field_texts(fields):
    """The text of each _repr_fields row: the row without its padding."""
    assert fields.dtype == np.uint8
    assert fields.shape[1:] == (pipeline._FIELD,)
    data = fields.tobytes().decode("ascii")
    return [data[i:i + pipeline._FIELD].replace("\0", "")
            for i in range(0, len(data), pipeline._FIELD)]


class TestFormatRepr:
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(REPR_VALUE, max_size=40))
    def test_every_element_is_repr(self, values):
        values = np.array(values, dtype=np.float64)
        assert field_texts(pipeline._repr_fields(values)) == \
            [repr(v) for v in values.tolist()]

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.uniform(size=100_000),
        lambda rng: 10.0 ** rng.uniform(-11, 0, size=100_000),
        lambda rng: (rng.integers(1, 2 ** 30, size=100_000)
                     / 2.0 ** rng.integers(1, 50, size=100_000)),
        lambda rng: np.concatenate(sigmoid_attention(4000, 8, rng))],
        ids=["uniform", "log-uniform", "dyadic", "sigmoid"])
    def test_many_seeded_values_are_repr(self, draw):
        values = draw(np.random.default_rng(7))
        assert field_texts(pipeline._repr_fields(values)) == \
            [repr(v) for v in values.tolist()]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_attention_takes_the_array_path(self, seed):
        """Fewer than 1% of the plot's attention values may fall back to
        repr: identical bytes alone would not show a path that formats
        every value by repr."""
        values = np.concatenate(sigmoid_attention(240, 8, seed))
        fast = pipeline._shortest_digits(values)[2]
        assert np.count_nonzero(~fast) < 0.01 * len(values)


# ---------------------------------------------------------------------------
# write_plot_bundle's worker processes

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A saved tiny dataset, models trained briefly on it and saved as
    checkpoints, and both kinds of pseudo GT of its train split."""
    root = tmp_path_factory.mktemp("plot_workers")
    synthdata.save(synthdata.generate(synthdata.GeneratorConfig(
        num_train=5, num_test=5, num_classes=3, feature_dim=8,
        t_range=(15, 25), actions_per_video=(1, 2), seed=4)),
        root / "data")
    dataset = synthdata.load(root / "data")
    model_cfg = ModelConfig(feature_dim=dataset.feature_dim,
                            num_classes=dataset.num_classes)
    refine_cfg = RefinementConfig(iterations=0, epochs_initial=3)
    models = consensus.run_refinement(dataset.train, model_cfg,
                                      LossConfig(), refine_cfg,
                                      seed=4).models
    for stream, model in models.items():
        basemodel.save_checkpoint(root / f"{stream}.ckpt", model, meta={})
    pseudo = {kind: consensus.compute_pseudo_gt(
        models, dataset.train, RefinementConfig(kind=kind))
        for kind in ("hard", "soft")}
    return {"root": root, "dataset": dataset, "models": models,
            "pseudo": pseudo, "beta": refine_cfg.beta}


def plot_argv(trained, out):
    root = trained["root"]
    return ["plot", "--checkpoint-rgb", str(root / "rgb.ckpt"),
            "--checkpoint-flow", str(root / "flow.ckpt"),
            "--dataset", str(root / "data"), "--split", "test",
            "--out", str(out)]


def files_of(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def reference_plot(out_dir, models, video, loc_cfg, beta):
    """One video's CSV and SVG by the reference writers."""
    outs = pipeline.stream_outputs(models, video)
    proposals = localization.localize(video.id, outs["rgb"], outs["flow"],
                                      loc_cfg, beta, "fused")
    rgb, flow = (localization.upsample_linear(outs[s].attention,
                                              loc_cfg.upsample_factor)
                 for s in consensus.STREAMS)
    attention = (rgb, flow, fuse_attention(rgb, flow, beta))
    reference_csv(out_dir / f"{video.id}.csv", attention,
                  loc_cfg.upsample_factor)
    reference_svg(out_dir / f"{video.id}.svg", video, attention, proposals)


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """A saved data set for the models of ``trained`` whose test videos are
    long, short, then long again: T 57, 1, 320, 57."""
    root = tmp_path_factory.mktemp("mixed")
    rng = np.random.default_rng(5)

    def video(name, t):
        return VideoSample(id=name, label=np.array([0.5, 0.5, 0.0]),
                           rgb=rng.normal(size=(t, 8)),
                           flow=rng.normal(size=(t, 8)),
                           gt_segments=[(1, t, 1), (t, t, 2)])

    synthdata.save(Dataset(
        class_names=["a", "b", "c"], feature_dim=8,
        train=[video("train0", 20)],
        test=[video(f"m{i}-{t}", t) for i, t in enumerate((57, 1, 320, 57))]),
        root / "data")
    return {"root": root, "dataset": synthdata.load(root / "data")}




class TestPlotWorkers:
    @pytest.mark.parametrize("case", ["gt", "hard", "soft", "single"])
    def test_files_do_not_depend_on_workers(self, trained, tmp_path, case,
                                            set_cpus, assert_no_child_left):
        dataset = trained["dataset"]
        videos = dataset.train if case in ("hard", "soft") else dataset.test
        videos = videos[:1] if case == "single" else videos
        pseudo = trained["pseudo"].get(case, {})
        files = {}
        for workers in (1, 2, 3, len(videos) + 2, parallel.cpus()):
            set_cpus(workers)
            out = tmp_path / f"workers-{workers}"
            pipeline.write_plot_bundle(out, trained["models"], videos,
                                       LocalizationConfig(), trained["beta"],
                                       pseudo_by_video=pseudo)
            assert_no_child_left()
            files[workers] = files_of(out)
        assert len(files[1]) == 2 * len(videos)
        svg = "".join(data.decode() for name, data in files[1].items()
                      if name.endswith(".svg"))
        assert 'fill="#cccccc"' in svg           # GT rectangles
        if case != "single":
            assert 'stroke-width="1.5"' in svg   # proposal rectangles
        csv_header = files[1][f"{videos[0].id}.csv"].split(b"\r\n")[0]
        assert csv_header.endswith(b",pseudo_gt") == bool(pseudo)
        for workers, found in files.items():
            assert found == files[1], workers

    def test_mixed_lengths_and_factors_in_one_process(
            self, trained, mixed, tmp_path, capsys, set_cpus,
            assert_no_child_left):
        """Videos of T 57, 1, 320 and 57 at factors 8, 1 and 3, one after
        the other in this process and its workers, by write_plot_bundle
        and by ``wtal plot``: every file is the reference writers'."""
        models, beta = trained["models"], trained["beta"]
        videos = mixed["dataset"].test
        all_cpus = parallel.cpus()
        for factor in (8, 1, 3):
            loc_cfg = LocalizationConfig(upsample_factor=factor)
            ref = tmp_path / f"ref-{factor}"
            ref.mkdir()
            for video in videos:
                reference_plot(ref, models, video, loc_cfg, beta)
            expected = files_of(ref)
            for workers in (1, 2, 3):
                set_cpus(workers)
                out = tmp_path / f"bundle-{factor}-{workers}"
                pipeline.write_plot_bundle(out, models, videos, loc_cfg,
                                           beta, pseudo_by_video={})
                assert_no_child_left()
                assert files_of(out) == expected, (factor, workers)
            config = tmp_path / f"config-{factor}.json"
            config.write_text(json.dumps(
                {"localization": {"upsample_factor": factor}}))
            for workers in (1, all_cpus):
                set_cpus(workers)
                out = tmp_path / f"cli-{factor}-{workers}"
                argv = plot_argv(trained, out)
                argv[argv.index("--dataset") + 1] = str(mixed["root"] / "data")
                assert cli.main([*argv, "--config", str(config)]) == 0
                assert_no_child_left()
                capsys.readouterr()
                assert files_of(out) == expected, (factor, workers)

    # with 5 videos, 2 workers give the parent videos 0, 2, 4 and a child
    # 1, 3; 3 workers give the parent 0, 3 and the children 1, 4 and 2
    @pytest.mark.parametrize("bad", [(1,), (2,), (0, 3), (1, 2), (3, 4)])
    def test_failure_is_the_serial_one(self, trained, tmp_path, capsys,
                                       set_cpus, bad, assert_no_child_left):
        videos = trained["dataset"].test
        out = tmp_path / "plots"
        results = []
        for workers in (1, 2, 3):
            shutil.rmtree(out, ignore_errors=True)
            for index in bad:
                (out / f"{videos[index].id}.csv").mkdir(parents=True)
            set_cpus(workers)
            code = cli.main(plot_argv(trained, out))
            assert_no_child_left()
            captured = capsys.readouterr()
            assert captured.out == ""
            results.append((code, captured.err))
        first = out / f"{videos[bad[0]].id}.csv"
        assert results[0] == (2, f"error: [Errno 21] Is a directory: "
                                 f"{str(first)!r}\n")
        assert results[1:] == results[:1] * 2

    @pytest.mark.parametrize("death", ["signal", "exit"])
    def test_child_ending_without_report_is_data_error(self, trained,
                                                       tmp_path, monkeypatch,
                                                       death, set_cpus,
                                                       assert_no_child_left):
        parent = os.getpid()
        real = pipeline._plot_video

        def plot_video(*args):
            if os.getpid() != parent:
                if death == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            real(*args)

        monkeypatch.setattr(pipeline, "_plot_video", plot_video)
        set_cpus(3)
        out = tmp_path / "plots"
        with pytest.raises(DataError) as info:
            pipeline.write_plot_bundle(out, trained["models"],
                                       trained["dataset"].test,
                                       LocalizationConfig(), trained["beta"],
                                       pseudo_by_video={})
        assert_no_child_left()
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith(f"{out}: the plot worker for video "
                                  "index 1 ended with ")

    def test_forks_safely_with_blas_threads_live(self, trained, tmp_path,
                                                 capsys, python_env,
                                                 set_cpus):
        """``wtal plot`` in a fresh interpreter whose BLAS may start its
        own threads, and whose stdout is a block-buffered pipe. A child
        that wrote out the inherited buffer, returned into the caller or
        ran the interpreter's exit handlers would add a line."""
        env = python_env(drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "PYTHONUNBUFFERED"))
        script = ("import atexit, sys\n"
                  "from wtal import cli\n"
                  "print('before')\n"
                  "atexit.register(print, 'at exit')\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        out = tmp_path / "plots"
        proc = subprocess.run(
            [sys.executable, "-c", script, *plot_argv(trained, out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "before", f"wrote plot data for 5 videos -> {out}", "at exit"]
        set_cpus(1)
        assert cli.main(plot_argv(trained, tmp_path / "serial")) == 0
        capsys.readouterr()
        assert files_of(out) == files_of(tmp_path / "serial")
