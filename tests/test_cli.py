import contextlib
import io
import json
import os
import pathlib
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtal
from wtal import cli, synthdata
from wtal.consensus import fuse_attention


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset plus one finished training run, shared by the read-only
    CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert cli.main(["gen-data", "--videos", "8", "--test-videos", "4",
                     "--classes", "3", "--dim", "8", "--seed", "5",
                     "--out", str(data_dir)]) == 0
    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "refinement": {"iterations": 1, "epochs_initial": 4,
                       "epochs_refine": 2},
    }))
    run_dir = root / "run"
    assert cli.main(["train", "--config", str(config_path),
                     "--dataset", str(data_dir), "--out", str(run_dir),
                     "--seed", "5", "--dump-pseudo-gt"]) == 0
    return {"root": root, "data": data_dir, "config": config_path,
            "run": run_dir}


@pytest.fixture(scope="module")
def proposals(workspace):
    """Proposals of the final checkpoints on the test split."""
    path = workspace["root"] / "proposals.json"
    run_dir = workspace["run"]
    assert cli.main(["localize",
                     "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                     "--checkpoint-flow", str(run_dir / "iter1_flow.ckpt"),
                     "--dataset", str(workspace["data"]),
                     "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def inputs(workspace, proposals, tmp_path_factory):
    """A private copy of the workspace's input files; for each kind of
    file, its path in the copy and a command that reads it."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    shutil.copytree(workspace["data"], data)
    pseudo = root / "pseudo"
    shutil.copytree(workspace["run"] / "pseudo_gt" / "iter1", pseudo)
    for stream in ("rgb", "flow"):
        shutil.copy(workspace["run"] / f"iter1_{stream}.ckpt",
                    root / f"{stream}.ckpt")
    shutil.copy(proposals, root / "proposals.json")
    (root / "config.json").write_text("{}")
    models = ["--checkpoint-rgb", str(root / "rgb.ckpt"),
              "--checkpoint-flow", str(root / "flow.ckpt"),
              "--dataset", str(data)]
    localize = ["localize", *models, "--out", str(root / "p.json")]
    evaluate = ["eval", "--proposals", str(root / "proposals.json"),
                "--dataset", str(data), "--out", str(root / "report")]
    manifest = json.loads((data / "manifest.json").read_text())
    test_video = next(v for v in manifest["videos"] if v["split"] == "test")
    return {
        "proposals": (root / "proposals.json", evaluate),
        "config": (root / "config.json",
                   evaluate + ["--config", str(root / "config.json")]),
        "manifest": (data / "manifest.json", localize),
        "pseudo-gt": (pseudo / "train_0000.csv",
                      ["plot", *models, "--split", "train",
                       "--pseudo-gt-dir", str(pseudo),
                       "--out", str(root / "plots")]),
        "checkpoint": (root / "rgb.ckpt", localize),
        "features": (data / test_video["rgb_file"], localize),
    }


def run_with(path, content, argv):
    """(exit code, stderr) of cli.main(argv) while the file at path holds
    content; the file's own bytes are put back afterwards."""
    clean = path.read_bytes()
    path.write_bytes(content)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        path.write_bytes(clean)
    return code, err.getvalue()


def mutate(data, edits):
    """data with each (kind, position, byte) edit applied in turn: flip
    xors the byte at position with a nonzero mask, insert puts a byte
    there, delete drops the byte there."""
    data = bytearray(data)
    for kind, position, byte in edits:
        if kind == "insert":
            data.insert(position % (len(data) + 1), byte)
        elif data:
            i = position % len(data)
            if kind == "flip":
                data[i] ^= byte or 0xff
            else:
                del data[i]
    return bytes(data)


EDITS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                           st.integers(0, 2 ** 32), st.integers(0, 255)),
                 min_size=1, max_size=3)


def poisoned_copy(workspace, tmp_path, split, value):
    """A copy of the workspace dataset whose first video of ``split`` has
    ``value`` at snippet 2, dimension 3 of its rgb features; returns the
    copy's directory and the poisoned file's name."""
    corrupt = tmp_path / "corrupt"
    synthdata.save(synthdata.load(workspace["data"]), corrupt)
    manifest = json.loads((corrupt / "manifest.json").read_text())
    entry = next(v for v in manifest["videos"] if v["split"] == split)
    path = corrupt / entry["rgb_file"]
    values = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
    values[manifest["D"] + 2] = value
    path.write_bytes(values.tobytes())
    return corrupt, entry["rgb_file"]


# small numbers are drawn often, so that some configs are valid
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.integers(0, 9) | st.floats(0, 1) | st.text(max_size=3))
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
               | st.dictionaries(st.text(max_size=3), JSON_SCALARS,
                                 max_size=2))
SECTION_FIELDS = [(name, key) for name, config_cls in cli.SECTIONS.items()
                  for key in cli._settable(config_cls)]


class TestGenData:
    def test_writes_manifest_and_features(self, workspace):
        data_dir = workspace["data"]
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["C"] == 3
        assert len(manifest["videos"]) == 12
        for entry in manifest["videos"]:
            assert (data_dir / entry["rgb_file"]).exists()
            assert (data_dir / entry["flow_file"]).exists()

    def test_rerun_identical_bytes(self, workspace, tmp_path):
        other = tmp_path / "data2"
        assert cli.main(["gen-data", "--videos", "8", "--test-videos", "4",
                         "--classes", "3", "--dim", "8", "--seed", "5",
                         "--out", str(other)]) == 0
        for path in sorted(workspace["data"].iterdir()):
            assert path.read_bytes() == (other / path.name).read_bytes()

    def test_missing_out_is_usage_error(self, capsys):
        assert cli.main(["gen-data", "--videos", "4"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestTrain:
    def test_artifacts(self, workspace):
        run_dir = workspace["run"]
        for iteration in (0, 1):
            for stream in ("rgb", "flow"):
                assert (run_dir / f"iter{iteration}_{stream}.ckpt").exists()
        log = (run_dir / "training_log.csv").read_text().splitlines()
        assert log[0] == ("iteration,epoch,stream,mean_cls_loss,"
                          "mean_att_loss,mean_gt_loss,mean_total_loss")
        # 2 streams x (4 + 2) epochs
        assert len(log) == 1 + 12

    def test_resolved_config_round_trip(self, workspace):
        path = workspace["run"] / "resolved_config.json"
        resolved = json.loads(path.read_text())
        assert resolved["seed"] == 5
        assert resolved["refinement"]["iterations"] == 1
        assert resolved["refinement"]["beta"] == 0.4
        assert resolved["localization"]["upsample_factor"] == 8
        assert "beta" not in resolved["localization"]
        assert resolved["model"] == {"conv_layers": 2, "embed_dim": None,
                                     "kernel_size": 3}
        reloaded = cli.load_run_config(path)
        assert reloaded.seed == 5
        assert reloaded.refinement["epochs_initial"] == 4

    def test_pseudo_gt_dump(self, workspace):
        pdir = workspace["run"] / "pseudo_gt" / "iter1"
        files = sorted(pdir.iterdir())
        assert len(files) == 8
        lines = files[0].read_text().splitlines()
        assert lines[0] == "snippet,pseudo_gt"
        values = {line.split(",")[1] for line in lines[1:]}
        assert values <= {"0.0", "1.0"}

    def test_deterministic_rerun(self, workspace, tmp_path):
        other = tmp_path / "run2"
        assert cli.main(["train", "--config", str(workspace["config"]),
                         "--dataset", str(workspace["data"]),
                         "--out", str(other), "--seed", "5"]) == 0
        assert (other / "training_log.csv").read_bytes() == \
            (workspace["run"] / "training_log.csv").read_bytes()
        for name in ("iter0_rgb.ckpt", "iter1_flow.ckpt"):
            assert (other / name).read_bytes() == \
                (workspace["run"] / name).read_bytes()

    def test_iterations_zero_two_checkpoints(self, workspace, tmp_path):
        config = tmp_path / "c0.json"
        config.write_text(json.dumps(
            {"refinement": {"iterations": 0, "epochs_initial": 2}}))
        out = tmp_path / "run0"
        assert cli.main(["train", "--config", str(config),
                         "--dataset", str(workspace["data"]),
                         "--out", str(out), "--seed", "1"]) == 0
        ckpts = sorted(p.name for p in out.glob("*.ckpt"))
        assert ckpts == ["iter0_flow.ckpt", "iter0_rgb.ckpt"]

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        assert cli.main(["train", "--dataset", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "r"), "--seed", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_field_reported(self, workspace, tmp_path,
                                           capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"refinement": {"iteratons": 2}}))
        assert cli.main(["train", "--config", str(config),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "r")]) == 2
        assert "iteratons" in capsys.readouterr().err

    @pytest.mark.parametrize("section,field", [
        ("model", "bogus"), ("model", "feature_dim"),
        ("model", "num_classes"), ("localization", "beta")])
    def test_unsettable_section_field_reported(self, workspace, tmp_path,
                                               capsys, section, field):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({section: {field: 1}}))
        assert cli.main(["train", "--config", str(config),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"config section {section!r}: unknown field {field!r}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("config,names", [
        ({"model": 5}, ["'model'"]),
        ({"refinement": {"beta": "x"}}, ["'refinement'", "'beta'"]),
        ({"refinement": {"iterations": 1.5}},
         ["'refinement'", "'iterations'"]),
        ({"localization": {"upsample_factor": 2.5}},
         ["'localization'", "'upsample_factor'"]),
        ({"loss": {"s": 2.5}}, ["'loss'", "'s'"]),
        ({"seed": "x"}, ["'seed'"]),
        ({"evaluation": {"thresold": [0.5]}}, ["'evaluation'", "'thresold'"]),
        ({"evaluation": {"thresholds": 0.5}},
         ["'evaluation'", "'thresholds'"]),
        ({"evaluation": {"thresholds": [1.5]}}, ["'evaluation'", "thresholds"]),
        ({"evaluation": {"thresholds": ["a"]}},
         ["'evaluation'", "'thresholds'"]),
        ({"evaluation": {"thresholds": [0.5, 0.5]}},
         ["'evaluation'", "thresholds"]),
        ({"generator": {}}, ["'generator'"]),
        ([1], ["[1]"]),
        ({"model": {"embed_dim": 0}}, ["'model'", "embed_dim"]),
        ({"refinement": {"epochs_initial": 0}},
         ["'refinement'", "epochs_initial"]),
        ({"refinement": {"smoothing_kernel": -1}},
         ["'refinement'", "smoothing_kernel"]),
        ({"refinement": {"learning_rate": -1}},
         ["'refinement'", "learning_rate"]),
        ({"localization": {"top_k": 0}}, ["'localization'", "top_k"]),
        ({"refinement": {"beta": 1.5}}, ["'refinement'", "beta"]),
    ], ids=["model-not-object", "beta-string", "iterations-float",
            "upsample-float", "s-float", "seed-string", "evaluation-typo",
            "thresholds-scalar", "threshold-above-1", "threshold-string",
            "threshold-repeated", "generator-section", "top-level-list",
            "embed-dim-0", "epochs-0", "smoothing-negative",
            "learning-rate-negative", "top-k-0", "beta-above-1"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_config_is_one_line_data_error(self, workspace, tmp_path,
                                               capsys, command, config,
                                               names):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r"
        argv = {"train": ["train", "--out", str(out)],
                "eval": ["eval", "--proposals", str(tmp_path / "p.json"),
                         "--out", str(out)]}[command]
        assert cli.main(argv + ["--config", str(path),
                                "--dataset", str(workspace["data"])]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: "), err
        assert all(name in err for name in names), err
        assert not out.exists()

    @settings(max_examples=80, deadline=None)
    @given(values=st.dictionaries(st.sampled_from(SECTION_FIELDS),
                                  JSON_VALUES, min_size=1, max_size=3))
    def test_any_section_value_exits_0_or_2(self, workspace, proposals,
                                            values):
        config = {}
        for (section, key), value in values.items():
            config.setdefault(section, {})[key] = value
        path = workspace["root"] / "fuzz.json"
        path.write_text(json.dumps(config))
        assert cli.main(["eval", "--config", str(path),
                         "--proposals", str(proposals),
                         "--dataset", str(workspace["data"]),
                         "--out", str(workspace["root"] / "fuzz")]) in (0, 2)

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{\n  "seed": 1,\n}\n')
        assert cli.main(["train", "--config", str(config),
                        "--dataset", "x", "--out", "y"]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_features_are_data_error(self, workspace, tmp_path,
                                                capsys, value):
        corrupt, feature_file = poisoned_copy(workspace, tmp_path, "train",
                                              value)
        assert cli.main(["train", "--config", str(workspace["config"]),
                         "--dataset", str(corrupt),
                         "--out", str(tmp_path / "r"), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert feature_file in err
        assert "snippet 2, dimension 3 is not finite" in err

    def test_diverging_training_exit_code_3(self, workspace, tmp_path):
        # a child process: pytest records numpy's warnings, so capsys
        # would not see them
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"refinement": {"iterations": 0, "epochs_initial": 1,
                            "learning_rate": 1e300}}))
        src = str(pathlib.Path(wtal.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "wtal.cli", "train", "--config",
             str(config), "--dataset", str(workspace["data"]),
             "--out", str(tmp_path / "r"), "--seed", "0"],
            capture_output=True, text=True, env=env)
        assert run.returncode == 3
        assert run.stderr.count("\n") == 1, run.stderr
        assert run.stderr.startswith("numeric failure: ")
        assert "stream=rgb" in run.stderr
        assert "epoch=0" in run.stderr


class TestLocalizeEval:
    def test_localize_then_eval(self, workspace, tmp_path, capsys):
        run_dir = workspace["run"]
        proposals = tmp_path / "proposals.json"
        assert cli.main(["localize",
                         "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(workspace["data"]),
                         "--split", "test",
                         "--out", str(proposals)]) == 0
        payload = json.loads(proposals.read_text())
        assert "results" in payload
        capsys.readouterr()
        out_base = tmp_path / "report"
        assert cli.main(["eval", "--proposals", str(proposals),
                         "--dataset", str(workspace["data"]),
                         "--split", "test",
                         "--out", str(out_base)]) == 0
        stdout = capsys.readouterr().out
        assert "average mAP" in stdout
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["mAP"]) == {f"{0.1 * i:g}" for i in range(1, 10)}
        assert (tmp_path / "report.txt").exists()

    def test_localize_rerun_identical_bytes(self, workspace, tmp_path):
        run_dir = workspace["run"]
        args = ["localize",
                "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                "--checkpoint-flow", str(run_dir / "iter1_flow.ckpt"),
                "--dataset", str(workspace["data"]), "--split", "test"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_test_features_are_data_error(self, workspace,
                                                     tmp_path, capsys):
        corrupt, feature_file = poisoned_copy(workspace, tmp_path, "test",
                                              np.nan)
        run_dir = workspace["run"]
        out = tmp_path / "p.json"
        assert cli.main(["localize",
                         "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(corrupt), "--split", "test",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert feature_file in err
        assert "value nan at snippet 2, dimension 3 is not finite" in err
        assert not out.exists()

    def test_checkpoint_stream_mismatch(self, workspace, tmp_path, capsys):
        run_dir = workspace["run"]
        assert cli.main(["localize",
                         "--checkpoint-rgb",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "p.json")]) == 2
        assert "modality" in capsys.readouterr().err

    def test_checkpoint_shape_mismatch(self, workspace, tmp_path, capsys):
        other_data = tmp_path / "wide"
        assert cli.main(["gen-data", "--videos", "2", "--test-videos", "1",
                         "--classes", "3", "--dim", "16", "--seed", "0",
                         "--out", str(other_data)]) == 0
        run_dir = workspace["run"]
        capsys.readouterr()
        assert cli.main(["localize",
                         "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(other_data),
                         "--out", str(tmp_path / "p.json")]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_eval_without_ground_truth_is_data_error(self, workspace,
                                                     proposals, tmp_path,
                                                     capsys):
        data = tmp_path / "data"
        synthdata.save(synthdata.load(workspace["data"]), data)
        manifest = json.loads((data / "manifest.json").read_text())
        for entry in manifest["videos"]:
            entry.pop("gt_segments")
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["eval", "--proposals", str(proposals),
                         "--dataset", str(data),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {data / 'manifest.json'}: video "
                              "test_0000 has no field 'gt_segments'"), err
        assert not list(tmp_path.glob("report*"))

    def test_unknown_manifest_split(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        synthdata.save(synthdata.load(workspace["data"]), data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["videos"][0]["split"] = "val"
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["eval", "--proposals", str(tmp_path / "p.json"),
                         "--dataset", str(data),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err
        assert manifest["videos"][0]["id"] in err
        assert "split 'val'" in err

    @pytest.mark.parametrize("key,value", [
        ("label", "action_9"), ("label", None), ("score", None),
        ("segment", None), ("score", float("nan")),
        ("segment", [5.0, 1.0]), ("segment", [1.0]),
        ("segment", [0.0, float("inf")]),
    ], ids=["unknown-label", "no-label", "no-score", "no-segment",
            "nan-score", "inverted-segment", "short-segment",
            "infinite-segment"])
    def test_bad_proposal_is_data_error(self, workspace, tmp_path, capsys,
                                        key, value):
        entry = {"label": "action_1", "score": 0.5, "segment": [1.0, 5.0]}
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"results": {"test_0000": [entry]}}))
        assert cli.main(["eval", "--proposals", str(path),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(path) in err and "test_0000" in err
        assert f"field {key!r}" in err

    @pytest.mark.parametrize("edit,expected", [
        (lambda videos: videos[1].pop("id"), "video #1: missing field 'id'"),
        *[(lambda videos, key=key: videos[1].pop(key),
           f"video train_0001: missing field {key!r}")
          for key in ("T", "label", "rgb_file", "flow_file")],
        (lambda videos: videos[1].update(id=videos[0]["id"]),
         "video train_0000: repeated video id"),
        (lambda videos: videos.__setitem__(1, "oops"),
         "video #1 is not an object"),
        (lambda videos: videos[1].update(T="abc"),
         "video train_0001: field 'T' is \"abc\""),
        (lambda videos: videos[1].update(T=0),
         "video train_0001: field 'T' is 0"),
        (lambda videos: videos[1].update(label=[1, 0]),
         "video train_0001: field 'label'"),
        (lambda videos: videos[1].update(label="abc"),
         "video train_0001: field 'label'"),
        (lambda videos: videos[1].update(id=[1]), "field 'id' is [1]"),
        (lambda videos: videos[1].update(rgb_file=5),
         "video train_0001: field 'rgb_file' is 5"),
        (lambda videos: videos[1].update(split=["test"]),
         "video train_0001: unknown split"),
        (lambda videos: videos[1].update(gt_segments=5),
         "video train_0001: field 'gt_segments'"),
        (lambda videos: videos[1].update(gt_segments=[[1, 2]]),
         "video train_0001: field 'gt_segments'"),
        (lambda videos: videos[1].update(gt_segments=[[1, 2, 9]]),
         "video train_0001: field 'gt_segments' holds invalid segment"),
    ], ids=["no-id", "no-T", "no-label", "no-rgb_file", "no-flow_file",
            "repeated-id", "not-object", "T-string", "T-zero",
            "label-short", "label-string", "id-list", "rgb_file-number",
            "split-list", "gt-number", "gt-pair", "gt-category"])
    def test_bad_manifest_entry(self, workspace, tmp_path, capsys, edit,
                                expected):
        data = tmp_path / "data"
        synthdata.save(synthdata.load(workspace["data"]), data)
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest["videos"])
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["eval", "--proposals", str(tmp_path / "p.json"),
                         "--dataset", str(data),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "manifest.json" in err and expected in err

    @pytest.mark.parametrize("key,value", [
        ("C", "3"), ("C", 1), ("D", 8.0), ("D", True),
        ("class_names", 5), ("class_names", ["a", "b"]),
        ("class_names", ["a", "b", "a"]), ("videos", 5),
    ], ids=["C-string", "C-one", "D-float", "D-bool", "class-names-number",
            "class-names-short", "class-names-repeated", "videos-number"])
    def test_bad_manifest_field(self, workspace, tmp_path, capsys, key,
                                value):
        data = tmp_path / "data"
        synthdata.save(synthdata.load(workspace["data"]), data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest[key] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["eval", "--proposals", str(tmp_path / "p.json"),
                         "--dataset", str(data),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"manifest.json: field {key!r} is " in err

    @pytest.mark.parametrize("edit,names", [
        *[(lambda header, body, key=key: header.pop(key), [repr(key)])
          for key in ("format", "modality", "config", "params", "meta")],
        (lambda header, body: header["params"].pop(0),
         ["'params'", "'att_b' is missing"]),
        (lambda header, body: header["params"][2].update(shape=[4]),
         ["'params'", "'cls_b' has shape [4]"]),
        (lambda header, body: header["config"].update(embed_dim=4),
         ["'params'", "from field 'config'"]),
        (lambda header, body: header["config"].update(kernel_size="3"),
         ["'config'", "kernel_size"]),
        (lambda header, body: body.extend(b"\0" * 8),
         ["parameter block"]),
        # body order is sorted by name: att_b (1 value), att_w (8), cls_b
        # (3), cls_w (8, 3)
        (lambda header, body: body.__setitem__(
            slice(8 * 3, 8 * 4), struct.pack("<d", np.nan)),
         ["'att_w'", "value nan at index [2] is not finite"]),
        (lambda header, body: body.__setitem__(
            slice(8 * 17, 8 * 18), struct.pack("<d", -np.inf)),
         ["'cls_w'", "value -inf at index [1, 2] is not finite"]),
    ], ids=["no-format", "no-modality", "no-config", "no-params", "no-meta",
            "param-missing", "param-shape", "config-narrower",
            "config-type", "trailing-bytes", "param-nan", "param-inf"])
    def test_bad_checkpoint_is_data_error(self, workspace, tmp_path, capsys,
                                          edit, names):
        run_dir = workspace["run"]
        data = (run_dir / "iter1_rgb.ckpt").read_bytes()
        (hlen,) = struct.unpack("<I", data[:4])
        header = json.loads(data[4:4 + hlen])
        body = bytearray(data[4 + hlen:])
        edit(header, body)
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(struct.pack("<I", len(blob)) + blob + body)
        assert cli.main(["localize", "--checkpoint-rgb", str(bad),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "p.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}: "), err
        assert all(name in err for name in names), err


def plot(workspace, out, *extra, split="train"):
    run_dir = workspace["run"]
    return cli.main(["plot",
                     "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                     "--checkpoint-flow", str(run_dir / "iter1_flow.ckpt"),
                     "--dataset", str(workspace["data"]),
                     "--split", split, "--out", str(out), *extra])


class TestPlot:
    def test_plot_bundle(self, workspace, tmp_path):
        run_dir = workspace["run"]
        out = tmp_path / "plots"
        assert cli.main(["plot",
                         "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(workspace["data"]),
                         "--split", "test",
                         "--out", str(out)]) == 0
        dataset = synthdata.load(workspace["data"])
        for video in dataset.test:
            csv_path = out / f"{video.id}.csv"
            svg_path = out / f"{video.id}.svg"
            lines = csv_path.read_text().splitlines()
            assert len(lines) == 1 + video.num_snippets * 8
            assert lines[0] == ("time,attention_rgb,attention_flow,"
                                "attention_fuse")
            svg = svg_path.read_text()
            assert svg.count("<polyline") == 3
            assert svg.startswith("<svg")

    def test_plot_with_pseudo_gt_column(self, workspace, tmp_path):
        run_dir = workspace["run"]
        out = tmp_path / "plots_gt"
        assert cli.main(["plot",
                         "--checkpoint-rgb", str(run_dir / "iter0_rgb.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter0_flow.ckpt"),
                         "--dataset", str(workspace["data"]),
                         "--split", "train",
                         "--pseudo-gt-dir",
                         str(run_dir / "pseudo_gt" / "iter1"),
                         "--out", str(out)]) == 0
        dataset = synthdata.load(workspace["data"])
        lines = (out / f"{dataset.train[0].id}.csv").read_text().splitlines()
        assert lines[0].endswith(",pseudo_gt")

    def test_rerun_identical_bytes_and_fused_row(self, workspace, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert plot(workspace, a, split="test") == 0
        assert plot(workspace, b, split="test") == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        resolved = json.loads(
            (workspace["run"] / "resolved_config.json").read_text())
        beta = resolved["refinement"]["beta"]
        for path in a.glob("*.csv"):
            rows = path.read_text().splitlines()[1:]
            _, rgb, flow, fuse = np.array(
                [[float(x) for x in row.split(",")] for row in rows]).T
            np.testing.assert_array_equal(fuse,
                                          fuse_attention(rgb, flow, beta))

    @staticmethod
    def corrupt_pseudo_gt(workspace, tmp_path, edit):
        """Copy the iteration-1 pseudo GT and apply edit to the lines of
        the first train video's file; returns (directory, that file)."""
        pdir = tmp_path / "pseudo"
        pdir.mkdir()
        for src in (workspace["run"] / "pseudo_gt" / "iter1").iterdir():
            (pdir / src.name).write_bytes(src.read_bytes())
        target = pdir / f"{synthdata.load(workspace['data']).train[0].id}.csv"
        lines = target.read_text().splitlines()
        target.write_text("\n".join(edit(lines)) + "\n")
        return pdir, target

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:-1],
        lambda lines: lines[:1] + ["1,nan"] + lines[2:],
        lambda lines: lines[:1] + ["1,oops"] + lines[2:],
        lambda lines: lines[:1] + ["1,1.5"] + lines[2:],
    ], ids=["short", "nan", "text", "out-of-range"])
    def test_bad_pseudo_gt_is_data_error(self, workspace, tmp_path, capsys,
                                         edit):
        pdir, target = self.corrupt_pseudo_gt(workspace, tmp_path, edit)
        assert plot(workspace, tmp_path / "plots", "--pseudo-gt-dir",
                    str(pdir)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(target) in err and "'pseudo_gt'" in err

    def test_plot_dir_as_pseudo_gt_dir_is_data_error(self, workspace,
                                                      tmp_path, capsys):
        plots = tmp_path / "plots"
        assert plot(workspace, plots) == 0
        capsys.readouterr()
        assert plot(workspace, tmp_path / "again", "--pseudo-gt-dir",
                    str(plots)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "missing column 'pseudo_gt'" in err and str(plots) in err

    def test_pseudo_gt_dir_of_other_split_is_data_error(self, workspace,
                                                        tmp_path, capsys):
        pdir = workspace["run"] / "pseudo_gt" / "iter1"
        assert plot(workspace, tmp_path / "plots", "--pseudo-gt-dir",
                    str(pdir), split="test") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(pdir) in err and "test video" in err


class TestUnreadableFiles:
    @pytest.mark.parametrize("target,defect", [
        ("proposals", "bytes"), ("config", "bytes"), ("manifest", "bytes"),
        ("pseudo-gt", "bytes"), ("proposals", "deep"), ("config", "deep"),
        ("manifest", "deep"), ("checkpoint", "deep"),
    ])
    def test_unreadable_file_is_named(self, inputs, target, defect):
        content = {"bytes": b"\xff\xfe",
                   "deep": b"[" * 100_000 + b"]" * 100_000}[defect]
        if target == "checkpoint":
            content = struct.pack("<I", len(content)) + content
        path, argv = inputs[target]
        code, err = run_with(path, content, argv)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: "), err

    @pytest.mark.parametrize("target", ["proposals", "manifest", "pseudo-gt",
                                        "checkpoint", "features"])
    @settings(max_examples=50, deadline=None)
    @given(edits=EDITS)
    def test_mutated_file_exits_0_or_names_it(self, inputs, target, edits):
        path, argv = inputs[target]
        code, err = run_with(path, mutate(path.read_bytes(), edits), argv)
        if code == 0:
            assert err == ""
        else:
            assert code == 2, err
            assert err.count("\n") == 1
            assert str(path) in err, err
