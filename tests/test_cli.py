import contextlib
import ctypes
import dataclasses
import hashlib
import io
import itertools
import json
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import basemodel, cli, evaluation, formats, pipeline, synthdata
from wtal.config import (SECTIONS, EvaluationConfig, LocalizationConfig,
                         ModelConfig, RefinementConfig, _settable,
                         load_run_config, resolved_config)
from wtal.consensus import STREAMS, fuse_attention
from wtal.localization import MODES


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
    # no proposal, so that a failure of eval on a mutated manifest is
    # the manifest's own and not a mismatch with the proposals
    (root / "none.json").write_text('{"results": {}}')
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
        "eval-manifest": (data / "manifest.json",
                          ["eval", "--proposals", str(root / "none.json"),
                           "--dataset", str(data),
                           "--out", str(root / "report")]),
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


def poisoned_copy(workspace, tmp_path, split, value, indices=(0,)):
    """A copy of the workspace dataset whose videos ``indices`` of
    ``split`` (by default its first) have ``value`` at snippet 2,
    dimension 3 of their rgb features; returns the copy's directory and
    the name of the first poisoned file."""
    corrupt = tmp_path / "corrupt"
    synthdata.save(synthdata.load(workspace["data"]), corrupt)
    manifest = json.loads((corrupt / "manifest.json").read_text())
    entries = [v for v in manifest["videos"] if v["split"] == split]
    for index in indices:
        path = corrupt / entries[index]["rgb_file"]
        values = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        values[manifest["D"] + 2] = value
        path.write_bytes(values.tobytes())
    return corrupt, entries[indices[0]]["rgb_file"]


# small numbers are drawn often, so that some configs are valid
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.integers(0, 9) | st.floats(0, 1) | st.text(max_size=3))
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
               | st.dictionaries(st.text(max_size=3), JSON_SCALARS,
                                 max_size=2))
SECTION_FIELDS = [(name, key) for name, config_cls in SECTIONS.items()
                  for key in _settable(config_cls)]
MODEL_FIELDS = [f.name for f in dataclasses.fields(ModelConfig)]


def edited_checkpoint(workspace, path, edit):
    """Write to path the final RGB checkpoint of the workspace run after
    edit(header, body) has changed its header dict and parameter bytes."""
    data = (workspace["run"] / "iter1_rgb.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", data[:4])
    header = json.loads(data[4:4 + hlen])
    body = bytearray(data[4 + hlen:])
    edit(header, body)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(blob)) + blob + body)


def localize_with(workspace, rgb_checkpoint, out, *extra):
    """Exit code of `wtal localize` with the given RGB checkpoint and the
    workspace run's final flow checkpoint."""
    return cli.main(["localize", "--checkpoint-rgb", str(rgb_checkpoint),
                     "--checkpoint-flow",
                     str(workspace["run"] / "iter1_flow.ckpt"),
                     "--dataset", str(workspace["data"]),
                     "--out", str(out), *extra])


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

    def test_golden_bytes(self, tmp_path):
        """The sha256 of each file of a tiny seeded data set: the bytes
        every change to how features are generated, held or saved keeps."""
        out = tmp_path / "golden"
        assert cli.main(["gen-data", "--videos", "2", "--test-videos", "1",
                         "--classes", "3", "--dim", "4", "--seed", "11",
                         "--out", str(out)]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.iterdir()}
        assert digests == {
            "manifest.json": "08e83d379d907f09b89bb3785a2ea56e"
                             "ea1632a2cc1a5b1c84e47917f06b3cf4",
            "test_0000_flow.bin": "52407789c40b81b87c3769ea2ad7a975"
                                  "6d9dae8d38c79fd7b34d2973138536c1",
            "test_0000_rgb.bin": "6ef164da76c8951c29ba5ad664b4841a"
                                 "f09deeab1edcef56aac11d9f241df794",
            "train_0000_flow.bin": "a3b11daf867c73ea6f1e4238f78e73ed"
                                   "5da40be9dee58d1e5c40f09dfb6941ea",
            "train_0000_rgb.bin": "430143270dcde367466790f973aa125d"
                                  "39881fab446d6296993433a2915bd1fa",
            "train_0001_flow.bin": "4811cb03efece7ae21cac4e613536e8c"
                                   "7b5c8265396e52f425524db9b25ef41b",
            "train_0001_rgb.bin": "7e22e3db27d080ea157c4f3263c49365"
                                  "0c39ff9e5cbf76e4444fb1f8d7f8de94",
        }

    def test_defaults_are_the_generator_config(self, tmp_path):
        out = tmp_path / "cli"
        assert cli.main(["gen-data", "--out", str(out)]) == 0
        reference = tmp_path / "reference"
        synthdata.save(synthdata.generate(synthdata.GeneratorConfig()),
                       reference)
        assert tree_bytes(out) == tree_bytes(reference)

    def test_missing_out_is_usage_error(self, capsys):
        assert cli.main(["gen-data", "--videos", "4"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--seed", "-3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --seed: expected an integer >= 0, "
            "got -3\n")
        assert not out.exists()

    def test_rate_options_reach_the_generator(self, tmp_path):
        small = ["--videos", "4", "--test-videos", "2", "--classes", "3",
                 "--dim", "8", "--seed", "7"]
        out = tmp_path / "zero"
        assert cli.main(["gen-data", *small, "--confounder-rate", "0",
                         "--flow-miss-rate", "0", "--out", str(out)]) == 0
        reference = tmp_path / "reference"
        synthdata.save(synthdata.generate(synthdata.GeneratorConfig(
            num_train=4, num_test=2, num_classes=3, feature_dim=8, seed=7,
            rgb_false_positive_rate=0.0, flow_miss_rate=0.0)), reference)
        assert tree_bytes(out) == tree_bytes(reference)
        default = tmp_path / "default"
        assert cli.main(["gen-data", *small, "--out", str(default)]) == 0
        assert tree_bytes(default) != tree_bytes(out)

    def test_rate_out_of_range_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--flow-miss-rate", "1.5",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: field 'flow_miss_rate' is 1.5, expected a number in "
            "[0, 1]\n")
        assert not out.exists()

    def test_negative_test_videos_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--test-videos", "-1",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: field 'num_test' is -1, expected an integer >= 0\n")
        assert not out.exists()

    def test_out_of_memory_is_data_error(self, tmp_path, capsys):
        # 10^15 classes ask for PiB, which fails without allocating
        assert cli.main(["gen-data", "--classes", "1000000000000000",
                         "--out", str(tmp_path / "data")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error: out of memory: Unable to allocate ")


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
        assert list(resolved) == sorted(SECTIONS)
        assert resolved["refinement"]["iterations"] == 1
        assert resolved["refinement"]["beta"] == 0.4
        assert resolved["localization"]["upsample_factor"] == 8
        assert "beta" not in resolved["localization"]
        assert resolved["model"] == {"conv_layers": 2, "embed_dim": None,
                                     "kernel_size": 3}
        assert load_run_config(path) == resolved

    def test_resolved_config_trains_into_a_new_directory(self, workspace,
                                                         tmp_path):
        """A run's resolved_config.json given with a new --out trains the
        same models there and leaves the run it came from untouched."""
        run = workspace["run"]
        before = tree_bytes(run)
        out = tmp_path / "again"
        assert cli.main(["train", "--config",
                         str(run / "resolved_config.json"),
                         "--dataset", str(workspace["data"]),
                         "--out", str(out), "--seed", "5",
                         "--dump-pseudo-gt"]) == 0
        assert tree_bytes(run) == before
        assert tree_bytes(out) == before

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

    def test_negative_seed_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli.main(["train", "--config", str(workspace["config"]),
                         "--dataset", str(workspace["data"]),
                         "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --seed: expected an integer >= 0, "
            "got -1\n")
        assert not out.exists()

    def test_no_train_video_names_the_manifest(self, workspace, tmp_path,
                                               capsys):
        data = tmp_path / "data"
        synthdata.save(synthdata.load(workspace["data"]), data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["videos"] = [entry for entry in manifest["videos"]
                              if entry["split"] == "test"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "r"
        assert cli.main(["train", "--dataset", str(data),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'manifest.json'}: no train video\n")
        assert not out.exists()

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
        # seed is a train flag, not a config key, whatever its value
        ({"seed": "x"}, ["unknown field 'seed'"]),
        ({"seed": -4}, ["unknown field 'seed'"]),
        ({"evaluation": {"thresold": [0.5]}}, ["'evaluation'", "'thresold'"]),
        ({"evaluation": {"thresholds": 0.5}},
         ["'evaluation'", "'thresholds'"]),
        ({"evaluation": {"thresholds": [1.5]}}, ["'evaluation'", "thresholds"]),
        ({"evaluation": {"thresholds": ["a"]}},
         ["'evaluation'", "'thresholds'"]),
        ({"evaluation": {"thresholds": [0.5, 0.5]}},
         ["'evaluation'", "thresholds"]),
        ({"evaluation": {"thresholds": [0.5, 0.5000001]}},
         ["'evaluation'", "[0.5, 0.5000001]", "distinct multiples of 0.01"]),
        ({"evaluation": {"thresholds": [0.555]}},
         ["'evaluation'", "[0.555]", "distinct multiples of 0.01"]),
        ({"evaluation": {"thresholds": [0.55, 0.551]}},
         ["'evaluation'", "[0.55, 0.551]", "distinct multiples of 0.01"]),
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
        ({"localization": {"class_score_floor": 2.0}},
         ["'localization'", "class_score_floor"]),
        ({"localization": {"class_score_floor": -0.1}},
         ["'localization'", "class_score_floor"]),
        ({"refinement": {"beta": 1.5}}, ["'refinement'", "beta"]),
        ({"model": {"kernel_size": -1}},
         ["'model'", "field 'kernel_size' is -1, expected an odd integer "
          ">= 1"]),
        ({"model": {"kernel_size": 2}},
         ["'model'", "field 'kernel_size' is 2, expected an odd integer "
          ">= 1"]),
        ({"model": {"conv_layers": 0}},
         ["'model'", "field 'conv_layers' is 0, expected an integer >= 1"]),
        ({"loss": {"s": 0}},
         ["'loss'", "field 's' is 0, expected an integer >= 1"]),
        ({"refinement": {"epochs_refine": 0}},
         ["'refinement'", "field 'epochs_refine' is 0, expected an integer "
          ">= 1"]),
        ({"refinement": {"kind": "medium"}},
         ["'refinement'", 'field \'kind\' is "medium", expected "soft" or '
          '"hard"']),
        ({"refinement": {"smoothing_kernel": -3}},
         ["'refinement'", "field 'smoothing_kernel' is -3, expected 0 or an "
          "odd integer >= 1"]),
        ({"refinement": {"smoothing_kernel": 2}},
         ["'refinement'", "field 'smoothing_kernel' is 2, expected 0 or an "
          "odd integer >= 1"]),
        ({"localization": {"upsample_factor": 0}},
         ["'localization'", "field 'upsample_factor' is 0, expected an "
          "integer >= 1"]),
        ({"evaluation": {"thresholds": []}},
         ["'evaluation'", "field 'thresholds' is [], expected a non-empty "
          "list of numbers in (0, 1]"]),
    ], ids=["model-not-object", "beta-string", "iterations-float",
            "upsample-float", "s-float", "seed-string", "seed-negative",
            "evaluation-typo",
            "thresholds-scalar", "threshold-above-1", "threshold-string",
            "threshold-repeated", "threshold-same-key",
            "threshold-thousandths", "threshold-same-label",
            "generator-section",
            "top-level-list", "embed-dim-0", "epochs-0",
            "smoothing-negative", "learning-rate-negative", "top-k-0",
            "floor-above-1", "floor-negative", "beta-above-1",
            "kernel-negative", "kernel-even", "conv-layers-0", "s-0",
            "epochs-refine-0", "kind-unknown", "smoothing-negative-odd",
            "smoothing-even", "upsample-0", "thresholds-empty"])
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

    @pytest.mark.parametrize("key", ["seed", "dataset", "output_dir"])
    @pytest.mark.parametrize("command", ["train", "localize", "eval", "plot"])
    def test_run_setting_in_config_is_data_error(self, workspace, proposals,
                                                 tmp_path, capsys, command,
                                                 key):
        """seed, dataset and output_dir are train flags: a config that
        sets one, even to a usable value, exits 2 in every command."""
        value = {"seed": 1, "dataset": str(workspace["data"]),
                 "output_dir": str(tmp_path / "r")}[key]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"refinement": {}, key: value}))
        out = str(tmp_path / "r")
        run = workspace["run"]
        models = ["--checkpoint-rgb", str(run / "iter1_rgb.ckpt"),
                  "--checkpoint-flow", str(run / "iter1_flow.ckpt")]
        argv = {"train": ["train"],
                "localize": ["localize", *models],
                "eval": ["eval", "--proposals", str(proposals)],
                "plot": ["plot", *models]}[command]
        assert cli.main(argv + ["--config", str(path), "--out", out,
                                "--dataset", str(workspace["data"])]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unknown field {key!r} (expected one of "
            f"{sorted(SECTIONS)})\n")
        assert list(tmp_path.iterdir()) == [path]

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

    def test_diverging_training_exit_code_3(self, workspace, tmp_path,
                                            python_env):
        # a child process: pytest records numpy's warnings, so capsys
        # would not see them
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"refinement": {"iterations": 0, "epochs_initial": 1,
                            "learning_rate": 1e300}}))
        run = subprocess.run(
            [sys.executable, "-m", "wtal.cli", "train", "--config",
             str(config), "--dataset", str(workspace["data"]),
             "--out", str(tmp_path / "r"), "--seed", "0"],
            capture_output=True, text=True, env=python_env())
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

    @pytest.mark.parametrize("mode", ["rgb", "flow"])
    def test_single_stream_mode(self, workspace, tmp_path, mode):
        run_dir = workspace["run"]
        out = tmp_path / "proposals.json"
        assert localize_with(workspace, run_dir / "iter1_rgb.ckpt", out,
                             "--mode", mode) == 0
        models = {s: basemodel.load_checkpoint(
            run_dir / f"iter1_{s}.ckpt")[0] for s in STREAMS}
        dataset = synthdata.load(workspace["data"], split="test")
        reference = tmp_path / "reference.json"
        formats.save_proposals(reference, pipeline.localize_dataset(
            models, dataset.test, LocalizationConfig(),
            RefinementConfig().beta, mode=mode), dataset.class_names)
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("command,option,value", [
        ("localize", "--mode", "both"), ("eval", "--split", "val")])
    def test_unknown_choice_is_usage_error(self, workspace, proposals,
                                           tmp_path, capsys, command,
                                           option, value):
        run_dir = workspace["run"]
        inputs = {"localize": ["--checkpoint-rgb",
                               str(run_dir / "iter1_rgb.ckpt"),
                               "--checkpoint-flow",
                               str(run_dir / "iter1_flow.ckpt")],
                  "eval": ["--proposals", str(proposals)]}[command]
        assert cli.main([command, *inputs,
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "out"),
                         option, value]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"usage error: argument {option}: "), err
        assert repr(value) in err, err
        assert not list(tmp_path.iterdir())

    def test_out_of_memory_is_data_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"localization": {"upsample_factor": 10 ** 14}}))
        assert localize_with(workspace, workspace["run"] / "iter1_rgb.ckpt",
                             tmp_path / "p.json",
                             "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error: out of memory: Unable to allocate ")

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

    @pytest.mark.parametrize("shape", [
        pytest.param(["--classes", "3", "--dim", "16"], id="wide"),
        pytest.param(["--classes", "4", "--dim", "8"], id="more-classes")])
    @pytest.mark.parametrize("command", ["localize", "plot"])
    def test_checkpoint_shape_mismatch(self, workspace, tmp_path, capsys,
                                       command, shape):
        other_data = tmp_path / "other"
        assert cli.main(["gen-data", "--videos", "2", "--test-videos", "1",
                         *shape, "--seed", "0",
                         "--out", str(other_data)]) == 0
        run_dir = workspace["run"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main([command,
                         "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(other_data),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'iter1_rgb.ckpt'}: checkpoint shape does "
            "not match the dataset\n")
        assert not out.exists()

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
        assert 'field \'split\' is "val", expected "train" or "test"' in err

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
         'video #1: expected a JSON object, got "oops"'),
        (lambda videos: videos[1].update(T="abc"),
         "video train_0001: field 'T' is \"abc\""),
        (lambda videos: videos[1].update(T=0),
         "video train_0001: field 'T' is 0"),
        (lambda videos: videos[1].update(label=[1, 0]),
         "video train_0001: field 'label'"),
        (lambda videos: videos[1].update(label="abc"),
         "video train_0001: field 'label'"),
        (lambda videos: videos[1].update(label=[-1.0, 2.0, 0.0]),
         "video train_0001: field 'label' is [-1.0, 2.0, 0.0], expected "
         "nonnegative numbers that sum to 1"),
        (lambda videos: videos[1].update(label=[0.5, 0.25, 0]),
         "video train_0001: field 'label' is [0.5, 0.25, 0], expected "
         "nonnegative numbers that sum to 1"),
        (lambda videos: videos[1].update(id=[1]), "field 'id' is [1]"),
        *[(lambda videos, vid=vid: videos[1].update(id=vid),
           f"video #1: field 'id' is {json.dumps(vid)}, expected a plain "
           "file name")
          for vid in ("../escaped_test_0000", "a/b", "..", "", ".",
                      "a\0b")],
        (lambda videos: videos[1].update(rgb_file=5),
         "video train_0001: field 'rgb_file' is 5"),
        (lambda videos: videos[1].update(split=["test"]),
         'video train_0001: field \'split\' is ["test"], expected a '
         "string"),
        (lambda videos: videos[1].update(gt_segments=5),
         "video train_0001: field 'gt_segments'"),
        (lambda videos: videos[1].update(gt_segments=[[1, 2]]),
         "video train_0001: field 'gt_segments'"),
        (lambda videos: videos[1].update(gt_segments=[[1, 2, 9]]),
         "video train_0001: field 'gt_segments' holds invalid segment"),
    ], ids=["no-id", "no-T", "no-label", "no-rgb_file", "no-flow_file",
            "repeated-id", "not-object", "T-string", "T-zero",
            "label-short", "label-string", "label-negative", "label-sum",
            "id-list", "id-parent", "id-slash", "id-dotdot", "id-empty",
            "id-dot", "id-nul", "rgb_file-number",
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
        (lambda header, body: header["config"].update(extra=1),
         ["'config'", "unknown field 'extra'"]),
        (lambda header, body: header["config"].pop("num_classes"),
         ["'config'", "missing field 'num_classes'"]),
        (lambda header, body: header["config"].update(kernel_size=True),
         ["'config'", "'kernel_size'"]),
        (lambda header, body: header["config"].update(kernel_size=2),
         ["'config'", "field 'kernel_size' is 2, expected an odd integer "
          ">= 1"]),
        # more layers than the file's bytes can hold: refused before the
        # layout, whose length grows with the count, is built
        (lambda header, body: header["config"].update(conv_layers=10_000),
         ["'config'", "field 'conv_layers' is 10000"]),
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
            "config-type", "config-unknown-key", "config-no-num-classes",
            "config-bool", "config-even-kernel", "config-layers",
            "trailing-bytes", "param-nan", "param-inf"])
    def test_bad_checkpoint_is_data_error(self, workspace, tmp_path, capsys,
                                          edit, names):
        bad = tmp_path / "bad.ckpt"
        edited_checkpoint(workspace, bad, edit)
        assert localize_with(workspace, bad, tmp_path / "p.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}: "), err
        assert all(name in err for name in names), err
        assert "__init__" not in err, err

    @settings(max_examples=80, deadline=None)
    @given(fields=st.dictionaries(st.sampled_from(MODEL_FIELDS)
                                  | st.text(max_size=3), JSON_VALUES,
                                  max_size=4),
           keep=st.booleans())
    def test_any_header_config_exits_0_or_2(self, workspace, fields, keep):
        """Any JSON object as the header's config, on its own or over the
        checkpoint's own config."""
        def edit(header, body):
            header["config"] = {**header["config"], **fields} if keep \
                else fields

        path = workspace["root"] / "fuzz.ckpt"
        edited_checkpoint(workspace, path, edit)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = localize_with(workspace, path,
                                 workspace["root"] / "fuzz_p.json")
        err = err.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert code == 2, err
            assert err.count("\n") == 1
            assert err.startswith(f"error: {path}: "), err


def plot(workspace, out, *extra, split="train"):
    run_dir = workspace["run"]
    return cli.main(["plot",
                     "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                     "--checkpoint-flow", str(run_dir / "iter1_flow.ckpt"),
                     "--dataset", str(workspace["data"]),
                     "--split", split, "--out", str(out), *extra])


class TestExperimentRunner:
    def test_reports_are_the_cli_reports(self, workspace, tmp_path):
        """Per iteration and mode, pipeline.run_experiment's report is the
        one `wtal localize` and `eval` give from that iteration's
        checkpoints; a second run with the seed gives equal reports."""
        config, data = (str(workspace[key]) for key in ("config", "data"))
        run_dir = workspace["run"]
        dataset = synthdata.load(data)
        sections = resolved_config(load_run_config(config), dataset, config)
        _, reports = pipeline.run_experiment(dataset, sections, 5)
        assert len(reports) == 2
        for n, mode in itertools.product(range(2), MODES):
            checkpoints = [f"--checkpoint-{s}={run_dir / f'iter{n}_{s}.ckpt'}"
                           for s in STREAMS]
            assert cli.main(["localize", *checkpoints, "--mode", mode,
                             "--config", config, "--dataset", data,
                             "--out", str(tmp_path / "p.json")]) == 0
            assert cli.main(["eval", "--proposals", str(tmp_path / "p.json"),
                             "--config", config, "--dataset", data,
                             "--out", str(tmp_path / "cli")]) == 0
            evaluation.save_report(tmp_path / "runner.json",
                                   tmp_path / "runner.txt", reports[n][mode])
            for ext in ("json", "txt"):
                assert (tmp_path / f"runner.{ext}").read_bytes() == \
                    (tmp_path / f"cli.{ext}").read_bytes()
        assert pipeline.run_experiment(dataset, sections, 5)[1] == reports


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

    def test_out_of_memory_in_a_worker_is_data_error(
            self, workspace, tmp_path, capsys, assert_no_child_left):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"localization": {"upsample_factor": 10 ** 14}}))
        assert plot(workspace, tmp_path / "plots", "--config",
                    str(config)) == 2
        assert_no_child_left()
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error: out of memory: Unable to allocate ")

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


class TestStreamedFeatureErrors:
    """localize and plot read each video's features when they reach it;
    the error they report is still that of the first bad file in manifest
    order."""

    # with 2 processes plot's own process takes test videos 0 and 2, and
    # its child 1 and 3: one poisoned video in each share
    @pytest.mark.parametrize("command", ["localize", "plot"])
    def test_first_bad_file_in_manifest_order(self, workspace, tmp_path,
                                              capsys, set_cpus, command,
                                              assert_no_child_left):
        corrupt, feature_file = poisoned_copy(workspace, tmp_path, "test",
                                              np.nan, indices=(1, 2))
        run_dir = workspace["run"]
        out = tmp_path / "out"
        set_cpus(2)
        code = cli.main([command,
                         "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(corrupt), "--out", str(out)])
        assert_no_child_left()
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error: {corrupt / 'manifest.json'}: video test_0001: "
            f"{corrupt / feature_file}: value nan at snippet 2, dimension 3 "
            "is not finite\n")
        if command == "localize":
            assert not out.exists()


def dataset_copy(workspace, tmp_path, split, defect):
    """A copy of the workspace dataset: intact (``defect`` "intact"),
    with the feature files of the videos of ``split`` (of every video
    when None) deleted ("deleted"), or with a NaN in the first video of
    ``split`` ("nan")."""
    if defect == "nan":
        return poisoned_copy(workspace, tmp_path, split, np.nan)[0]
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    if defect == "deleted":
        manifest = json.loads((data / "manifest.json").read_text())
        for entry in manifest["videos"]:
            if split in (None, entry["split"]):
                (data / entry["rgb_file"]).unlink()
                (data / entry["flow_file"]).unlink()
    return data


def tree_bytes(root):
    """{relative path: bytes} of every file under root."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestReadsOnlyWhatItUses:
    def test_eval_reads_no_feature_file(self, workspace, proposals,
                                        tmp_path):
        reports = []
        for defect in ("intact", "deleted"):
            data = dataset_copy(workspace, tmp_path / defect, None, defect)
            out = tmp_path / defect / "report"
            assert cli.main(["eval", "--proposals", str(proposals),
                             "--dataset", str(data),
                             "--out", str(out)]) == 0
            reports.append([(tmp_path / defect / f"report.{ext}")
                            .read_bytes() for ext in ("json", "txt")])
        assert not list((tmp_path / "deleted" / "data").glob("*.bin"))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("defect", ["deleted", "nan"])
    @pytest.mark.parametrize("command", ["localize", "plot"])
    def test_inference_ignores_the_other_split(self, workspace, tmp_path,
                                               command, defect):
        run_dir = workspace["run"]
        outputs = []
        for kind in ("intact", defect):
            data = dataset_copy(workspace, tmp_path / kind, "train", kind)
            out = tmp_path / kind / "out"
            out_arg = out / "p.json" if command == "localize" else out
            out.mkdir(exist_ok=True)
            assert cli.main([
                command,
                "--checkpoint-rgb", str(run_dir / "iter1_rgb.ckpt"),
                "--checkpoint-flow", str(run_dir / "iter1_flow.ckpt"),
                "--dataset", str(data), "--split", "test",
                "--out", str(out_arg)]) == 0
            outputs.append(tree_bytes(out))
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("defect", ["deleted", "nan"])
    def test_train_ignores_the_test_split(self, workspace, tmp_path,
                                          defect):
        outputs = []
        for kind in ("intact", defect):
            data = dataset_copy(workspace, tmp_path / kind, "test", kind)
            out = tmp_path / kind / "run"
            assert cli.main(["train", "--config", str(workspace["config"]),
                             "--dataset", str(data), "--out", str(out),
                             "--seed", "5", "--dump-pseudo-gt"]) == 0
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1] == tree_bytes(workspace["run"])




# `python -m wtal.cli ARGS`, which then reports on stderr whether numpy
# and ctypes were imported
RUN_CLI = """import runpy, sys
try:
    runpy.run_module("wtal.cli", run_name="__main__", alter_sys=True)
finally:
    print(f"numpy imported: {'numpy' in sys.modules}", file=sys.stderr)
    print(f"ctypes imported: {'ctypes' in sys.modules}", file=sys.stderr)
"""
NO_NUMPY_NO_CTYPES = "numpy imported: False\nctypes imported: False\n"


class TestEvalLoadsNoNumpy:
    def test_import_cli(self, python_with_src):
        run = python_with_src(
            "-c", "import sys, wtal.cli; "
            "print('numpy' in sys.modules, 'ctypes' in sys.modules)")
        assert (run.returncode, run.stdout, run.stderr) == \
            (0, "False False\n", "")

    @pytest.mark.parametrize("module", ["wtal.config", "wtal.formats",
                                        "wtal.evaluation"])
    def test_import_module_alone(self, module, python_with_src):
        run = python_with_src(
            "-c", f"import sys, {module}; "
            "print('numpy' in sys.modules, 'ctypes' in sys.modules)")
        assert (run.returncode, run.stdout, run.stderr) == \
            (0, "False False\n", "")

    def test_usage_error(self, tmp_path, python_with_src):
        run = python_with_src("-c", RUN_CLI, "eval", "--dataset",
                              str(tmp_path), "--out", str(tmp_path / "r"))
        assert run.returncode == 1
        assert run.stderr == ("usage error: the following arguments are "
                              "required: --proposals\n"
                              + NO_NUMPY_NO_CTYPES)

    def test_report_matches_the_numeric_path(self, workspace, proposals,
                                             tmp_path, python_with_src):
        out = tmp_path / "report"
        run = python_with_src("-c", RUN_CLI, "eval", "--proposals",
                              str(proposals), "--dataset",
                              str(workspace["data"]), "--out", str(out))
        assert run.returncode == 0
        assert run.stderr == NO_NUMPY_NO_CTYPES
        # the same report from in-memory proposals of the checkpoints and
        # the GT of the loaded test split, with no proposals file between
        models = {s: basemodel.load_checkpoint(
            workspace["run"] / f"iter1_{s}.ckpt")[0] for s in STREAMS}
        dataset = synthdata.load(workspace["data"], split="test")
        report = evaluation.evaluate(
            pipeline.localize_dataset(models, dataset.test,
                                      LocalizationConfig(),
                                      RefinementConfig().beta, "fused"),
            evaluation.gt_from_videos(dataset.test),
            EvaluationConfig().thresholds, dataset.num_classes)
        numeric = tmp_path / "numeric"
        evaluation.save_report(f"{numeric}.json", f"{numeric}.txt", report)
        assert run.stdout == report.to_text()
        for ext in ("json", "txt"):
            assert (tmp_path / f"report.{ext}").read_bytes() == \
                (tmp_path / f"numeric.{ext}").read_bytes()


# `python -m wtal.cli ARGS`, which then reports on stderr which of the
# trainer's modules were imported
RUN_CLI_TRAINER = """import runpy, sys
try:
    runpy.run_module("wtal.cli", run_name="__main__", alter_sys=True)
finally:
    print([m for m in ("wtal.consensus", "wtal.losses", "wtal.parallel")
           if m in sys.modules], file=sys.stderr)
"""


class TestLocalizeLoadsNoTrainer:
    def test_localize(self, workspace, proposals, tmp_path,
                      python_with_src):
        out = tmp_path / "proposals.json"
        run = workspace["run"]
        result = python_with_src(
            "-c", RUN_CLI_TRAINER, "localize",
            "--checkpoint-rgb", str(run / "iter1_rgb.ckpt"),
            "--checkpoint-flow", str(run / "iter1_flow.ckpt"),
            "--dataset", str(workspace["data"]), "--out", str(out))
        assert (result.returncode, result.stderr) == (0, "[]\n")
        assert out.read_bytes() == proposals.read_bytes()


@pytest.fixture
def mallopt_calls(monkeypatch):
    """The (param, value) of each mallopt call made through ctypes.CDLL,
    which is replaced by a library that only records them."""
    calls = []

    class Libc:
        def __init__(self, name):
            assert name is None

        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", Libc)
    return calls


# `python -m wtal.cli ARGS` with a C library whose mallopt reports on
# stderr its arguments and whether numpy was imported before it
RUN_CLI_MALLOPT = """import ctypes, runpy, sys
class Libc:
    def __init__(self, name):
        pass
    def mallopt(self, param, value):
        print(f"mallopt{(param, value)} numpy imported: "
              f"{'numpy' in sys.modules}", file=sys.stderr)
ctypes.CDLL = Libc
runpy.run_module("wtal.cli", run_name="__main__", alter_sys=True)
"""


class TestHeapPolicy:
    def test_each_computing_command_sets_the_trim_threshold_once(
            self, workspace, proposals, tmp_path, mallopt_calls):
        run = workspace["run"]
        models = ["--checkpoint-rgb", str(run / "iter1_rgb.ckpt"),
                  "--checkpoint-flow", str(run / "iter1_flow.ckpt"),
                  "--dataset", str(workspace["data"])]
        computing = [
            ["gen-data", "--videos", "2", "--test-videos", "1",
             "--classes", "2", "--dim", "4", "--out", str(tmp_path / "d")],
            ["train", "--config", str(workspace["config"]), "--dataset",
             str(workspace["data"]), "--out", str(tmp_path / "run")],
            ["localize", *models, "--out", str(tmp_path / "p.json")],
            ["plot", *models, "--out", str(tmp_path / "plots")]]
        for argv in computing:
            mallopt_calls.clear()
            assert cli.main(argv) == 0
            assert mallopt_calls == [(-1, 64 * 2 ** 20)], argv[0]
        mallopt_calls.clear()
        assert cli.main(["eval", "--proposals", str(proposals),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "report")]) == 0
        assert mallopt_calls == []

    def test_set_before_numpy_is_imported(self, tmp_path, python_with_src):
        run = python_with_src("-c", RUN_CLI_MALLOPT, "gen-data",
                              "--videos", "2", "--test-videos", "1",
                              "--out", str(tmp_path / "d"))
        assert run.returncode == 0
        assert run.stderr == \
            "mallopt(-1, 67108864) numpy imported: False\n"

    @pytest.mark.parametrize("libc", ["no library", "no mallopt"])
    def test_plot_without_mallopt(self, workspace, tmp_path, monkeypatch,
                                  libc):
        """Where the C library cannot be opened or has no mallopt, plot
        runs and writes the bytes it writes with it."""
        assert plot(workspace, tmp_path / "with") == 0

        class NoMallopt:
            def __init__(self, name):
                pass

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", NoMallopt
                            if libc == "no mallopt" else no_library)
        assert plot(workspace, tmp_path / "without") == 0
        assert tree_bytes(tmp_path / "without") == \
            tree_bytes(tmp_path / "with")


class TestRejectedInputs:
    def test_proposal_for_unknown_video(self, workspace, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"results": {"no_such_video": [
            {"label": "action_1", "score": 0.5, "segment": [1.0, 5.0]}]}}))
        assert cli.main(["eval", "--proposals", str(path),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: video 'no_such_video' is "
                              "not a test video of "), err
        assert not list(tmp_path.glob("report*"))

    def test_proposal_for_video_of_other_split(self, workspace, tmp_path,
                                               capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"results": {"train_0000": [
            {"label": "action_1", "score": 0.5, "segment": [1.0, 5.0]}]}}))
        assert cli.main(["eval", "--proposals", str(path),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "report")]) == 2
        assert "'train_0000' is not a test video" in capsys.readouterr().err
        assert cli.main(["eval", "--proposals", str(path),
                         "--dataset", str(workspace["data"]),
                         "--split", "train",
                         "--out", str(tmp_path / "report")]) == 0

    def test_split_without_gt_segments(self, workspace, tmp_path, capsys):
        data = dataset_copy(workspace, tmp_path, None, "intact")
        manifest = json.loads((data / "manifest.json").read_text())
        for entry in manifest["videos"]:
            entry["gt_segments"] = []
        (data / "manifest.json").write_text(json.dumps(manifest))
        path = tmp_path / "p.json"
        path.write_text('{"results": {}}')
        assert cli.main(["eval", "--proposals", str(path),
                         "--dataset", str(data),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {data / 'manifest.json'}: no test video has "
                       "a ground-truth segment\n")

    def test_repeated_proposal_video(self, workspace, proposals, tmp_path,
                                     capsys):
        text = proposals.read_text()
        assert text.startswith('{\n  "results": {\n')
        path = tmp_path / "p.json"
        path.write_text(text.replace('"results": {',
                                     '"results": {"test_0001": [],', 1))
        assert cli.main(["eval", "--proposals", str(path),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: repeated key 'test_0001'\n"

    def test_repeated_config_section(self, workspace, proposals, tmp_path,
                                     capsys):
        config = tmp_path / "config.json"
        config.write_text('{"evaluation": {"thresholds": [0.5]}, '
                          '"evaluation": {}}')
        assert cli.main(["eval", "--config", str(config),
                         "--proposals", str(proposals),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == \
            f"error: {config}: repeated key 'evaluation'\n"

    def test_repeated_manifest_field(self, workspace, proposals, tmp_path,
                                     capsys):
        data = dataset_copy(workspace, tmp_path, None, "intact")
        manifest = data / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            '"C": 3,', '"C": 3, "C": 3,', 1))
        assert cli.main(["eval", "--proposals", str(proposals),
                         "--dataset", str(data),
                         "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == \
            f"error: {manifest}: repeated key 'C'\n"

    def test_repeated_checkpoint_header_key(self, workspace, tmp_path,
                                            capsys):
        run_dir = workspace["run"]
        data = (run_dir / "iter1_rgb.ckpt").read_bytes()
        (hlen,) = struct.unpack("<I", data[:4])
        blob = data[4:4 + hlen].replace(b'{"config": ',
                                        b'{"meta": {}, "config": ', 1)
        assert len(blob) > hlen
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(struct.pack("<I", len(blob)) + blob
                        + data[4 + hlen:])
        assert cli.main(["localize", "--checkpoint-rgb", str(bad),
                         "--checkpoint-flow",
                         str(run_dir / "iter1_flow.ckpt"),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "p.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: header: repeated key 'meta'\n"

    @pytest.mark.parametrize("name", ["manifest.json", "train_0000_rgb.bin"])
    def test_other_file_is_not_a_checkpoint(self, workspace, tmp_path,
                                            capsys, name):
        path = workspace["data"] / name
        assert localize_with(workspace, path, tmp_path / "p.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: not a model checkpoint "), err

    def test_checkpoint_header_parse_fault_is_named(self, workspace,
                                                     tmp_path, capsys):
        """A header that has the format but does not parse reports its
        own fault, here an integer past Python's 4300-digit limit."""
        run_dir = workspace["run"]
        data = (run_dir / "iter1_rgb.ckpt").read_bytes()
        (hlen,) = struct.unpack("<I", data[:4])
        blob = data[4:4 + hlen].replace(
            b'"meta": {', b'"meta": {"long": ' + b"1" * 5000 + b", ", 1)
        assert len(blob) > hlen + 5000
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(struct.pack("<I", len(blob)) + blob
                        + data[4 + hlen:])
        assert localize_with(workspace, bad, tmp_path / "p.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}: header: Exceeds the limit "
                              "(4300 digits)"), err
        assert not (tmp_path / "p.json").exists()


def first_test_entry(manifest):
    return next(v for v in manifest["videos"] if v["split"] == "test")


class TestUnknownKeys:
    """A key that a manifest or a checkpoint header does not know is a
    one-line data error, however close it is to a known one."""

    @pytest.mark.parametrize("edit,video,key", [
        (lambda m: first_test_entry(m).__setitem__(
            "spilt", first_test_entry(m).pop("split")), "test_0000", "spilt"),
        (lambda m: first_test_entry(m).__setitem__(
            "gt_segment", first_test_entry(m).pop("gt_segments")),
         "test_0000", "gt_segment"),
        (lambda m: m.__setitem__("version", 2), None, "version"),
    ], ids=["entry-spilt", "entry-gt_segment", "top-level"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unknown_manifest_key(self, workspace, proposals, tmp_path,
                                  capsys, command, edit, video, key):
        data = dataset_copy(workspace, tmp_path, None, "intact")
        path = data / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        argv = {"train": ["train", "--config", str(workspace["config"])],
                "eval": ["eval", "--proposals", str(proposals)]}[command]
        assert cli.main(argv + ["--dataset", str(data),
                                "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        where = f"{path}: video {video}" if video else str(path)
        assert err.count("\n") == 1
        assert err.startswith(f"error: {where}: unknown field {key!r} "
                              "(expected one of "), err
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

    @pytest.mark.parametrize("command", ["localize", "plot"])
    def test_unknown_checkpoint_header_key(self, workspace, tmp_path, capsys,
                                           command):
        bad = tmp_path / "bad.ckpt"
        edited_checkpoint(workspace, bad,
                          lambda header, body: header.update(modalty="rgb"))
        out = tmp_path / "out"
        assert cli.main([command, "--checkpoint-rgb", str(bad),
                         "--checkpoint-flow",
                         str(workspace["run"] / "iter1_flow.ckpt"),
                         "--dataset", str(workspace["data"]),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: unknown field 'modalty' (expected one of "
            "['config', 'format', 'meta', 'modality', 'params'])\n")
        assert not out.exists()

    def test_echoed_value_is_bounded(self, workspace, proposals, tmp_path,
                                     capsys):
        data = dataset_copy(workspace, tmp_path, None, "intact")
        path = data / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["videos"] = {v["id"]: v for v in manifest["videos"]}
        path.write_text(json.dumps(manifest))
        assert cli.main(["eval", "--proposals", str(proposals),
                         "--dataset", str(data),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field 'videos' is "), err
        assert err.endswith('..., expected a list\n'), err
        assert len(err) < len(str(path)) + 120, err

    @pytest.mark.parametrize("key", ["versoin", "segmnet"])
    def test_unknown_proposals_key(self, workspace, proposals, tmp_path,
                                   capsys, key):
        """A misspelled key of a proposals file, at its top level or in
        an entry, is refused like a manifest's."""
        payload = json.loads(proposals.read_text())
        video_id, entries = next(iter(payload["results"].items()))
        if key == "versoin":
            payload[key], where = "VERSION 1.3", ""
        else:
            entries[0][key] = entries[0].pop("segment")
            where = f": video {video_id}"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--proposals", str(path),
                         "--dataset", str(workspace["data"]),
                         "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}{where}: unknown field "
                              f"{key!r} (expected one of "), err
        assert not list(tmp_path.glob("report*"))

    def test_activitynet_proposals_keys_still_score(self, workspace,
                                                    proposals, tmp_path):
        """A proposals file's top level may carry ActivityNet's version
        and external_data next to its results."""
        extended = tmp_path / "extended.json"
        extended.write_text(json.dumps({
            **json.loads(proposals.read_text()), "version": "VERSION 1.3",
            "external_data": {"used": False, "details": ""}}))
        reports = []
        for name, path in (("plain", proposals), ("extended", extended)):
            assert cli.main(["eval", "--proposals", str(path),
                             "--dataset", str(workspace["data"]),
                             "--out", str(tmp_path / name)]) == 0
            reports.append([(tmp_path / f"{name}.{ext}").read_bytes()
                            for ext in ("json", "txt")])
        assert reports[0] == reports[1]


class TestUnreadableFiles:
    @pytest.mark.parametrize("target,defect", [
        ("proposals", "bytes"), ("config", "bytes"), ("manifest", "bytes"),
        ("pseudo-gt", "bytes"), ("proposals", "deep"), ("config", "deep"),
        ("manifest", "deep"), ("checkpoint", "deep"),
        ("eval-manifest", "bytes"), ("eval-manifest", "deep"),
        # past Python's limit of 4300 digits for an integer
        ("proposals", "long-int"), ("config", "long-int"),
        ("manifest", "long-int"), ("eval-manifest", "long-int"),
        # past the csv module's field limit of 131072 characters
        ("pseudo-gt", "long-cell"),
    ])
    def test_unreadable_file_is_named(self, inputs, target, defect):
        content = {"bytes": b"\xff\xfe",
                   "deep": b"[" * 100_000 + b"]" * 100_000,
                   "long-int": b"1" * 5000,
                   "long-cell": b"snippet,pseudo_gt\r\n1," + b"0" * 200_000
                   + b"\r\n"}[defect]
        if target == "checkpoint":
            content = struct.pack("<I", len(content)) + content
        path, argv = inputs[target]
        code, err = run_with(path, content, argv)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: "), err

    @pytest.mark.parametrize("target", ["proposals", "manifest", "pseudo-gt",
                                        "checkpoint", "features",
                                        "eval-manifest"])
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


LONG = "x" * 100_000


def edited_json(edit):
    """The bytes of a JSON file after edit(document) has changed its
    document."""
    def content(clean):
        document = json.loads(clean)
        edit(document)
        return json.dumps(document).encode("utf-8")
    return content


def edited_header(edit):
    """The bytes of a checkpoint after edit(header) has changed its
    header."""
    def content(clean):
        (hlen,) = struct.unpack("<I", clean[:4])
        header = json.loads(clean[4:4 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return struct.pack("<I", len(blob)) + blob + clean[4 + hlen:]
    return content


def long_cell(clean):
    """The bytes of a pseudo-GT CSV whose first value is LONG digits."""
    lines = clean.decode("utf-8").split("\r\n")
    lines[1] = "1," + "2" * len(LONG)
    return "\r\n".join(lines).encode("utf-8")


def first_video(manifest):
    """Set the id of a manifest's first video to LONG and its T to 0."""
    manifest["videos"][0].update(id=LONG, T=0)


class TestBoundedEcho:
    """A message that echoes a long input value cuts it after 60
    characters, whatever the input and the command."""

    @pytest.mark.parametrize("target,content", [
        ("proposals", edited_json(lambda p: p.update(
            results={LONG: next(iter(p["results"].values()))}))),
        ("proposals", edited_json(lambda p: p.update(results={LONG: 5}))),
        ("checkpoint", edited_header(lambda h: h.update(modality=LONG))),
        ("checkpoint", edited_header(
            lambda h: h["params"][2].update(shape=[4] * len(LONG)))),
        ("pseudo-gt", long_cell),
        ("config", ('{"%s": {}, "%s": {}}' % (LONG, LONG)).encode()),
        ("config", ('{"%s": {}}' % LONG).encode()),
        ("eval-manifest", edited_json(first_video)),
    ], ids=["eval-video-id", "proposals-video-id", "checkpoint-modality",
            "checkpoint-shape", "pseudo-gt-cell", "repeated-key", "unknown-key",
            "manifest-video-id"])
    def test_long_value_is_cut(self, inputs, target, content):
        path, argv = inputs[target]
        if callable(content):
            content = content(path.read_bytes())
        code, err = run_with(path, content, argv)
        assert code == 2, err[:300]
        assert err.count("\n") == 1
        assert len(err) < 300, err[:300]
        assert "..." in err, err
