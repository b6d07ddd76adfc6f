"""The benchmark's workloads.

A workload is a list of set-up stages and a list of timed stages. A stage
is one command: a ``wtal`` CLI invocation, or ``generate``, which builds a
dataset through ``wtal.synthdata`` for sizes the CLI cannot ask for. Every
input comes from the benchmark seed. README.md says why each workload
exists.
"""

import json
import os
from dataclasses import dataclass

NAMES = ("default-pipeline", "long-video-inference")


@dataclass(frozen=True)
class Stage:
    name: str    # gen-data | generate | train | localize | eval | plot
    argv: tuple  # wtal CLI arguments; for generate: (config JSON, out dir)


@dataclass
class Workload:
    name: str
    setup: list
    timed: list
    data_dir: str
    checkpoint_dir: str   # holds training_log.csv and the checkpoints
    run_dir: str          # outputs of the timed stages
    train_videos: int
    test_videos: int
    log_rows: int         # 2 x (epochs_initial + iterations x epochs_refine)
    setup_repeats: int
    min_rounds: int

    @property
    def steps(self):
        """Optimizer steps of one training run: one video, one stream."""
        return self.train_videos * self.log_rows

    @property
    def proposals(self):
        return os.path.join(self.run_dir, "proposals.json")

    @property
    def report(self):
        return os.path.join(self.run_dir, "report.json")

    @property
    def plot_dir(self):
        return os.path.join(self.run_dir, "plots")

    @property
    def training_log(self):
        return os.path.join(self.checkpoint_dir, "training_log.csv")

    def dirs_of(self, stages):
        """Directories the given stages write; cleared before they run."""
        dirs = []
        if any(s.name in ("gen-data", "generate") for s in stages):
            dirs.append(self.data_dir)
        if any(s.name == "train" for s in stages):
            dirs.append(self.checkpoint_dir)
        if any(s.name in ("localize", "eval", "plot") for s in stages):
            dirs.append(self.run_dir)
        return dirs


def _write_config(work, config):
    path = os.path.join(work, "train_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return path


def _inference_stages(checkpoint_dir, iteration, data, run):
    """The localize, eval and plot stages on the test split."""
    ckpt = ("--checkpoint-rgb",
            os.path.join(checkpoint_dir, f"iter{iteration}_rgb.ckpt"),
            "--checkpoint-flow",
            os.path.join(checkpoint_dir, f"iter{iteration}_flow.ckpt"))
    proposals = os.path.join(run, "proposals.json")
    return (
        Stage("localize", ("localize",) + ckpt + (
            "--dataset", data, "--split", "test", "--out", proposals)),
        Stage("eval", ("eval", "--proposals", proposals, "--dataset", data,
                       "--split", "test",
                       "--out", os.path.join(run, "report"))),
        Stage("plot", ("plot",) + ckpt + (
            "--dataset", data, "--split", "test",
            "--out", os.path.join(run, "plots"))),
    )


def build(name, seed, work, tiny=False):
    """The workload ``name`` for ``seed``, writing under ``work``.

    ``tiny`` shrinks every size so a test can run all stages in seconds.
    """
    os.makedirs(work, exist_ok=True)
    data = os.path.join(work, "data")
    run = os.path.join(work, "run")
    # Every training schedule is spelled out, so the expected step count
    # does not lean on the program's defaults. Short stages run more than
    # once per round of timed stages, so that each run averages many
    # samples of them (see README.md).
    tiny_schedule = {"iterations": 1, "epochs_initial": 2,
                     "epochs_refine": 1}

    if name == "default-pipeline":
        # the README's five commands at their defaults
        train_videos, test_videos = (4, 3) if tiny else (60, 30)
        schedule = tiny_schedule if tiny else {
            "iterations": 4, "epochs_initial": 60, "epochs_refine": 20}
        config = ("--config", _write_config(
            work, {"refinement": schedule})) if tiny else ()
        setup = [Stage("gen-data", (
            "gen-data", "--videos", str(train_videos),
            "--test-videos", str(test_videos), "--classes", "5",
            "--dim", "32", "--seed", str(seed), "--out", data))]
        checkpoint_dir = run
        train = Stage("train", ("train",) + config + (
            "--dataset", data, "--out", run, "--seed", str(seed),
            "--dump-pseudo-gt"))
        inference = _inference_stages(run, schedule["iterations"], data, run)
        timed = [train, *inference, *inference, *inference, *inference]
        setup_repeats, min_rounds = 5, 2

    elif name == "long-video-inference":
        train_videos, test_videos = (4, 3) if tiny else (30, 300)
        # ten classes, not five: evaluation._match scans the same-class
        # GT for each proposal, and with five classes that scan made
        # eval_s follow the seed's proposal count twice as closely
        generator = {"num_train": train_videos, "num_test": test_videos,
                     "num_classes": 10,
                     "t_range": [40, 60] if tiny else [160, 320],
                     "actions_per_video": [2, 8], "seed": seed}
        # one training iteration of 60 epochs, no refinement
        schedule = tiny_schedule if tiny else {
            "iterations": 0, "epochs_initial": 60, "epochs_refine": 20}
        # at the default learning rate this short schedule leaves models
        # whose proposal count, and so the cost of localize and eval,
        # varied twofold between seeds; at 1e-3 it varies far less
        refinement = dict(schedule, learning_rate=1e-3)
        checkpoint_dir = os.path.join(work, "model")
        setup = [
            Stage("generate", (json.dumps(generator), data)),
            # checkpoints are trained once per set-up, outside the timed
            # stages, so this workload times inference alone
            Stage("train", (
                "train", "--config",
                _write_config(work, {"refinement": refinement}),
                "--dataset", data, "--out", checkpoint_dir,
                "--seed", str(seed))),
        ]
        localize, evaluate, plot = _inference_stages(
            checkpoint_dir, schedule["iterations"], data, run)
        timed = [localize, evaluate, plot, localize, evaluate, localize,
                 evaluate]
        setup_repeats, min_rounds = 3, 2

    else:
        raise ValueError(f"unknown workload {name!r}")

    if tiny:
        setup_repeats, min_rounds = 2, 2
    return Workload(name=name, setup=setup, timed=timed, data_dir=data,
                    checkpoint_dir=checkpoint_dir, run_dir=run,
                    train_videos=train_videos, test_videos=test_videos,
                    log_rows=2 * (schedule["epochs_initial"]
                                  + schedule["iterations"]
                                  * schedule["epochs_refine"]),
                    setup_repeats=setup_repeats, min_rounds=min_rounds)
