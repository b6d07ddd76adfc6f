"""Command-line entry point: gen-data, train, localize, eval, plot.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numeric
failure during training.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import types
import typing

# numpy-free imports only: the numeric modules are imported by the
# commands that compute with them, so eval loads no numpy
from . import evaluation, formats
from .config import (LocalizationConfig, LossConfig, ModelConfig,
                     RefinementConfig)
from .evaluation import EvaluationConfig
from .formats import DataError, NumericError, finite_number


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclasses.dataclass
class RunConfig:
    """Resolved run configuration; every field has a default."""

    seed: int = 0
    dataset: str = "data"
    output_dir: str = "runs/default"
    model: dict = dataclasses.field(default_factory=dict)
    loss: dict = dataclasses.field(default_factory=dict)
    refinement: dict = dataclasses.field(default_factory=dict)
    localization: dict = dataclasses.field(default_factory=dict)
    evaluation: dict = dataclasses.field(default_factory=dict)


SECTIONS = {"model": ModelConfig, "loss": LossConfig,
            "refinement": RefinementConfig,
            "localization": LocalizationConfig,
            "evaluation": EvaluationConfig}

_JSON_NAMES = {int: "integer", float: "number", str: "string",
               dict: "JSON object", type(None): "null"}


def _settable(cls):
    """{field name: default} of the fields a config may set; a field
    without a default (the model's shape) comes from the dataset."""
    missing = dataclasses.MISSING
    return {f.name: f.default_factory() if f.default is missing
            else f.default for f in dataclasses.fields(cls)
            if (f.default, f.default_factory) != (missing, missing)}


def _fits(value, hint):
    """Whether a parsed JSON value fits a field's type hint. A bool is
    never a number, an int fits a float, a list fits a tuple when each
    element fits, and X | None also takes null."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(
            _fits(v, typing.get_args(hint)[0]) for v in value)
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, h) for h in typing.get_args(hint))
    if hint is float:
        return finite_number(value)
    return isinstance(value, hint) and not isinstance(value, bool)


def _describe(hint):
    if typing.get_origin(hint) is tuple:
        return f"list of {_describe(typing.get_args(hint)[0])}s"
    if typing.get_origin(hint) is types.UnionType:
        return " or ".join(map(_describe, typing.get_args(hint)))
    return _JSON_NAMES[hint]


def _check_fields(where, raw, cls):
    """Raise a one-line DataError unless raw is a JSON object that sets
    only settable fields of the config class cls, each to a value of its
    type."""
    if not isinstance(raw, dict):
        raise DataError(f"{where}: expected a JSON object, got "
                        f"{json.dumps(raw)}")
    known = _settable(cls)
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        if key not in known:
            raise DataError(f"{where}: unknown field {key!r} "
                            f"(expected one of {sorted(known)})")
        if not _fits(value, hints[key]):
            raise DataError(f"{where}: field {key!r} expects "
                            f"{_describe(hints[key])}, got "
                            f"{json.dumps(value)}")


def load_run_config(path=None, overrides=None):
    cfg = RunConfig()
    if path is not None:
        raw = formats.read_json(path)
        _check_fields(path, raw, RunConfig)
        if "seed" in raw:
            formats.integer_field(path, "seed", raw["seed"], least=0)
        for name, cls in SECTIONS.items():
            _check_fields(f"{path}: config section {name!r}",
                          raw.get(name, {}), cls)
        cfg = RunConfig(**raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def resolved_config(cfg, dataset, path):
    """{section name: config object} for every section in SECTIONS; a
    value the section's constructor rejects is a DataError naming the
    config file path."""
    sections = {}
    for name, cls in SECTIONS.items():
        values = dict(getattr(cfg, name))
        if name == "model":
            values.update(feature_dim=dataset.feature_dim,
                          num_classes=dataset.num_classes)
        try:
            sections[name] = cls(**values)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: config section {name!r}: "
                            f"{exc}") from exc
    return sections


def write_resolved_config(cfg, path):
    payload = dataclasses.asdict(cfg)
    # fill in effective section defaults so the emitted file is complete
    for name, cls in SECTIONS.items():
        payload[name] = {**_settable(cls), **payload[name]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def _computes(command):
    """A command that computes with numpy. It runs under
    np.errstate(all="ignore"), so a diverging run reports itself once, as
    a NumericError; eval, which does not compute, never imports numpy."""
    @functools.wraps(command)
    def run(args):
        import numpy as np
        with np.errstate(all="ignore"):
            return command(args)
    return run


def run_refinement(train_videos, model_cfg, loss_cfg, refine_cfg, seed):
    """consensus.run_refinement, called by cmd_train under this name,
    which is where the benchmark's tracer wraps it."""
    from . import consensus
    return consensus.run_refinement(train_videos, model_cfg, loss_cfg,
                                    refine_cfg, seed)


@_computes
def cmd_gen_data(args):
    from . import synthdata
    fields = {
        "num_train": args.videos,
        "num_test": args.test_videos,
        "num_classes": args.classes,
        "feature_dim": args.dim,
        "seed": args.seed,
    }
    if args.confounder_rate is not None:
        fields["rgb_false_positive_rate"] = args.confounder_rate
    if args.flow_miss_rate is not None:
        fields["flow_miss_rate"] = args.flow_miss_rate
    config = synthdata.GeneratorConfig(**fields)
    dataset = synthdata.generate(config)
    synthdata.save(dataset, args.out)
    n_gt = sum(len(v.gt_segments) for v in dataset.all_videos())
    print(f"wrote {len(dataset.train)} train / {len(dataset.test)} test "
          f"videos, {dataset.num_classes} classes, "
          f"{n_gt} ground-truth segments -> {args.out}")
    return 0


@_computes
def cmd_train(args):
    # consensus is imported here, so that the traced span of
    # run_refinement times no import
    from . import basemodel, consensus, synthdata
    cfg = load_run_config(args.config, {"dataset": args.dataset,
                                        "output_dir": args.out,
                                        "seed": args.seed})
    dataset = synthdata.load(cfg.dataset, split="train")
    sections = resolved_config(cfg, dataset, args.config)
    refine_cfg = sections["refinement"]
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_resolved_config(cfg, os.path.join(cfg.output_dir,
                                            "resolved_config.json"))
    result = run_refinement(dataset.train, sections["model"],
                            sections["loss"], refine_cfg, cfg.seed)
    for iteration, snapshot in enumerate(result.checkpoints):
        for stream, model in snapshot.items():
            meta = dict(result.checkpoint_meta[iteration][stream])
            meta.update({"iteration": iteration, "seed": cfg.seed})
            basemodel.save_checkpoint(
                os.path.join(cfg.output_dir,
                             f"iter{iteration}_{stream}.ckpt"),
                model, meta=meta)
    consensus.save_training_log(
        os.path.join(cfg.output_dir, "training_log.csv"), result.log_rows)
    if args.dump_pseudo_gt:
        for iteration, pseudo in enumerate(result.pseudo_gt[1:], start=1):
            pdir = os.path.join(cfg.output_dir, "pseudo_gt",
                                f"iter{iteration}")
            os.makedirs(pdir, exist_ok=True)
            for vid, values in sorted(pseudo.items()):
                consensus.save_pseudo_gt(os.path.join(pdir, f"{vid}.csv"),
                                         values)
    n_ckpt = 2 * len(result.checkpoints)
    print(f"trained {refine_cfg.iterations + 1} iterations, wrote "
          f"{n_ckpt} checkpoints and training_log.csv -> {cfg.output_dir}")
    return 0


def _load_inference_inputs(args):
    """Config sections, dataset, both stream models and the videos of
    the chosen split, for localize and plot; only that split's features
    are read."""
    from . import basemodel, synthdata
    from .consensus import STREAMS
    cfg = load_run_config(args.config)
    dataset = synthdata.load(args.dataset, split=args.split)
    sections = resolved_config(cfg, dataset, args.config)
    models = {}
    for stream in STREAMS:
        path = getattr(args, f"checkpoint_{stream}")
        model, _ = basemodel.load_checkpoint(path)
        if model.modality != stream:
            raise DataError(f"{path}: checkpoint modality is "
                            f"{model.modality!r}, expected {stream!r}")
        if (model.config.feature_dim != dataset.feature_dim
                or model.config.num_classes != dataset.num_classes):
            raise DataError(f"{path}: checkpoint shape does not match "
                            "the dataset")
        models[stream] = model
    return sections, dataset, models, getattr(dataset, args.split)


@_computes
def cmd_localize(args):
    from . import localization, pipeline
    sections, dataset, models, videos = _load_inference_inputs(args)
    proposals = pipeline.localize_dataset(models, videos,
                                          sections["localization"],
                                          sections["refinement"].beta,
                                          mode=args.mode)
    localization.save_proposals(args.out, proposals, dataset.class_names)
    print(f"wrote {len(proposals)} proposals -> {args.out}")
    return 0


def cmd_eval(args):
    """Score proposals against the GT of the manifest; no feature file is
    read and no numeric module is imported."""
    cfg = load_run_config(args.config)
    manifest = formats.read_manifest(args.dataset)
    sections = resolved_config(cfg, manifest, args.config)
    manifest_path = os.path.join(args.dataset, "manifest.json")
    videos = getattr(manifest, args.split)
    try:
        gts = evaluation.gt_from_videos(videos)
    except ValueError as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    if not gts:
        raise DataError(f"{manifest_path}: no {args.split} video has a "
                        "ground-truth segment")
    proposals = formats.load_proposals(args.proposals, manifest.class_names)
    known = {video.id for video in videos}
    for proposal in proposals:
        if proposal.video_id not in known:
            raise DataError(f"{args.proposals}: video "
                            f"{proposal.video_id!r} is not a {args.split} "
                            f"video of {manifest_path}")
    report = evaluation.evaluate(proposals, gts,
                                 sections["evaluation"].thresholds,
                                 manifest.num_classes)
    base = args.out
    evaluation.save_report(base + ".json", base + ".txt", report)
    sys.stdout.write(report.to_text())
    return 0


@_computes
def cmd_plot(args):
    from . import pipeline
    from .consensus import load_pseudo_gt
    sections, _, models, videos = _load_inference_inputs(args)
    pseudo = {}
    if args.pseudo_gt_dir:
        for video in videos:
            path = os.path.join(args.pseudo_gt_dir, f"{video.id}.csv")
            if os.path.exists(path):
                pseudo[video.id] = load_pseudo_gt(path, video.num_snippets)
        if not pseudo:
            raise DataError(f"{args.pseudo_gt_dir}: no pseudo-GT CSV for "
                            f"any {args.split} video")
    pipeline.write_plot_bundle(args.out, models, videos,
                               sections["localization"],
                               sections["refinement"].beta,
                               pseudo_by_video=pseudo)
    print(f"wrote plot data for {len(videos)} videos -> {args.out}")
    return 0


# ---------------------------------------------------------------------------

def _seed(text):
    """The value of --seed: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="wtal",
                     description="weakly-supervised temporal action "
                                 "localization on synthetic two-stream data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--videos", type=int, default=60,
                   help="number of training videos")
    p.add_argument("--test-videos", type=int, default=30)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--confounder-rate", type=float, default=None)
    p.add_argument("--flow-miss-rate", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run iterative refinement training")
    p.add_argument("--config", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--dump-pseudo-gt", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("localize", help="emit scored action proposals")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint-rgb", required=True)
    p.add_argument("--checkpoint-flow", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--mode", choices=("fused", "rgb", "flow"),
                   default="fused")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("eval", help="score proposals against ground truth")
    p.add_argument("--config", default=None)
    p.add_argument("--proposals", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", required=True,
                   help="output basename (.json and .txt are appended)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="emit attention CSV + SVG per video")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint-rgb", required=True)
    p.add_argument("--checkpoint-flow", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--pseudo-gt-dir", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
