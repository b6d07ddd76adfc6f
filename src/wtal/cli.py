"""Command-line entry point: the argument parser, the commands gen-data,
train, localize, eval and plot, and main; ``config`` reads their config.

Exit codes: 0 success, 1 usage error, 2 data/config error (out of memory
included), 3 numeric failure during training.
"""

import argparse
import functools
import os
import sys

# numpy-free imports only: the numeric modules are imported by the
# commands that compute with them, so eval loads no numpy
from . import evaluation, formats
from .config import load_run_config, resolved_config, write_resolved_config
from .formats import DataError, NumericError, shown


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# subcommands

# glibc's mallopt parameter M_TRIM_THRESHOLD, and the value it is set to
M_TRIM_THRESHOLD = -1
TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_heap_top():
    """Let glibc keep up to TRIM_THRESHOLD_BYTES of freed memory at the
    top of the heap. By default it returns that memory to the system
    once more than 128 KB (a threshold it adjusts as large blocks come
    and go) is free there, so the temporaries of a training step or of a
    plotted video are faulted in again on every call. Where the C library
    has no mallopt this does nothing; forked workers inherit the
    setting."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _computes(command):
    """A command that computes with numpy. It keeps the heap top
    (_keep_heap_top) and runs under np.errstate(all="ignore"), so a
    diverging run reports itself once, as a NumericError; eval, which
    does not compute, never imports numpy or ctypes."""
    @functools.wraps(command)
    def run(args):
        _keep_heap_top()
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
    given = {field: getattr(args, field) for _, field, _ in GEN_DATA_FLAGS
             if hasattr(args, field)}
    saved = synthdata.save(
        synthdata.generate(synthdata.GeneratorConfig(**given)), args.out)
    n_gt = sum(len(v.gt_segments) for v in saved.all_videos())
    print(f"wrote {len(saved.train)} train / {len(saved.test)} test "
          f"videos, {saved.num_classes} classes, "
          f"{n_gt} ground-truth segments -> {args.out}")
    return 0


@_computes
def cmd_train(args):
    # consensus is imported here, so that the traced span of
    # run_refinement times no import
    from . import basemodel, consensus, synthdata
    config = load_run_config(args.config)
    dataset = synthdata.load(args.dataset, split="train")
    if not dataset.train:
        raise DataError(f"{os.path.join(args.dataset, 'manifest.json')}: "
                        "no train video")
    sections = resolved_config(config, dataset, args.config)
    refine_cfg = sections["refinement"]
    os.makedirs(args.out, exist_ok=True)
    write_resolved_config(config, os.path.join(args.out,
                                               "resolved_config.json"))
    result = run_refinement(dataset.train, sections["model"],
                            sections["loss"], refine_cfg, args.seed)
    for iteration, snapshot in enumerate(result.checkpoints):
        for stream, model in snapshot.items():
            meta = {**result.checkpoint_meta[iteration][stream],
                    "iteration": iteration, "seed": args.seed}
            name = f"iter{iteration}_{stream}.ckpt"
            basemodel.save_checkpoint(os.path.join(args.out, name),
                                      model, meta=meta)
    consensus.save_training_log(
        os.path.join(args.out, "training_log.csv"), result.log_rows)
    if args.dump_pseudo_gt:
        for iteration, pseudo in enumerate(result.pseudo_gt[1:], start=1):
            pdir = os.path.join(args.out, "pseudo_gt",
                                f"iter{iteration}")
            os.makedirs(pdir, exist_ok=True)
            for vid, values in sorted(pseudo.items()):
                consensus.save_pseudo_gt(os.path.join(pdir, f"{vid}.csv"),
                                         values)
    n_ckpt = 2 * len(result.checkpoints)
    print(f"trained {refine_cfg.iterations + 1} iterations, wrote "
          f"{n_ckpt} checkpoints and training_log.csv -> {args.out}")
    return 0


def _load_inference_inputs(args):
    """Config sections, the checked manifest, both stream models and the
    manifest entries of the chosen split, for localize and plot. No
    feature file is read here: each video's features are read
    (synthdata.read_video) when that video is reached."""
    from . import basemodel
    config = load_run_config(args.config)
    manifest = formats.read_manifest(args.dataset)
    sections = resolved_config(config, manifest, args.config)
    models = {}
    for stream in formats.STREAMS:
        path = getattr(args, f"checkpoint_{stream}")
        model, _ = basemodel.load_checkpoint(path)
        if model.modality != stream:
            raise DataError(f"{path}: checkpoint modality is "
                            f"{shown(model.modality, repr)}, expected "
                            f"{stream!r}")
        if (model.config.feature_dim != manifest.feature_dim
                or model.config.num_classes != manifest.num_classes):
            raise DataError(f"{path}: checkpoint shape does not match "
                            "the dataset")
        models[stream] = model
    return sections, manifest, models, getattr(manifest, args.split)


@_computes
def cmd_localize(args):
    from . import localization, pipeline, synthdata
    sections, manifest, models, entries = _load_inference_inputs(args)
    proposals = pipeline.localize_dataset(
        models, map(synthdata.read_video, entries), sections["localization"],
        sections["refinement"].beta, mode=args.mode)
    localization.save_proposals(args.out, proposals, manifest.class_names)
    print(f"wrote {len(proposals)} proposals -> {args.out}")
    return 0


def cmd_eval(args):
    """Score proposals against the GT of the manifest; no feature file is
    read and no numeric module is imported."""
    config = load_run_config(args.config)
    manifest = formats.read_manifest(args.dataset)
    sections = resolved_config(config, manifest, args.config)
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
                            f"{shown(proposal.video_id, repr)} is not a "
                            f"{args.split} video of {manifest_path}")
    report = evaluation.evaluate(proposals, gts,
                                 sections["evaluation"].thresholds,
                                 manifest.num_classes)
    evaluation.save_report(args.out + ".json", args.out + ".txt", report)
    sys.stdout.write(report.to_text())
    return 0


@_computes
def cmd_plot(args):
    from . import pipeline
    from .consensus import load_pseudo_gt
    sections, _, models, entries = _load_inference_inputs(args)
    pseudo = {}
    if args.pseudo_gt_dir:
        for entry in entries:
            path = os.path.join(args.pseudo_gt_dir, f"{entry.id}.csv")
            if os.path.exists(path):
                pseudo[entry.id] = load_pseudo_gt(path, entry.num_snippets)
        if not pseudo:
            raise DataError(f"{args.pseudo_gt_dir}: no pseudo-GT CSV for "
                            f"any {args.split} video")
    pipeline.write_plot_bundle(args.out, models, entries,
                               sections["localization"],
                               sections["refinement"].beta,
                               pseudo_by_video=pseudo)
    print(f"wrote plot data for {len(entries)} videos -> {args.out}")
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


# (flag, synthdata.GeneratorConfig field, type) of each gen-data option
# that sets the generator; an option not given keeps the field's default
GEN_DATA_FLAGS = (
    ("--videos", "num_train", int),
    ("--test-videos", "num_test", int),
    ("--classes", "num_classes", int),
    ("--dim", "feature_dim", int),
    ("--seed", "seed", _seed),
    ("--confounder-rate", "rgb_false_positive_rate", float),
    ("--flow-miss-rate", "flow_miss_rate", float),
)


def build_parser():
    parser = _Parser(prog="wtal",
                     description="weakly-supervised temporal action "
                                 "localization on synthetic two-stream data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    for flag, field, kind in GEN_DATA_FLAGS:
        p.add_argument(flag, dest=field, type=kind,
                       default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run iterative refinement training")
    p.add_argument("--config", default=None)
    p.add_argument("--dataset", default="data")
    p.add_argument("--out", default="runs/default")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dump-pseudo-gt", action="store_true")
    p.set_defaults(func=cmd_train)

    def input_parser(name, text, checkpoints=True):
        """A parser for localize, eval or plot, with the options they
        share; localize and plot also read both checkpoints."""
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None)
        p.add_argument("--dataset", required=True)
        p.add_argument("--split", choices=("train", "test"), default="test")
        if checkpoints:
            p.add_argument("--checkpoint-rgb", required=True)
            p.add_argument("--checkpoint-flow", required=True)
        return p

    p = input_parser("localize", "emit scored action proposals")
    p.add_argument("--mode", choices=formats.MODES, default="fused")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_localize)

    p = input_parser("eval", "score proposals against ground truth",
                     checkpoints=False)
    p.add_argument("--proposals", required=True)
    p.add_argument("--out", required=True,
                   help="output basename (.json and .txt are appended)")
    p.set_defaults(func=cmd_eval)

    p = input_parser("plot", "emit attention CSV + SVG per video")
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
    except MemoryError as exc:
        # the input asked for the size that could not be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
