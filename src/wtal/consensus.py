"""Pseudo ground truth from the two streams' fused attention, the
iterative refinement training loop, and their CSVs, each read and written
with the csv module: a video's pseudo GT and the training log.

Iteration 0 trains both streams with the video-level objective only.
Before every later iteration, the per-stream checkpoints with the lowest
epoch-mean loss from the previous iteration produce a fused attention
sequence per training video, which becomes the frame-level pseudo ground
truth for the next round of training. The pseudo-GT helpers take the
float64 arrays of ``basemodel.forward`` and of each other as they are;
``make_pseudo_gt`` keeps its one guard, fused attention in [0, 1].
"""

import csv
import operator
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import basemodel, losses, numkit, parallel
from .formats import DataError, NumericError, shown
from .numkit import fuse_attention

STREAMS = ("rgb", "flow")

# An iteration trains the flow stream in a forked worker from this many
# snippet-epochs (epochs x the train videos' snippets) per stream: where
# the work moved to the worker costs twice the fork. Measured in `wtal
# train` on 2 vCPUs: one stream takes about 9.1 us per snippet-epoch, and
# the fork, with the wait for the worker to get a CPU of its own, up to
# 150 ms.
FORK_MIN_WORK = 33000


def save_pseudo_gt(path, values):
    """CSV with header "snippet,pseudo_gt", one row per 1-based snippet."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snippet", "pseudo_gt"])
        writer.writerows(enumerate(values.tolist(), start=1))


def load_pseudo_gt(path, num_snippets):
    """Values of a save_pseudo_gt file; each must be a number in [0, 1]."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if "pseudo_gt" not in (reader.fieldnames or ()):
                raise DataError(f"{path}: missing column 'pseudo_gt'")
            cells = [row["pseudo_gt"] for row in reader]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len(cells) != num_snippets:
        raise DataError(f"{path}: 'pseudo_gt' has {len(cells)} rows, "
                        f"expected {num_snippets}")
    try:
        values = np.array([float(c) for c in cells])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: 'pseudo_gt' is not numeric") from exc
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        raise DataError(f"{path}: 'pseudo_gt' of snippet {bad[0] + 1} is "
                        f"{shown(cells[bad[0]], repr)}, not in [0, 1]")
    return values


def max_pool_smooth(attention, kernel):
    """Temporal max pooling of T >= 1 values, stride 1, centered windows
    truncated at the sequence boundaries (no padding). A NaN in a window
    makes its max NaN; the max of +0.0 and -0.0 may be either. The kernel
    is odd (a checked ``RefinementConfig.smoothing_kernel``)."""
    # -inf outside the sequence is never a window's max, so the windows of
    # the padded copy have the maxima of the truncated ones
    padded = np.pad(attention, kernel // 2, constant_values=-np.inf)
    return sliding_window_view(padded, kernel).max(axis=1)


def make_pseudo_gt(fused, kind, theta):
    """Frame-level pseudo GT values of kind "soft" or "hard". Soft: a copy
    of the fused attention. Hard: 1 where fused > theta else 0 (strict
    inequality, so a value equal to theta maps to 0)."""
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all((fused >= 0.0) & (fused <= 1.0)):
        raise ValueError("fused attention must lie in [0, 1]")
    if kind == "soft":
        return fused.copy()
    return (fused > theta).astype(np.float64)


def compute_pseudo_gt(models, videos, refine_cfg):
    """Pure function of frozen checkpoints + features -> {video id: pseudo
    GT values}."""
    out = {}
    for video in videos:
        rgb, flow = (basemodel.forward(models[s], video.features(s)).attention
                     for s in STREAMS)
        fused = fuse_attention(rgb, flow, refine_cfg.beta)
        if refine_cfg.smoothing_kernel:
            fused = max_pool_smooth(fused, refine_cfg.smoothing_kernel)
        out[video.id] = make_pseudo_gt(fused, refine_cfg.kind,
                                       refine_cfg.theta)
    return out


@dataclass
class LogRow:
    iteration: int
    epoch: int
    stream: str
    mean_cls_loss: float
    mean_att_loss: float
    mean_gt_loss: float | None
    mean_total_loss: float


def save_training_log(path, rows):
    """CSV with one column per LogRow field; floats are written as their
    shortest round-trip repr, an absent pseudo-GT mean as an empty cell."""
    names = [f.name for f in fields(LogRow)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(map(operator.attrgetter(*names), rows))


@dataclass
class RefinementResult:
    models: dict                     # final live models per stream
    checkpoints: list                # per iteration: {stream: StreamModel}
    checkpoint_meta: list            # per iteration: {stream: info dict}
    log_rows: list = field(default_factory=list)
    pseudo_gt: list = field(default_factory=list)  # index n -> GT used at n


@dataclass
class StreamIteration:
    """What one stream's training in one iteration hands back."""
    final: np.ndarray      # flat parameters after the last epoch
    best: np.ndarray       # flat parameters of the lowest-loss epoch
    best_info: dict        # {"epoch", "mean_loss"} of that epoch
    log_rows: list         # one LogRow per epoch
    rng_state: dict        # the shuffle rng's bit_generator.state


def _train_one_iteration(model, videos, pseudo, iteration, epochs, loss_cfg,
                         refine_cfg, rng):
    """Train one stream for one refinement iteration with a fresh Adam
    state (one whole video per optimizer step, seeded shuffle per epoch);
    the best epoch has the lowest epoch-mean total loss."""
    state = numkit.adam_init(model.flat, refine_cfg.learning_rate)
    grad = basemodel.StreamModel(config=model.config,
                                 modality=model.modality)
    best_loss = np.inf
    best_params = model.flat.copy()
    best_epoch = -1
    log_rows = []
    n = len(videos)
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums = np.zeros(3)  # cls, att, gt
        for vi in order:
            video = videos[vi]
            fp = basemodel.forward(model, video.features(model.modality))
            gt = pseudo[video.id] if pseudo is not None else None
            cls_val, att_val, gt_val, total, d_att, d_pred = \
                losses.video_objective(fp, video.label, gt, loss_cfg)
            if not np.isfinite(total):
                raise NumericError(model.modality, iteration, epoch,
                                   video.id)
            basemodel.backward(model, fp, d_attention=d_att,
                               d_prediction=d_pred, out=grad)
            numkit.adam_step(model.flat, grad.flat, state)
            sums += (cls_val, att_val, gt_val or 0.0)
        means = sums / n
        gt_mean = float(means[2]) if pseudo is not None else None
        total_mean = losses.total_loss(float(means[0]), float(means[1]),
                                       loss_cfg, gt_value=gt_mean)
        log_rows.append(LogRow(iteration=iteration, epoch=epoch,
                               stream=model.modality,
                               mean_cls_loss=float(means[0]),
                               mean_att_loss=float(means[1]),
                               mean_gt_loss=gt_mean,
                               mean_total_loss=total_mean))
        if total_mean < best_loss:
            best_loss = total_mean
            best_params = model.flat.copy()
            best_epoch = epoch
    return StreamIteration(final=model.flat.copy(), best=best_params,
                           best_info={"epoch": best_epoch,
                                      "mean_loss": best_loss},
                           log_rows=log_rows,
                           rng_state=rng.bit_generator.state)


def run_refinement(train_videos, model_cfg, loss_cfg, refine_cfg, seed):
    """Full iterative refinement over both streams.

    Model parameters warm-start across iterations; the Adam state resets
    at every iteration boundary. Pseudo GT for iteration n+1 comes from
    the lowest-loss checkpoints of iteration n.

    An iteration of at least FORK_MIN_WORK snippet-epochs per stream
    trains the streams in one process each, up to the CPUs in this
    process's affinity mask (``parallel.fork_map``); a smaller one trains
    them in this process. Nothing returned depends on their number.
    """
    if not train_videos:
        raise ValueError("empty training set")
    seeds = np.random.SeedSequence(seed).spawn(2 * len(STREAMS))
    init_rngs = {s: np.random.default_rng(seeds[i])
                 for i, s in enumerate(STREAMS)}
    shuffle_rngs = {s: np.random.default_rng(seeds[len(STREAMS) + i])
                    for i, s in enumerate(STREAMS)}
    models = {s: basemodel.StreamModel.initialize(model_cfg, s, init_rngs[s])
              for s in STREAMS}
    result = RefinementResult(models=models, checkpoints=[],
                              checkpoint_meta=[])
    result.pseudo_gt.append(None)  # iteration 0 has no frame supervision
    pseudo = None
    snippets = sum(video.num_snippets for video in train_videos)
    for iteration in range(refine_cfg.iterations + 1):
        epochs = (refine_cfg.epochs_initial if iteration == 0
                  else refine_cfg.epochs_refine)
        processes = (parallel.cpus() if epochs * snippets >= FORK_MIN_WORK
                     else 1)
        trained = parallel.fork_map(
            lambda s: _train_one_iteration(
                models[s], train_videos, pseudo, iteration, epochs,
                loss_cfg, refine_cfg, shuffle_rngs[s]),
            STREAMS, processes,
            lambda first: f"the training worker for stream {STREAMS[first]}")
        snapshot = {}
        meta = {}
        for stream, out in zip(STREAMS, trained):
            # the worker's stream warm-starts from what it handed back
            models[stream].flat[...] = out.final
            shuffle_rngs[stream].bit_generator.state = out.rng_state
            result.log_rows.extend(out.log_rows)
            snapshot[stream] = basemodel.StreamModel(config=model_cfg,
                                                     modality=stream)
            snapshot[stream].flat[...] = out.best
            meta[stream] = out.best_info
        result.checkpoints.append(snapshot)
        result.checkpoint_meta.append(meta)
        if iteration < refine_cfg.iterations:
            pseudo = compute_pseudo_gt(snapshot, train_videos, refine_cfg)
            result.pseudo_gt.append(pseudo)
    return result
