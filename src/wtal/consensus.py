"""Two-stream fusion, pseudo-ground-truth generation, and the iterative
refinement training loop.

Iteration 0 trains both streams with the video-level objective only.
Before every later iteration, the per-stream checkpoints with the lowest
epoch-mean loss from the previous iteration produce a fused attention
sequence per training video, which becomes the frame-level pseudo ground
truth for the next round of training.
"""

import csv
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import basemodel, losses, numkit
from .synthdata import DataError

STREAMS = ("rgb", "flow")


class NumericError(RuntimeError):
    """Non-finite loss during training; carries stream/epoch/video."""

    def __init__(self, stream, iteration, epoch, video_id):
        super().__init__(
            f"non-finite loss: stream={stream} iteration={iteration} "
            f"epoch={epoch} video={video_id}")
        self.stream = stream
        self.iteration = iteration
        self.epoch = epoch
        self.video_id = video_id


@dataclass
class RefinementConfig:
    beta: float = 0.4            # fusion weight on the appearance stream
    theta: float = 0.5           # hard pseudo-GT threshold
    kind: str = "hard"           # "soft" | "hard"
    iterations: int = 4
    epochs_initial: int = 60
    epochs_refine: int = 20
    smoothing_kernel: int = 0    # 0 disables temporal max pooling
    learning_rate: float = 1e-4

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.kind not in ("soft", "hard"):
            raise ValueError("kind must be 'soft' or 'hard'")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.epochs_initial < 1 or self.epochs_refine < 1:
            raise ValueError("epochs_initial and epochs_refine must be >= 1")
        if self.smoothing_kernel < 0 or (self.smoothing_kernel
                                         and self.smoothing_kernel % 2 == 0):
            raise ValueError("smoothing_kernel must be 0 or odd")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")


def save_pseudo_gt(path, values):
    """CSV with header "snippet,pseudo_gt", one row per 1-based snippet."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snippet", "pseudo_gt"])
        for i, value in enumerate(values, start=1):
            writer.writerow([i, repr(float(value))])


def load_pseudo_gt(path, num_snippets):
    """Values of a save_pseudo_gt file; each must be a number in [0, 1]."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if "pseudo_gt" not in (reader.fieldnames or ()):
                raise DataError(f"{path}: missing column 'pseudo_gt'")
            cells = [row["pseudo_gt"] for row in reader]
    except UnicodeDecodeError as exc:
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
                        f"{cells[bad[0]]!r}, not in [0, 1]")
    return values


def fuse_attention(rgb, flow, beta):
    """Convex combination beta*rgb + (1-beta)*flow, elementwise."""
    rgb = np.asarray(rgb, dtype=np.float64)
    flow = np.asarray(flow, dtype=np.float64)
    if rgb.shape != flow.shape:
        raise ValueError("attention sequences differ in length")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return beta * rgb + (1.0 - beta) * flow


def max_pool_smooth(attention, kernel):
    """Temporal max pooling, stride 1, centered windows truncated at the
    sequence boundaries (no padding)."""
    if kernel % 2 == 0 or kernel < 1:
        raise ValueError("kernel must be odd and positive")
    a = np.asarray(attention, dtype=np.float64)
    half = kernel // 2
    t = a.shape[0]
    return np.array([a[max(0, i - half):min(t, i + half + 1)].max()
                     for i in range(t)])


def make_pseudo_gt(fused, kind, theta):
    """Frame-level pseudo GT values. Soft: a copy of the fused attention.
    Hard: 1 where fused > theta else 0 (strict inequality, so a value
    equal to theta maps to 0)."""
    fused = np.asarray(fused, dtype=np.float64)
    if fused.min() < 0.0 or fused.max() > 1.0:
        raise ValueError("fused attention must lie in [0, 1]")
    if kind == "soft":
        return fused.copy()
    if kind == "hard":
        return (fused > theta).astype(np.float64)
    raise ValueError("kind must be 'soft' or 'hard'")


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(LogRow)])
        writer.writerows(astuple(row) for row in rows)


@dataclass
class RefinementResult:
    models: dict                     # final live models per stream
    checkpoints: list                # per iteration: {stream: StreamModel}
    checkpoint_meta: list            # per iteration: {stream: info dict}
    log_rows: list = field(default_factory=list)
    pseudo_gt: list = field(default_factory=list)  # index n -> GT used at n


def _train_one_iteration(model, videos, pseudo, iteration, epochs, loss_cfg,
                         refine_cfg, rng, log_rows):
    """Train one stream for one refinement iteration with a fresh Adam
    state (one whole video per optimizer step, seeded shuffle per epoch).

    Returns (best_params, best_info) by lowest epoch-mean total loss;
    best_params is a copy of the model's flat parameter vector.
    """
    state = numkit.adam_init(model.flat, refine_cfg.learning_rate)
    grad = basemodel.StreamModel(config=model.config,
                                 modality=model.modality)
    best_loss = np.inf
    best_params = model.flat.copy()
    best_epoch = -1
    n = len(videos)
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums = np.zeros(3)  # cls, att, gt
        for vi in order:
            video = videos[vi]
            fp = basemodel.forward(model, video.features(model.modality))
            gt = pseudo[video.id] if pseudo is not None else None
            cls_val, att_val, gt_val, total, d_att, d_pred = \
                losses.video_objective(fp, video.label, gt, loss_cfg,
                                       iteration)
            if not np.isfinite(total):
                raise NumericError(model.modality, iteration, epoch,
                                   video.id)
            basemodel.backward(model, fp, d_attention=d_att,
                               d_prediction=d_pred, out=grad)
            numkit.adam_step(model.flat, grad.flat, state)
            sums += (cls_val, att_val, gt_val or 0.0)
        means = sums / n
        gt_mean = float(means[2]) if pseudo is not None else None
        total_mean = losses.total_loss(
            float(means[0]), float(means[1]), loss_cfg,
            gt_value=gt_mean, iteration=iteration)
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
    return best_params, {"epoch": best_epoch, "mean_loss": best_loss}


def run_refinement(train_videos, model_cfg, loss_cfg, refine_cfg, seed):
    """Full iterative refinement over both streams.

    Model parameters warm-start across iterations; the Adam state resets
    at every iteration boundary. Pseudo GT for iteration n+1 comes from
    the lowest-loss checkpoints of iteration n.
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
    for iteration in range(refine_cfg.iterations + 1):
        epochs = (refine_cfg.epochs_initial if iteration == 0
                  else refine_cfg.epochs_refine)
        snapshot = {}
        meta = {}
        for stream in STREAMS:
            best_params, info = _train_one_iteration(
                models[stream], train_videos, pseudo, iteration, epochs,
                loss_cfg, refine_cfg, shuffle_rngs[stream],
                result.log_rows)
            snapshot[stream] = basemodel.StreamModel(config=model_cfg,
                                                     modality=stream)
            snapshot[stream].flat[...] = best_params
            meta[stream] = info
        result.checkpoints.append(snapshot)
        result.checkpoint_meta.append(meta)
        if iteration < refine_cfg.iterations:
            pseudo = compute_pseudo_gt(snapshot, train_videos, refine_cfg)
            result.pseudo_gt.append(pseudo)
    return result
