"""Training objectives: video-level cross entropy, attention normalization,
pseudo-ground-truth MSE, and their weighted combination.

Each loss returns its value together with the gradient needed by the
model's backward pass.
"""

from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-12


@dataclass
class LossConfig:
    alpha: float = 0.1   # weight of the attention normalization term
    gamma: float = 2.0   # weight of the pseudo-GT term
    s: int = 8           # top/bottom fraction divisor: l = max(1, T // s)

    def __post_init__(self):
        if self.alpha < 0 or self.gamma < 0 or self.s < 1:
            raise ValueError("alpha and gamma must be >= 0, s >= 1")


def classification_loss(y, y_hat):
    """Cross entropy -sum y_c log(y_hat_c) with a 1e-12 floor inside log."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError("label and prediction lengths differ")
    return float(-(y * np.log(np.maximum(y_hat, LOG_FLOOR))).sum())


def classification_loss_grad(y, y_hat):
    """Gradient of classification_loss w.r.t. y_hat."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    return -y / np.maximum(y_hat, LOG_FLOOR)


def attention_norm_loss(attention, s):
    """Mean of the l smallest attention values minus mean of the l largest.

    l = max(1, floor(T / s)). Ties are broken by lowest snippet index
    first. Returns (value, gradient); the gradient is -1/l on selected
    top entries and +1/l on selected bottom entries, summed where an
    index lands in both sets (possible when 2l > T).
    """
    a = np.asarray(attention, dtype=np.float64)
    t = a.shape[0]
    if t < 1:
        raise ValueError("attention sequence must be nonempty")
    l = max(1, t // int(s))
    ascending = np.argsort(a, kind="stable")
    bottom = ascending[:l]
    descending = np.argsort(-a, kind="stable")
    top = descending[:l]
    value = float(a[bottom].mean() - a[top].mean())
    grad = np.zeros(t)
    np.add.at(grad, bottom, 1.0 / l)
    np.add.at(grad, top, -1.0 / l)
    return value, grad


def pseudo_gt_loss(attention, gt):
    """Mean squared error between the attention sequence and pseudo GT."""
    a = np.asarray(attention, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if a.shape != g.shape:
        raise ValueError("attention and pseudo-GT lengths differ")
    diff = a - g
    value = float(np.mean(diff * diff))
    grad = 2.0 * diff / a.shape[0]
    return value, grad


def total_loss(cls_value, att_value, config, gt_value=None, iteration=0):
    """Weighted combination: cls + alpha*att (+ gamma*gt after iteration 0)."""
    if gt_value is not None and iteration == 0:
        raise ValueError("pseudo-GT term is not defined at iteration 0")
    total = cls_value + config.alpha * att_value
    if gt_value is not None:
        total += config.gamma * gt_value
    return float(total)


def video_objective(fp, label, pseudo, config, iteration):
    """One stream's loss terms (gt None without pseudo GT), their total
    and the upstream gradients for basemodel.backward on one video's
    forward pass: (cls, att, gt, total, d_attention, d_prediction)."""
    cls_value = classification_loss(label, fp.video_prediction)
    d_prediction = classification_loss_grad(label, fp.video_prediction)
    att_value, d_att_norm = attention_norm_loss(fp.attention, config.s)
    d_attention = config.alpha * d_att_norm
    gt_value = None
    if pseudo is not None:
        gt_value, d_gt = pseudo_gt_loss(fp.attention, pseudo)
        d_attention = d_attention + config.gamma * d_gt
    total = total_loss(cls_value, att_value, config, gt_value=gt_value,
                       iteration=iteration)
    return cls_value, att_value, gt_value, total, d_attention, d_prediction
