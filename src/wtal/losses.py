"""Training objectives: video-level cross entropy, attention normalization,
pseudo-ground-truth MSE, and their weighted combination.

Each loss returns its value together with the gradient needed by the
model's backward pass. The losses take the float64 arrays the model and
the trainer hand them and neither convert nor check any of it: a label
and a prediction of the model's C classes, and an attention sequence and
pseudo GT of the video's T >= 1 snippets (the manifest refuses a video
without one). Only ``consensus.run_refinement`` passes pseudo GT, and
never at iteration 0.
"""

import numpy as np

LOG_FLOOR = 1e-12


def classification_loss(y, y_hat):
    """Cross entropy -sum y_c log(y_hat_c) with a 1e-12 floor inside log."""
    return float(-(y * np.log(np.maximum(y_hat, LOG_FLOOR))).sum())


def classification_loss_grad(y, y_hat):
    """Gradient of classification_loss w.r.t. y_hat."""
    return -y / np.maximum(y_hat, LOG_FLOOR)


def attention_norm_loss(attention, s):
    """Mean of the l smallest attention values minus mean of the l largest.

    l = max(1, floor(T / s)). Ties are broken by lowest snippet index
    first. Returns (value, gradient); the gradient is -1/l on selected
    top entries and +1/l on selected bottom entries, summed where an
    index lands in both sets (possible when 2l > T).
    """
    t = attention.shape[0]
    l = max(1, t // int(s))
    ascending = np.argsort(attention, kind="stable")
    bottom = ascending[:l]
    descending = np.argsort(-attention, kind="stable")
    top = descending[:l]
    value = float(attention[bottom].mean() - attention[top].mean())
    grad = np.zeros(t)
    grad[bottom] = 1.0 / l
    grad[top] -= 1.0 / l
    return value, grad


def pseudo_gt_loss(attention, gt):
    """Mean squared error between the attention sequence and pseudo GT."""
    diff = attention - gt
    value = float(np.mean(diff * diff))
    grad = 2.0 * diff / attention.shape[0]
    return value, grad


def total_loss(cls_value, att_value, config, gt_value):
    """Weighted combination: cls + alpha*att (+ gamma*gt with pseudo GT;
    gt_value is None without it)."""
    total = cls_value + config.alpha * att_value
    if gt_value is not None:
        total += config.gamma * gt_value
    return float(total)


def video_objective(fp, label, pseudo, config):
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
    total = total_loss(cls_value, att_value, config, gt_value=gt_value)
    return cls_value, att_value, gt_value, total, d_attention, d_prediction
