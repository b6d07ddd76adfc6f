"""Dense numeric kernel: layer primitives with explicit forward/backward
passes, the convex fusion of two streams, and the Adam optimizer.

All arrays are float64 numpy arrays, and no function here converts its
inputs: ``basemodel.forward`` makes the float64 copy of a video's
float32 features, the one place features are converted. Nor do they
check them: the shapes they get are the ones ``basemodel.param_layout``
builds from a checked ``ModelConfig``, and the fusion weight is a
checked ``RefinementConfig.beta`` (or 1 or 0, a single stream). Every
backward function is a pure function of the recorded forward inputs, so
there is no tape.
"""

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# temporal convolution (1-D over time, zero padding, stride 1)

def temporal_conv_forward(inp, weights, bias):
    """Convolve a (T, D_in) sequence with a (K, D_in, D_out) kernel.

    Zero padding keeps the output length equal to T. K must be odd.
    """
    k, d_in, d_out = weights.shape
    t = inp.shape[0]
    half = k // 2
    padded = np.zeros((t + 2 * half, d_in))
    padded[half:half + t] = inp
    out = np.empty((t, d_out))
    out[:] = bias
    for j in range(k):
        out += padded[j:j + t] @ weights[j]
    return out


def temporal_conv_backward(inp, weights, d_out, need_input):
    """Gradients of temporal_conv_forward w.r.t. input, weights, bias.

    With need_input false the input gradient is not computed and comes
    back as None (the first layer of a model has no use for it).
    """
    t, d_in = inp.shape
    k = weights.shape[0]
    half = k // 2
    padded = np.zeros((t + 2 * half, d_in))
    padded[half:half + t] = inp
    d_weights = np.empty_like(weights)
    for j in range(k):
        d_weights[j] = padded[j:j + t].T @ d_out
    d_bias = d_out.sum(axis=0)
    if not need_input:
        return None, d_weights, d_bias
    d_padded = np.zeros_like(padded)
    for j in range(k):
        d_padded[j:j + t] += d_out @ weights[j].T
    return d_padded[half:half + t], d_weights, d_bias


# ---------------------------------------------------------------------------
# fully connected layer

def fc_forward(inp, weights, bias):
    """Affine map inp @ weights + bias; inp may be a row or a matrix."""
    return inp @ weights + bias


def fc_backward(inp, weights, d_out):
    """Gradients of fc_forward w.r.t. input, weights, bias for one input
    row, the pooled feature."""
    return d_out @ weights.T, np.outer(inp, d_out), d_out.copy()


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid_backward(sig, d_out):
    """Gradient through sigmoid given its *output* value."""
    return d_out * sig * (1.0 - sig)


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(pre, d_out):
    """Gradient through relu given the *pre-activation* value."""
    return d_out * (pre > 0)


def softmax(z):
    """Stable softmax over the last axis (max subtraction)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs, d_probs):
    """Gradient w.r.t. logits given softmax output and upstream gradient."""
    inner = (probs * d_probs).sum(axis=-1, keepdims=True)
    return probs * (d_probs - inner)


# ---------------------------------------------------------------------------
# two-stream fusion
#
# consensus, localization and pipeline each import it from here, never from
# one another: the benchmark's tracer wraps each of those three names, and a
# module that is first imported while it runs would otherwise bind an
# already-wrapped function and count every call twice

def fuse_attention(rgb, flow, beta):
    """Convex combination beta*rgb + (1-beta)*flow, elementwise, of two
    outputs of the same shape; beta lies in [0, 1]."""
    return beta * rgb + (1.0 - beta) * flow


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam optimizer state over one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float
    step_count: int = 0


def adam_init(params, learning_rate):
    """Fresh state for the float64 parameter vector params."""
    return AdamState(first_moment=np.zeros_like(params),
                     second_moment=np.zeros_like(params),
                     learning_rate=learning_rate)


def adam_step(params, grads, state):
    """One in-place Adam update of the vector params given the vector
    grads."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m = state.first_moment
    v = state.second_moment
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(grads)
    m_hat = m / bc1
    v_hat = v / bc2
    params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)

