"""One stream's model: temporal-convolution embedding, attention head,
attention-weighted pooling, video-level classifier, and per-snippet class
activation map (forward and exact backward).
"""

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numkit
from .numkit import ShapeError

CHECKPOINT_MAGIC = "wtal-checkpoint-v1"


@dataclass
class ModelConfig:
    feature_dim: int
    num_classes: int
    embed_dim: int | None = None   # None -> same as feature_dim
    conv_layers: int = 2
    kernel_size: int = 3

    def __post_init__(self):
        if self.embed_dim is None:
            self.embed_dim = self.feature_dim
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ValueError("kernel_size must be odd")
        if self.conv_layers < 1 or self.embed_dim < 1:
            raise ValueError("conv_layers and embed_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


@dataclass
class StreamModel:
    """Parameters of one stream. The two streams never share parameters."""

    config: ModelConfig
    modality: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def initialize(config, modality, rng):
        """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
        params = {}
        d_in = config.feature_dim
        k = config.kernel_size
        for layer in range(config.conv_layers):
            d_out = config.embed_dim
            bound = 1.0 / np.sqrt(k * d_in)
            params[f"conv{layer}_w"] = rng.uniform(-bound, bound,
                                                   size=(k, d_in, d_out))
            params[f"conv{layer}_b"] = np.zeros(d_out)
            d_in = d_out
        d = config.embed_dim
        bound = 1.0 / np.sqrt(d)
        params["att_w"] = rng.uniform(-bound, bound, size=d)
        params["att_b"] = np.array(0.0)
        params["cls_w"] = rng.uniform(-bound, bound,
                                      size=(d, config.num_classes))
        params["cls_b"] = np.zeros(config.num_classes)
        return StreamModel(config=config, modality=modality, params=params)

    def clone_params(self):
        return {k: v.copy() for k, v in self.params.items()}


@dataclass
class ForwardPass:
    """Forward outputs plus the intermediates needed for backward."""

    attention: np.ndarray          # (T,) in (0, 1)
    tcam: np.ndarray               # (T, C), rows are probability vectors
    video_prediction: np.ndarray   # (C,)
    embedded: np.ndarray           # (T, D')
    foreground_feature: np.ndarray  # (D',)
    conv_inputs: list = field(default_factory=list)
    conv_preacts: list = field(default_factory=list)


def forward(model, features):
    """Run one stream on a (T, D) feature sequence."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.feature_dim:
        raise ShapeError("feature width does not match the model")
    conv_inputs = []
    conv_preacts = []
    for layer in range(model.config.conv_layers):
        conv_inputs.append(x)
        pre = numkit.temporal_conv_forward(x, model.params[f"conv{layer}_w"],
                                           model.params[f"conv{layer}_b"])
        conv_preacts.append(pre)
        x = numkit.relu(pre)
    embedded = x
    att_logit = embedded @ model.params["att_w"] + model.params["att_b"]
    attention = numkit.sigmoid(att_logit)
    att_sum = attention.sum()
    foreground = (attention[:, None] * embedded).sum(axis=0) / att_sum
    video_logits = numkit.fc_forward(foreground, model.params["cls_w"],
                                     model.params["cls_b"])
    video_prediction = numkit.softmax(video_logits)
    tcam_logits = numkit.fc_forward(embedded, model.params["cls_w"],
                                    model.params["cls_b"])
    tcam = numkit.softmax(tcam_logits)
    return ForwardPass(attention=attention, tcam=tcam,
                       video_prediction=video_prediction, embedded=embedded,
                       foreground_feature=foreground,
                       conv_inputs=conv_inputs, conv_preacts=conv_preacts)


def backward(model, fp, d_attention=None, d_prediction=None, d_tcam=None):
    """Exact parameter gradients given upstream gradients of the losses
    w.r.t. attention, video prediction, and T-CAM (any subset).
    """
    embedded = fp.embedded
    attention = fp.attention
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    d_embedded = np.zeros_like(embedded)
    d_att = np.zeros_like(attention)
    if d_attention is not None:
        d_att += np.asarray(d_attention, dtype=np.float64)

    if d_prediction is not None:
        d_logits = numkit.softmax_backward(fp.video_prediction, d_prediction)
        d_fg, d_w, d_b = numkit.fc_backward(fp.foreground_feature,
                                            model.params["cls_w"], d_logits)
        grads["cls_w"] += d_w
        grads["cls_b"] += d_b
        # attention-weighted pooling: quotient rule through sum(attention)
        att_sum = attention.sum()
        d_att += (embedded - fp.foreground_feature) @ d_fg / att_sum
        d_embedded += np.outer(attention, d_fg) / att_sum

    if d_tcam is not None:
        d_rows = numkit.softmax_backward(fp.tcam, d_tcam)
        d_emb, d_w, d_b = numkit.fc_backward(embedded, model.params["cls_w"],
                                             d_rows)
        grads["cls_w"] += d_w
        grads["cls_b"] += d_b
        d_embedded += d_emb

    d_att_logit = numkit.sigmoid_backward(attention, d_att)
    grads["att_w"] += embedded.T @ d_att_logit
    grads["att_b"] += d_att_logit.sum()
    d_embedded += np.outer(d_att_logit, model.params["att_w"])

    d_x = d_embedded
    for layer in reversed(range(model.config.conv_layers)):
        d_pre = numkit.relu_backward(fp.conv_preacts[layer], d_x)
        d_x, d_w, d_b = numkit.temporal_conv_backward(
            fp.conv_inputs[layer], model.params[f"conv{layer}_w"], d_pre)
        grads[f"conv{layer}_w"] += d_w
        grads[f"conv{layer}_b"] += d_b
    return grads


# ---------------------------------------------------------------------------
# checkpoint I/O: JSON header + raw little-endian float64 parameter block

def save_checkpoint(path, model, meta=None):
    header = {
        "format": CHECKPOINT_MAGIC,
        "modality": model.modality,
        "config": asdict(model.config),
        "params": [{"name": k, "shape": list(np.shape(v))}
                   for k, v in sorted(model.params.items())],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for entry in header["params"]:
            arr = np.ascontiguousarray(model.params[entry["name"]],
                                       dtype="<f8")
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Load a checkpoint; returns (StreamModel, meta dict)."""
    with open(path, "rb") as fh:
        raw = fh.read(4)
        if len(raw) != 4:
            raise ValueError(f"{path}: truncated checkpoint")
        (hlen,) = struct.unpack("<I", raw)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if header.get("format") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        config = ModelConfig(**header["config"])
        params = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = fh.read(8 * count)
            if len(data) != 8 * count:
                raise ValueError(f"{path}: truncated parameter block")
            params[entry["name"]] = np.frombuffer(
                data, dtype="<f8").astype(np.float64).reshape(shape)
    model = StreamModel(config=config, modality=header["modality"],
                        params=params)
    return model, header["meta"]
