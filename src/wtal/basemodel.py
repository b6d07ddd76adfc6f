"""One stream's model: temporal-convolution embedding, attention head,
attention-weighted pooling and video-level classifier (forward and exact
backward), and for inference the per-snippet class activation map.
"""

import json
import math
import struct
import typing
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from . import numkit
from .config import ModelConfig
from .formats import DataError, check_object, parse_json, shown

CHECKPOINT_MAGIC = "wtal-checkpoint-v1"


def param_layout(config):
    """Ordered (name, shape) of one stream's parameters: their order in
    the flat parameter vector and the order of the initial random draws."""
    k, d, c = config.kernel_size, config.embed_dim, config.num_classes
    layout = []
    d_in = config.feature_dim
    for layer in range(config.conv_layers):
        layout += [(f"conv{layer}_w", (k, d_in, d)), (f"conv{layer}_b", (d,))]
        d_in = d
    return layout + [("att_w", (d,)), ("att_b", ()), ("cls_w", (d, c)),
                     ("cls_b", (c,))]


def _views(flat, layout):
    """{name: view of flat shaped as in layout}."""
    views = {}
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


@dataclass
class StreamModel:
    """Parameters of one stream. The two streams never share parameters.

    They live in one float64 vector ``flat``; ``params`` is a read-only
    mapping from each name of ``param_layout(config)`` to a view into it,
    so a parameter is written through its view
    (``model.params[name][...] = value``) and never detached from
    ``flat``. A model is made from its config alone, with every parameter
    zero; ``initialize`` and ``load_checkpoint`` then fill it.
    """

    config: ModelConfig
    modality: str
    params: Mapping = field(init=False)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layout = param_layout(self.config)
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in layout))
        self.params = MappingProxyType(_views(self.flat, layout))

    @staticmethod
    def initialize(config, modality, rng):
        """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases.
        A weight's fan-in is the product of all but its last axis, or the
        length of the 1-D attention weight."""
        model = StreamModel(config=config, modality=modality)
        for name, shape in param_layout(config):
            if name.endswith("_w"):
                fan_in = math.prod(shape[:-1]) if len(shape) > 1 else shape[0]
                bound = 1.0 / np.sqrt(fan_in)
                model.params[name][...] = rng.uniform(-bound, bound,
                                                      size=shape)
        return model


@dataclass
class ForwardPass:
    """Forward outputs plus the intermediates needed for backward."""

    attention: np.ndarray          # (T,) in (0, 1)
    video_prediction: np.ndarray   # (C,)
    embedded: np.ndarray           # (T, D')
    foreground_feature: np.ndarray  # (D',)
    conv_inputs: list = field(default_factory=list)
    conv_preacts: list = field(default_factory=list)
    tcam: np.ndarray | None = None  # (T, C) from infer; None from forward


def forward(model, features):
    """Run one stream on a (T, D) feature sequence. D is the model's
    ``feature_dim``: ``synthdata._read_features`` reads each file at the
    manifest's D, and ``cli._load_inference_inputs`` refuses a
    checkpoint of another width."""
    x = np.asarray(features, dtype=np.float64)
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
    return ForwardPass(attention=attention,
                       video_prediction=video_prediction, embedded=embedded,
                       foreground_feature=foreground,
                       conv_inputs=conv_inputs, conv_preacts=conv_preacts)


def infer(model, features):
    """``forward`` plus the T-CAM: the video classifier applied to each
    embedded snippet, (T, C) rows that are probability vectors. Only
    localization reads the T-CAM, so training runs ``forward`` alone."""
    fp = forward(model, features)
    fp.tcam = numkit.softmax(numkit.fc_forward(
        fp.embedded, model.params["cls_w"], model.params["cls_b"]))
    return fp


def backward(model, fp, d_attention, d_prediction, out):
    """Exact parameter gradients given upstream gradients of the losses
    w.r.t. attention and video prediction.

    The gradient overwrites the parameters of ``out``, a StreamModel of
    the same config, and is returned as its ``params``. Reusing ``out``
    across calls reuses its named views.
    """
    embedded = fp.embedded
    attention = fp.attention

    d_logits = numkit.softmax_backward(fp.video_prediction, d_prediction)
    d_fg, d_w, d_b = numkit.fc_backward(fp.foreground_feature,
                                        model.params["cls_w"], d_logits)
    out.params["cls_w"][...] = d_w
    out.params["cls_b"][...] = d_b
    # attention-weighted pooling: quotient rule through sum(attention)
    att_sum = attention.sum()
    d_att = d_attention + (embedded - fp.foreground_feature) @ d_fg / att_sum
    d_embedded = np.outer(attention, d_fg) / att_sum

    d_att_logit = numkit.sigmoid_backward(attention, d_att)
    out.params["att_w"][...] = embedded.T @ d_att_logit
    out.params["att_b"][...] = d_att_logit.sum()
    d_embedded += np.outer(d_att_logit, model.params["att_w"])

    d_x = d_embedded
    for layer in reversed(range(model.config.conv_layers)):
        d_pre = numkit.relu_backward(fp.conv_preacts[layer], d_x)
        d_x, d_w, d_b = numkit.temporal_conv_backward(
            fp.conv_inputs[layer], model.params[f"conv{layer}_w"], d_pre,
            need_input=layer > 0)
        out.params[f"conv{layer}_w"][...] = d_w
        out.params[f"conv{layer}_b"][...] = d_b
    return out.params


# ---------------------------------------------------------------------------
# checkpoint I/O: JSON header + raw little-endian float64 parameter block

def _header_params(config):
    """The checkpoint header's parameter list: sorted by name, which is
    also the order of the blocks after the header."""
    return [{"name": name, "shape": list(shape)}
            for name, shape in sorted(param_layout(config))]


def save_checkpoint(path, model, meta):
    header = {
        "format": CHECKPOINT_MAGIC,
        "modality": model.modality,
        "config": asdict(model.config),
        "params": _header_params(model.config),
        "meta": meta,
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
    """Load a checkpoint; returns (StreamModel, meta dict). A file that is
    not exactly a header plus the parameter blocks its config implies is
    a DataError naming the path and the field."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise DataError(f"{path}: truncated checkpoint")
    (hlen,) = struct.unpack_from("<I", data)
    offset = 4 + hlen
    if offset > len(data):   # most files of another kind end here
        raise DataError(f"{path}: not a model checkpoint (a header of "
                        f"{hlen} bytes runs past the end of the file)")
    header = parse_json(f"{path}: header", data[4:offset])
    if not isinstance(header, dict) or \
            header.get("format") != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint (field 'format' "
                        f"is not {CHECKPOINT_MAGIC!r})")
    check_object(path, header, {"format": str, "modality": str,
                                "config": dict, "params": list, "meta": dict})
    check_object(f"{path}: field 'config'", header["config"],
                 typing.get_type_hints(ModelConfig))
    try:
        config = ModelConfig(**header["config"])
    except ValueError as exc:
        raise DataError(f"{path}: field 'config': {exc}") from exc
    # each layer holds 2+ values: bound the count before the layout loops
    if 16 * config.conv_layers > len(data) - offset:
        raise DataError(f"{path}: field 'config': field 'conv_layers' is "
                        f"{config.conv_layers}, more than the file holds")
    expected = _header_params(config)
    if header["params"] != expected:
        listed = {e["name"]: e.get("shape") for e in header["params"]
                  if isinstance(e, dict) and isinstance(e.get("name"), str)}
        for entry in expected:
            name, shape = entry["name"], entry["shape"]
            if listed.get(name) != shape:
                found = (f"has shape {shown(listed[name])}"
                         if name in listed else "is missing")
                raise DataError(f"{path}: field 'params': parameter "
                                f"{name!r} {found}, expected shape {shape} "
                                "from field 'config'")
        raise DataError(f"{path}: field 'params' is not the sorted "
                        "parameter list of field 'config'")
    size = 8 * sum(math.prod(e["shape"]) for e in expected)
    if len(data) - offset != size:
        raise DataError(f"{path}: parameter block has "
                        f"{max(len(data) - offset, 0)} bytes, expected "
                        f"{size}")
    model = StreamModel(config=config, modality=header["modality"])
    for entry in expected:
        view = model.params[entry["name"]]
        view[...] = np.frombuffer(data, dtype="<f8", count=view.size,
                                  offset=offset).reshape(view.shape)
        offset += 8 * view.size
        bad = np.flatnonzero(~np.isfinite(view))
        if bad.size:
            index = [int(i) for i in np.unravel_index(bad[0], view.shape)]
            raise DataError(f"{path}: parameter {entry['name']!r}: value "
                            f"{view.flat[bad[0]]} at index {index} is not "
                            "finite")
    return model, header["meta"]
