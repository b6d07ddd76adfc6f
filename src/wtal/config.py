"""The run config of ``--config``: its five sections (model shape, loss
weights, refinement schedule, localization, evaluation), each checking
its values on construction; the JSON type rule, which also checks a
checkpoint's model config; and reading, resolving and writing the run
config. The module imports no numpy, so ``wtal eval`` never loads it.
"""

import dataclasses
import json
import types
import typing
from dataclasses import dataclass

from .formats import (DataError, finite_number, integer_field, read_json,
                      write_json)


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
        if min(self.feature_dim, self.conv_layers, self.embed_dim) < 1:
            raise ValueError("feature_dim, conv_layers and embed_dim must "
                             "be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


@dataclass
class LossConfig:
    alpha: float = 0.1   # weight of the attention normalization term
    gamma: float = 2.0   # weight of the pseudo-GT term
    s: int = 8           # top/bottom fraction divisor: l = max(1, T // s)

    def __post_init__(self):
        if self.alpha < 0 or self.gamma < 0 or self.s < 1:
            raise ValueError("alpha and gamma must be >= 0, s >= 1")


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


@dataclass
class LocalizationConfig:
    upsample_factor: int = 8
    attention_threshold: float = 0.5
    top_k: int = 2
    class_score_floor: float = 0.1

    def __post_init__(self):
        if self.upsample_factor < 1:
            raise ValueError("upsample_factor must be >= 1")
        if not 0.0 < self.attention_threshold < 1.0:
            raise ValueError("attention_threshold must lie in (0, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.class_score_floor <= 1.0:
            raise ValueError("class_score_floor must lie in [0, 1]")


@dataclass
class EvaluationConfig:
    thresholds: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                     0.9)

    def __post_init__(self):
        self.thresholds = tuple(self.thresholds)
        if not self.thresholds:
            raise ValueError("thresholds must not be empty")
        if not all(0.0 < t <= 1.0 for t in self.thresholds):
            raise ValueError("thresholds must lie in (0, 1]")
        # report.txt labels each threshold f"{t:.2f}" and report.json
        # keys it f"{t:g}"; for distinct multiples of 0.01 both name each
        # one exactly
        if (len(set(self.thresholds)) != len(self.thresholds)
                or any(float(f"{t:.2f}") != t for t in self.thresholds)):
            raise ValueError(f"thresholds {list(self.thresholds)} must be "
                             "distinct multiples of 0.01")


@dataclass
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


def check_fields(where, raw, cls, whole=False):
    """Raise a one-line DataError unless raw is a JSON object that sets
    only settable fields of the config class cls, each to a value of its
    type; a whole config (a checkpoint's) sets every other field too."""
    if not isinstance(raw, dict):
        raise DataError(f"{where}: expected a JSON object, got "
                        f"{json.dumps(raw)}")
    hints = typing.get_type_hints(cls)
    settable = _settable(cls)
    known = sorted(hints if whole else settable)
    for key, value in raw.items():
        if key not in known:
            raise DataError(f"{where}: unknown field {key!r} "
                            f"(expected one of {known})")
        if not _fits(value, hints[key]):
            raise DataError(f"{where}: field {key!r} expects "
                            f"{_describe(hints[key])}, got "
                            f"{json.dumps(value)}")
    for key in known:
        if key not in raw and key not in settable:
            raise DataError(f"{where}: missing field {key!r}")


def load_run_config(path=None, overrides=None):
    cfg = RunConfig()
    if path is not None:
        raw = read_json(path)
        check_fields(path, raw, RunConfig)
        integer_field(path, "seed", raw.get("seed", 0), least=0)
        for name, cls in SECTIONS.items():
            check_fields(f"{path}: config section {name!r}",
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
    write_json(path, payload)
