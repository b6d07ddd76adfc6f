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

from .formats import DataError, finite_number, read_json, write_json


def _check(config, names, expected, ok):
    """A ValueError naming the first field of names whose value in config
    fails ok, its value and what was expected of it."""
    for name in names:
        if not ok(value := getattr(config, name)):
            raise ValueError(f"field {name!r} is {json.dumps(value)}, "
                             f"expected {expected}")


def _odd(value):
    return value >= 1 and value % 2 == 1


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
        _check(self, ("kernel_size",), "an odd integer >= 1", _odd)
        _check(self, ("feature_dim", "conv_layers", "embed_dim"),
               "an integer >= 1", lambda v: v >= 1)
        _check(self, ("num_classes",), "an integer >= 2", lambda v: v >= 2)


@dataclass
class LossConfig:
    alpha: float = 0.1   # weight of the attention normalization term
    gamma: float = 2.0   # weight of the pseudo-GT term
    s: int = 8           # top/bottom fraction divisor: l = max(1, T // s)

    def __post_init__(self):
        _check(self, ("alpha", "gamma"), "a number >= 0", lambda v: v >= 0)
        _check(self, ("s",), "an integer >= 1", lambda v: v >= 1)


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
        _check(self, ("beta",), "a number in [0, 1]",
               lambda v: 0.0 <= v <= 1.0)
        _check(self, ("theta",), "a number in (0, 1)",
               lambda v: 0.0 < v < 1.0)
        _check(self, ("kind",), '"soft" or "hard"',
               lambda v: v in ("soft", "hard"))
        _check(self, ("iterations",), "an integer >= 0", lambda v: v >= 0)
        _check(self, ("epochs_initial", "epochs_refine"), "an integer >= 1",
               lambda v: v >= 1)
        _check(self, ("smoothing_kernel",), "0 or an odd integer >= 1",
               lambda v: v == 0 or _odd(v))
        _check(self, ("learning_rate",), "a number > 0", lambda v: v > 0.0)


@dataclass
class LocalizationConfig:
    upsample_factor: int = 8
    attention_threshold: float = 0.5
    top_k: int = 2
    class_score_floor: float = 0.1

    def __post_init__(self):
        _check(self, ("upsample_factor", "top_k"), "an integer >= 1",
               lambda v: v >= 1)
        _check(self, ("attention_threshold",), "a number in (0, 1)",
               lambda v: 0.0 < v < 1.0)
        _check(self, ("class_score_floor",), "a number in [0, 1]",
               lambda v: 0.0 <= v <= 1.0)


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


def _check_object(where, raw, hints, optional):
    """Raise a one-line DataError unless raw is a JSON object whose keys
    are keys of hints, each set to a value of its type hint, and which
    sets every key of hints that is not in optional."""
    if not isinstance(raw, dict):
        raise DataError(f"{where}: expected a JSON object, got "
                        f"{json.dumps(raw)}")
    known = sorted(hints)
    for key, value in raw.items():
        if key not in hints:
            raise DataError(f"{where}: unknown field {key!r} "
                            f"(expected one of {known})")
        if not _fits(value, hints[key]):
            raise DataError(f"{where}: field {key!r} expects "
                            f"{_describe(hints[key])}, got "
                            f"{json.dumps(value)}")
    for key in known:
        if key not in raw and key not in optional:
            raise DataError(f"{where}: missing field {key!r}")


def check_fields(where, raw, cls, whole=False):
    """Raise a one-line DataError unless raw is a JSON object that sets
    only settable fields of the config class cls, each to a value of its
    type; a whole config (a checkpoint's) sets every other field too."""
    hints = typing.get_type_hints(cls)
    settable = _settable(cls)
    _check_object(where, raw, hints if whole else
                  {key: hints[key] for key in settable}, settable)


def load_run_config(path):
    """The checked {section name: {field: value}} of the config file at
    path, {} for no file. Its top level holds only section names."""
    if path is None:
        return {}
    raw = read_json(path)
    _check_object(path, raw, dict.fromkeys(SECTIONS, dict), SECTIONS)
    for name, cls in SECTIONS.items():
        check_fields(f"{path}: config section {name!r}", raw.get(name, {}),
                     cls)
    return raw


def resolved_config(config, dataset, path):
    """{section name: config object} for every section in SECTIONS, from
    the {section name: {field: value}} of load_run_config; a value the
    section's constructor rejects is a DataError naming the config file
    path."""
    sections = {}
    for name, cls in SECTIONS.items():
        values = dict(config.get(name, {}))
        if name == "model":
            values.update(feature_dim=dataset.feature_dim,
                          num_classes=dataset.num_classes)
        try:
            sections[name] = cls(**values)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: config section {name!r}: "
                            f"{exc}") from exc
    return sections


def write_resolved_config(config, path):
    """Write every section of config with its defaults filled in, so
    that the file is complete and reloads as a config."""
    write_json(path, {name: {**_settable(cls), **config.get(name, {})}
                      for name, cls in SECTIONS.items()})
