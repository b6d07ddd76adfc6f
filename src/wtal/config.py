"""The run config of ``--config``: its five sections (model shape, loss
weights, refinement schedule, localization, evaluation), each checking
its values on construction; and reading (its keys and JSON types
checked by formats.check_object), resolving and writing the run config.
The module imports no numpy, so ``wtal eval`` never loads it.
"""

import dataclasses
import typing
from dataclasses import dataclass

from .formats import DataError, check_object, read_json, shown, write_json


def _check(config, names, expected, ok):
    """A DataError naming the first field of names whose value in config
    fails ok, its value and what was expected of it; the one wording of
    a field-value rule, for the config sections and the generator's
    settings alike."""
    for name in names:
        if not ok(value := getattr(config, name)):
            raise DataError(f"field {name!r} is {shown(value)}, "
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
        _check(self, ("thresholds",), "a non-empty list of numbers in (0, 1]",
               lambda v: v and all(0.0 < t <= 1.0 for t in v))
        # report.txt labels each threshold f"{t:.2f}" and report.json
        # keys it f"{t:g}"; for distinct multiples of 0.01 both name each
        # one exactly
        _check(self, ("thresholds",), "distinct multiples of 0.01",
               lambda v: len(set(v)) == len(v)
               and all(float(f"{t:.2f}") == t for t in v))


SECTIONS = {"model": ModelConfig, "loss": LossConfig,
            "refinement": RefinementConfig,
            "localization": LocalizationConfig,
            "evaluation": EvaluationConfig}

def _settable(cls):
    """{field name: default} of the fields a config may set; a field
    without a default (the model's shape) comes from the dataset."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def load_run_config(path):
    """The checked {section name: {field: value}} of the config file at
    path, {} for no file. Its top level holds only section names."""
    if path is None:
        return {}
    raw = read_json(path)
    check_object(path, raw, dict.fromkeys(SECTIONS, dict), SECTIONS)
    for name, cls in SECTIONS.items():
        hints, settable = typing.get_type_hints(cls), _settable(cls)
        check_object(f"{path}: config section {name!r}", raw.get(name, {}),
                     {key: hints[key] for key in settable}, settable)
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
