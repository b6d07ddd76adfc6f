"""The settable sections of a run config: model shape, loss weights,
refinement schedule and localization. Each checks its values on
construction. The module imports no numpy, so a command that only reads
a config (``wtal eval``) never loads it.
"""

from dataclasses import asdict, dataclass


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
        for name, value in asdict(self).items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer")
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
