"""Model hyperparameters for the small trainable encoder."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..corpus import N_TAGS
from ..errors import ConfigurationError


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and initialization settings.

    The defaults describe the desk-scale configuration used throughout the
    package: 2 layers, 64-dimensional hidden states, 4 attention heads.
    """

    vocab_size: int
    n_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    max_positions: int = 128
    n_tags: int = N_TAGS
    seed: int = 0

    def validate(self) -> None:
        if self.vocab_size < 1:
            raise ConfigurationError(f"vocab_size must be positive: {self.vocab_size}")
        if self.n_layers < 0:
            raise ConfigurationError(f"n_layers must be >= 0: {self.n_layers}")
        if self.d_model < 1 or self.d_ff < 1:
            raise ConfigurationError("d_model and d_ff must be positive")
        if self.max_positions < 3:  # [CLS], at least one piece, [SEP]
            raise ConfigurationError(f"max_positions must be >= 3: {self.max_positions}")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigurationError(
                f"d_model ({self.d_model}) must be divisible by n_heads "
                f"({self.n_heads})"
            )
        if self.n_tags != N_TAGS:  # the tag head speaks the codec's tag ids
            raise ConfigurationError(f"n_tags must be {N_TAGS}: {self.n_tags}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)
