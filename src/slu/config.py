"""Run configuration: typed hyperparameters, file parsing, and hashing.

Config files are flat ``key = value`` lines with ``#`` comments. Values are
coerced to the declared field types; unknown keys and malformed values are
rejected rather than ignored so typos cannot silently change a run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import utf8_lines


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent configuration input."""


class AblationMode(str, enum.Enum):
    """Which pieces of the interaction block stay active."""

    FULL = "full"
    NO_INTENT_LABEL_ATTENTION = "no_intent_label_attention"
    NO_SLOT_LABEL_ATTENTION = "no_slot_label_attention"
    SELF_ATTENTION = "self_attention"
    INTENT_TO_SLOT_ONLY = "intent_to_slot_only"
    SLOT_TO_INTENT_ONLY = "slot_to_intent_only"


@dataclass
class Config:
    """All tunables for one run, shared by model construction and training."""

    embed_dim: int = 300          # word vector width (matches 300-d pretrained files)
    hidden_dim: int = 128         # encoder output width d; half per direction
    num_layers: int = 2           # stacked interaction blocks
    num_heads: int = 8            # attention heads; hidden_dim / num_heads = d_k
    ffn_dim: int = 512            # inner width of the fused feed-forward
    dropout: float = 0.1          # attention/FFN dropout, inverted scaling
    encoder_dropout: float = 0.0  # dropout on the embeddings fed to the BiLSTM
    ablation: str = "full"
    lowercase: bool = True        # fold tokens to lower case at load time
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 15            # epochs without dev improvement before stopping
    weight_decay: float = 1e-6    # decoupled; biases and norm affines exempt
    clip_norm: float = 5.0        # global gradient-norm ceiling; 0 disables
    seed: int = 42

    def validate(self) -> "Config":
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass: only a bool field takes one.
            if (not isinstance(value, _ACCEPTS[f.type])
                    or isinstance(value, bool) != (f.type == "bool")):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.hidden_dim <= 0 or self.hidden_dim % 2 != 0:
            raise ConfigError(
                f"hidden_dim must be a positive even number, got {self.hidden_dim}"
            )
        if self.num_heads <= 0 or self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} is not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be at least 1, got {self.num_layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.encoder_dropout < 1.0:
            raise ConfigError(
                f"encoder_dropout must be in [0, 1), got {self.encoder_dropout}"
            )
        if self.embed_dim <= 0:
            raise ConfigError(f"embed_dim must be positive, got {self.embed_dim}")
        if self.ffn_dim <= 0:
            raise ConfigError(f"ffn_dim must be positive, got {self.ffn_dim}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be non-negative, got {self.patience}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.clip_norm < 0:
            raise ConfigError(f"clip_norm must be non-negative, got {self.clip_norm}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        try:
            AblationMode(self.ablation)
        except ValueError:
            valid = ", ".join(m.value for m in AblationMode)
            raise ConfigError(
                f"unknown ablation mode {self.ablation!r}; expected one of: {valid}"
            ) from None
        return self

    @property
    def mode(self) -> AblationMode:
        return AblationMode(self.ablation)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        return _coerce(cls(), d).validate()

    def replace(self, **kwargs) -> "Config":
        return dataclasses.replace(self, **kwargs).validate()


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}
_ACCEPTS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _coerce_value(key: str, raw) -> object:
    if key not in _FIELD_TYPES:
        known = ", ".join(sorted(_FIELD_TYPES))
        raise ConfigError(f"unknown config key {key!r}; known keys: {known}")
    ftype = _FIELD_TYPES[key]
    if isinstance(raw, str):
        text = raw.strip()
        try:
            if ftype == "int":
                return int(text)
            if ftype == "float":
                return float(text)
            if ftype == "bool":
                low = text.lower()
                if low in ("true", "1", "yes", "on"):
                    return True
                if low in ("false", "0", "no", "off"):
                    return False
                raise ValueError(text)
            return text
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    return raw


def _coerce(base: Config, pairs: dict) -> Config:
    updates = {k: _coerce_value(k, v) for k, v in pairs.items()}
    return dataclasses.replace(base, **updates)


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; ``#`` starts a comment."""
    pairs: dict[str, str] = {}
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate("".join(utf8_lines(path, ConfigError)).splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def parse_overrides(items: list[str]) -> dict[str, str]:
    """Parse repeated ``--set key=value`` arguments."""
    pairs: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(
    file_path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
) -> Config:
    """Defaults, then the config file, then overrides; later sources win."""
    pairs: dict[str, str] = {}
    if file_path is not None:
        pairs.update(read_config_file(file_path))
    if overrides:
        pairs.update(overrides)
    return _coerce(Config(), pairs).validate()


def config_hash(config: Config) -> str:
    """Short stable digest of the full configuration (12 hex chars)."""
    lines = sorted(f"{k}={v!r}" for k, v in config.to_dict().items())
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]
