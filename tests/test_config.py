"""Configuration checks: every range check of ``Config.validate`` and the
malformed-override errors, each raising ``ConfigError`` with its message."""

import pytest

from slu.config import Config, ConfigError, build_config, parse_overrides


@pytest.mark.parametrize("key,value,message", [
    ("hidden_dim", 0, "hidden_dim must be a positive even number"),
    ("hidden_dim", 127, "hidden_dim must be a positive even number"),
    ("num_heads", 0, "not divisible by num_heads 0"),
    ("num_heads", 3, "hidden_dim 128 is not divisible by num_heads 3"),
    ("num_layers", 0, "num_layers must be at least 1"),
    ("dropout", 1.0, r"dropout must be in \[0, 1\)"),
    ("encoder_dropout", -0.1, r"encoder_dropout must be in \[0, 1\)"),
    ("embed_dim", 0, "embed_dim must be positive"),
    ("ffn_dim", -4, "ffn_dim must be positive"),
    ("batch_size", 0, "batch_size must be at least 1"),
    ("max_epochs", 0, "max_epochs must be at least 1"),
    ("patience", -1, "patience must be non-negative"),
    ("lr", 0.0, "lr must be positive"),
    ("weight_decay", -1e-6, "weight_decay must be non-negative"),
    ("clip_norm", -0.5, "clip_norm must be non-negative"),
    ("seed", -1, "seed must be non-negative"),
    ("ablation", "no_labels", "unknown ablation mode 'no_labels'; expected one of: full, "),
])
def test_validate_rejects_an_out_of_range_value(key, value, message):
    Config().validate()
    with pytest.raises(ConfigError, match=message):
        Config().replace(**{key: value})


@pytest.mark.parametrize("overrides,message", [
    ({"lr": "fast"}, "bad value for 'lr': 'fast'"),
    ({"lowercase": "maybe"}, "bad value for 'lowercase'"),
    ({"no_such_key": "1"}, "unknown config key 'no_such_key'"),
])
def test_build_config_rejects_a_malformed_override(overrides, message):
    with pytest.raises(ConfigError, match=message):
        build_config(overrides=overrides)


def test_an_override_without_equals_is_rejected():
    assert parse_overrides(["lr = 0.5", "seed=3"]) == {"lr": "0.5", "seed": "3"}
    with pytest.raises(ConfigError, match="override must look like key=value, got 'lr'"):
        parse_overrides(["lr"])
