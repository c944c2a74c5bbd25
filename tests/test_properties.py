"""Property tests for the input contracts: whatever bytes a checkpoint
file or a config file holds, loading it either succeeds or raises the
module's own error type, which the CLI turns into "exit 1 with a message".

Example counts are bounded and derandomized, so every run tests the same
inputs and the suite stays fast.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from slu.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from slu.config import ConfigError, build_config
from slu.gradcheck import toy_setup

from helpers import rewrite_header

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)
_TMP = tempfile.TemporaryDirectory(prefix="slu-properties-")  # removed at exit
WORKDIR = Path(_TMP.name)


def _valid_checkpoint_bytes() -> bytes:
    model, _ = toy_setup(seed=0)
    path = WORKDIR / "valid.ckpt"
    save_checkpoint(path, Checkpoint(model.config, model.vocab, model.state_arrays()))
    return path.read_bytes()


VALID = _valid_checkpoint_bytes()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _set_path(header, path, value):
    """``header`` with the entry at ``path`` (keys or list indices) set."""
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return header


HEADER_PATHS = [
    ("format_version",), ("config",), ("vocab",), ("best_dev",), ("epoch",),
    ("params",), ("config", "hidden_dim"), ("config", "lr"), ("config", "ablation"),
    ("config", "no_such_key"), ("vocab", "words"), ("vocab", "slots"),
    ("params", 0), ("params", 0, "name"), ("params", 0, "shape"),
    ("params", 0, "dtype"), ("params", 0, "offset"), ("params", 0, "size"),
]


@st.composite
def checkpoint_bytes(draw):
    kind = draw(st.sampled_from(["any", "magic", "truncated", "flipped", "header"]))
    if kind == "any":
        return draw(st.binary(max_size=64))
    if kind == "magic":
        return MAGIC + draw(st.binary(max_size=64))
    if kind == "truncated":
        return VALID[: draw(st.integers(0, len(VALID) - 1))]
    if kind == "flipped":
        raw = bytearray(VALID)
        for _ in range(draw(st.integers(1, 4))):
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
        return bytes(raw)
    path = draw(st.sampled_from(HEADER_PATHS))
    value = draw(json_values)
    return rewrite_header(VALID, lambda h: _set_path(h, path, value))


def _deep_json_header(depth: int) -> bytes:
    text = b"[" * depth
    return MAGIC + len(text).to_bytes(8, "little") + text


@given(checkpoint_bytes())
@example(VALID)
@example(_deep_json_header(10_000))
@example(rewrite_header(VALID, lambda h: _set_path(h, ("config", "no_such_key"), 1)))
@PROPERTY
def test_any_bytes_load_or_raise_checkpoint_error(raw):
    path = WORKDIR / "probe.ckpt"
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


config_lines = st.one_of(
    st.text(max_size=40),
    st.builds(
        "{} = {}".format,
        st.sampled_from(["hidden_dim", "lr", "dropout", "lowercase", "ablation",
                         "clip_norm", "num_heads", "seed", "bogus"]),
        st.one_of(st.text(max_size=12),
                  st.sampled_from(["8", "-1", "0", "nan", "inf", "-inf", "1e400",
                                   "true", "full", "0.5", "1_0"])),
    ),
)


@given(st.lists(config_lines, max_size=6).map("\n".join))
@example("lr = nan")
@example("clip_norm = inf")
@PROPERTY
def test_any_text_parses_as_config_or_raises_config_error(text):
    path = WORKDIR / "probe.cfg"
    path.write_bytes(text.encode("utf-8"))
    try:
        config = build_config(path)
    except ConfigError:
        return
    for value in config.to_dict().values():
        if isinstance(value, float):
            assert math.isfinite(value)
    json.dumps(config.to_dict())  # a parsed config can be written to a checkpoint
