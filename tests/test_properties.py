"""Property tests for the input contracts: whatever bytes a checkpoint,
config, split, prediction or embedding file holds, loading it either
succeeds or raises the module's own error type, which the CLI turns into
"exit 1 with a message". A last property drives ``cli.main`` itself.

Example counts are bounded and derandomized, so every run tests the same
inputs and the suite stays fast.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slu.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from slu.cli import main, read_prediction_file
from slu.config import ConfigError, build_config
from slu.data import DataError, Utterance, build_vocab, load_pretrained_embeddings, load_split
from slu.gradcheck import toy_setup
from slu.metrics import evaluate

from helpers import CORRUPT_CHECKPOINTS, rewrite_header

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


# Line pieces that sit near the parsers' edges: separators, blanks, odd
# whitespace, number spellings and the prediction file's intent marker.
pieces = st.sampled_from(["", " ", "\t", "\r", "\x85", "\u2028", "a", "B-x", "O",
                          "# intent:", "nan", "inf", "-1e39", "1_0", "0.5", "é"])
words = st.sampled_from(["a", "B-x", "O", "é", "nan"])
text_lines = st.lists(
    st.one_of(st.lists(pieces, max_size=5).map("".join), st.text(max_size=8)),
    max_size=5,
).map("\n".join)
file_bytes = st.one_of(text_lines.map(lambda t: t.encode("utf-8")),
                       st.binary(max_size=16))


@st.composite
def aligned_files(draw):
    """Row-aligned files: one tag per token, so most parse up to the edge
    cases that the pieces carry (blank fields, odd whitespace)."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        tokens = draw(st.lists(words | pieces, max_size=4))
        tags = [draw(words | pieces) for _ in tokens]
        rows.append((" ".join(tokens), " ".join(tags), draw(pieces)))
    return tuple("".join(r[i] + "\n" for r in rows).encode("utf-8") for i in range(3))


@given(st.tuples(file_bytes, file_bytes, file_bytes) | aligned_files(),
       st.just(-1) | st.integers(0, 2))
@example((b"a\nb\n", b"O\nO\n", b"x\n\n"), -1)
@PROPERTY
def test_any_split_directory_loads_or_raises_data_error(contents, missing):
    split = WORKDIR / "split"
    split.mkdir(exist_ok=True)
    for i, (name, raw) in enumerate(zip(("seq.in", "seq.out", "label"), contents)):
        (split / name).unlink(missing_ok=True)
        if i != missing:
            (split / name).write_bytes(raw)
    try:
        utterances = load_split(split)
    except DataError:
        return
    for utt in utterances:
        assert utt.tokens and len(utt.tokens) == len(utt.slots)
        assert utt.intent and utt.intent == utt.intent.strip()
        assert "\t" not in utt.intent  # prediction files are tab-separated


pred_lines = st.one_of(
    text_lines,
    st.lists(st.one_of(
        st.just(""),
        st.builds("# intent:\t{}\t{}".format, pieces, pieces),
        st.builds("{}\t{}\t{}".format, pieces, pieces, pieces),
    ), max_size=8).map("\n".join),
)


@given(st.one_of(pred_lines.map(lambda t: t.encode("utf-8")), st.binary(max_size=16)))
@example(b"tok\tO\tO\n")
@PROPERTY
def test_any_prediction_file_reads_or_raises_data_error(raw):
    path = WORKDIR / "probe.pred"
    path.write_bytes(raw)
    try:
        pred, gold = read_prediction_file(path)
    except DataError:
        return
    report = evaluate(pred, gold)  # what `slu score` does with a file that reads
    assert report.sentences == len(gold)


VOCAB = build_vocab([Utterance(["show", "a", "é"], ["O", "O", "O"], "x")])
vector_lines = st.lists(
    st.builds("{} {}".format, st.sampled_from(["show", "a", "é", "<pad>", "<unk>", "other"]),
              st.lists(pieces, max_size=4).map(" ".join)),
    max_size=4,
).map("\n".join)


@given(st.one_of(vector_lines, text_lines).map(lambda t: t.encode("utf-8"))
       | st.binary(max_size=16))
@example(b"show nan inf 1\n")
@PROPERTY
def test_any_embedding_file_loads_or_raises_data_error(raw):
    path = WORKDIR / "probe.vec"
    path.write_bytes(raw)
    try:
        table, coverage = load_pretrained_embeddings(path, VOCAB, 3, np.random.default_rng(0))
    except DataError:
        return
    assert table.shape == (VOCAB.n_words, 3) and np.isfinite(table).all()
    assert 0.0 <= coverage <= 1.0



# ``cli.main`` end to end. A drawn case is an argv plus the files it names;
# the test writes them into CLI_DIR, emptied first. The checkpoints are
# written once.
CLI_DIR = WORKDIR / "cli"
CKPT_DIR = WORKDIR / "checkpoints"
CKPT_DIR.mkdir()
CHECKPOINTS = []
for _name, _corrupt in {"valid": lambda raw: raw, **CORRUPT_CHECKPOINTS}.items():
    (CKPT_DIR / f"{_name}.ckpt").write_bytes(_corrupt(VALID))
    CHECKPOINTS.append(str(CKPT_DIR / f"{_name}.ckpt"))
CHECKPOINTS += [str(CKPT_DIR / "missing.ckpt"), str(CKPT_DIR)]
TOY_SHAPE = ["--set", "embed_dim=4", "--set", "hidden_dim=8", "--set", "num_layers=1",
             "--set", "num_heads=2", "--set", "ffn_dim=16"]


@st.composite
def toy_split(draw):
    """Split files over the toy checkpoint's words and labels, so most of
    them load, train and decode; an unseen word is one draw away."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.lists(st.sampled_from(["w2", "w5", "w8", "new"]),
                               min_size=1, max_size=4))
        tags = [draw(st.sampled_from(["O", "B-a", "I-a", "B-b"])) for _ in tokens]
        rows.append((" ".join(tokens), " ".join(tags),
                     draw(st.sampled_from(["x", "y", "z"]))))
    return tuple("".join(r[i] + "\n" for r in rows).encode("utf-8") for i in range(3))


def draw_data_root(draw, files: dict) -> str:
    """A dataset root whose splits are toy-labelled, edge-case aligned,
    arbitrary bytes or absent; the dev split is ``dev`` or ``valid``."""
    root = CLI_DIR / "data"
    for split in ("train", draw(st.sampled_from(["dev", "valid"])), "test"):
        kind = draw(st.integers(0, 9))  # mostly, and shrinking towards, a toy split
        if kind < 9:
            contents = draw(toy_split() if kind < 7 else aligned_files() if kind == 7
                            else st.tuples(file_bytes, file_bytes, file_bytes))
            for name, raw in zip(("seq.in", "seq.out", "label"), contents):
                files[root / split / name] = raw
    return str(root)


def draw_file(draw, files: dict, name: str, text: st.SearchStrategy) -> str:
    """The path of a file holding drawn text or bytes, or of no file."""
    raw = draw(text.map(lambda t: t.encode("utf-8")) | st.binary(max_size=16) | st.none())
    if raw is not None:
        files[CLI_DIR / name] = raw
    return str(CLI_DIR / name)


@st.composite
def cli_cases(draw):
    files: dict = {}
    command = draw(st.sampled_from(["train", "eval", "predict", "score", "gradcheck"]))
    argv = [command]
    if command == "train":
        argv += ["--data", draw_data_root(draw, files),
                 "--checkpoint", str(CLI_DIR / "out.ckpt"),
                 "--out", str(CLI_DIR / "report.txt")]
        if draw(st.booleans()):
            argv += ["--config", draw_file(draw, files, "run.cfg",
                                           st.lists(config_lines, max_size=4).map("\n".join))]
        if draw(st.booleans()):
            argv += ["--embeddings", draw_file(draw, files, "vectors.txt",
                                               vector_lines | text_lines)]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["0", "3", "-1", "x"]))]
        for item in draw(st.lists(st.sampled_from(
                ["dropout=0.5", "lowercase=false", "lr=nan", "seed=-2", "batch_size=0",
                 "ablation=bogus", "no_such_key=1", "novalue"]), max_size=1)):
            argv += ["--set", item]
        argv += TOY_SHAPE + ["--set", "max_epochs=1"]
    elif command in ("eval", "predict"):
        argv += ["--data", draw_data_root(draw, files),
                 "--checkpoint", draw(st.sampled_from(CHECKPOINTS))]
        if draw(st.booleans()):
            argv += ["--split", draw(st.sampled_from(["train", "dev", "test", "valid"]))]
    elif command == "score":
        argv += [draw_file(draw, files, "probe.pred", pred_lines)]
    else:
        # A gradcheck that runs takes seconds, so only seeds that fail
        # early are drawn; tests/test_cli.py runs a passing one.
        argv += ["--quick", "--seed", draw(st.sampled_from(["-1", "-30", "x", "0.5"]))]
    if command != "train" and draw(st.booleans()):
        argv += ["--out", str(CLI_DIR / "out.txt")]
    argv += draw(st.sampled_from([[], [], [], ["--no-such-flag"]]))
    return argv, files


@given(cli_cases())
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_cli_main_exits_0_or_1(case):
    argv, files = case
    shutil.rmtree(CLI_DIR, ignore_errors=True)
    for path, raw in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(raw)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv  # argparse's usage error
            return
    assert rc in (0, 1), argv
    if rc == 1:
        assert stderr.getvalue().startswith("error: "), (argv, stderr.getvalue())
