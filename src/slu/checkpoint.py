"""Self-describing binary checkpoint container.

File layout (documented contract, version 1):

* bytes 0-3: magic ``SLU1``
* bytes 4-11: header length as a little-endian unsigned 64-bit integer
* header: UTF-8 JSON with keys ``format_version``, ``config``, ``vocab``,
  ``best_dev`` (metrics dict or null), ``epoch``, and ``params`` -- a list
  of ``{name, shape, dtype, offset, size}`` records where ``offset``/
  ``size`` are byte positions into the blob section
* blob section: the concatenated parameter arrays, little-endian,
  row-major, in record order (float32 unless a record says otherwise)

Round trips are bit-exact: load(save(model)) restores every parameter
to the identical bytes. Saving writes a temporary file next to the target
and renames it over the target, so a save that fails part-way leaves the
previous file as it was.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Config, ConfigError
from .data import Vocab

MAGIC = b"SLU1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    config: Config
    vocab: Vocab
    params: dict[str, np.ndarray]
    best_dev: dict | None = None
    epoch: int = 0


def _is_int(value) -> bool:
    """A JSON integer: ``True == 1`` and ``1.0 == 1``, but neither is one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _le_dtype(arr: np.ndarray) -> np.ndarray:
    dt = arr.dtype.newbyteorder("<")
    return arr.astype(dt, copy=False)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    records = []
    blobs = []
    offset = 0
    for name in sorted(ckpt.params):
        arr = _le_dtype(np.ascontiguousarray(ckpt.params[name]))
        raw = arr.tobytes()
        records.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": arr.dtype.str,  # '<f4' style: explicit little-endian
            "offset": offset,
            "size": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "vocab": ckpt.vocab.to_dict(),
        "best_dev": ckpt.best_dev,
        "epoch": ckpt.epoch,
        "params": records,
    }).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for raw in blobs:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    header_len = int.from_bytes(raw[4:12], "little")
    if 12 + header_len > len(raw):
        raise CheckpointError(
            f"{path}: header length {header_len} runs past the end of the "
            f"{len(raw)}-byte file"
        )
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    version = header.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    for key, kind in (("config", dict), ("vocab", dict), ("params", list)):
        if not isinstance(header.get(key), kind):
            raise CheckpointError(
                f"{path}: header field {key!r} is missing or not a JSON "
                f"{'object' if kind is dict else 'array'}"
            )
    epoch = header.get("epoch", 0)
    if not _is_int(epoch):
        raise CheckpointError(f"{path}: header field 'epoch' is {epoch!r}, not a JSON integer")
    blob = raw[12 + header_len :]
    params: dict[str, np.ndarray] = {}
    for i, rec in enumerate(header["params"]):
        try:
            name, start, size = rec["name"], rec["offset"], rec["size"]
            dtype, shape = np.dtype(rec["dtype"]), rec["shape"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: bad parameter record {i}: {exc!r}"
            ) from None
        if not (_is_int(start) and _is_int(size) and start >= 0 and size >= 0):
            raise CheckpointError(
                f"{path}: parameter record {i} has offset {start!r}, size {size!r}"
            )
        if start + size > len(blob):
            raise CheckpointError(
                f"{path}: parameter {name!r} extends past end of file"
            )
        try:
            arr = np.frombuffer(blob[start : start + size], dtype=dtype)
            params[name] = arr.reshape(shape).copy()
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: parameter {name!r}: {exc}") from None
    try:
        config = Config.from_dict(header["config"])
        vocab = Vocab.from_dict(header["vocab"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad config: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc!r}") from None
    return Checkpoint(
        config=config,
        vocab=vocab,
        params=params,
        best_dev=header.get("best_dev"),
        epoch=epoch,
    )


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild a ready-to-evaluate model from a loaded checkpoint."""
    from .model import JointModel

    try:
        model = JointModel(ckpt.config, ckpt.vocab)
        model.load_state_arrays(ckpt.params)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint does not fit its model: {exc}") from None
    return model
