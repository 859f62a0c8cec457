"""Versioned binary checkpoint files.

Layout (all integers little-endian):

    8 bytes   magic "ADDSCKP1"
    u32       format version (currently 2)
    u32 + n   config JSON (canonical, sorted keys)
    32 bytes  sha256 of the config JSON
    u32 + n   meta JSON (canonical): epoch, optimizer step, RNG stream states,
              loss history
    u32       blob count
    per blob: u16 name length, UTF-8 name, u32 rows, u32 cols, rows*cols
              values LE

The values are stored in the config's ``dtype`` (float32 or float64), so a
float64 run resumes from a file bit-exactly; version 1, which always stored
float32, is no longer read. Weight tensors are stored under their parameter
names, then the Adam moments under "opt.m.<name>" and "opt.v.<name>" in the
same order. Save -> load -> save is byte-identical; anything else raises
``FormatError``. A save replaces the file whole (``atomic_open``).
"""

import hashlib
import json
import struct

import numpy as np

from .atomic import atomic_open
from .errors import FormatError
from .training import Checkpoint

CHECKPOINT_MAGIC = b"ADDSCKP1"
CHECKPOINT_VERSION = 2
_BLOB_DTYPES = {"float32": "<f4", "float64": "<f8"}
_META_KEYS = ("epoch", "loss_history", "opt_step", "rng")


def _blob_dtype(config) -> str:
    dtype = config.get("dtype") if isinstance(config, dict) else None
    if not isinstance(dtype, str) or dtype not in _BLOB_DTYPES:
        raise FormatError(f"checkpoint config has no storable dtype, got {dtype!r}")
    return _BLOB_DTYPES[dtype]


def _write_blob(parts, name: str, arr: np.ndarray, dtype: str):
    raw = name.encode("utf-8")
    arr2 = np.atleast_2d(np.asarray(arr, dtype=dtype))
    parts.append(struct.pack("<H", len(raw)))
    parts.append(raw)
    parts.append(struct.pack("<II", arr2.shape[0], arr2.shape[1]))
    parts.append(arr2.tobytes())


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    config_json = json.dumps(ckpt.config, sort_keys=True).encode("utf-8")
    meta_json = json.dumps(
        {
            "epoch": ckpt.epoch,
            "opt_step": ckpt.opt_step,
            "rng": ckpt.rng,
            "loss_history": ckpt.loss_history,
        },
        sort_keys=True,
    ).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    parts.append(struct.pack("<I", len(config_json)))
    parts.append(config_json)
    parts.append(hashlib.sha256(config_json).digest())
    parts.append(struct.pack("<I", len(meta_json)))
    parts.append(meta_json)
    blobs = list(ckpt.weights.items())
    blobs += [(f"opt.m.{n}", ckpt.opt_m[n]) for n in ckpt.weights]
    blobs += [(f"opt.v.{n}", ckpt.opt_v[n]) for n in ckpt.weights]
    parts.append(struct.pack("<I", len(blobs)))
    dtype = _blob_dtype(ckpt.config)
    for name, arr in blobs:
        _write_blob(parts, name, arr, dtype)
    with atomic_open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated checkpoint while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def _canonical_json(raw: bytes, what: str):
    """Parse JSON that ``save_checkpoint`` wrote; other bytes would not
    survive a save."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"checkpoint {what} is not valid JSON: {exc}") from None
    if json.dumps(value, sort_keys=True).encode("utf-8") != raw:
        raise FormatError(f"checkpoint {what} JSON is not in canonical form")
    return value


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file. Each ``FormatError`` names the file first."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_checkpoint(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_checkpoint(data: bytes) -> Checkpoint:
    r = _Reader(data)
    if r.take(8, "magic") != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic, expected {CHECKPOINT_MAGIC!r}")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    config_json = r.take(r.u32("config length"), "config")
    stored_hash = r.take(32, "config hash")
    if hashlib.sha256(config_json).digest() != stored_hash:
        raise FormatError("config hash mismatch")
    config = _canonical_json(config_json, "config")
    dtype = _blob_dtype(config)
    meta = _canonical_json(r.take(r.u32("meta length"), "meta"), "meta")
    if not isinstance(meta, dict) or sorted(meta) != list(_META_KEYS):
        raise FormatError(f"checkpoint meta must hold exactly the keys {_META_KEYS}")
    if not (type(meta["epoch"]) is int and type(meta["opt_step"]) is int
            and isinstance(meta["loss_history"], list) and isinstance(meta["rng"], dict)):
        raise FormatError("checkpoint meta values have the wrong types")
    n_blobs = r.u32("blob count")
    blobs = {}
    for _ in range(n_blobs):
        raw_name = r.take(r.u16("blob name length"), "blob name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"blob name {raw_name!r} is not UTF-8") from None
        if name in blobs:
            raise FormatError(f"duplicate blob {name!r}")
        rows = r.u32("blob rows")
        cols = r.u32("blob cols")
        size = np.dtype(dtype).itemsize * rows * cols
        blobs[name] = np.frombuffer(
            r.take(size, f"blob {name}"), dtype=dtype
        ).reshape(rows, cols).copy()
    if r.pos != len(r.data):
        raise FormatError(f"{len(r.data) - r.pos} trailing bytes in checkpoint")
    names = list(blobs)
    weights = [n for n in names if not n.startswith(("opt.m.", "opt.v."))]
    if names != (weights + [f"opt.m.{n}" for n in weights]
                 + [f"opt.v.{n}" for n in weights]):
        raise FormatError("checkpoint blobs are not weights, then opt.m.*, then opt.v.* "
                          "of the same names")
    for n in weights:
        if not blobs[n].shape == blobs[f"opt.m.{n}"].shape == blobs[f"opt.v.{n}"].shape:
            raise FormatError(f"blob {n!r} and its Adam moments differ in shape")
    return Checkpoint(
        config=config,
        epoch=meta["epoch"],
        weights={n: blobs[n] for n in weights},
        opt_m={n: blobs[f"opt.m.{n}"] for n in weights},
        opt_v={n: blobs[f"opt.v.{n}"] for n in weights},
        opt_step=meta["opt_step"],
        rng=meta["rng"],
        loss_history=meta["loss_history"],
    )
