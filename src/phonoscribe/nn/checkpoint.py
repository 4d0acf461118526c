"""Binary checkpoint container.

Layout, all integers little-endian:

    magic "PHCK" | u16 version | u32 json_len | config JSON (UTF-8)
    u32 array_count, then per array:
        u16 name_len | name UTF-8 | u32 rank | u32 dim * rank | f32-LE payload

The JSON block is serialized with sorted keys and compact separators, so a
given (meta, arrays) pair always produces identical bytes. The headers are
parsed with ordinary file reads; loaded arrays are views of a read-only
memory map of the file, so pages of arrays nobody reads are never read from
disk; whoever needs to write copies them (``copy_into``). The map stays
valid while any view is alive: ``save_checkpoint`` replaces a file with
``os.replace``, so an open map keeps the old file's contents.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from ..settings import printable
from .layers import ShapeMismatchError

CHECKPOINT_MAGIC = b"PHCK"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, meta: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:  # one part at a time; path is replaced only by a whole file
        with open(tmp, "wb") as f:
            f.write(struct.pack("<4sHI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                len(blob)) + blob + struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                data = np.asarray(arr, dtype="<f4", order="C")  # a view if it can
                encoded = name.encode("utf-8")
                f.write(struct.pack(f"<H{len(encoded)}sI{data.ndim}I", len(encoded),
                                    encoded, data.ndim, *data.shape))
                f.write(data)
        os.replace(tmp, path)
    finally:  # a no-op once replaced; else removes a partial file
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)``: the config block and every array, by name, as a
    read-only view of a map of the file. A malformed header is a
    CheckpointError naming the file."""
    with open(path, "rb") as f:
        try:
            meta, index = _read_index(f)
        except CheckpointError as e:
            raise CheckpointError(f"{printable(path)}: {e}") from e
        raw = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return meta, {name: np.frombuffer(raw, dtype="<f4", count=math.prod(shape),
                                      offset=offset).reshape(shape)
                  for name, (offset, shape) in index.items()}


def _read_index(f) -> tuple[dict, dict[str, tuple[int, tuple[int, ...]]]]:
    """The config block and ``{name: (payload offset, shape)}`` of an open
    checkpoint file. Ordinary reads of the headers only: no payload byte is
    read, so no payload page is mapped."""
    size = os.fstat(f.fileno()).st_size

    def skip(n: int) -> int:
        """Check that the next ``n`` bytes lie inside the file; return where
        they start."""
        start = f.tell()
        if start + n > size:
            raise CheckpointError("truncated checkpoint")
        return start

    def take_bytes(n: int) -> bytes:
        skip(n)
        return f.read(n)

    def take(fmt: str):
        return struct.unpack(fmt, take_bytes(struct.calcsize(fmt)))

    def take_text(n: int) -> str:
        try:
            return take_bytes(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"text field is not UTF-8: {e}") from e

    magic, version, json_len = take("<4sHI")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    text = take_text(json_len)
    try:
        meta = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise CheckpointError(f"config block is not JSON: {e}") from e

    (count,) = take("<I")
    index = {}
    for _ in range(count):
        (name_len,) = take("<H")
        name = take_text(name_len)
        (rank,) = take("<I")
        shape = take(f"<{rank}I")
        n_bytes = 4 * math.prod(shape)
        index[name] = (skip(n_bytes), shape)
        f.seek(n_bytes, os.SEEK_CUR)
    return meta, index


def copy_into(own: dict[str, np.ndarray], values: dict[str, np.ndarray],
              kind: str) -> None:
    """Copy ``values`` into ``own`` by name; names and shapes must match,
    and each copy must hold finite values only (a CheckpointError if not).

    Each value that is a view ``load_checkpoint`` returned has its mapped
    pages dropped from the process once it is copied (a later read maps them
    again), so copying a checkpoint into a model keeps about one array's
    payload resident at a time beside the model's own arrays.
    """
    if set(values) != set(own):
        mismatched = set(own) ^ set(values)
        raise ShapeMismatchError(f"{kind} name mismatch: {sorted(mismatched)}")
    for name, value in values.items():
        if own[name].shape != value.shape:
            raise ShapeMismatchError(
                f"{name}: expected {own[name].shape}, got {value.shape}")
        own[name][...] = value
        _drop_pages(value)
        if not np.isfinite(own[name]).all():  # the copy: no page is read again
            raise CheckpointError(f"{kind} {name}: values that are NaN or infinite")


def _drop_pages(array: np.ndarray) -> None:
    """``madvise(MADV_DONTNEED)`` over the pages under ``array`` if it views
    a checkpoint map; the map is read-only, so no data is lost."""
    owner = array
    while isinstance(owner, np.ndarray):
        owner = owner.base
    raw = getattr(owner, "obj", None)  # np.frombuffer keeps a memoryview
    if (not isinstance(raw, mmap.mmap) or array.size == 0
            or not hasattr(mmap, "MADV_DONTNEED")):
        return
    start = array.ctypes.data - np.frombuffer(raw, dtype=np.uint8, count=1).ctypes.data
    first = start - start % mmap.PAGESIZE
    raw.madvise(mmap.MADV_DONTNEED, first, start + array.nbytes - first)
