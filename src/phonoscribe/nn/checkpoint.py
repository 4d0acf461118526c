"""Binary checkpoint container.

Layout, all integers little-endian:

    magic "PHCK" | u16 version | u32 json_len | config JSON (UTF-8)
    u32 array_count, then per array:
        u16 name_len | name UTF-8 | u32 rank | u32 dim * rank | f32-LE payload

The JSON block is serialized with sorted keys and compact separators, so a
given (meta, arrays) pair always produces identical bytes. Loaded arrays are
views of a read-only memory map of the file, so pages of arrays nobody reads
are never read from disk; whoever needs to write copies them. The map stays
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

CHECKPOINT_MAGIC = b"PHCK"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, meta: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [struct.pack("<4sHI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)),
             blob,
             struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        data = np.asarray(arr, dtype="<f4")  # tobytes() writes C order
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(data.tobytes())
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    tmp.write_bytes(b"".join(parts))
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        try:
            raw = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as e:  # an empty file cannot be mapped
            raise CheckpointError(f"empty checkpoint: {e}") from e
    offset = 0

    def advance(size: int) -> int:
        """Move past the next ``size`` bytes, which must lie inside the file;
        return where they start."""
        nonlocal offset
        if offset + size > len(raw):
            raise CheckpointError("truncated checkpoint")
        offset += size
        return offset - size

    def take(fmt: str):
        return struct.unpack_from(fmt, raw, advance(struct.calcsize(fmt)))

    def take_text(size: int) -> str:
        start = advance(size)
        try:
            return raw[start:start + size].decode("utf-8")
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
    arrays = {}
    for _ in range(count):
        (name_len,) = take("<H")
        name = take_text(name_len)
        (rank,) = take("<I")
        shape = take(f"<{rank}I")
        n_values = math.prod(shape)
        data = np.frombuffer(raw, dtype="<f4", count=n_values,
                             offset=advance(4 * n_values))
        arrays[name] = data.reshape(shape)
    return meta, arrays
