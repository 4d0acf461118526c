"""Binary checkpoint container.

Layout, all integers little-endian:

    magic "PHCK" | u16 version | u32 json_len | config JSON (UTF-8)
    u32 array_count, then per array:
        u16 name_len | name UTF-8 | u32 rank | u32 dim * rank | f32-LE payload

The JSON block is serialized with sorted keys and compact separators, so a
given (meta, arrays) pair always produces identical bytes. Loaded arrays are
read-only views of the file's bytes; whoever needs to write copies them.
"""

from __future__ import annotations

import json
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
        data = np.ascontiguousarray(arr, dtype="<f4")
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
    raw = Path(path).read_bytes()
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

    def take_bytes(size: int) -> bytes:
        start = advance(size)
        return raw[start:start + size]

    magic, version, json_len = take("<4sHI")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    meta = json.loads(take_bytes(json_len).decode("utf-8"))

    (count,) = take("<I")
    arrays = {}
    for _ in range(count):
        (name_len,) = take("<H")
        name = take_bytes(name_len).decode("utf-8")
        (rank,) = take("<I")
        shape = take(f"<{rank}I")
        n_values = int(np.prod(shape)) if rank else 1
        data = np.frombuffer(raw, dtype="<f4", count=n_values,
                             offset=advance(4 * n_values))
        arrays[name] = data.reshape(shape)
    return meta, arrays
