"""Versioned binary checkpoints with a trailing CRC64.

Layout: magic "PSCK", u32 version, u64 json_len, JSON state blob
(sorted keys), u64 block count, then per block: u16 name length, name
bytes, u8 ndim, ndim x u64 dims, raw little-endian f32 payload; finally
a u64 CRC64 (ECMA, reflected) of everything before it.

Saving writes a temporary file next to the target, fsyncs it, renames it
over the target and fsyncs the directory, so a failed or interrupted save
leaves the previous checkpoint intact and a finished one survives a power
loss.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, MissingFile, VersionMismatch

MAGIC = b"PSCK"
VERSION = 3  # bumped when the layout or the trainer's state blob changes

_POLY = 0xC96C5795D7870F42
_TABLE = []
for _i in range(256):
    _crc = _i
    for _ in range(8):
        _crc = (_crc >> 1) ^ (_POLY if _crc & 1 else 0)
    _TABLE.append(_crc)


def crc64(data, crc=0):
    crc ^= 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


def save_checkpoint(path, state_json, blocks):
    """Write state (a JSON-serializable dict) plus named float arrays."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    blob = json.dumps(state_json, sort_keys=True).encode()
    buf += struct.pack("<Q", len(blob))
    buf += blob
    items = sorted(blocks.items())
    buf += struct.pack("<Q", len(items))
    for name, arr in items:
        raw = name.encode()
        arr = np.ascontiguousarray(arr, dtype="<f4")
        buf += struct.pack("<H", len(raw))
        buf += raw
        buf += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            buf += struct.pack("<Q", dim)
        buf += arr.tobytes()
    buf += struct.pack("<Q", crc64(buf))
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(buf)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)  # make the rename itself durable
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_checkpoint(path):
    """Read a checkpoint -> (state_json, {name: float32 array})."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    buf = path.read_bytes()
    if len(buf) < 4 or buf[:4] != MAGIC:
        raise VersionMismatch(f"{path}: not a checkpoint file")
    if len(buf) < 24:
        raise ChecksumMismatch(f"{path}: truncated checkpoint")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != VERSION:
        raise VersionMismatch(f"{path}: checkpoint version {version}, expected {VERSION}")
    (stored_crc,) = struct.unpack_from("<Q", buf, len(buf) - 8)
    if crc64(buf[:-8]) != stored_crc:
        raise ChecksumMismatch(f"{path}: CRC64 mismatch")
    off = 8
    (json_len,) = struct.unpack_from("<Q", buf, off)
    off += 8
    state = json.loads(buf[off:off + json_len].decode())
    off += json_len
    (n_blocks,) = struct.unpack_from("<Q", buf, off)
    off += 8
    blocks = {}
    for _ in range(n_blocks):
        (name_len,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off:off + name_len].decode()
        off += name_len
        ndim = buf[off]
        off += 1
        shape = struct.unpack_from(f"<{ndim}Q", buf, off)
        off += 8 * ndim
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(buf, dtype="<f4", count=count, offset=off).reshape(shape)
        blocks[name] = arr.copy()
        off += 4 * count
    return state, blocks
