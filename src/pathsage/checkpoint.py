"""Versioned binary checkpoints with a trailing CRC-32.

Layout: magic "PSCK", u32 version, u64 json_len, JSON state blob
(sorted keys), u64 block count, then per block: u16 name length, name
bytes, u8 ndim, ndim x u64 dims, raw little-endian f32 payload; finally
a u32 CRC-32 (zlib's) of everything before it.

Saving streams the header and then each block's header and payload straight
into a temporary file next to the target, folding every piece into a
running CRC as it is written, so no payload is copied. It then fsyncs the
file, renames it over the target and fsyncs the directory, so a failed or
interrupted save leaves the previous checkpoint intact and a finished one
survives a power loss.

Loading reads the file once, checks the CRC over it in place and copies
each block once into its own aligned array. A file whose CRC holds but
whose fields do not parse (a block count or shape that runs past the data,
bytes left after the last block, a state blob that is not a JSON object)
raises IncompleteCheckpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, IncompleteCheckpoint, MissingFile, VersionMismatch

MAGIC = b"PSCK"
VERSION = 4  # bumped when the layout or the trainer's state blob changes

# The pure-Python CRC64 of format versions 1-3. Nothing here calls it;
# perfbench/tracer.py still binds it by name.
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
    blob = json.dumps(state_json, sort_keys=True).encode()
    items = sorted(blocks.items())
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0

            def put(piece):
                nonlocal crc
                fh.write(piece)
                crc = zlib.crc32(piece, crc)

            put(MAGIC + struct.pack("<IQ", VERSION, len(blob)) + blob
                + struct.pack("<Q", len(items)))
            for name, arr in items:
                raw = name.encode()
                arr = np.asarray(arr, dtype="<f4", order="C")  # a 0-d array stays 0-d
                put(struct.pack(f"<H{len(raw)}sB{arr.ndim}Q", len(raw), raw, arr.ndim,
                                *arr.shape))
                put(memoryview(arr))
            fh.write(struct.pack("<I", crc))
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
    if len(buf) < 12:
        raise ChecksumMismatch(f"{path}: truncated checkpoint")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != VERSION:
        raise VersionMismatch(f"{path}: checkpoint version {version}, expected {VERSION}")
    end = len(buf) - 4
    (stored_crc,) = struct.unpack_from("<I", buf, end)
    if zlib.crc32(memoryview(buf)[:end]) != stored_crc:
        raise ChecksumMismatch(f"{path}: checksum mismatch")
    return _parse(buf, end, path)


def _parse(buf, end, path):
    """The state and blocks of a checksummed file, each field checked against
    `end`, where the trailer starts."""
    off = 8

    def take(n, what):
        nonlocal off
        if n > end - off:
            raise IncompleteCheckpoint(f"{path}: {what} runs past the end of the data")
        off += n
        return off - n

    (json_len,) = struct.unpack_from("<Q", buf, take(8, "the state length"))
    start = take(json_len, "the state")
    try:
        state = json.loads(buf[start:off].decode())
    except ValueError:  # not UTF-8 or not JSON
        state = None
    if not isinstance(state, dict):
        raise IncompleteCheckpoint(f"{path}: the state is not a JSON object")
    (n_blocks,) = struct.unpack_from("<Q", buf, take(8, "the block count"))
    blocks = {}
    for k in range(n_blocks):
        what = f"block {k} of {n_blocks}"
        (name_len,) = struct.unpack_from("<H", buf, take(2, what))
        start = take(name_len, what)
        try:
            name = buf[start:off].decode()
        except UnicodeDecodeError:
            raise IncompleteCheckpoint(f"{path}: {what} has a name that is not UTF-8") from None
        if name in blocks:
            raise IncompleteCheckpoint(f"{path}: block {name!r} appears twice")
        ndim = buf[take(1, what)]
        shape = struct.unpack_from(f"<{ndim}Q", buf, take(8 * ndim, what))
        count = math.prod(shape)
        start = take(4 * count, f"block {name!r} of shape {shape}")
        try:
            arr = np.frombuffer(buf, dtype="<f4", count=count, offset=start).reshape(shape)
        except ValueError:  # an empty block with a dimension past numpy's limit
            raise IncompleteCheckpoint(f"{path}: block {name!r} has shape {shape}") from None
        blocks[name] = arr.copy()
    if off != end:
        raise IncompleteCheckpoint(f"{path}: {end - off} bytes after the last block")
    return state, blocks
