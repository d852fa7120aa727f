"""Payload encodings: stream values to bytes, and length-prefixed blocks.

A stream payload is bytes or str (sent as UTF-8). Blocks are framed as a
4-byte big-endian length followed by the body. Anything that needs a
structured encoding (the workbench record types, task arguments) layers on
top of these helpers.
"""
from __future__ import annotations

import pickle
import struct

_LEN = struct.Struct(">I")


def to_bytes(value: object) -> bytes:
    """A stream payload as bytes: bytes and bytearray pass through, str is UTF-8."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    raise TypeError(f"stream payloads are bytes or str, got {type(value).__name__}")


class PickleCodec:
    """General object codec used for task argument transfer."""

    def encode(self, value: object) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> object:
        return pickle.loads(data)


OBJECT_CODEC = PickleCodec()


def pack_blocks(blocks: list[bytes]) -> bytes:
    # one join copies each block once; a growing BytesIO copied a large
    # batch again on each resize and once more in getvalue()
    parts = [_LEN.pack(len(blocks))]
    for block in blocks:
        parts.append(_LEN.pack(len(block)))
        parts.append(block)
    return b"".join(parts)


def unpack_blocks(data: bytes) -> list[bytes]:
    (count,) = _LEN.unpack_from(data, 0)
    pos = 4
    blocks: list[bytes] = []
    for _ in range(count):
        (size,) = _LEN.unpack_from(data, pos)
        pos += 4
        blocks.append(data[pos:pos + size])
        pos += size
    return blocks
