"""Shared binary container layout for .gltc checkpoints and .skpk packs.

Layout (all integers little-endian):

    bytes 0-3   four-byte ASCII magic
    bytes 4-7   u32 format version
    bytes 8-15  u64 header length in bytes
    header      UTF-8 JSON object, space-padded so the payload starts on a
                64-byte file boundary
    payload     blobs at 64-byte-aligned offsets relative to payload start

Blob metadata ({offset, byte_len, crc32}) lives in the JSON header; CRC32 is
the IEEE polynomial over each blob's payload bytes.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
import zlib

from .errors import FormatError, IntegrityError

_PREFIX = struct.Struct("<4sIQ")
_ALIGN = 64


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def layout_blobs(blobs: list[bytes]) -> tuple[bytes, list[dict]]:
    """Concatenate blobs at aligned offsets; return payload and metadata."""
    metas = []
    chunks = []
    offset = 0
    for blob in blobs:
        aligned = _align(offset)
        if aligned > offset:
            chunks.append(b"\x00" * (aligned - offset))
        metas.append({"offset": aligned, "byte_len": len(blob), "crc32": zlib.crc32(blob)})
        chunks.append(blob)
        offset = aligned + len(blob)
    return b"".join(chunks), metas


def write_container(path, magic: bytes, version: int, header: dict, payload: bytes) -> None:
    """Write atomically: a temp file in the target's directory, then `os.replace`.

    A failed write leaves any previous file at `path` untouched and removes
    the temp file. There is no fsync: the rename is atomic against other
    readers and failed writes, not against a power loss.
    """
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    pad = _align(_PREFIX.size + len(header_bytes)) - (_PREFIX.size + len(header_bytes))
    header_bytes += b" " * pad
    target = os.fspath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "xb")  # unlike mkstemp, keeps the umask's file mode
    try:
        with fh:
            fh.write(_PREFIX.pack(magic, version, len(header_bytes)))
            fh.write(header_bytes)
            fh.write(payload)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def read_container(path, magic: bytes, version: int) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _PREFIX.size:
        raise FormatError(f"file too short to be a {magic.decode()} container")
    got_magic, got_version, header_len = _PREFIX.unpack_from(raw)
    if got_magic != magic:
        raise FormatError(f"bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise FormatError(f"unsupported version {got_version}, expected {version}")
    if _PREFIX.size + header_len > len(raw):
        raise FormatError("truncated file: header extends past end of file")
    header_bytes = raw[_PREFIX.size : _PREFIX.size + header_len]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    payload = raw[_PREFIX.size + header_len :]
    return header, payload


def fetch_blob(payload: bytes, meta: dict, context: str) -> bytes:
    """Slice one blob out of the payload, verifying bounds and checksum."""
    offset, byte_len, crc = meta["offset"], meta["byte_len"], meta["crc32"]
    if offset < 0 or offset + byte_len > len(payload):
        raise FormatError(f"truncated file: blob for {context} extends past end of payload")
    blob = payload[offset : offset + byte_len]
    if zlib.crc32(blob) != crc:
        raise IntegrityError(f"checksum mismatch for {context}")
    return blob
