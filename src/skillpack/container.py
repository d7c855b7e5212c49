"""Shared binary container layout for .gltc checkpoints and .skpk packs.

Layout (all integers little-endian):

    bytes 0-3   four-byte ASCII magic
    bytes 4-7   u32 format version
    bytes 8-15  u64 header length in bytes
    header      UTF-8 JSON object, space-padded so the payload starts on a
                64-byte file boundary
    payload     blobs at 64-byte-aligned offsets relative to payload start

Blob metadata ({offset, byte_len, crc32}) lives in the JSON header; CRC32 is
the IEEE polynomial over each blob's payload bytes. Savers add blobs to a
`Payload`, whose `add_array` is the one array encoder, and its parts are
written unjoined. A load maps the file read-only and copies none of it:
`read_array`, the one decoder and the inverse of `add_array`, returns each
checked blob as a read-only view of the mapping (a copy only on big-endian
hosts), and the mapping lives as long as any such view. Savers replace a
file and never rewrite it in place, so a mapped file never changes under
its views. Both sides refuse non-finite floats, in blobs and, as strict
JSON, in headers. Header fields come from the file and are read through the
checkers below; `read_entries` reads each loader's entries inside `naming`,
the one error boundary, which names the entry in any error and turns
KeyError, TypeError and the like into FormatError.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import secrets
import struct
import zlib
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from .errors import FormatError, IntegrityError
from .tensors import all_finite, check_shape, is_int

_PREFIX = struct.Struct("<4sIQ")
_ALIGN = 64


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class Payload:
    """Blobs at 64-byte-aligned offsets, kept as the list of parts to write."""

    def __init__(self):
        self.parts: list = []
        self.size = 0

    def add(self, blob) -> dict:
        """Append `blob`, any C-contiguous buffer, at the next aligned offset; return its {offset, byte_len, crc32}."""
        view = memoryview(blob)
        offset = _align(self.size)
        if offset > self.size:
            self.parts.append(b"\x00" * (offset - self.size))
        self.parts.append(view)
        self.size = offset + view.nbytes
        return {"offset": offset, "byte_len": view.nbytes, "crc32": zlib.crc32(view)}

    def add_array(self, arr, dtype, ctx: str) -> dict:
        """Add `arr` as little-endian `dtype` values, the inverse of `read_array`, copying only
        an array that is not one already. Non-finite floats raise ValueError naming `ctx`."""
        values = np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<"))
        if not all_finite(values):
            raise ValueError(f"{ctx}: non-finite values")
        return self.add(values)


def write_atomic(path, parts: Iterable) -> None:
    """Write `parts` atomically: a temp file in the target's directory, then `os.replace`.

    A failed write leaves any previous file at `path` untouched and removes
    the temp file. There is no fsync: the rename is atomic against other
    readers and failed writes, not against a power loss.
    """
    target = os.fspath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "xb")  # unlike mkstemp, keeps the umask's file mode
    try:
        with fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _reject_constant(name: str):
    raise FormatError(f"{name} is not valid JSON")


def parse_json(text: str):
    """`json.loads`, but the NaN and Infinity constants that Python's json accepts
    and no other JSON reader does raise FormatError."""
    return json.loads(text, parse_constant=_reject_constant)


def check_str(what: str, **fields) -> None:
    """A saver's check that each field is a str, as `header_field` requires it on load."""
    for key, value in fields.items():
        if not isinstance(value, str):
            raise ValueError(f"{what} field {key!r} must be str, got {type(value).__name__}")


def _dumps(value) -> str:
    """Strict JSON text; a non-finite float or a value JSON cannot hold, such as an ndarray, is a ValueError."""
    try:
        return json.dumps(value, ensure_ascii=False, allow_nan=False)
    except TypeError as exc:
        raise ValueError(f"header is not JSON: {exc}") from None


def check_json(what: str, value) -> None:
    """A saver's check that a load gives `value` back equal: JSON makes an int key a str and a tuple a list."""
    back = json.loads(_dumps(value))
    if back != value:
        raise ValueError(f"{what} would load back different, as {back!r}")


def write_container(path, magic: bytes, version: int, header: dict, parts: Iterable) -> None:
    """Write a container whose payload is `parts` (a `Payload`'s), atomically, as `write_atomic` does.
    A header holding a non-finite float or a value JSON cannot hold raises ValueError before anything is written."""
    header_bytes = _dumps(header).encode("utf-8")
    pad = _align(_PREFIX.size + len(header_bytes)) - (_PREFIX.size + len(header_bytes))
    header_bytes += b" " * pad
    write_atomic(path, (_PREFIX.pack(magic, version, len(header_bytes)), header_bytes, *parts))


def read_container(path, magic: bytes, version: int) -> tuple[dict, memoryview]:
    """The JSON header and a memoryview of the payload, from a read-only map of the
    file that is never closed here: it lives as long as any view of it."""
    with open(path, "rb") as fh:
        try:
            raw = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
        except ValueError:  # an empty file cannot be mapped
            raw = memoryview(b"")
    if len(raw) < _PREFIX.size:
        raise FormatError(f"file too short to be a {magic.decode()} container")
    got_magic, got_version, header_len = _PREFIX.unpack_from(raw)
    if got_magic != magic:
        raise FormatError(f"bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise FormatError(f"unsupported version {got_version}, expected {version}")
    if _PREFIX.size + header_len > len(raw):
        raise FormatError("truncated file: header extends past end of file")
    try:
        header = parse_json(str(raw[_PREFIX.size : _PREFIX.size + header_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    return header, raw[_PREFIX.size + header_len :]


def fetch_blob(payload: memoryview, meta: dict) -> memoryview:
    """A view of one blob in the payload, after checking its metadata ({offset,
    byte_len, crc32}, non-negative ints), its bounds and its checksum."""
    offset, byte_len, crc = (meta.get(key) for key in ("offset", "byte_len", "crc32"))
    if not all(is_int(v) and v >= 0 for v in (offset, byte_len, crc)):
        raise FormatError("malformed blob metadata")
    if offset + byte_len > len(payload):
        raise FormatError("truncated file: blob extends past end of payload")
    blob = payload[offset : offset + byte_len]
    if zlib.crc32(blob) != crc:
        raise IntegrityError("checksum mismatch")
    return blob


def read_array(payload: memoryview, meta: dict, dtype, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """One blob as a read-only, native-order array of `dtype`: on a little-endian
    host a view of the payload, and so of the mapped file, with no copy.

    The blob must hold exactly the values of `shape`, or, when `shape` is
    None, a whole number of values, returned 1-D. Its bounds and CRC are
    checked by `fetch_blob`, and float values must be finite
    (IntegrityError otherwise). A big-endian host gets a read-only copy.
    """
    dtype = np.dtype(dtype)
    blob = fetch_blob(payload, meta)
    shape = (len(blob) // dtype.itemsize,) if shape is None else shape
    if len(blob) != math.prod(shape) * dtype.itemsize:
        raise FormatError(f"byte length {len(blob)} does not hold {dtype.name} values of shape {shape}")
    values = np.frombuffer(blob, dtype=dtype).reshape(shape)
    if not values.dtype.isnative:
        values = values.astype(dtype.newbyteorder("="))
        values.flags.writeable = False
    if not all_finite(values):
        raise IntegrityError("non-finite values")
    return values


@contextmanager
def naming(ctx: str):
    """A loader's one error boundary: put `ctx` in front of any error raised inside.
    IntegrityError stays one; FormatError and what parsing bad fields raises
    (ValueError, TypeError, KeyError, IndexError, AttributeError) become FormatError."""
    try:
        yield
    except IntegrityError as exc:
        raise IntegrityError(f"{ctx}: {exc}") from None
    except (FormatError, ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise FormatError(f"{ctx}: {detail}") from None


# --------------------------------------------------------------------------
# Header schema checks, shared by .gltc tensors and .skpk entries
# --------------------------------------------------------------------------

def read_entries(header: dict, key: str, what: str, parse) -> dict:
    """name -> parse(item) for each item of the header's `key` list, in order.
    Each item is read inside `naming` as <what> 'name', or <what> #index while
    the name is unknown; it must be a JSON object with a unique string name."""
    items = header.get(key)
    if not isinstance(items, list):
        raise FormatError(f"header field {key!r} must be a list")
    out = {}
    for index, item in enumerate(items):
        name = item.get("name") if isinstance(item, dict) else None
        with naming(f"{what} {name!r}" if isinstance(name, str) else f"{what} #{index}"):
            if not isinstance(item, dict):
                raise FormatError("header must be a JSON object")
            name = header_field(item, "name", str)
            if name in out:
                raise FormatError(f"duplicate {what} name")
            out[name] = parse(item)
    return out


def header_field(head: dict, key: str, kind: type):
    """head[key], which must be present and a `kind` (a bool is never an int)."""
    value = head.get(key)
    if not isinstance(value, kind) or (kind is int and not is_int(value)):
        got = "missing" if key not in head else type(value).__name__
        raise FormatError(f"header field {key!r} must be {kind.__name__}, got {got}")
    return value


def shape_field(head: dict, ndim: int | None = None) -> tuple[int, ...]:
    return check_shape(header_field(head, "shape", list), "header field 'shape'", ndim)
