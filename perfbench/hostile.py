"""Deterministically mutated .skpk files for the hostile-load part of task-switch.

The container layout is parsed and rewritten here, not through the library:
a 16-byte prefix (magic, u32 version, u64 header length), a space-padded
JSON header ending on a 64-byte boundary, then the payload with per-blob
{offset, byte_len, crc32} metadata in the header.

A hostile load succeeds when `load_pack` raises `SkillPackError`, or when
the pack loads and grafts into a finite checkpoint of the right shape.
Two mutations hit faults the library still has, so they fail on every
attempt: a NaN in a `sigma` blob with its CRC recomputed loads and grafts
into a non-finite checkpoint, and an entry header without "kind" leaks
`KeyError`. A forged huge sparse shape is left out: it passes load and
then makes `reconstruct` allocate terabytes.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

import skillpack as sp

_PREFIX = struct.Struct("<4sIQ")


def split(raw: bytes) -> tuple[bytes, int, dict, bytes]:
    magic, version, header_len = _PREFIX.unpack_from(raw)
    header = json.loads(raw[_PREFIX.size : _PREFIX.size + header_len])
    return magic, version, header, raw[_PREFIX.size + header_len :]


def join(magic: bytes, version: int, header: dict, payload: bytes) -> bytes:
    body = json.dumps(header).encode()
    body += b" " * (-(_PREFIX.size + len(body)) % 64)
    return _PREFIX.pack(magic, version, len(body)) + body + payload


def _first_blob(header: dict, role: str) -> dict:
    return next(b for e in header["entries"] for b in e["blobs"] if b["role"] == role)


def _nan_sigma(raw: bytes) -> bytes:
    magic, version, header, payload = split(raw)
    meta = _first_blob(header, "sigma")
    data = bytearray(payload)
    data[meta["offset"] : meta["offset"] + 4] = np.float32(np.nan).tobytes()
    meta["crc32"] = zlib.crc32(bytes(data[meta["offset"] : meta["offset"] + meta["byte_len"]]))
    return join(magic, version, header, bytes(data))


def _no_kind(raw: bytes) -> bytes:
    magic, version, header, payload = split(raw)
    del header["entries"][0]["kind"]
    return join(magic, version, header, payload)


def _flipped_code_byte(raw: bytes) -> bytes:
    magic, version, header, payload = split(raw)
    meta = _first_blob(header, "codes_u")
    data = bytearray(payload)
    data[meta["offset"]] ^= 0xFF
    return join(magic, version, header, bytes(data))


def _tampered_stats(raw: bytes) -> bytes:
    magic, version, header, payload = split(raw)
    header["stats"]["total"]["stored_value_bits"] += 1
    return join(magic, version, header, payload)


def _unknown_kind(raw: bytes) -> bytes:
    magic, version, header, payload = split(raw)
    header["entries"][0]["kind"] = "mystery"
    return join(magic, version, header, payload)


# name -> mutation of the valid file's bytes. Order is the attempt order.
MUTATIONS = {
    "valid": lambda raw: raw,
    "truncated": lambda raw: raw[: len(raw) // 2],
    "bad_magic": lambda raw: b"XXXX" + raw[4:],
    "header_not_utf8": lambda raw: raw[:16] + b"\xff" + raw[17:],
    "flipped_code_byte": _flipped_code_byte,
    "tampered_stats": _tampered_stats,
    "unknown_kind": _unknown_kind,
    "nan_sigma": _nan_sigma,
    "missing_kind": _no_kind,
}


def write_all(valid_path: str, out_dir: str) -> list[str]:
    """Write every mutation of the valid pack; returns their paths."""
    with open(valid_path, "rb") as fh:
        raw = fh.read()
    out = []
    for name, mutate in MUTATIONS.items():
        path = f"{out_dir}/hostile_{name}.skpk"
        with open(path, "wb") as fh:
            fh.write(mutate(raw))
        out.append(path)
    return out


def attempt(path: str, base) -> bool:
    """One hostile load; True when the library handled the file safely."""
    try:
        pack = sp.load_pack(path)
    except sp.SkillPackError:
        return True
    except Exception:  # any other exception escaping load_pack is the fault counted
        return False
    try:
        grafted = sp.apply_pack(base, pack)
    except sp.SkillPackError:
        return True
    except Exception:
        return False
    return all(
        arr.shape == base.tensors[name].shape and bool(np.all(np.isfinite(arr)))
        for name, arr in grafted.tensors.items()
    )
