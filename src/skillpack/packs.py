"""SkillPack container (.skpk): compressed delta entries plus accounting.

Storage ratios are reported against a 16-bit baseline (what the original
parameters would occupy at 16 bits per element). Two ratios are kept:
value-only (codes and singular values) and total (adding index bits and
per-vector scales). Header bytes are not counted; the accounting model is
the closed form in `storage_ratio`, and the stats stored in a pack are
recomputed from its entries on load and must match. They are the bits of
the entry's blobs, less the byte padding of each bit-packed segment: codes
at their width and pruned positions at ceil(log2 N) bits.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Union, get_args

import numpy as np

from . import container
from .classify import ModuleClass, classify
from .container import header_field, shape_field
from .errors import FormatError, IntegrityError
from .plans import (
    BitGroup, DenseStrategy, PruneStrategy, Strategy, SvdQuantStrategy, clip_groups, groups_from_json, groups_to_json,
    strategy_for)
from .quantize import check_codes, code_dtype, pack_codes, pack_fields, packed_size, unpack_codes, unpack_fields
from .tensors import check_float32, check_int, check_shape, retained_count

MAGIC = b"SKPK"
VERSION = 1


# --------------------------------------------------------------------------
# Compressed entries. Each checks how its fields relate when it is built, so
# compressed, hand-built and loaded entries pass the same checks. Each kind
# owns its format: `roles` names its blobs in file order, `_encode` gives its
# header fields and a (data, dtype) per role (dtype None: bytes already
# packed), `_decode` is its part of `_load_entry`, `_detail` of `inspect`.
# The constructors also set the in-memory types: a tuple shape, a ModuleClass,
# float32 finite floats, codes `code_dtype` of their width, pruned positions
# packed as the file holds them; `_hold` makes every array read-only, uncopied.
# Compress and load hand over those types in fresh arrays or views of the
# file, so they copy no code and freeze no array that a caller holds.
# --------------------------------------------------------------------------

def _hold(entry, shape: tuple[int, ...], **fields) -> None:
    """Set an entry's checked fields and class (a ModuleClass); a writable array, and the one it views, go read-only."""
    for name, value in {"shape": shape, "mclass": ModuleClass(entry.mclass), **fields}.items():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            for arr in (value, value.base) if isinstance(value.base, np.ndarray) else (value,):
                arr.flags.writeable = False
        object.__setattr__(entry, name, value)


# `_checked` from `compress.compress_entry` and `DenseEntry._decode` only, which scan their values themselves.
_VALUES_CHECKED = object()
# Positions per block of a pruned entry's order check: a multiple of 8, so a packed block starts on a byte.
_POSITIONS = 1 << 16
_UNORDERED = "indices must be strictly increasing integers in range"


@dataclass(frozen=True, eq=False)
class DenseEntry:
    shape: tuple[int, ...]
    mclass: ModuleClass
    values: np.ndarray  # float32
    _checked: InitVar[object] = None  # `_VALUES_CHECKED`, so that a large dense array is not scanned twice

    kind = "dense"
    roles = ("dense",)

    def __post_init__(self, _checked: object):
        shape = check_shape(self.shape, "a dense entry's shape")
        values = self.values if _checked is _VALUES_CHECKED else check_float32(self.values, "dense values")
        if values.shape != shape:
            raise ValueError(f"dense values of shape {values.shape} do not match the entry shape {shape}")
        _hold(self, shape, values=values)

    @property
    def strategy(self) -> DenseStrategy:
        return DenseStrategy()

    def reconstruct(self) -> np.ndarray:
        """A fresh, writable float32 array; callers may modify it in place."""
        return self.values.astype(np.float32)  # copies even from float32: never copy=False

    def _encode(self) -> tuple[dict, list]:
        return {}, [(self.values, "<f4")]

    @classmethod
    def _decode(cls, head: dict, mclass: str, array, codes) -> DenseEntry:
        shape = shape_field(head)
        return cls(shape=shape, mclass=mclass, values=array("dense", shape=shape), _checked=_VALUES_CHECKED)

    def _detail(self) -> str:
        return ""


def index_bits(n: int) -> int:
    """Bits of one flat position among n: ceil(log2 n), and 0 for n <= 1."""
    return max(n - 1, 0).bit_length()


@dataclass(frozen=True, eq=False)
class PrunedSparseEntry:
    shape: tuple[int, ...]
    mclass: ModuleClass
    alpha: float
    value_bits: int
    indices: np.ndarray  # strictly increasing flat positions, held packed (`pack_fields`) at `index_width` bits
    codes: np.ndarray  # code_dtype(value_bits), one per retained position
    scales: np.ndarray  # float32, one per matrix row
    index_width: int | None = None  # None: `indices` are positions, checked and packed at `index_bits`

    kind = "pruned_sparse"
    roles = ("indices", "values", "scales")

    def __post_init__(self):
        shape = check_shape(self.shape, "a 2-D pruned entry's shape", 2)
        scales = check_float32(self.scales, "pruned scales")
        n = math.prod(shape)
        keep = retained_count(self.strategy.alpha, n)  # building the strategy checks alpha and value_bits
        idx, width, last = self.indices, self.index_width, -1
        if width is not None:  # packed already, at index_bits(n) or as the u32 or u64 of earlier files
            if width not in (index_bits(n), 32, 64) or len(idx) != packed_size(keep, width):
                raise ValueError(f"bad index width {width!r}: {keep} of {n} values take "
                                 f"{packed_size(keep, width)} bytes, got {len(idx)}")
        elif idx.dtype.kind not in "iu":
            raise ValueError(_UNORDERED)
        count = keep if width is not None else len(idx)
        for start in range(0, count, _POSITIONS):  # packed ones decoded a block at a time
            block = idx[start : start + _POSITIONS] if width is None else unpack_fields(
                idx[start * width // 8 :], min(_POSITIONS, count - start), width, np.uint64)
            if np.any(block[1:] <= block[:-1]) or block[0] <= last or block[-1] >= n:
                raise ValueError(_UNORDERED)
            last = block[-1]
        if len(self.codes) != count or len(scales) != shape[0]:
            raise ValueError("a pruned entry needs one code per index and one scale per row")
        if count != keep:
            raise ValueError(f"alpha={self.alpha!r} keeps {keep} of {n} values, got {count}")
        check_codes(self.codes, self.value_bits, "values")
        if width is None:  # a copy: the caller's positions may change, the entry's may not
            width, idx = index_bits(n), pack_fields(idx, index_bits(n))
        _hold(self, shape, scales=scales, index_width=width, indices=idx,
              codes=self.codes.astype(code_dtype(self.value_bits), copy=False))

    @property
    def strategy(self) -> PruneStrategy:
        return PruneStrategy(alpha=self.alpha, value_bits=self.value_bits)

    def positions(self) -> np.ndarray:
        """The flat positions, decoded from `indices` into a fresh uint64 array."""
        return unpack_fields(self.indices, len(self.codes), self.index_width, np.uint64)

    def reconstruct(self) -> np.ndarray:
        """A fresh, writable float32 array; callers may modify it in place."""
        dense = np.zeros(int(np.prod(self.shape)), dtype=np.float32)
        positions = self.positions()
        dense[positions] = self.codes.astype(np.float32) * self.scales[positions // self.shape[1]]
        return dense.reshape(self.shape)

    def _encode(self) -> tuple[dict, list]:
        codes = pack_codes(self.codes, self.value_bits)
        fields = {"alpha": self.alpha, "value_bits": self.value_bits, "index_width": self.index_width}
        return fields, [(self.indices, None), (codes, None), (self.scales, "<f4")]

    @classmethod
    def _decode(cls, head: dict, mclass: str, array, codes) -> PrunedSparseEntry:
        shape = shape_field(head, 2)
        alpha, value_bits = head["alpha"], head["value_bits"]
        keep = retained_count(PruneStrategy(alpha=alpha, value_bits=value_bits).alpha, math.prod(shape))
        return cls(shape=shape, mclass=mclass, alpha=alpha, value_bits=value_bits, indices=array("indices", "u1"),
                   codes=codes("values", [(keep, value_bits)])[0], scales=array("scales"),
                   index_width=header_field(head, "index_width", int))

    def _detail(self) -> str:
        return f"  alpha={self.alpha:g}  value_bits={self.value_bits}  retained={len(self.codes)}"


@dataclass(frozen=True, eq=False)
class QuantizedSvdEntry:
    shape: tuple[int, ...]
    mclass: ModuleClass
    rank: int
    groups: tuple[BitGroup, ...]
    sigma: np.ndarray  # float32, length rank, unquantized
    u_codes: np.ndarray  # code_dtype of the widest group, (rows x rank)
    u_scales: np.ndarray  # float32, one per left singular vector (rank,)
    v_codes: np.ndarray  # code_dtype of the widest group, (rank x cols)
    v_scales: np.ndarray  # float32, one per right singular vector (rank,)

    kind = "quantized_svd"
    roles = ("sigma", "codes_u", "scales_u", "codes_v", "scales_v")

    def __post_init__(self):
        rows, cols = shape = check_shape(self.shape, "a 2-D SVD entry's shape", 2)
        check_int(self.rank, "rank", 1, min(rows, cols))
        groups = self.strategy.groups  # a tuple, checked to cover [0, rank)
        sigma, u_scales, v_scales = (
            check_float32(a, what) for a, what in ((self.sigma, "sigma"), (self.u_scales, "U scales"),
                                                   (self.v_scales, "V scales")))
        if len(sigma) != self.rank or len(u_scales) != self.rank or len(v_scales) != self.rank:
            raise ValueError("sigma and scale lengths must equal the rank")
        if self.u_codes.shape != (rows, self.rank) or self.v_codes.shape != (self.rank, cols):
            raise ValueError(f"U codes must be {rows}x{self.rank} and V codes {self.rank}x{cols}")
        for g in groups:
            group = f"group [{g.begin}, {g.end})"
            check_codes(self.u_codes[:, g.begin : g.end], g.bits, f"U {group}")
            check_codes(self.v_codes[g.begin : g.end, :], g.bits, f"V {group}")
        dtype = code_dtype(max(g.bits for g in groups))
        _hold(self, shape, groups=groups, sigma=sigma, u_scales=u_scales, v_scales=v_scales,
              u_codes=self.u_codes.astype(dtype, copy=False), v_codes=self.v_codes.astype(dtype, copy=False))

    @property
    def strategy(self) -> SvdQuantStrategy:
        return SvdQuantStrategy(rank=self.rank, groups=self.groups)

    def reconstruct(self) -> np.ndarray:
        """A fresh, writable float32 array; callers may modify it in place."""
        u = self.u_codes.astype(np.float32) * self.u_scales[None, :]
        vt = self.v_codes.astype(np.float32) * self.v_scales[:, None]
        return (u * self.sigma[None, :]) @ vt

    def _encode(self) -> tuple[dict, list]:
        u = b"".join(pack_codes(self.u_codes[:, g.begin : g.end], g.bits) for g in self.groups)
        v = b"".join(pack_codes(self.v_codes[g.begin : g.end, :], g.bits) for g in self.groups)
        fields = {"rank": self.rank, "groups": groups_to_json(self.groups)}
        return fields, [(self.sigma, "<f4"), (u, None), (self.u_scales, "<f4"), (v, None), (self.v_scales, "<f4")]

    @classmethod
    def _decode(cls, head: dict, mclass: str, array, codes) -> QuantizedSvdEntry:
        shape = shape_field(head, 2)
        rows, cols = shape
        groups = groups_from_json(head["groups"])
        sigma, u_scales, v_scales = (array(role) for role in ("sigma", "scales_u", "scales_v"))
        u_parts = codes("codes_u", [(rows * g.length, g.bits) for g in groups])
        v_parts = codes("codes_v", [(g.length * cols, g.bits) for g in groups])
        return cls(
            shape=shape, mclass=mclass, rank=head["rank"], groups=groups, sigma=sigma, u_scales=u_scales,
            u_codes=np.concatenate([part.reshape(rows, g.length) for part, g in zip(u_parts, groups)], 1),
            v_codes=np.concatenate([part.reshape(g.length, cols) for part, g in zip(v_parts, groups)], 0),
            v_scales=v_scales,
        )

    def _detail(self) -> str:
        groups = ", ".join(f"{g.begin}:{g.end}@{g.bits}b" for g in self.groups)
        return f"  rank={self.rank}  groups=[{groups}]"


CompressedEntry = Union[DenseEntry, PrunedSparseEntry, QuantizedSvdEntry]
_KINDS = {cls.kind: cls for cls in get_args(CompressedEntry)}


# --------------------------------------------------------------------------
# Storage accounting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StatLine:
    original_bits: int
    stored_value_bits: int
    stored_overhead_bits: int

    @property
    def ratio_value_only(self) -> float:
        return 0.0 if self.original_bits == 0 else self.stored_value_bits / self.original_bits

    @property
    def ratio_total(self) -> float:
        if self.original_bits == 0:
            return 0.0
        return (self.stored_value_bits + self.stored_overhead_bits) / self.original_bits

    def __add__(self, other: "StatLine") -> "StatLine":
        return StatLine(
            self.original_bits + other.original_bits,
            self.stored_value_bits + other.stored_value_bits,
            self.stored_overhead_bits + other.stored_overhead_bits,
        )

    def to_dict(self) -> dict:
        return {
            "original_bits": self.original_bits,
            "stored_value_bits": self.stored_value_bits,
            "stored_overhead_bits": self.stored_overhead_bits,
            "ratio_value_only": self.ratio_value_only,
            "ratio_total": self.ratio_total,
        }


@dataclass(frozen=True)
class StorageStats:
    per_class: dict[str, StatLine]
    total: StatLine

    def to_dict(self) -> dict:
        return {
            "per_class": {cls: line.to_dict() for cls, line in self.per_class.items()},
            "total": self.total.to_dict(),
        }


_ZERO = StatLine(0, 0, 0)


def storage_ratio(shape: tuple[int, ...], strategy: Strategy) -> StatLine:
    """Closed-form storage line for compressing `shape` with `strategy`.

    Needs no data: pruning keeps ceil(alpha*N) values, SVD ranks clamp to
    min(shape), groups clip accordingly. An entry's stats are this line for
    its own shape and strategy, so predictions and pack stats agree exactly.
    """
    dense = isinstance(strategy, DenseStrategy)
    shape = check_shape(shape, "a shape" if dense else "a prune or svd shape (2-D shapes only)", None if dense else 2)
    n = math.prod(shape)
    if dense:
        return StatLine(original_bits=16 * n, stored_value_bits=32 * n, stored_overhead_bits=0)
    if isinstance(strategy, PruneStrategy):
        retained = retained_count(strategy.alpha, n)
        return StatLine(
            original_bits=16 * n,
            stored_value_bits=retained * strategy.value_bits,
            stored_overhead_bits=retained * index_bits(n) + 32 * shape[0],
        )
    if isinstance(strategy, SvdQuantStrategy):
        rank = min(strategy.rank, *shape)
        codes = sum((shape[0] + shape[1]) * g.length * g.bits for g in clip_groups(strategy.groups, rank))
        return StatLine(original_bits=16 * n, stored_value_bits=codes + 32 * rank, stored_overhead_bits=32 * 2 * rank)
    raise TypeError(f"unknown strategy {strategy!r}")


def entry_stats(entry: CompressedEntry) -> StatLine:
    return storage_ratio(entry.shape, entry.strategy)


def _accumulate(lines: Iterable[tuple[ModuleClass, StatLine]]) -> StorageStats:
    per_class = {cls.value: _ZERO for cls in ModuleClass}
    for mclass, line in lines:
        per_class[mclass.value] += line
    return StorageStats(per_class=per_class, total=sum(per_class.values(), _ZERO))


def pack_stats(entries: dict[str, CompressedEntry]) -> StorageStats:
    return _accumulate((entry.mclass, entry_stats(entry)) for entry in entries.values())


def predict_stats(shapes: dict[str, tuple[int, ...]], manifest, plan) -> StorageStats:
    """Closed-form stats a plan would produce on the given named shapes.

    Mirrors the compressor's dispatch: names are classified by the
    manifest, non-2-D tensors fall back to dense storage.
    """
    classified = ((classify(name, manifest), shape) for name, shape in shapes.items())
    return _accumulate((cls, storage_ratio(shape, strategy_for(plan, cls, shape))) for cls, shape in classified)


# --------------------------------------------------------------------------
# The pack itself
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SkillPack:
    base_model_id: str
    tuned_model_id: str
    task_tag: str
    plan_snapshot: dict
    entries: dict[str, CompressedEntry] = field(default_factory=dict)

    @property
    def stats(self) -> StorageStats:
        """Storage stats computed from the entries, so they cannot go stale."""
        return pack_stats(self.entries)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _encode_entry(name: str, entry: CompressedEntry, payload: container.Payload) -> dict:
    """The entry's header; its blobs go into `payload` in role order."""
    container.check_str(f"entry {name!r}", name=name)
    head = {"name": name, "kind": entry.kind, "class": entry.mclass.value, "shape": list(entry.shape)}
    fields, data = entry._encode()
    blobs = []
    for role, (blob, dtype) in zip(entry.roles, data, strict=True):
        ctx = f"entry {name!r} blob {role!r}"
        blobs.append({"role": role, **(payload.add(blob) if dtype is None else payload.add_array(blob, dtype, ctx))})
    return {**head, **fields, "blobs": blobs}


def save_pack(pack: SkillPack, path) -> None:
    container.check_str("pack", base_model_id=pack.base_model_id, tuned_model_id=pack.tuned_model_id,
                        task_tag=pack.task_tag)
    if not isinstance(pack.plan_snapshot, dict):  # `load_pack` reads the header's plan as a dict
        raise ValueError(f"pack field 'plan_snapshot' must be dict, got {type(pack.plan_snapshot).__name__}")
    container.check_json("pack field 'plan_snapshot'", pack.plan_snapshot)
    payload = container.Payload()
    entries = [_encode_entry(name, entry, payload) for name, entry in pack.entries.items()]
    header = {
        "format_version": VERSION,
        "base_model_id": pack.base_model_id,
        "tuned_model_id": pack.tuned_model_id,
        "task_tag": pack.task_tag,
        "plan": pack.plan_snapshot,
        "stats": pack_stats(pack.entries).to_dict(),
        "entries": entries,
    }
    container.write_container(path, MAGIC, VERSION, header, payload.parts)


def _load_entry(head: dict, payload: memoryview) -> CompressedEntry:
    """One entry from its header. Its kind's `_decode` parses the fields; the constructor checks them and the class."""
    kind, mclass = header_field(head, "kind", str), header_field(head, "class", str)
    cls = _KINDS.get(kind)
    if cls is None:
        raise FormatError(f"unknown entry kind {kind!r}")
    blobs = header_field(head, "blobs", list)
    roles = tuple(meta.get("role") if isinstance(meta, dict) else None for meta in blobs)
    if roles != cls.roles:
        raise FormatError(f"{kind} blob roles must be {list(cls.roles)}, got {list(roles)}")
    metas = dict(zip(roles, blobs))

    def array(role: str, dtype="<f4", shape: tuple[int, ...] | None = None) -> np.ndarray:
        with container.naming(f"blob {role!r}"):
            return container.read_array(payload, metas[role], dtype, shape)

    def codes(role: str, fields: list[tuple[int, int]]) -> list[np.ndarray]:
        """The blob's (count, bits) code segments, each padded to a byte boundary."""
        with container.naming(f"blob {role!r}"):
            blob = container.fetch_blob(payload, metas[role])
            out, offset = [], 0
            for count, bits in fields:
                out.append(unpack_codes(blob[offset:], count, bits))
                offset += packed_size(count, bits)
            return out

    return cls._decode(head, mclass, array, codes)


def load_pack(path) -> SkillPack:
    header, payload = container.read_container(path, MAGIC, VERSION)
    version = header_field(header, "format_version", int)
    if version != VERSION:
        raise FormatError(f"header field 'format_version' must be {VERSION}, got {version}")
    pack = SkillPack(
        base_model_id=header_field(header, "base_model_id", str),
        tuned_model_id=header_field(header, "tuned_model_id", str),
        task_tag=header_field(header, "task_tag", str),
        plan_snapshot=header_field(header, "plan", dict),
        entries=container.read_entries(header, "entries", "entry", lambda head: _load_entry(head, payload)),
    )
    if pack.stats.to_dict() != header.get("stats"):
        raise IntegrityError("stats mismatch: stored storage stats do not match the entries")
    return pack


# --------------------------------------------------------------------------
# Inspection
# --------------------------------------------------------------------------

def _fmt_shape(shape) -> str:
    return "x".join(str(d) for d in shape)


def fmt_ratios(line: StatLine) -> str:
    """The two storage ratios as `inspect` and `compress` print them."""
    return f"ratio_value={100 * line.ratio_value_only:.4f}%  ratio_total={100 * line.ratio_total:.4f}%"


def _fmt_bits(line: StatLine) -> str:
    return (
        f"original_bits={line.original_bits}  value_bits={line.stored_value_bits}"
        f"  overhead_bits={line.stored_overhead_bits}  {fmt_ratios(line)}"
    )


def inspect_pack(pack: SkillPack) -> str:
    """Human-readable report; row ordering follows the pack, classes the enum."""
    lines = [
        f"SkillPack  base={pack.base_model_id!r}  tuned={pack.tuned_model_id!r}  tag={pack.task_tag!r}",
        f"entries: {len(pack.entries)}",
    ]
    for name, entry in pack.entries.items():
        lines.append(
            f"  {name}  kind={entry.kind}  class={entry.mclass.value}  shape={_fmt_shape(entry.shape)}"
            f"{entry._detail()}  {fmt_ratios(entry_stats(entry))}"
        )
    stats = pack.stats
    lines.append("per-class storage:")
    lines.extend(f"  {cls.value}: {_fmt_bits(stats.per_class[cls.value])}" for cls in ModuleClass)
    lines.append(f"total: {_fmt_bits(stats.total)}")
    return "\n".join(lines)
