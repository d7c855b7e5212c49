"""SkillPack container (.skpk): compressed delta entries plus accounting.

Storage ratios are reported against a 16-bit baseline (what the original
parameters would occupy at 16 bits per element). Two ratios are kept:
value-only (codes and singular values) and total (adding index bits and
per-vector scales). Header bytes are not counted; the accounting model is
the closed form in `storage_ratio`, and the stats stored in a pack are
recomputed from its entries on load and must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from . import container
from .classify import ModuleClass, classify
from .errors import FormatError, IntegrityError
from .plans import DenseStrategy, PruneStrategy, Strategy, SvdQuantStrategy, clip_groups
from .quantize import MAX_BITS, MIN_BITS, BitGroup, check_groups, pack_codes, packed_size, qmax, unpack_codes
from .tensors import retained_count

MAGIC = b"SKPK"
VERSION = 1


# --------------------------------------------------------------------------
# Compressed entries
# --------------------------------------------------------------------------

def _check_code_range(codes: np.ndarray, bits: int, what: str) -> None:
    if codes.size and int(np.max(np.abs(codes))) > qmax(bits):
        raise IntegrityError(f"corrupted codes: {what} out of range for {bits}-bit values")


@dataclass(eq=False)
class DenseEntry:
    shape: tuple[int, ...]
    mclass: ModuleClass
    values: np.ndarray  # float32

    kind = "dense"

    def reconstruct(self) -> np.ndarray:
        return self.values.astype(np.float32)


@dataclass(eq=False)
class PrunedSparseEntry:
    shape: tuple[int, ...]
    mclass: ModuleClass
    alpha: float
    value_bits: int
    indices: np.ndarray  # int64, strictly increasing flat positions
    codes: np.ndarray  # int32, one per retained position
    scales: np.ndarray  # float32, one per matrix row

    kind = "pruned_sparse"

    def __post_init__(self):
        _check_code_range(self.codes, self.value_bits, "values")

    def reconstruct(self) -> np.ndarray:
        dense = np.zeros(int(np.prod(self.shape)), dtype=np.float32)
        rows = self.indices // self.shape[1]
        dense[self.indices] = self.codes.astype(np.float32) * self.scales[rows]
        return dense.reshape(self.shape)


@dataclass(eq=False)
class QuantizedSvdEntry:
    shape: tuple[int, ...]
    mclass: ModuleClass
    rank: int
    groups: tuple[BitGroup, ...]
    sigma: np.ndarray  # float32, length rank, unquantized
    u_codes: np.ndarray  # int32, (rows x rank)
    u_scales: np.ndarray  # float32, one per left singular vector (rank,)
    v_codes: np.ndarray  # int32, (rank x cols)
    v_scales: np.ndarray  # float32, one per right singular vector (rank,)

    kind = "quantized_svd"

    def __post_init__(self):
        self.groups = tuple(self.groups)
        check_groups(self.groups, self.rank)
        if len(self.sigma) != self.rank or len(self.u_scales) != self.rank or len(self.v_scales) != self.rank:
            raise ValueError("sigma and scale lengths must equal the rank")
        for g in self.groups:
            group = f"group [{g.begin}, {g.end})"
            _check_code_range(self.u_codes[:, g.begin : g.end], g.bits, f"U {group}")
            _check_code_range(self.v_codes[g.begin : g.end, :], g.bits, f"V {group}")

    def reconstruct(self) -> np.ndarray:
        u = self.u_codes.astype(np.float32) * self.u_scales[None, :]
        vt = self.v_codes.astype(np.float32) * self.v_scales[:, None]
        return (u * self.sigma[None, :]) @ vt


CompressedEntry = Union[DenseEntry, PrunedSparseEntry, QuantizedSvdEntry]


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


def _index_bits(n_elements: int) -> int:
    return 0 if n_elements <= 1 else math.ceil(math.log2(n_elements))


def _prune_line(shape, retained: int, value_bits: int) -> StatLine:
    rows = shape[0]
    n = math.prod(shape)
    return StatLine(
        original_bits=16 * n,
        stored_value_bits=retained * value_bits,
        stored_overhead_bits=retained * _index_bits(n) + 32 * rows,
    )


def _svd_line(shape, rank: int, groups: tuple[BitGroup, ...]) -> StatLine:
    rows, cols = shape
    value = sum((rows + cols) * g.length * g.bits for g in groups) + 32 * rank
    return StatLine(
        original_bits=16 * rows * cols,
        stored_value_bits=value,
        stored_overhead_bits=32 * 2 * rank,
    )


def _dense_line(shape) -> StatLine:
    n = math.prod(shape)
    return StatLine(original_bits=16 * n, stored_value_bits=32 * n, stored_overhead_bits=0)


def storage_ratio(shape: tuple[int, ...], strategy: Strategy) -> StatLine:
    """Closed-form storage line for compressing `shape` with `strategy`.

    Needs no data: pruning keeps ceil(alpha*N) values, SVD ranks clamp to
    min(shape), groups clip accordingly. Pack stats use the same formulas,
    so predictions and realized accounting agree exactly.
    """
    if isinstance(strategy, DenseStrategy):
        return _dense_line(shape)
    if isinstance(strategy, PruneStrategy):
        if len(shape) != 2:
            raise ValueError("prune strategy applies to 2-D shapes")
        n = math.prod(shape)
        return _prune_line(shape, retained_count(strategy.alpha, n), strategy.value_bits)
    if isinstance(strategy, SvdQuantStrategy):
        if len(shape) != 2:
            raise ValueError("svd strategy applies to 2-D shapes")
        eff = min(strategy.rank, shape[0], shape[1])
        return _svd_line(shape, eff, clip_groups(strategy.groups, eff))
    raise TypeError(f"unknown strategy {strategy!r}")


def entry_stats(entry: CompressedEntry) -> StatLine:
    if isinstance(entry, DenseEntry):
        return _dense_line(entry.shape)
    if isinstance(entry, PrunedSparseEntry):
        return _prune_line(entry.shape, len(entry.indices), entry.value_bits)
    if isinstance(entry, QuantizedSvdEntry):
        return _svd_line(entry.shape, entry.rank, entry.groups)
    raise TypeError(f"unknown entry {entry!r}")


def _accumulate(lines: Iterable[tuple[ModuleClass, StatLine]]) -> StorageStats:
    per_class = {cls.value: _ZERO for cls in ModuleClass}
    total = _ZERO
    for mclass, line in lines:
        per_class[mclass.value] = per_class[mclass.value] + line
        total = total + line
    return StorageStats(per_class=per_class, total=total)


def pack_stats(entries: dict[str, CompressedEntry]) -> StorageStats:
    return _accumulate((entry.mclass, entry_stats(entry)) for entry in entries.values())


def _predict_classified(classified: Iterable[tuple[ModuleClass, tuple[int, ...]]], plan) -> StorageStats:
    """`predict_stats` over already classified (class, shape) pairs."""
    return _accumulate(
        (mclass, storage_ratio(shape, plan.strategies[mclass] if len(shape) == 2 else DenseStrategy()))
        for mclass, shape in classified
    )


def predict_stats(shapes: dict[str, tuple[int, ...]], manifest, plan) -> StorageStats:
    """Closed-form stats a plan would produce on the given named shapes.

    Mirrors the compressor's dispatch: names are classified by the
    manifest, non-2-D tensors fall back to dense storage.
    """
    return _predict_classified(((classify(name, manifest), shape) for name, shape in shapes.items()), plan)


# --------------------------------------------------------------------------
# The pack itself
# --------------------------------------------------------------------------

@dataclass(eq=False)
class SkillPack:
    base_model_id: str
    tuned_model_id: str
    task_tag: str
    plan_snapshot: dict
    entries: dict[str, CompressedEntry] = field(default_factory=dict)
    format_version: int = VERSION

    @property
    def stats(self) -> StorageStats:
        """Storage stats computed from the entries, so they cannot go stale."""
        return pack_stats(self.entries)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _f32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _packed_group_codes(codes: np.ndarray, groups, take) -> bytes:
    """Concatenate per-group packed segments, each padded to a byte boundary."""
    parts = [pack_codes(take(codes, g), g.bits) for g in groups]
    return b"".join(parts)


def _entry_blobs(entry: CompressedEntry) -> list[tuple[str, bytes]]:
    if isinstance(entry, DenseEntry):
        return [("dense", _f32_bytes(entry.values))]
    if isinstance(entry, PrunedSparseEntry):
        n = int(np.prod(entry.shape))
        index_dtype = "<u8" if n >= 2**32 else "<u4"
        return [
            ("indices", entry.indices.astype(index_dtype).tobytes()),
            ("values", pack_codes(entry.codes, entry.value_bits)),
            ("scales", _f32_bytes(entry.scales)),
        ]
    if isinstance(entry, QuantizedSvdEntry):
        codes_u = _packed_group_codes(entry.u_codes, entry.groups, lambda c, g: c[:, g.begin : g.end])
        codes_v = _packed_group_codes(entry.v_codes, entry.groups, lambda c, g: c[g.begin : g.end, :])
        return [
            ("sigma", _f32_bytes(entry.sigma)),
            ("codes_u", codes_u),
            ("scales_u", _f32_bytes(entry.u_scales)),
            ("codes_v", codes_v),
            ("scales_v", _f32_bytes(entry.v_scales)),
        ]
    raise TypeError(f"unknown entry {entry!r}")


def _entry_header(name: str, entry: CompressedEntry, blob_metas: list[dict]) -> dict:
    head = {
        "name": name,
        "kind": entry.kind,
        "class": entry.mclass.value,
        "shape": list(entry.shape),
    }
    if isinstance(entry, PrunedSparseEntry):
        n = int(np.prod(entry.shape))
        head["alpha"] = entry.alpha
        head["value_bits"] = entry.value_bits
        head["index_width"] = 64 if n >= 2**32 else 32
    elif isinstance(entry, QuantizedSvdEntry):
        head["rank"] = entry.rank
        head["groups"] = [[g.begin, g.end, g.bits] for g in entry.groups]
    head["blobs"] = blob_metas
    return head


def save_pack(pack: SkillPack, path) -> None:
    all_blobs: list[bytes] = []
    roles_per_entry: list[list[str]] = []
    for entry in pack.entries.values():
        named = _entry_blobs(entry)
        roles_per_entry.append([role for role, _ in named])
        all_blobs.extend(blob for _, blob in named)
    payload, metas = container.layout_blobs(all_blobs)

    meta_iter = iter(metas)
    entry_headers = []
    for (name, entry), roles in zip(pack.entries.items(), roles_per_entry):
        blob_metas = [{"role": role, **next(meta_iter)} for role in roles]
        entry_headers.append(_entry_header(name, entry, blob_metas))

    header = {
        "format_version": pack.format_version,
        "base_model_id": pack.base_model_id,
        "tuned_model_id": pack.tuned_model_id,
        "task_tag": pack.task_tag,
        "plan": pack.plan_snapshot,
        "stats": pack_stats(pack.entries).to_dict(),
        "entries": entry_headers,
    }
    container.write_container(path, MAGIC, VERSION, header, payload)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(head: dict, key: str, kind: type, ctx: str):
    """head[key], which must be present and a `kind` (a bool is never an int)."""
    value = head.get(key)
    if not isinstance(value, kind) or (kind is int and not _is_int(value)):
        got = "missing" if key not in head else type(value).__name__
        raise FormatError(f"{ctx}: header field {key!r} must be {kind.__name__}, got {got}")
    return value


def _int_field(head: dict, key: str, ctx: str, low: int, high: int) -> int:
    value = _field(head, key, int, ctx)
    if not low <= value <= high:
        raise FormatError(f"{ctx}: header field {key!r} = {value} is outside [{low}, {high}]")
    return value


def _shape_field(head: dict, ctx: str, ndim: int | None) -> tuple[int, ...]:
    shape = _field(head, "shape", list, ctx)
    if (ndim is not None and len(shape) != ndim) or not all(_is_int(d) and d >= 0 for d in shape):
        raise FormatError(f"{ctx}: header field 'shape' must be {ndim or 'some'} non-negative ints")
    return tuple(shape)


def _groups_field(head: dict, ctx: str, rank: int) -> tuple[BitGroup, ...]:
    raw = _field(head, "groups", list, ctx)
    try:
        if not all(isinstance(g, list) and len(g) == 3 and all(_is_int(v) for v in g) for g in raw):
            raise ValueError("each group must be [begin, end, bits] ints")
        groups = tuple(BitGroup(*g) for g in raw)
        check_groups(groups, rank)
    except ValueError as exc:
        raise FormatError(f"{ctx}: bad header field 'groups': {exc}") from None
    return groups


def _require_roles(head: dict, roles: tuple[str, ...], ctx: str) -> dict[str, dict]:
    blobs = _field(head, "blobs", list, ctx)
    keys = ("offset", "byte_len", "crc32")
    for b in blobs:
        if not isinstance(b, dict) or not isinstance(b.get("role"), str) or not all(
            _is_int(b.get(k)) and b[k] >= 0 for k in keys
        ):
            raise FormatError(f"{ctx}: malformed blob metadata")
    by_role = {b["role"]: b for b in blobs}
    for role in roles:
        if role not in by_role:
            raise FormatError(f"{ctx} is missing blob {role!r}")
    return by_role


def _read_f32(payload, meta, context, expect_len) -> np.ndarray:
    blob = container.fetch_blob(payload, meta, context)
    if len(blob) != 4 * expect_len:
        raise FormatError(f"{context}: expected {expect_len} float32 values")
    values = np.frombuffer(blob, dtype="<f4").astype(np.float32)
    if not np.all(np.isfinite(values)):
        raise IntegrityError(f"{context}: non-finite float32 values")
    return values


def _unpack_group_codes(blob: bytes, groups, counts: list[int], context: str) -> list[np.ndarray]:
    out = []
    offset = 0
    for g, count in zip(groups, counts):
        seg = packed_size(count, g.bits)
        if offset + seg > len(blob):
            raise FormatError(f"{context}: packed codes shorter than declared groups")
        out.append(unpack_codes(blob[offset : offset + seg], count, g.bits))
        offset += seg
    return out


def _construct(cls, ctx: str, **fields) -> CompressedEntry:
    """cls(**fields), with the entry's code-range IntegrityError naming it."""
    try:
        return cls(**fields)
    except IntegrityError as exc:
        raise IntegrityError(f"{ctx}: {exc}") from None


def _load_entry(index: int, head, payload: bytes) -> tuple[str, CompressedEntry]:
    """One entry from its header; every header field is checked before use."""
    if not isinstance(head, dict):
        raise FormatError(f"entry #{index}: header must be a JSON object")
    name = head.get("name")
    ctx = f"entry {name!r}" if isinstance(name, str) else f"entry #{index}"
    name = _field(head, "name", str, ctx)
    kind = _field(head, "kind", str, ctx)
    try:
        mclass = ModuleClass(_field(head, "class", str, ctx))
    except ValueError:
        raise FormatError(f"{ctx}: unknown module class {head['class']!r}") from None

    if kind == "dense":
        shape = _shape_field(head, ctx, None)
        by_role = _require_roles(head, ("dense",), ctx)
        n = math.prod(shape)
        values = _read_f32(payload, by_role["dense"], f"{ctx} blob 'dense'", n).reshape(shape)
        return name, DenseEntry(shape=shape, mclass=mclass, values=values)

    if kind == "pruned_sparse":
        shape = _shape_field(head, ctx, 2)
        by_role = _require_roles(head, ("indices", "values", "scales"), ctx)
        n = math.prod(shape)
        value_bits = _int_field(head, "value_bits", ctx, MIN_BITS, MAX_BITS)
        width = head.get("index_width", 32)
        if not _is_int(width) or width not in (32, 64):
            raise FormatError(f"{ctx}: bad index width {width!r}")
        alpha = head.get("alpha", 0.0)
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
            raise FormatError(f"{ctx}: header field 'alpha' must be a number")
        idx_blob = container.fetch_blob(payload, by_role["indices"], f"{ctx} blob 'indices'")
        if len(idx_blob) % (width // 8):
            raise FormatError(f"{ctx} blob 'indices': length is not a whole number of {width}-bit indices")
        indices = np.frombuffer(idx_blob, dtype="<u8" if width == 64 else "<u4").astype(np.int64)
        if indices.size and (np.any(np.diff(indices) <= 0) or indices[0] < 0 or indices[-1] >= n):
            raise FormatError(f"{ctx}: indices must be strictly increasing and in range")
        val_blob = container.fetch_blob(payload, by_role["values"], f"{ctx} blob 'values'")
        if len(val_blob) < packed_size(len(indices), value_bits):
            raise FormatError(f"{ctx} blob 'values': shorter than {len(indices)} {value_bits}-bit codes")
        codes = unpack_codes(val_blob, len(indices), value_bits)
        scales = _read_f32(payload, by_role["scales"], f"{ctx} blob 'scales'", shape[0])
        return name, _construct(
            PrunedSparseEntry,
            ctx,
            shape=shape,
            mclass=mclass,
            alpha=float(alpha),
            value_bits=value_bits,
            indices=indices,
            codes=codes,
            scales=scales,
        )

    if kind == "quantized_svd":
        shape = _shape_field(head, ctx, 2)
        rows, cols = shape
        by_role = _require_roles(head, ("sigma", "codes_u", "scales_u", "codes_v", "scales_v"), ctx)
        rank = _int_field(head, "rank", ctx, 1, min(rows, cols))
        groups = _groups_field(head, ctx, rank)
        sigma = _read_f32(payload, by_role["sigma"], f"{ctx} blob 'sigma'", rank)
        u_scales = _read_f32(payload, by_role["scales_u"], f"{ctx} blob 'scales_u'", rank)
        v_scales = _read_f32(payload, by_role["scales_v"], f"{ctx} blob 'scales_v'", rank)

        u_blob = container.fetch_blob(payload, by_role["codes_u"], f"{ctx} blob 'codes_u'")
        v_blob = container.fetch_blob(payload, by_role["codes_v"], f"{ctx} blob 'codes_v'")
        u_parts = _unpack_group_codes(u_blob, groups, [rows * g.length for g in groups], f"{ctx} codes_u")
        v_parts = _unpack_group_codes(v_blob, groups, [g.length * cols for g in groups], f"{ctx} codes_v")
        u_codes = np.concatenate(
            [part.reshape(rows, g.length) for part, g in zip(u_parts, groups)], axis=1
        )
        v_codes = np.concatenate(
            [part.reshape(g.length, cols) for part, g in zip(v_parts, groups)], axis=0
        )
        return name, _construct(
            QuantizedSvdEntry,
            ctx,
            shape=shape,
            mclass=mclass,
            rank=rank,
            groups=groups,
            sigma=sigma,
            u_codes=u_codes,
            u_scales=u_scales,
            v_codes=v_codes,
            v_scales=v_scales,
        )

    raise FormatError(f"{ctx}: unknown entry kind {kind!r}")


def load_pack(path) -> SkillPack:
    header, payload = container.read_container(path, MAGIC, VERSION)
    entries: dict[str, CompressedEntry] = {}
    heads = header.get("entries", [])
    if not isinstance(heads, list):
        raise FormatError("header field 'entries' must be a list")
    for index, head in enumerate(heads):
        name, entry = _load_entry(index, head, payload)
        if name in entries:
            raise FormatError(f"duplicate entry name {name!r}")
        entries[name] = entry
    if pack_stats(entries).to_dict() != header.get("stats"):
        raise IntegrityError("stats mismatch: stored storage stats do not match the entries")
    return SkillPack(
        base_model_id=header.get("base_model_id", ""),
        tuned_model_id=header.get("tuned_model_id", ""),
        task_tag=header.get("task_tag", ""),
        plan_snapshot=header.get("plan", {}),
        entries=entries,
        format_version=header.get("format_version", VERSION),
    )


# --------------------------------------------------------------------------
# Inspection
# --------------------------------------------------------------------------

def _fmt_shape(shape) -> str:
    return "x".join(str(d) for d in shape)


def _fmt_groups(groups) -> str:
    return "[" + ", ".join(f"{g.begin}:{g.end}@{g.bits}b" for g in groups) + "]"


def _fmt_ratios(line: StatLine) -> str:
    return f"ratio_value={100 * line.ratio_value_only:.4f}%  ratio_total={100 * line.ratio_total:.4f}%"


def _fmt_bits(line: StatLine) -> str:
    return (
        f"original_bits={line.original_bits}  value_bits={line.stored_value_bits}"
        f"  overhead_bits={line.stored_overhead_bits}  {_fmt_ratios(line)}"
    )


def inspect_pack(pack: SkillPack) -> str:
    """Human-readable report; row ordering follows the pack, classes the enum."""
    lines = [
        f"SkillPack  base={pack.base_model_id!r}  tuned={pack.tuned_model_id!r}  tag={pack.task_tag!r}",
        f"entries: {len(pack.entries)}",
    ]
    for name, entry in pack.entries.items():
        line = entry_stats(entry)
        detail = ""
        if isinstance(entry, PrunedSparseEntry):
            detail = f"  alpha={entry.alpha:g}  value_bits={entry.value_bits}  retained={len(entry.indices)}"
        elif isinstance(entry, QuantizedSvdEntry):
            detail = f"  rank={entry.rank}  groups={_fmt_groups(entry.groups)}"
        lines.append(
            f"  {name}  kind={entry.kind}  class={entry.mclass.value}  shape={_fmt_shape(entry.shape)}"
            f"{detail}  {_fmt_ratios(line)}"
        )
    stats = pack.stats
    lines.append("per-class storage:")
    lines.extend(f"  {cls.value}: {_fmt_bits(stats.per_class[cls.value])}" for cls in ModuleClass)
    lines.append(f"total: {_fmt_bits(stats.total)}")
    return "\n".join(lines)
