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
from .container import header_field, shape_field
from .errors import FormatError, IntegrityError
from .plans import DenseStrategy, PruneStrategy, Strategy, SvdQuantStrategy, clip_groups, strategy_for
from .quantize import BitGroup, groups_from_json, groups_to_json, pack_codes, packed_size, qmax, unpack_codes
from .tensors import check_rank, retained_count

MAGIC = b"SKPK"
VERSION = 1


# --------------------------------------------------------------------------
# Compressed entries. Each checks how its fields relate when it is built, so
# compressed, hand-built and loaded entries pass the same checks.
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

    def __post_init__(self):
        if self.values.shape != tuple(self.shape):
            raise ValueError(f"dense values of shape {self.values.shape} do not match the entry shape {self.shape}")

    @property
    def strategy(self) -> DenseStrategy:
        return DenseStrategy()

    def reconstruct(self) -> np.ndarray:
        """A fresh, writable float32 array; callers may modify it in place."""
        return self.values.astype(np.float32)  # copies even from float32: never copy=False


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
        if len(self.shape) != 2:
            raise ValueError(f"a pruned entry must be 2-D, got shape {tuple(self.shape)}")
        n = math.prod(self.shape)
        keep = retained_count(self.strategy.alpha, n)  # building the strategy checks alpha and value_bits
        idx = self.indices
        if idx.size and (np.any(idx[1:] <= idx[:-1]) or idx[0] < 0 or idx[-1] >= n):
            raise ValueError("indices must be strictly increasing and in range")
        if len(self.codes) != len(idx) or len(self.scales) != self.shape[0]:
            raise ValueError("a pruned entry needs one code per index and one scale per row")
        if len(idx) != keep:
            raise ValueError(f"alpha={self.alpha!r} keeps {keep} of {n} values, got {len(idx)}")
        _check_code_range(self.codes, self.value_bits, "values")

    @property
    def strategy(self) -> PruneStrategy:
        return PruneStrategy(alpha=self.alpha, value_bits=self.value_bits)

    def reconstruct(self) -> np.ndarray:
        """A fresh, writable float32 array; callers may modify it in place."""
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
        rows, cols = self.shape
        check_rank(self.rank, min(rows, cols))
        self.groups = self.strategy.groups  # a tuple, checked to cover [0, rank)
        if len(self.sigma) != self.rank or len(self.u_scales) != self.rank or len(self.v_scales) != self.rank:
            raise ValueError("sigma and scale lengths must equal the rank")
        if self.u_codes.shape != (rows, self.rank) or self.v_codes.shape != (self.rank, cols):
            raise ValueError(f"U codes must be {rows}x{self.rank} and V codes {self.rank}x{cols}")
        for g in self.groups:
            group = f"group [{g.begin}, {g.end})"
            _check_code_range(self.u_codes[:, g.begin : g.end], g.bits, f"U {group}")
            _check_code_range(self.v_codes[g.begin : g.end, :], g.bits, f"V {group}")

    @property
    def strategy(self) -> SvdQuantStrategy:
        return SvdQuantStrategy(rank=self.rank, groups=self.groups)

    def reconstruct(self) -> np.ndarray:
        """A fresh, writable float32 array; callers may modify it in place."""
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


def storage_ratio(shape: tuple[int, ...], strategy: Strategy) -> StatLine:
    """Closed-form storage line for compressing `shape` with `strategy`.

    Needs no data: pruning keeps ceil(alpha*N) values, SVD ranks clamp to
    min(shape), groups clip accordingly. An entry's stats are this line for
    its own shape and strategy, so predictions and pack stats agree exactly.
    """
    n = math.prod(shape)
    if isinstance(strategy, DenseStrategy):
        return StatLine(original_bits=16 * n, stored_value_bits=32 * n, stored_overhead_bits=0)
    if isinstance(strategy, PruneStrategy):
        if len(shape) != 2:
            raise ValueError("prune strategy applies to 2-D shapes")
        retained = retained_count(strategy.alpha, n)
        index_bits = math.ceil(math.log2(n)) if n > 1 else 0
        return StatLine(
            original_bits=16 * n,
            stored_value_bits=retained * strategy.value_bits,
            stored_overhead_bits=retained * index_bits + 32 * shape[0],
        )
    if isinstance(strategy, SvdQuantStrategy):
        if len(shape) != 2:
            raise ValueError("svd strategy applies to 2-D shapes")
        rank = min(strategy.rank, *shape)
        codes = sum((shape[0] + shape[1]) * g.length * g.bits for g in clip_groups(strategy.groups, rank))
        return StatLine(original_bits=16 * n, stored_value_bits=codes + 32 * rank, stored_overhead_bits=32 * 2 * rank)
    raise TypeError(f"unknown strategy {strategy!r}")


def entry_stats(entry: CompressedEntry) -> StatLine:
    return storage_ratio(entry.shape, entry.strategy)


def _accumulate(lines: Iterable[tuple[ModuleClass, StatLine]]) -> StorageStats:
    per_class = {cls.value: _ZERO for cls in ModuleClass}
    total = _ZERO
    for mclass, line in lines:
        per_class[mclass.value] = per_class[mclass.value] + line
        total = total + line
    return StorageStats(per_class=per_class, total=total)


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

@dataclass(eq=False)
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
    head = {"name": name, "kind": entry.kind, "class": entry.mclass.value, "shape": list(entry.shape)}
    blobs = []

    def add(role: str, data, dtype=None) -> None:
        ctx = f"entry {name!r} blob {role!r}"
        blobs.append({"role": role, **(payload.add(data) if dtype is None else payload.add_array(data, dtype, ctx))})

    if isinstance(entry, DenseEntry):
        add("dense", entry.values, "<f4")
    elif isinstance(entry, PrunedSparseEntry):
        width = 64 if math.prod(entry.shape) >= 2**32 else 32
        head.update(alpha=entry.alpha, value_bits=entry.value_bits, index_width=width)
        codes = pack_codes(entry.codes, entry.value_bits)  # first: its temporaries dwarf the indices copy
        add("indices", entry.indices, f"<u{width // 8}")
        add("values", codes)
        add("scales", entry.scales, "<f4")
    elif isinstance(entry, QuantizedSvdEntry):
        head.update(rank=entry.rank, groups=groups_to_json(entry.groups))
        add("sigma", entry.sigma, "<f4")
        add("codes_u", b"".join(pack_codes(entry.u_codes[:, g.begin : g.end], g.bits) for g in entry.groups))
        add("scales_u", entry.u_scales, "<f4")
        add("codes_v", b"".join(pack_codes(entry.v_codes[g.begin : g.end, :], g.bits) for g in entry.groups))
        add("scales_v", entry.v_scales, "<f4")
    else:
        raise TypeError(f"unknown entry {entry!r}")
    head["blobs"] = blobs
    return head


def save_pack(pack: SkillPack, path) -> None:
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _load_entry(head: dict, payload: memoryview) -> CompressedEntry:
    """One entry from its header. Fields are parsed here; the entry's constructor checks how they relate.
    Decoded codes and indices are frozen like the file's views, so the entry cannot change after its checks."""
    kind = header_field(head, "kind", str)
    mclass = ModuleClass(header_field(head, "class", str))
    by_role = {}
    for meta in header_field(head, "blobs", list):
        if not isinstance(meta, dict) or not isinstance(meta.get("role"), str):
            raise FormatError("malformed blob metadata")
        if meta["role"] in by_role:
            raise FormatError(f"blob {meta['role']!r}: repeated")
        by_role[meta["role"]] = meta

    def blob_meta(role: str) -> dict:
        """Pop the `role` blob's metadata, so a role is read once; called in the blob's `naming`, to name both."""
        if role not in by_role:
            raise FormatError("missing")
        return by_role.pop(role)

    def array(role: str, dtype="<f4", shape: tuple[int, ...] | None = None) -> np.ndarray:
        with container.naming(f"blob {role!r}"):
            return container.read_array(payload, blob_meta(role), dtype, shape)

    def codes(role: str, fields: list[tuple[int, int]]) -> list[np.ndarray]:
        """The blob's (count, bits) code segments, each padded to a byte boundary."""
        with container.naming(f"blob {role!r}"):
            blob = container.fetch_blob(payload, blob_meta(role))
            out, offset = [], 0
            for count, bits in fields:
                out.append(unpack_codes(blob[offset:], count, bits))
                offset += packed_size(count, bits)
            return out

    if kind == "dense":
        shape = shape_field(head)
        entry = DenseEntry(shape=shape, mclass=mclass, values=array("dense", shape=shape))
    elif kind == "pruned_sparse":
        shape = shape_field(head, 2)
        value_bits = head["value_bits"]
        width = header_field(head, "index_width", int)
        if width not in (32, 64):
            raise FormatError(f"bad index width {width!r}")
        indices = _frozen(array("indices", f"<u{width // 8}").astype(np.int64))
        entry = PrunedSparseEntry(
            shape=shape,
            mclass=mclass,
            alpha=head["alpha"],
            value_bits=value_bits,
            indices=indices,
            codes=_frozen(codes("values", [(len(indices), value_bits)])[0]),
            scales=array("scales"),
        )
    elif kind == "quantized_svd":
        shape = shape_field(head, 2)
        rows, cols = shape
        groups = groups_from_json(head["groups"])
        sigma, u_scales, v_scales = (array(role) for role in ("sigma", "scales_u", "scales_v"))
        u_parts = codes("codes_u", [(rows * g.length, g.bits) for g in groups])
        v_parts = codes("codes_v", [(g.length * cols, g.bits) for g in groups])
        entry = QuantizedSvdEntry(
            shape=shape,
            mclass=mclass,
            rank=head["rank"],
            groups=groups,
            sigma=sigma,
            u_codes=_frozen(np.concatenate([part.reshape(rows, g.length) for part, g in zip(u_parts, groups)], 1)),
            u_scales=u_scales,
            v_codes=_frozen(np.concatenate([part.reshape(g.length, cols) for part, g in zip(v_parts, groups)], 0)),
            v_scales=v_scales,
        )
    else:
        raise FormatError(f"unknown entry kind {kind!r}")
    if by_role:
        raise FormatError(f"blob {next(iter(by_role))!r}: not read by a {kind} entry")
    return entry


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
