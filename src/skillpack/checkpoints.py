"""Checkpoint container (.gltc), delta extraction, and pack grafting.

A checkpoint is a model id plus an insertion-ordered name -> array map;
iteration order is the serialized order. Deltas follow the fixed
convention tuned - base, computed in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import container
from .errors import CompatibilityError, FormatError, IntegrityError
from .tensors import check_float32, check_number

MAGIC = b"GLTC"
VERSION = 1

_DTYPE_TAGS = {"f32": np.dtype("<f4"), "f16": np.dtype("<f2")}
_TAG_FOR_KIND = {np.dtype(np.float32): "f32", np.dtype(np.float16): "f16"}


@dataclass
class Checkpoint:
    model_id: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class DeltaMap:
    base_id: str
    tuned_id: str
    deltas: dict[str, np.ndarray] = field(default_factory=dict)


def _dtype_tag(arr: np.ndarray, name: str) -> str:
    tag = _TAG_FOR_KIND.get(arr.dtype)
    if tag is None:
        raise ValueError(f"tensor {name!r} has unsupported dtype {arr.dtype}; use float32 or float16")
    return tag


def _write_tensor_container(path, model_id: str, tensors: dict[str, np.ndarray], extra: dict | None = None) -> None:
    payload = container.Payload()
    entries = []
    for name, arr in tensors.items():
        container.check_str(f"tensor {name!r}", name=name)
        tag = _dtype_tag(arr, name)
        meta = payload.add_array(arr, _DTYPE_TAGS[tag], f"tensor {name!r}")
        entries.append({"name": name, "dtype": tag, "shape": list(arr.shape), **meta})
    header = {"model_id": model_id, **(extra or {}), "tensors": entries}
    container.write_container(path, MAGIC, VERSION, header, payload.parts)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    container.check_str("checkpoint", model_id=ckpt.model_id)
    _write_tensor_container(path, ckpt.model_id, ckpt.tensors)


def _read_tensors(header: dict, payload: memoryview) -> dict[str, np.ndarray]:
    """Tensors from the header's entries; every field is checked before use."""

    def tensor(meta: dict) -> np.ndarray:
        tag = container.header_field(meta, "dtype", str)
        if tag not in _DTYPE_TAGS:
            raise FormatError(f"unknown dtype tag {tag!r}")
        return container.read_array(payload, meta, _DTYPE_TAGS[tag], container.shape_field(meta))

    return container.read_entries(header, "tensors", "tensor", tensor)


def load_checkpoint(path) -> Checkpoint:
    header, payload = container.read_container(path, MAGIC, VERSION)
    model_id = container.header_field(header, "model_id", str)
    return Checkpoint(model_id=model_id, tensors=_read_tensors(header, payload))


def check_like(base: Checkpoint, tuned: Checkpoint) -> None:
    """Require identical name sets and, name by name, identical shapes."""
    base_names = set(base.tensors)
    tuned_names = set(tuned.tensors)
    if base_names != tuned_names:
        only_base = sorted(base_names - tuned_names)
        only_tuned = sorted(tuned_names - base_names)
        raise ValueError(
            f"checkpoints have different parameters; only in base: {only_base}, only in tuned: {only_tuned}"
        )
    for name, base_arr in base.tensors.items():
        tuned_arr = tuned.tensors[name]
        if base_arr.shape != tuned_arr.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: base {base_arr.shape} vs tuned {tuned_arr.shape}"
            )


def diff(base: Checkpoint, tuned: Checkpoint) -> DeltaMap:
    """Elementwise tuned - base in float32, requiring like checkpoints (`check_like`)."""
    check_like(base, tuned)
    deltas = {name: np.subtract(tuned.tensors[name], arr, dtype=np.float32) for name, arr in base.tensors.items()}
    return DeltaMap(base_id=base.model_id, tuned_id=tuned.model_id, deltas=deltas)


def save_delta(dm: DeltaMap, path) -> None:
    """Deltas ride the checkpoint container with the two ids in extra header keys."""
    container.check_str("delta", base_id=dm.base_id, tuned_id=dm.tuned_id)
    extra = {"delta_base_id": dm.base_id, "delta_tuned_id": dm.tuned_id}
    _write_tensor_container(path, dm.tuned_id, dm.deltas, extra)


def load_delta(path) -> DeltaMap:
    header, payload = container.read_container(path, MAGIC, VERSION)
    return DeltaMap(
        base_id=container.header_field(header, "delta_base_id", str),
        tuned_id=container.header_field(header, "delta_tuned_id", str),
        deltas=_read_tensors(header, payload),
    )


def compose(base: Checkpoint, selected: Sequence[tuple], force: bool = False) -> Checkpoint:
    """New checkpoint = base + sum of weight * reconstructed deltas.

    `selected` is an ordered sequence of (pack id, pack, weight). Every
    pack's base id (unless `force`) and every entry's name and shape are
    checked against the base before anything is reconstructed; a mismatch
    raises CompatibilityError, naming the pack by its id, or as <untagged>
    when the id is empty; a weight that breaks `tensors.check_number` or
    `tensors.check_float32` (say, 1e39) raises ValueError naming the pack.
    Base tensors are composed one at a time, in base order: a tensor's
    updates are summed in float32 in the given pack order, then added to
    it; packs of weight 0 add nothing. If reconstructing, scaling,
    summing or adding overflows or gives NaN, IntegrityError names the
    pack(s) and entry at the first base tensor where that happens, so a
    composed checkpoint is always finite where its base is. Elements whose
    update is zero keep the base bit pattern (adding 0.0 would flip -0.0 to
    +0.0), which is what makes zero-delta grafts and empty fusions exact
    identities.

    The base is never mutated. Names no selected pack touches are
    read-only views of the base's arrays, not copies, so writing to them
    raises and a later in-place change to the base shows through them.
    Touched names are fresh arrays that share memory with neither the base
    nor any pack.
    """
    labels = [repr(pack_id) if pack_id else "<untagged>" for pack_id, _, _ in selected]
    for label, (_, pack, weight) in zip(labels, selected):
        check_number(weight, f"pack {label} weight")
        check_float32(weight, f"pack {label} weight")
        if pack.base_model_id != base.model_id and not force:
            raise CompatibilityError(
                f"pack {label} was built against {pack.base_model_id!r}, base is {base.model_id!r}"
                " (use force to override)"
            )
        for name, entry in pack.entries.items():
            arr = base.tensors.get(name)
            if arr is None:
                raise CompatibilityError(f"pack {label} entry {name!r} has no matching tensor in the base checkpoint")
            if entry.shape != arr.shape:
                raise CompatibilityError(
                    f"pack {label} entry {name!r} shape {entry.shape} does not match base {arr.shape}"
                )

    active = [(label, pack.entries, weight) for label, (_, pack, weight) in zip(labels, selected) if weight != 0.0]
    out: dict[str, np.ndarray] = {}
    try:
        with np.errstate(over="raise", invalid="raise"):
            for name, arr in base.tensors.items():
                parts = [(label, entries[name], weight) for label, entries, weight in active if name in entries]
                if not parts:
                    view = arr.view()
                    view.flags.writeable = False
                    out[name] = view
                    continue
                update, step = None, ""
                for label, entry, weight in parts:
                    contribution = entry.reconstruct()  # fresh and writable by contract, so scaled in place
                    if weight != 1.0:
                        contribution *= np.float32(weight)
                    update = contribution if update is None else np.add(update, contribution, out=update)
                label, step = ", ".join(part[0] for part in parts), " on the base"
                if arr.dtype == np.float32:
                    # base - (0 - update) is base + update, except that a zero update is
                    # negated to +0.0 and base - (+0.0) is base bit for bit, -0.0 included.
                    np.subtract(np.float32(0), update, out=update)
                    out[name] = np.subtract(arr, update, out=update)
                    continue
                shifted = np.add(arr, update, dtype=np.float32).astype(arr.dtype)
                np.copyto(shifted, arr, where=update == 0.0)
                out[name] = shifted
    except FloatingPointError as exc:
        raise IntegrityError(f"pack {label} entry {name!r}{step}: {exc}") from None
    return Checkpoint(model_id=base.model_id, tensors=out)


def apply_pack(base: Checkpoint, pack, scale: float = 1.0, force: bool = False) -> Checkpoint:
    """Graft a pack onto a base: base + scale * reconstructed deltas.

    A one-pack `compose`, named by the pack's task tag in errors. The base
    is never mutated; unloading a pack is recomposition from the untouched
    base, never subtraction.
    """
    return compose(base, [(pack.task_tag, pack, scale)], force)
