"""Compression plans: which operator runs on each module class, and how.

The shipped default plan prunes embedding/head deltas at alpha=0.5 with
4-bit values, and factorizes MLP and attention deltas with truncated SVD
(ranks 1400 and 1000) whose singular vectors are quantized group-wise at
[8, 3, 2] bits over ranks [0,20)/[20,200)/[200,1400) for MLP and [8, 2]
bits over [0,20)/[20,1000) for attention. Ranks clamp on small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union, get_args

from .classify import ModuleClass
from .quantize import BitGroup, check_bits, check_groups, groups_from_json, groups_to_json
from .tensors import check_int, check_number


@dataclass(frozen=True)
class PruneStrategy:
    alpha: float
    value_bits: int = 4

    def __post_init__(self):
        check_number(self.alpha, "retention ratio", 0, 1, above=True)
        check_bits(self.value_bits)


@dataclass(frozen=True)
class SvdQuantStrategy:
    rank: int
    groups: tuple[BitGroup, ...]

    def __post_init__(self):
        check_int(self.rank, "rank", 1)
        object.__setattr__(self, "groups", tuple(self.groups))
        check_groups(self.groups, self.rank)


@dataclass(frozen=True)
class DenseStrategy:
    pass


Strategy = Union[PruneStrategy, SvdQuantStrategy, DenseStrategy]


@dataclass(frozen=True)
class FileCalibration:
    """Checkpoint container of per-parameter activation matrices (h_in x s), against
    which GPTQ quantizes SVD factors. A plan without one rounds them to nearest."""

    path: str

    def __post_init__(self):
        if not isinstance(self.path, str):
            raise ValueError(f"calibration path must be a string, got {self.path!r}")


@dataclass(frozen=True)
class CompressionPlan:
    strategies: dict[ModuleClass, Strategy]
    calibration: FileCalibration | None = None
    damping: float = 0.01

    def __post_init__(self):
        strategies, known = dict(self.strategies), {cls.value for cls in ModuleClass}
        for key in strategies:
            if key not in known:
                raise ValueError(f"plan has a strategy for an unknown module class {key!r}")
        by_class = {ModuleClass(key): s for key, s in strategies.items()}
        for cls in ModuleClass:
            if not isinstance(by_class.get(cls), get_args(Strategy)):
                raise ValueError(f"plan is missing a strategy for module class {cls.value!r}, "
                                 f"got {by_class.get(cls)!r}")
        # in ModuleClass order, so that equal plans give equal plan files and pack bytes
        object.__setattr__(self, "strategies", {cls: by_class[cls] for cls in ModuleClass})
        if not isinstance(self.strategies[ModuleClass.PASSTHROUGH], DenseStrategy):
            raise ValueError("the passthrough class must map to the dense strategy")
        if self.calibration is not None and not isinstance(self.calibration, FileCalibration):
            raise ValueError(f"plan calibration must be a FileCalibration or None, got {self.calibration!r}")
        check_number(self.damping, "damping", 0)


def strategy_for(plan: CompressionPlan, mclass: ModuleClass, shape: tuple[int, ...]) -> Strategy:
    """The strategy for a tensor of `shape` in `mclass`: the class's own, or dense when it is not
    2-D or is empty."""
    return plan.strategies[mclass] if len(shape) == 2 and 0 not in shape else DenseStrategy()


def clip_groups(groups: tuple[BitGroup, ...], rank: int) -> tuple[BitGroup, ...]:
    """Restrict declared groups to [0, rank) after rank clamping."""
    out = []
    for g in groups:
        if g.begin >= rank:
            break
        out.append(g if g.end <= rank else BitGroup(g.begin, rank, g.bits))
    return tuple(out)


def default_plan() -> CompressionPlan:
    strategies = {
        ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=0.5, value_bits=4),
        ModuleClass.MLP: SvdQuantStrategy(
            rank=1400,
            groups=(BitGroup(0, 20, 8), BitGroup(20, 200, 3), BitGroup(200, 1400, 2)),
        ),
        ModuleClass.ATTENTION: SvdQuantStrategy(
            rank=1000,
            groups=(BitGroup(0, 20, 8), BitGroup(20, 1000, 2)),
        ),
        ModuleClass.PASSTHROUGH: DenseStrategy(),
    }
    return CompressionPlan(strategies=strategies)


# Strategies and calibration specs serialize as {"kind": ..., <field>: <value>, ...}.
_KINDS = {
    "prune": PruneStrategy,
    "svd_quant": SvdQuantStrategy,
    "dense": DenseStrategy,
    "file": FileCalibration,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def _part_to_dict(part) -> dict:
    out = {"kind": _KIND_OF[type(part)]}
    for f in fields(part):
        value = getattr(part, f.name)
        out[f.name] = groups_to_json(value) if f.name == "groups" else value
    return out


def _part_from_dict(d: dict, classes: tuple[type, ...]):
    """The member of `classes` that `d` describes; an unknown or missing key is an error."""
    kind = d.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls not in classes:
        raise ValueError(f"unknown kind {kind!r}")
    values = {key: value for key, value in d.items() if key != "kind"}
    if "groups" in values:
        values["groups"] = groups_from_json(values["groups"])
    return cls(**values)


def plan_to_dict(plan: CompressionPlan) -> dict:
    return {
        "strategies": {cls.value: _part_to_dict(s) for cls, s in plan.strategies.items()},
        "calibration": None if plan.calibration is None else _part_to_dict(plan.calibration),
        "damping": plan.damping,
    }


def plan_from_dict(d: dict) -> CompressionPlan:
    strategies = {ModuleClass(cls): _part_from_dict(s, get_args(Strategy)) for cls, s in d["strategies"].items()}
    values = {**d, "strategies": strategies}
    if d.get("calibration") is not None:
        values["calibration"] = _part_from_dict(d["calibration"], (FileCalibration,))
    return CompressionPlan(**values)
