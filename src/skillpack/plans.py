"""Compression plans: which operator runs on each module class, and how.

The shipped default plan prunes embedding/head deltas at alpha=0.5 with
4-bit values, and factorizes MLP and attention deltas with truncated SVD
(ranks 1400 and 1000) whose singular vectors are quantized group-wise at
[8, 3, 2] bits over ranks [0,20)/[20,200)/[200,1400) for MLP and [8, 2]
bits over [0,20)/[20,1000) for attention. Ranks clamp on small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .classify import ModuleClass
from .quantize import BitGroup, check_bits, check_groups


@dataclass(frozen=True)
class PruneStrategy:
    alpha: float
    value_bits: int = 4

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"retention ratio must be in (0, 1], got {self.alpha}")
        check_bits(self.value_bits)


@dataclass(frozen=True)
class SvdQuantStrategy:
    rank: int
    groups: tuple[BitGroup, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "groups", tuple(self.groups))
        check_groups(self.groups, self.rank)


@dataclass(frozen=True)
class DenseStrategy:
    pass


Strategy = Union[PruneStrategy, SvdQuantStrategy, DenseStrategy]


@dataclass(frozen=True)
class SyntheticCalibration:
    """Standard-normal activations; one shared matrix per input width."""

    seed: int = 0
    samples: int = 128

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("calibration needs at least one sample")


@dataclass(frozen=True)
class FileCalibration:
    """Checkpoint container of per-parameter activation matrices (h_in x s)."""

    path: str


CalibrationSpec = Union[SyntheticCalibration, FileCalibration]


@dataclass(frozen=True)
class CompressionPlan:
    strategies: dict[ModuleClass, Strategy]
    calibration: CalibrationSpec = SyntheticCalibration()
    damping: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "strategies", dict(self.strategies))
        for cls in ModuleClass:
            if cls not in self.strategies:
                raise ValueError(f"plan is missing a strategy for module class {cls.value!r}")
        if not isinstance(self.strategies[ModuleClass.PASSTHROUGH], DenseStrategy):
            raise ValueError("the passthrough class must map to the dense strategy")
        if self.damping < 0:
            raise ValueError("damping must be nonnegative")


def clip_groups(groups: tuple[BitGroup, ...], rank: int) -> tuple[BitGroup, ...]:
    """Restrict declared groups to [0, rank) after rank clamping."""
    out = []
    for g in groups:
        if g.begin >= rank:
            break
        out.append(BitGroup(g.begin, min(g.end, rank), g.bits))
    return tuple(out)


def default_plan(calibration: CalibrationSpec | None = None, damping: float = 0.01) -> CompressionPlan:
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
    return CompressionPlan(
        strategies=strategies,
        calibration=calibration if calibration is not None else SyntheticCalibration(),
        damping=damping,
    )


def strategy_to_dict(s: Strategy) -> dict:
    if isinstance(s, PruneStrategy):
        return {"kind": "prune", "alpha": s.alpha, "value_bits": s.value_bits}
    if isinstance(s, SvdQuantStrategy):
        return {"kind": "svd_quant", "rank": s.rank, "groups": [[g.begin, g.end, g.bits] for g in s.groups]}
    if isinstance(s, DenseStrategy):
        return {"kind": "dense"}
    raise TypeError(f"unknown strategy {s!r}")


def strategy_from_dict(d: dict) -> Strategy:
    kind = d.get("kind")
    if kind == "prune":
        return PruneStrategy(alpha=d["alpha"], value_bits=d.get("value_bits", 4))
    if kind == "svd_quant":
        groups = tuple(BitGroup(b, e, k) for b, e, k in d["groups"])
        return SvdQuantStrategy(rank=d["rank"], groups=groups)
    if kind == "dense":
        return DenseStrategy()
    raise ValueError(f"unknown strategy kind {kind!r}")


def calibration_to_dict(c: CalibrationSpec) -> dict:
    if isinstance(c, SyntheticCalibration):
        return {"kind": "synthetic", "seed": c.seed, "samples": c.samples}
    if isinstance(c, FileCalibration):
        return {"kind": "file", "path": c.path}
    raise TypeError(f"unknown calibration spec {c!r}")


def calibration_from_dict(d: dict) -> CalibrationSpec:
    kind = d.get("kind")
    if kind == "synthetic":
        return SyntheticCalibration(seed=d.get("seed", 0), samples=d.get("samples", 128))
    if kind == "file":
        return FileCalibration(path=d["path"])
    raise ValueError(f"unknown calibration kind {kind!r}")


def plan_to_dict(plan: CompressionPlan) -> dict:
    return {
        "strategies": {cls.value: strategy_to_dict(s) for cls, s in plan.strategies.items()},
        "calibration": calibration_to_dict(plan.calibration),
        "damping": plan.damping,
    }


def plan_from_dict(d: dict) -> CompressionPlan:
    strategies = {ModuleClass(cls): strategy_from_dict(s) for cls, s in d["strategies"].items()}
    return CompressionPlan(
        strategies=strategies,
        calibration=calibration_from_dict(d.get("calibration", {"kind": "synthetic"})),
        damping=d.get("damping", 0.01),
    )
