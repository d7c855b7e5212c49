"""Compression plans: which operator runs on each module class, and how. The
bit groups of an SVD strategy live here too: `BitGroup`, its checks and the
`[begin, end, bits]` JSON form that plan files and pack headers share.

The shipped default plan prunes embedding/head deltas at alpha=0.5 with
4-bit values, and factorizes MLP and attention deltas with truncated SVD
(ranks 1400 and 1000) whose singular vectors are quantized group-wise at
[8, 3, 2] bits over ranks [0,20)/[20,200)/[200,1400) for MLP and [8, 2]
bits over [0,20)/[20,1000) for attention. Ranks clamp on small matrices.

A plan is its strategies only. Activations are data, given to compress as
`activations=`, and GPTQ's damping is the constant `quantize.GPTQ_DAMPING`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union, get_args

from .classify import ModuleClass
from .quantize import check_bits
from .tensors import check_int, check_number


@dataclass(frozen=True)
class BitGroup:
    """Contiguous range [begin, end) of quantized vectors sharing one width."""

    begin: int
    end: int
    bits: int

    def __post_init__(self):
        check_int(self.begin, "bit group begin", 0)
        check_int(self.end, "bit group end", self.begin + 1)
        check_bits(self.bits)

    @property
    def length(self) -> int:
        return self.end - self.begin


def check_groups(groups, rank: int) -> None:
    """Groups must be contiguous, start at 0 and cover [0, rank) exactly."""
    if not groups:
        raise ValueError("at least one bit group is required")
    expect = 0
    for g in groups:
        if g.begin != expect:
            raise ValueError(f"bit groups must be contiguous from 0, got gap at {g.begin}")
        expect = g.end
    if expect != rank:
        raise ValueError(f"bit groups cover [0, {expect}) but rank is {rank}")


def clip_groups(groups: tuple[BitGroup, ...], rank: int) -> tuple[BitGroup, ...]:
    """Restrict declared groups to [0, rank) after rank clamping."""
    out = []
    for g in groups:
        if g.begin >= rank:
            break
        out.append(g if g.end <= rank else BitGroup(g.begin, rank, g.bits))
    return tuple(out)


def groups_to_json(groups) -> list[list[int]]:
    """Bit groups as the `[begin, end, bits]` lists that plan files and pack headers hold."""
    return [[g.begin, g.end, g.bits] for g in groups]


def groups_from_json(value) -> tuple[BitGroup, ...]:
    """The inverse of `groups_to_json`; anything but a list of three-element lists is an error naming `groups`."""
    if not isinstance(value, list) or not all(isinstance(g, list) and len(g) == 3 for g in value):
        raise ValueError(f"groups must be a list of [begin, end, bits] lists, got {value!r}")
    return tuple(BitGroup(*g) for g in value)


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
class CompressionPlan:
    strategies: dict[ModuleClass, Strategy]

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


def strategy_for(plan: CompressionPlan, mclass: ModuleClass | str, shape: tuple[int, ...]) -> Strategy:
    """The strategy for a tensor of `shape` in `mclass`, a class or its value: the class's own (an
    unknown class is a ValueError naming it), or dense when it is not 2-D or is empty."""
    return plan.strategies[ModuleClass(mclass)] if len(shape) == 2 and 0 not in shape else DenseStrategy()


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


# Strategies serialize as {"kind": ..., <field>: <value>, ...}.
_KINDS = {
    "prune": PruneStrategy,
    "svd_quant": SvdQuantStrategy,
    "dense": DenseStrategy,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def _strategy_to_dict(part) -> dict:
    out = {"kind": _KIND_OF[type(part)]}
    for f in fields(part):
        value = getattr(part, f.name)
        out[f.name] = groups_to_json(value) if f.name == "groups" else value
    return out


def _strategy_from_dict(d: dict):
    """The strategy that `d` describes; an unknown or missing key is an error."""
    kind = d.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown kind {kind!r}")
    values = {key: value for key, value in d.items() if key != "kind"}
    if "groups" in values:
        values["groups"] = groups_from_json(values["groups"])
    return cls(**values)


def plan_to_dict(plan: CompressionPlan) -> dict:
    return {"strategies": {cls.value: _strategy_to_dict(s) for cls, s in plan.strategies.items()}}


def plan_from_dict(d: dict) -> CompressionPlan:
    strategies = {cls: _strategy_from_dict(s) for cls, s in d["strategies"].items()}
    return CompressionPlan(**{**d, "strategies": strategies})
