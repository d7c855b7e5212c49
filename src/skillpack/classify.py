"""Map parameter names to module classes via an ordered rule list.

Compression strategy is chosen per module class, so classification decides
which compressor touches each delta tensor.
"""

from __future__ import annotations

import enum
import fnmatch
from dataclasses import dataclass


class ModuleClass(str, enum.Enum):
    EMBEDDING_OR_HEAD = "embedding_or_head"
    MLP = "mlp"
    ATTENTION = "attention"
    PASSTHROUGH = "passthrough"


@dataclass(frozen=True)
class ClassificationManifest:
    """Ordered (pattern, class) rules; first match wins, else `default`.

    A pattern containing ``*``, ``?`` or ``[`` is matched as a glob against
    the full name; anything else matches as a substring.
    """

    rules: tuple[tuple[str, ModuleClass], ...] = ()
    default: ModuleClass = ModuleClass.PASSTHROUGH

    def __post_init__(self):
        rules = tuple(self.rules)
        if not all(isinstance(rule, (tuple, list)) and len(rule) == 2 and isinstance(rule[0], str) for rule in rules):
            raise ValueError(f"manifest rules must be [pattern string, class] pairs, got {self.rules!r}")
        object.__setattr__(self, "rules", tuple((pattern, ModuleClass(cls)) for pattern, cls in rules))
        object.__setattr__(self, "default", ModuleClass(self.default))

    @staticmethod
    def from_dict(d: dict) -> "ClassificationManifest":
        """The manifest that `{"rules": [[pattern, class], ...], "default": class}` describes;
        both keys are optional, and any other key is an error."""
        return ClassificationManifest(**d)


def _matches(pattern: str, name: str) -> bool:
    if any(ch in pattern for ch in "*?["):
        return fnmatch.fnmatchcase(name, pattern)
    return pattern in name


def classify(name: str, manifest: ClassificationManifest) -> ModuleClass:
    """Total and deterministic: every name maps to exactly one class."""
    for pattern, cls in manifest.rules:
        if _matches(pattern, name):
            return cls
    return manifest.default


def default_manifest() -> ClassificationManifest:
    """Rules mirroring common decoder-transformer parameter naming."""
    emb = ModuleClass.EMBEDDING_OR_HEAD
    mlp = ModuleClass.MLP
    attn = ModuleClass.ATTENTION
    rules = (
        ("embed", emb),
        ("lm_head", emb),
        ("output.weight", emb),
        ("mlp", mlp),
        ("ffn", mlp),
        ("fc", mlp),
        ("gate_proj", mlp),
        ("up_proj", mlp),
        ("down_proj", mlp),
        ("attn", attn),
        ("attention", attn),
        ("q_proj", attn),
        ("k_proj", attn),
        ("v_proj", attn),
        ("o_proj", attn),
    )
    return ClassificationManifest(rules=rules, default=ModuleClass.PASSTHROUGH)
