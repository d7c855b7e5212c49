"""Routing and fusion: compose SkillPacks onto a base checkpoint.

Routing is hard: a task table activates every pack under a tag with unit
weight, a linear classifier activates the argmax class's single pack.
Fusion sums the routed reconstructions onto the base in pack-id order, so
output bytes do not depend on how the caller happened to order the packs.
Task-adaptive instantiation always re-derives from the untouched base;
switching tasks leaves no residue from previously active packs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from . import container
from .checkpoints import Checkpoint, compose
from .errors import FormatError
from .packs import SkillPack
from .tensors import all_finite, check_int, check_matrix, check_number, overflow_checked


@dataclass
class TaskTable:
    """task_tag -> list of pack ids activated together."""

    table: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.table, dict):
            raise ValueError("the table must map task tags to lists of pack ids")
        for tag, pack_ids in self.table.items():
            if not (isinstance(tag, str) and isinstance(pack_ids, list) and all(isinstance(p, str) for p in pack_ids)):
                raise ValueError(f"task {tag!r} must be a string tag with a list of pack id strings")
            if len(set(pack_ids)) != len(pack_ids):
                raise ValueError(f"duplicate pack ids under tag {tag!r}")


@dataclass
class LinearClassifier:
    """Multinomial linear scorer; class c selects class_to_pack[c]."""

    weights: np.ndarray  # (n_classes, dim)
    bias: np.ndarray  # (n_classes,)
    class_to_pack: list[str]

    def __post_init__(self):
        self.weights = check_matrix(np.asarray(self.weights, dtype=np.float64), "classifier weights")
        self.bias = np.asarray(self.bias, dtype=np.float64)
        ids = self.class_to_pack
        if not (isinstance(ids, list) and all(isinstance(p, str) for p in ids)):
            raise ValueError("class_to_pack must be a list of pack id strings")
        if self.weights.shape[1] < 1:
            raise ValueError("classifier weights must be (n_classes x dim) with dim > 0")
        if len(self.bias) != self.weights.shape[0] or len(self.class_to_pack) != self.weights.shape[0]:
            raise ValueError("bias and class_to_pack must have one entry per class")
        if not all_finite(self.bias):
            raise ValueError("classifier bias must be finite")


Router = Union[TaskTable, LinearClassifier]


@dataclass(frozen=True)
class Tag:
    tag: str


@dataclass(frozen=True)
class Features:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64).reshape(-1))
        if not (self.values.size and all_finite(self.values)):
            raise ValueError("features must be a non-empty vector of finite values")


Selector = Union[Tag, Features]


def route(router: Router, selector: Selector) -> list[tuple[str, float]]:
    """Ordered (pack id, weight) pairs selected by the router."""
    if isinstance(router, TaskTable):
        if not isinstance(selector, Tag):
            raise ValueError("a task table routes by tag, not by features")
        if selector.tag not in router.table:
            raise ValueError(f"unknown task tag {selector.tag!r}")
        return [(pack_id, 1.0) for pack_id in router.table[selector.tag]]
    if isinstance(router, LinearClassifier):
        if not isinstance(selector, Features):
            raise ValueError("a linear classifier routes by features, not by tag")
        if selector.values.shape[0] != router.weights.shape[1]:
            raise ValueError(
                f"feature dimension {selector.values.shape[0]} does not match classifier dim {router.weights.shape[1]}"
            )
        with overflow_checked("the classifier's scores overflow on these features"):
            scores = router.weights @ selector.values + router.bias
        winner = int(np.argmax(scores))  # ties break to the lowest class index
        return [(router.class_to_pack[winner], 1.0)]
    raise TypeError(f"unknown router {router!r}")


@dataclass
class FusionRequest:
    base: Checkpoint
    packs: Mapping[str, SkillPack]  # pack id -> pack
    router: Router
    selector: Selector


def fuse(request: FusionRequest) -> Checkpoint:
    """base + sum of routed pack reconstructions, in pack-id order.

    Zero routed packs returns the base bit-exactly. Packs touching the
    same tensor are summed; use `overlapping_names` to warn about that.
    """
    selected = []
    for pack_id, weight in sorted(route(request.router, request.selector)):
        pack = request.packs.get(pack_id)
        if pack is None:
            raise ValueError(f"router selected unknown pack id {pack_id!r}")
        selected.append((pack_id, pack, weight))
    return compose(request.base, selected)


def instantiate_task(
    base: Checkpoint, packs: Mapping[str, SkillPack], task_tag: str, router: TaskTable
) -> Checkpoint:
    """Activate exactly the tag's pack subset on the pristine base."""
    return fuse(FusionRequest(base=base, packs=packs, router=router, selector=Tag(task_tag)))


def overlapping_names(packs: Mapping[str, SkillPack]) -> dict[str, list[str]]:
    """tensor name -> pack ids touching it, for names touched more than once."""
    seen: dict[str, list[str]] = {}
    for pack_id, pack in packs.items():
        for name in pack.entries:
            seen.setdefault(name, []).append(pack_id)
    return {name: ids for name, ids in seen.items() if len(ids) > 1}


# --------------------------------------------------------------------------
# Router training
# --------------------------------------------------------------------------

@dataclass
class RouterTrainingSet:
    """Rows of (features, per-pack loss); lower loss means better pack."""

    features: np.ndarray  # (n_rows, dim)
    losses: np.ndarray  # (n_rows, n_packs)
    pack_ids: list[str]

    def __post_init__(self):
        self.features = check_matrix(np.asarray(self.features, dtype=np.float64), "training features")
        self.losses = check_matrix(np.asarray(self.losses, dtype=np.float64), "training losses")
        if self.features.shape[0] != self.losses.shape[0]:
            raise ValueError("features and losses must have the same number of rows")
        if len(self.pack_ids) != self.losses.shape[1]:
            raise ValueError("pack_ids must have one entry per loss column")


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def train_router(
    data: RouterTrainingSet, epochs: int = 300, learning_rate: float = 0.5
) -> tuple[LinearClassifier, float]:
    """Fit a multinomial logistic-regression router on loss supervision.

    Labels are the per-row argmin of the losses (ties to the lowest pack
    index). Full-batch gradient descent from zero initialization, so the
    result is deterministic. Returns the classifier and its final training
    accuracy.
    """
    check_int(epochs, "epochs", 1)
    check_number(learning_rate, "learning rate", 0, above=True)
    labels = np.argmin(data.losses, axis=1)
    if len(np.unique(labels)) < 2:
        raise ValueError(
            "training labels collapse to a single pack; use a TaskTable instead of a classifier"
        )
    n_rows, dim = data.features.shape
    n_classes = data.losses.shape[1]
    one_hot = np.zeros((n_rows, n_classes))
    one_hot[np.arange(n_rows), labels] = 1.0

    weights = np.zeros((n_classes, dim))
    bias = np.zeros(n_classes)
    x = data.features
    with overflow_checked(f"router training overflows at learning rate {learning_rate!r}"):
        for _ in range(epochs):
            probs = _softmax(x @ weights.T + bias)
            grad = probs - one_hot
            weights -= learning_rate * (grad.T @ x) / n_rows
            bias -= learning_rate * grad.mean(axis=0)
        predicted = np.argmax(x @ weights.T + bias, axis=1)
    accuracy = float(np.mean(predicted == labels))
    classifier = LinearClassifier(weights=weights, bias=bias, class_to_pack=list(data.pack_ids))
    return classifier, accuracy


# --------------------------------------------------------------------------
# Router serialization
# --------------------------------------------------------------------------

def router_to_dict(router: Router) -> dict:
    if isinstance(router, TaskTable):
        return {"kind": "task_table", "table": router.table}
    if isinstance(router, LinearClassifier):
        return {
            "kind": "linear_classifier",
            "weights": [float(v) for v in router.weights.reshape(-1)],
            "bias": [float(v) for v in router.bias],
            "class_to_pack": list(router.class_to_pack),
            "d": int(router.weights.shape[1]),
        }
    raise TypeError(f"unknown router {router!r}")


def router_from_dict(d: dict) -> Router:
    """The router `d` describes, built by its constructor; an unknown or missing key is an error."""
    fields = {key: value for key, value in d.items() if key != "kind"}
    kind = d.get("kind")
    if kind == "task_table":
        return TaskTable(table=fields.pop("table"), **fields)
    if kind == "linear_classifier":
        dim = fields.pop("d")
        check_int(dim, "field 'd'", 1)
        fields["weights"] = np.asarray(fields["weights"], dtype=np.float64).reshape(len(fields["bias"]), dim)
        return LinearClassifier(**fields)
    raise ValueError(f"unknown router kind {kind!r}")


def save_router(router: Router, path) -> None:
    """Write the router as JSON, atomically (see `container.write_atomic`); a
    non-finite weight raises ValueError before anything is written."""
    container.write_atomic(path, [json.dumps(router_to_dict(router), indent=2, allow_nan=False).encode("utf-8")])


def load_router(path) -> Router:
    """Read a router file; malformed JSON or fields raise FormatError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    with container.naming(f"router file {os.fspath(path)!r} is malformed"):
        data = container.parse_json(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise FormatError("top level must be a JSON object")
        return router_from_dict(data)
