"""The one number rule, `tensors.check_int` and `tensors.check_number`.

An int is a Python int; a number is a Python int or float (numpy's float64
is a float); a bool is neither; a number must be finite as a float. Every
scalar a caller passes in is checked by these two, so each input either
passes or fails with a ValueError naming it, and no other module tests a
scalar's type itself. Likewise no other module tests an array's dimensions:
`tensors.check_matrix` does (see test_matrix_rule.py), nor a value's float32
range: `tensors.check_float32` does (see test_float32_rule.py), nor factors
a matrix: `tensors.svd` does.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import skillpack.toy as toy_module
from skillpack.checkpoints import Checkpoint, apply_pack, compose
from skillpack.classify import ModuleClass
from skillpack.losses import PreferenceScores
from skillpack.packs import DenseEntry, SkillPack
from skillpack.plans import BitGroup, PruneStrategy, SvdQuantStrategy
from skillpack.routing import train_router
from skillpack.tensors import check_int, check_number
from skillpack.toy import DeltaRecipe, ToySpec, budget_plan, eval_retention, gen_toy, retention_sweep

HUGE = 10**400  # an int past the float range
SRC = Path(__file__).resolve().parents[1] / "src" / "skillpack"


class Reached(Exception):
    """Raised by a stub at the first step after a function's argument checks."""


class UnreadableTrainingSet:
    @property
    def losses(self):
        raise Reached


BASE = Checkpoint(model_id="m", tensors={"a.weight": np.ones((2, 3), np.float32)})
PACK = SkillPack(base_model_id="m", tuned_model_id="t", task_tag="", plan_snapshot={}, entries={
    "a.weight": DenseEntry(shape=(2, 3), mclass=ModuleClass.PASSTHROUGH, values=np.full((2, 3), 0.5, np.float32))})
SCORES = dict(logp_w_policy=0.0, logp_l_policy=0.0, logp_w_ref=0.0, logp_l_ref=0.0, beta=1.0)
SHAPES = {"model.layers.0.mlp.up_proj.weight": (8, 4), "model.embed_tokens.weight": (16, 4)}


def test_check_number_states_the_rule():
    for value in (0, 1, 0.5, np.float64(0.5), -2**63, 2**1000):
        check_number(value, "x")
    for value in (True, False, np.float32(0.5), np.int64(3), "1", None, 1j):
        with pytest.raises(ValueError, match=re.escape(f"x {value!r} is not a number (an int or a float)")):
            check_number(value, "x")
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(f"x must be a finite number, got {value!r}")):
            check_number(value, "x")
    for value, shown in ((HUGE, "1" + "0" * 19 + "...00000000 (401 characters)"),
                         (-HUGE, "-1" + "0" * 18 + "...00000000 (402 characters)")):
        with pytest.raises(ValueError, match=re.escape(f"x must be a finite number, got {shown}")):
            check_number(value, "x")


@pytest.mark.parametrize("low, high, above, bounds", [
    (0, math.inf, False, "a finite number >= 0"),
    (0, math.inf, True, "a finite number greater than 0"),
    (0, 1, True, "in (0, 1]"),
    (0, 1, False, "in [0, 1]"),
])
def test_check_number_names_its_bounds(low, high, above, bounds):
    check_number(1, "x", low, high, above=above)
    check_number(low + 0.5, "x", low, high, above=above)
    with pytest.raises(ValueError, match=re.escape(f"x must be {bounds}, got -1")):
        check_number(-1, "x", low, high, above=above)
    if above:
        with pytest.raises(ValueError, match=re.escape(f"x must be {bounds}, got 0")):
            check_number(0, "x", low, high, above=above)
    else:
        check_number(low, "x", low, high, above=above)


def test_check_int_states_the_rule():
    check_int(0, "n", 0)
    check_int(HUGE, "n", 1)
    check_int(5, "n", 1, 5)
    for value in (True, np.int64(3), 3.0, "3", None, -1):
        with pytest.raises(ValueError, match=re.escape(f"n must be an int >= 0, got {value!r}")):
            check_int(value, "n", 0)
    with pytest.raises(ValueError, match=re.escape("n must be an int in [1, 5], got 6")):
        check_int(6, "n", 1, 5)


# Each case passes an int past the float range to an input that numpy would
# otherwise convert, raising OverflowError.
@pytest.mark.parametrize("call, name", [
    (lambda: apply_pack(BASE, PACK, scale=HUGE), "pack <untagged> weight"),
    (lambda: gen_toy(ToySpec(recipe=DeltaRecipe(noise_std=HUGE))), "recipe noise_std"),
    (lambda: train_router(UnreadableTrainingSet(), learning_rate=HUGE), "learning rate"),
    (lambda: budget_plan(HUGE, SHAPES), "budget"),
    (lambda: PreferenceScores(HUGE, 0.0, 0.0, 0.0, 1.0), "logp_w_policy"),
], ids=["apply_pack-scale", "recipe-noise_std", "train_router-learning_rate", "budget_plan-budget",
        "preference-logp"])
def test_an_int_past_the_float_range_is_a_value_error_naming_the_input(call, name):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a finite number")):
        call()


def test_a_float32_retention_ratio_is_not_a_number():
    with pytest.raises(ValueError, match=re.escape("retention ratio np.float32(0.5) is not a number")) as refused:
        PruneStrategy(alpha=np.float32(0.5))
    assert "(0, 1]" not in str(refused.value)
    with pytest.raises(ValueError, match=re.escape("budget np.float32(0.1) is not a number")):
        budget_plan(np.float32(0.1), SHAPES)
    assert PruneStrategy(alpha=np.float64(0.5)).alpha == 0.5


@pytest.mark.parametrize("field", SCORES)
def test_preference_scores_refuse_a_bool(field):
    with pytest.raises(ValueError, match=re.escape(f"{field} True is not a number")):
        PreferenceScores(**{**SCORES, field: True})


VALUES = [True, HUGE, -HUGE, math.nan, math.inf, -math.inf, np.float32(0.5), np.int64(3), "1", None, 0, -1, 0.5, 2**63]

# Every numeric field or argument a caller sets, each built or called with
# the value in that one place. Functions whose checks pass would go on to
# work; a stub stops them at their first step after the checks.
SITES = {
    **{f"ToySpec.{f}": (lambda f: lambda v: ToySpec(**{f: v}))(f)
       for f in ("seed", "layers", "hidden", "mlp_width", "vocab")},
    **{f"DeltaRecipe.{f}": (lambda f: lambda v: DeltaRecipe(**{f: v}))(f) for f in ("rank", "sparse_nnz", "noise_std")},
    "PruneStrategy.alpha": lambda v: PruneStrategy(alpha=v),
    "PruneStrategy.value_bits": lambda v: PruneStrategy(alpha=0.5, value_bits=v),
    "SvdQuantStrategy.rank": lambda v: SvdQuantStrategy(rank=v, groups=(BitGroup(0, 2**63, 4),)),
    "BitGroup.begin": lambda v: BitGroup(v, 2**64, 4),
    "BitGroup.end": lambda v: BitGroup(0, v, 4),
    "BitGroup.bits": lambda v: BitGroup(0, 4, v),
    **{f"eval_retention.{a}": (lambda a: lambda v: eval_retention(None, None, None, **{a: v}))(a)
       for a in ("probe_count", "seed", "seq_len")},
    **{f"retention_sweep.{a}": (lambda a: lambda v: retention_sweep(None, None, [], **{a: v}))(a)
       for a in ("probe_count", "seed", "seq_len")},
    "budget_plan.budget": lambda v: budget_plan(v, SHAPES),
    "train_router.epochs": lambda v: train_router(UnreadableTrainingSet(), epochs=v),
    "train_router.learning_rate": lambda v: train_router(UnreadableTrainingSet(), learning_rate=v),
    "compose.weight": lambda v: compose(BASE, [("skill", PACK, v)]),
    **{f"PreferenceScores.{f}": (lambda f: lambda v: PreferenceScores(**{**SCORES, f: v}))(f) for f in SCORES},
}


def _stop(*args, **kwargs):
    raise Reached


@settings(max_examples=len(SITES) * len(VALUES), derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(site=st.sampled_from(sorted(SITES)), value=st.sampled_from(VALUES))
def test_every_numeric_input_builds_or_raises_a_value_error(site, value):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toy_module, "check_like", _stop)  # retention_sweep's first step after its number checks
        try:
            SITES[site](value)
        except (ValueError, Reached):
            pass


def _source_lines():
    """(file name, line number, line) for every line of every module but tensors.py."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tensors.py":
            for number, line in enumerate(path.read_text().splitlines(), 1):
                yield path.name, number, line


def test_no_module_but_tensors_tests_a_scalars_type():
    """`container`'s header schema checks use `is_int`, as they raise FormatError."""
    pattern = re.compile(r"numbers\.Real|isinstance\([^)]*\b(bool|int|float)\b|\bis_int\(|\bis_real\(|math\.isfinite\(")
    found = []
    for name, number, line in _source_lines():
        match = pattern.search(line)
        if match and not (name == "container.py" and match.group(0) == "is_int("):
            found.append(f"{name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)


def test_no_module_but_tensors_tests_an_arrays_ndim():
    found = [f"{name}:{number}: {line.strip()}" for name, number, line in _source_lines() if re.search(r"\.ndim\b", line)]
    assert not found, "\n".join(found)


def test_no_module_but_tensors_states_the_float32_rule():
    """`tensors.check_float32` is the one test of a value's float32 range (see test_float32_rule.py)."""
    pattern = re.compile(r"finite in float32|np\.finfo")
    found = [f"{name}:{number}: {line.strip()}" for name, number, line in _source_lines() if pattern.search(line)]
    assert not found, "\n".join(found)


def test_no_function_but_tensors_svd_factors_a_matrix():
    """`tensors.svd` is the one SVD: its precision follows its input, so no second one is needed."""
    tree = ast.parse((SRC / "tensors.py").read_text())
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "svd")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            inside = path.name == "tensors.py" and body.lineno <= number <= body.end_lineno
            if re.search(r"linalg\.svd\b", line) and not inside:
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)
