import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillpack.checkpoints import Checkpoint, diff, save_checkpoint, save_delta
from skillpack.classify import ModuleClass, default_manifest
from skillpack.cli import main
from skillpack.compress import compress_delta
from skillpack.packs import load_pack, save_pack
from skillpack.plans import (
    BitGroup,
    CompressionPlan,
    DenseStrategy,
    PruneStrategy,
    SvdQuantStrategy,
    default_plan,
    plan_from_dict,
    plan_to_dict,
    strategy_for,
)
from skillpack.quantize import check_bits
from skillpack.toy import ToySpec, budget_plan, gen_toy, toy_param_shapes

VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1, 1.5, 3, True, "x", None, [], {}]


def test_plan_dict_round_trips():
    plans = [default_plan(), budget_plan(0.05, toy_param_shapes(ToySpec()))]
    for plan in plans:
        assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == plan


def test_plan_dict_pinned():
    assert plan_to_dict(default_plan()) == {
        "strategies": {
            "embedding_or_head": {"kind": "prune", "alpha": 0.5, "value_bits": 4},
            "mlp": {"kind": "svd_quant", "rank": 1400, "groups": [[0, 20, 8], [20, 200, 3], [200, 1400, 2]]},
            "attention": {"kind": "svd_quant", "rank": 1000, "groups": [[0, 20, 8], [20, 1000, 2]]},
            "passthrough": {"kind": "dense"},
        },
    }


def test_missing_optional_keys_take_the_defaults():
    d = plan_to_dict(default_plan())
    del d["strategies"]["embedding_or_head"]["value_bits"]
    assert plan_from_dict(d) == default_plan()


@pytest.mark.parametrize("edit", [
    lambda d: d["strategies"]["embedding_or_head"].update(value_bit=8),
    lambda d: d["strategies"]["passthrough"].update(rank=3),
    lambda d: d.update(dampening=0.1),
    # the calibration key of older plan files: activations are an input to compress now
    lambda d: d.update(calibration=None),
    lambda d: d.update(calibration={"kind": "file", "path": "calib.gltc"}),
    lambda d: d.update(calibration={"kind": "synthetic", "seed": 0, "samples": 128}),
    # and the damping key: GPTQ's damping is the constant quantize.GPTQ_DAMPING now
    lambda d: d.update(damping=0.01),
], ids=["misspelt-strategy-key", "dense-with-field", "misspelt-plan-key", "null-calibration", "file-calibration",
        "synthetic-calibration", "damping"])
def test_unknown_key_is_an_error_not_dropped(edit):
    d = plan_to_dict(default_plan())
    edit(d)
    with pytest.raises(TypeError, match="unexpected keyword"):
        plan_from_dict(d)


@pytest.mark.parametrize("edit", [
    lambda d: d["strategies"]["mlp"].update(kind="file"),
    lambda d: d["strategies"]["mlp"].update(kind="synthetic"),
    lambda d: d["strategies"]["mlp"].update(kind=["x"]),
    lambda d: d["strategies"]["mlp"].pop("kind"),
], ids=["calibration-as-strategy", "synthetic-as-strategy", "list-kind", "no-kind"])
def test_kind_must_name_a_part_of_the_right_sort(edit):
    d = plan_to_dict(default_plan())
    edit(d)
    with pytest.raises(ValueError, match="unknown kind"):
        plan_from_dict(d)


@pytest.mark.parametrize("build", [
    lambda: PruneStrategy(alpha=0.5, value_bits=4.0),
    lambda: PruneStrategy(alpha=0.5, value_bits=True),
    lambda: PruneStrategy(alpha=math.nan),
    lambda: SvdQuantStrategy(rank=8.0, groups=(BitGroup(0, 8, 4),)),
    lambda: BitGroup(0.0, 8, 4),
    lambda: BitGroup(0, 8.0, 4),
    lambda: SvdQuantStrategy(rank=8, groups=()),
], ids=["float-value-bits", "bool-value-bits", "nan-alpha", "float-rank", "float-begin", "float-end", "no-groups"])
def test_plan_part_is_checked_when_built(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("strategy", ["svd", None, BitGroup(0, 8, 4), {"kind": "dense"}])
def test_a_strategy_of_the_wrong_type_is_refused_naming_its_class(strategy):
    # "svd" built, then compress and predict_stats raised TypeError and plan_to_dict KeyError
    strategies = {**default_plan().strategies, ModuleClass.MLP: strategy}
    with pytest.raises(ValueError, match=f"missing a strategy for module class 'mlp', got {re.escape(repr(strategy))}"):
        CompressionPlan(strategies=strategies)


@pytest.mark.parametrize("calibration", ["seed7", 7, {"kind": "file", "path": "c.gltc"}, DenseStrategy()])
def test_a_calibration_of_the_wrong_type_is_refused(calibration):
    # a plan is policy only: it has no calibration of any type, and activations go to compress
    with pytest.raises(TypeError, match="unexpected keyword argument 'calibration'"):
        replace(default_plan(), calibration=calibration)


def test_a_damping_is_refused_naming_it():
    # GPTQ damps by the constant quantize.GPTQ_DAMPING: a plan has no damping to set
    with pytest.raises(TypeError, match="unexpected keyword argument 'damping'"):
        replace(default_plan(), damping=0.01)


STRING_KEYED = {cls.value: strategy for cls, strategy in default_plan().strategies.items()}


def test_a_string_keyed_plan_is_the_enum_keyed_plan():
    # plan_to_dict raised AttributeError: 'str' object has no attribute 'value'
    plan = CompressionPlan(strategies=STRING_KEYED)
    assert plan == default_plan() and all(type(cls) is ModuleClass for cls in plan.strategies)
    assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == default_plan()


def test_equal_plans_give_equal_plan_files_and_pack_bytes(tmp_path):
    # the reversed plan compared equal, but plan_to_dict wrote its strategies in reverse
    reversed_plan = CompressionPlan(strategies=dict(reversed(default_plan().strategies.items())))
    assert reversed_plan == default_plan()
    assert json.dumps(plan_to_dict(reversed_plan)) == json.dumps(plan_to_dict(default_plan()))
    deltas = diff(*gen_toy(ToySpec(seed=3, layers=1, hidden=16, mlp_width=24, vocab=32)))
    for name, plan in (("default", default_plan()), ("reversed", reversed_plan)):
        save_pack(compress_delta(deltas, default_manifest(), plan), tmp_path / f"{name}.skpk")
    assert (tmp_path / "reversed.skpk").read_bytes() == (tmp_path / "default.skpk").read_bytes()


def test_a_string_keyed_plan_compresses_to_the_enum_keyed_plans_bytes(tmp_path):
    base, tuned = gen_toy(ToySpec(seed=3, layers=1, hidden=16, mlp_width=24, vocab=32))
    deltas = diff(base, tuned)
    for name, plan in (("enum", default_plan()), ("str", CompressionPlan(strategies=STRING_KEYED))):
        save_pack(compress_delta(deltas, default_manifest(), plan), tmp_path / f"{name}.skpk")
    assert (tmp_path / "str.skpk").read_bytes() == (tmp_path / "enum.skpk").read_bytes()


@pytest.mark.parametrize("key", ["mlp_extra", "MLP", 1, None])
def test_a_strategy_for_an_unknown_module_class_is_refused_naming_it(key):
    with pytest.raises(ValueError, match=f"unknown module class {re.escape(repr(key))}"):
        CompressionPlan(strategies={**default_plan().strategies, key: DenseStrategy()})


def test_check_bits_takes_ints_only():
    check_bits(4)
    for bits in (4.0, True, "4", None):
        with pytest.raises(ValueError, match="must be an int"):
            check_bits(bits)


def test_strategy_for_stores_tensors_that_are_not_2d_dense():
    plan = default_plan()
    assert strategy_for(plan, ModuleClass.MLP, (4, 4)) is plan.strategies[ModuleClass.MLP]
    for shape in [(4,), (2, 2, 2), ()]:
        assert strategy_for(plan, ModuleClass.MLP, shape) == DenseStrategy()
    dense = CompressionPlan(strategies={cls: DenseStrategy() for cls in ModuleClass})
    assert strategy_for(dense, ModuleClass.MLP, (4, 4)) == DenseStrategy()


def test_strategy_for_stores_empty_matrices_dense():
    plan = default_plan()
    for mclass in ModuleClass:
        for shape in [(4, 0), (0, 4), (0, 0)]:
            assert strategy_for(plan, mclass, shape) == DenseStrategy()


# --------------------------------------------------------------------------
# Property: any edit of a valid plan config either compresses or fails with
# one "error:" line; nothing escapes the CLI.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """A hidden-8 toy delta, a calibration file for it, and a valid config."""
    root = tmp_path_factory.mktemp("plans")
    base, tuned = gen_toy(ToySpec(seed=0, layers=1, hidden=8, mlp_width=12, vocab=16))
    deltas = diff(base, tuned)
    save_delta(deltas, root / "delta.gltc")
    rng = np.random.default_rng(0)
    acts = {n: rng.standard_normal((d.shape[1], 16)).astype(np.float32) for n, d in deltas.deltas.items() if d.ndim == 2}
    save_checkpoint(Checkpoint(model_id="calibration", tensors=acts), root / "calib.gltc")
    return root, [{"plan": plan_to_dict(default_plan())}]


def _paths(node, prefix=()):
    """The path of every value below `node`, a JSON tree."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw, configs):
    config = json.loads(json.dumps(draw(st.sampled_from(configs))))
    op = draw(st.sampled_from(["delete", "add", "set"]))
    if op == "add":
        dicts = [()] + [p for p in _paths(config) if isinstance(_at(config, p), dict)]
        _at(config, draw(st.sampled_from(dicts)))["extra"] = draw(st.sampled_from(VALUES))
        return config
    *parent, key = draw(st.sampled_from(list(_paths(config))))
    if op == "delete":
        del _at(config, parent)[key]
    else:
        _at(config, parent)[key] = draw(st.sampled_from(VALUES))
    return config


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_plan_config_compresses_or_fails_with_one_error_line(toy_files, data):
    root, configs = toy_files
    config = data.draw(mutated_configs(configs))
    calibration = ["--calibration", str(root / "calib.gltc")] if data.draw(st.booleans()) else []
    config_path, out = root / "config.json", root / "out.skpk"
    config_path.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        rc = main(["compress", str(root / "delta.gltc"), "--plan", str(config_path), "-o", str(out), *calibration])
    err = stderr.getvalue()
    if rc == 0:
        assert err == ""
        snapshot = load_pack(out).plan_snapshot
        assert plan_to_dict(plan_from_dict(snapshot)) == snapshot
    else:
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
