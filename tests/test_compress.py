import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import skillpack.compress as compress_module
import skillpack.quantize as quantize_module
from skillpack.checkpoints import DeltaMap, diff
from skillpack.classify import ModuleClass, classify, default_manifest
from skillpack.compress import compress_delta, compress_entry
from skillpack.packs import DenseEntry, PrunedSparseEntry, QuantizedSvdEntry, predict_stats, save_pack
from skillpack.plans import (
    BitGroup,
    CompressionPlan,
    DenseStrategy,
    PruneStrategy,
    SvdQuantStrategy,
    clip_groups,
    default_plan,
    plan_from_dict,
    plan_to_dict,
    strategy_for,
)
from skillpack.quantize import quantize_rtn
from skillpack.toy import DeltaRecipe, ToySpec, gen_toy


def simple_plan(rank=4, bits=8, alpha=0.5, value_bits=4):
    return CompressionPlan(
        strategies={
            ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=alpha, value_bits=value_bits),
            ModuleClass.MLP: SvdQuantStrategy(rank=rank, groups=(BitGroup(0, rank, bits),)),
            ModuleClass.ATTENTION: SvdQuantStrategy(rank=rank, groups=(BitGroup(0, rank, bits),)),
            ModuleClass.PASSTHROUGH: DenseStrategy(),
        },
    )


def test_prune_strategy_checks_value_width():
    with pytest.raises(ValueError, match=re.escape("quantizer width must be an int in [2, 16], got 17")):
        PruneStrategy(alpha=0.5, value_bits=17)


def test_plan_validation():
    with pytest.raises(ValueError, match="missing a strategy"):
        CompressionPlan(strategies={ModuleClass.PASSTHROUGH: DenseStrategy()})
    strategies = {
        ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(0.5),
        ModuleClass.MLP: DenseStrategy(),
        ModuleClass.ATTENTION: DenseStrategy(),
        ModuleClass.PASSTHROUGH: PruneStrategy(0.5),
    }
    with pytest.raises(ValueError, match="passthrough"):
        CompressionPlan(strategies=strategies)


def test_plan_dict_roundtrip():
    plan = default_plan()
    assert plan_from_dict(plan_to_dict(plan)) == plan


def test_dispatch_prune():
    rng = np.random.default_rng(0)
    delta = rng.standard_normal((4, 4)).astype(np.float32)
    entry = compress_entry("e", delta, ModuleClass.EMBEDDING_OR_HEAD, simple_plan())
    assert isinstance(entry, PrunedSparseEntry)
    assert len(entry.positions()) == 8  # ceil(0.5 * 16)


def test_dispatch_svd_rank_clamps():
    rng = np.random.default_rng(1)
    delta = rng.standard_normal((4, 6)).astype(np.float32)
    plan = simple_plan(rank=10)
    entry = compress_entry("m", delta, ModuleClass.MLP, plan)
    assert isinstance(entry, QuantizedSvdEntry)
    assert entry.rank == 4
    assert entry.groups[-1].end == 4


def test_dispatch_1d_forced_dense():
    delta = np.arange(5, dtype=np.float32)
    entry = compress_entry("bias", delta, ModuleClass.MLP, simple_plan())
    assert isinstance(entry, DenseEntry)
    assert np.array_equal(entry.reconstruct(), delta)


@pytest.mark.parametrize("shape", [(6, 4), (5,)], ids=["2-D", "1-D"])
def test_a_class_given_as_its_value_is_converted_and_an_unknown_one_refused_naming_it(shape):
    delta = np.random.default_rng(0).standard_normal(shape)
    with pytest.raises(ValueError, match=re.escape("delta 'w': 'bogus' is not a valid ModuleClass")):
        compress_entry("w", delta, "bogus", simple_plan())
    entry = compress_entry("w", delta, "mlp", simple_plan())
    assert entry.mclass is ModuleClass.MLP
    assert isinstance(entry, QuantizedSvdEntry if len(shape) == 2 else DenseEntry)


def test_dispatch_fidelity_random_manifests():
    rng = np.random.default_rng(7)
    plan = simple_plan(rank=3, bits=4)
    kind_for = {
        ModuleClass.EMBEDDING_OR_HEAD: PrunedSparseEntry,
        ModuleClass.MLP: QuantizedSvdEntry,
        ModuleClass.ATTENTION: QuantizedSvdEntry,
        ModuleClass.PASSTHROUGH: DenseEntry,
    }
    classes = list(ModuleClass)
    for trial in range(20):
        mclass = classes[int(rng.integers(len(classes)))]
        delta = rng.standard_normal((5, 5)).astype(np.float32)
        entry = compress_entry("x", delta, mclass, plan)
        assert isinstance(entry, kind_for[mclass])
        assert entry.mclass is mclass
        assert entry.shape == (5, 5)


def test_f16_promoted():
    delta = np.array([[1.5, -2.0], [0.25, 0.0]], dtype=np.float16)
    entry = compress_entry("p", delta, ModuleClass.PASSTHROUGH, simple_plan())
    assert entry.values.dtype == np.float32
    assert np.array_equal(entry.reconstruct(), delta.astype(np.float32))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "past-float32"])
def test_a_dense_delta_not_finite_in_float32_is_refused_naming_the_tensor(value):
    with pytest.raises(ValueError, match=re.escape("delta 'n.weight' must be finite in float32")):
        compress_entry("n.weight", np.array([value, 1.0]), ModuleClass.PASSTHROUGH, simple_plan())
    deltas = DeltaMap(base_id="b", tuned_id="t", deltas={"model.norm.weight": np.array([1.0, value, 3.0])})
    with pytest.raises(ValueError, match=re.escape("delta 'model.norm.weight' must be finite in float32")):
        compress_delta(deltas, default_manifest(), simple_plan())


@pytest.mark.parametrize("mclass", [ModuleClass.EMBEDDING_OR_HEAD, ModuleClass.MLP])
def test_a_float64_delta_past_the_float32_range_is_refused_in_every_class(mclass):
    # a pruned entry's scales and an SVD entry's sigma overflowed float32 and reconstructed to inf or NaN
    with pytest.raises(ValueError, match=re.escape("delta 'w' must be finite in float32")):
        compress_entry("w", np.full((4, 4), 1e39), mclass, default_plan())
    entry = compress_entry("w", np.full((4, 4), 1e37), mclass, default_plan())
    assert np.isfinite(entry.reconstruct()).all()
    if mclass is ModuleClass.MLP:  # in range, but its leading singular value, 4e38, is not
        with pytest.raises(ValueError, match=re.escape("delta 'w': sigma must be finite in float32")):
            compress_entry("w", np.full((4, 4), 1e38, np.float32), mclass, default_plan())


@pytest.mark.parametrize("shape", [(4, 0), (0, 4)])
@pytest.mark.parametrize("name", ["model.embed_tokens.weight", "model.layers.0.mlp.up_proj.weight"])
def test_an_empty_matrix_is_stored_dense(name, shape):
    # an MLP one raised ZeroDivisionError (4 x 0) or an unnamed argmax ValueError (0 x 4)
    deltas = DeltaMap(base_id="b", tuned_id="t", deltas={name: np.zeros(shape, np.float32)})
    pack = compress_delta(deltas, default_manifest(), default_plan())
    entry = pack.entries[name]
    assert isinstance(entry, DenseEntry) and entry.shape == shape
    assert entry.mclass is classify(name, default_manifest()) is not ModuleClass.PASSTHROUGH
    assert pack.stats == predict_stats({name: shape}, default_manifest(), default_plan())


def test_pruned_values_per_row_scales_over_dense_rows():
    delta = np.array([[1.0, 0.1], [0.0, 8.0]], dtype=np.float32)
    plan = simple_plan(alpha=0.5, value_bits=4)
    entry = compress_entry("e", delta, ModuleClass.EMBEDDING_OR_HEAD, plan)
    # row scales come from the dense rows: max|row|/qmax
    assert entry.scales[0] == np.float32(1.0 / 7)
    assert entry.scales[1] == np.float32(8.0 / 7)
    assert entry.positions().tolist() == [0, 3]


def test_pruned_exact_on_grid_values():
    # alpha=1 and 8-bit values on a matrix already on the per-row quantizer
    # grid: each row holds the max code 127 and a power-of-two step, so the
    # recovered scale is exact and reconstruction is lossless
    codes = np.array([[127, -64], [127, 3]], dtype=np.int64)
    steps = np.array([[2.0**-7], [2.0**-9]])
    delta = (codes * steps).astype(np.float32)
    plan = simple_plan(alpha=1.0, value_bits=8)
    entry = compress_entry("e", delta, ModuleClass.EMBEDDING_OR_HEAD, plan)
    assert np.array_equal(entry.reconstruct(), delta)


def test_quantized_svd_rank1_bound():
    # sigma=2, u=e1, v=e1: reconstruction error <= 2 * (step/2) per factor bound
    a = np.zeros((6, 6), dtype=np.float32)
    a[0, 0] = 2.0
    for bits in (2, 4, 8):
        plan = simple_plan(rank=1, bits=bits)
        entry = compress_entry("m", a, ModuleClass.MLP, plan)
        err = float(np.linalg.norm(entry.reconstruct() - a))
        step_u = float(entry.u_scales[0])
        step_v = float(entry.v_scales[0])
        bound = 2.0 * (step_u / 2 + step_v / 2 + step_u * step_v / 4)
        assert err <= bound + 1e-6


def test_zero_delta_reconstructs_zero():
    deltas = DeltaMap(
        base_id="b",
        tuned_id="t",
        deltas={
            "model.embed_tokens.weight": np.zeros((8, 4), np.float32),
            "model.layers.0.mlp.gate_proj.weight": np.zeros((6, 4), np.float32),
            "model.layers.0.self_attn.q_proj.weight": np.zeros((4, 4), np.float32),
            "model.layers.0.input_layernorm.weight": np.zeros(4, np.float32),
        },
    )
    pack = compress_delta(deltas, default_manifest(), simple_plan())
    for entry in pack.entries.values():
        assert np.all(entry.reconstruct() == 0)


def test_dense_plan_reconstruction_bit_exact():
    rng = np.random.default_rng(3)
    plan = CompressionPlan(strategies={cls: DenseStrategy() for cls in ModuleClass})
    deltas = DeltaMap(
        base_id="b", tuned_id="t",
        deltas={f"t{i}": rng.standard_normal((3, 5)).astype(np.float32) for i in range(4)},
    )
    pack = compress_delta(deltas, default_manifest(), plan)
    for name, entry in pack.entries.items():
        assert np.array_equal(entry.reconstruct(), deltas.deltas[name])


def test_compress_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(5)
    deltas = DeltaMap(
        base_id="b", tuned_id="t",
        deltas={
            "model.embed_tokens.weight": rng.standard_normal((16, 8)).astype(np.float32),
            "model.layers.0.mlp.gate_proj.weight": rng.standard_normal((12, 8)).astype(np.float32),
            "model.layers.0.self_attn.q_proj.weight": rng.standard_normal((8, 8)).astype(np.float32),
        },
    )
    plan = simple_plan(rank=4, bits=3)
    p1, p2 = tmp_path / "a.skpk", tmp_path / "b.skpk"
    save_pack(compress_delta(deltas, default_manifest(), plan, task_tag="x"), p1)
    save_pack(compress_delta(deltas, default_manifest(), plan, task_tag="x"), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_calibration_missing_name():
    activations = {"other.weight": np.ones((4, 2), np.float32)}
    name = "model.layers.0.mlp.gate_proj.weight"
    deltas = DeltaMap(base_id="b", tuned_id="t", deltas={name: np.ones((6, 4), np.float32)})
    with pytest.raises(ValueError, match=re.escape(f"delta {name!r}: no activations")):
        compress_delta(deltas, default_manifest(), simple_plan(), activations=activations)


def test_file_calibration_of_the_wrong_width_is_refused_naming_the_delta_once():
    name = "model.layers.0.mlp.gate_proj.weight"
    activations = {name: np.ones((3, 2), np.float32)}
    # quantize_gptq checks the width, behind the delta's name
    message = f"delta {name!r}: calibration rows (3) must match matrix columns (4)"
    with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
        compress_entry(name, np.ones((6, 4), np.float32), ModuleClass.MLP, simple_plan(), activations=activations)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("k", [-530, 530])
def test_activations_scaled_by_a_power_of_two_give_the_same_entry(k):
    # at 2^530 (entries near 1e160) the float64 Hessian overflowed and compress refused the activations
    name = "model.layers.0.mlp.gate_proj.weight"
    rng = np.random.default_rng(30)
    delta = rng.standard_normal((6, 8)).astype(np.float32)
    x = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 16))
    plan = simple_plan(rank=4, bits=3)
    want = compress_entry(name, delta, ModuleClass.MLP, plan, activations={name: x})
    got = compress_entry(name, delta, ModuleClass.MLP, plan, activations={name: np.ldexp(x, k)})
    for field in ("sigma", "u_codes", "u_scales", "v_codes", "v_scales"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


def test_file_calibration_used(tmp_path):
    from skillpack.checkpoints import Checkpoint, load_checkpoint, save_checkpoint

    rng = np.random.default_rng(8)
    name = "model.layers.0.mlp.gate_proj.weight"
    calib_path = tmp_path / "calib.gltc"
    save_checkpoint(
        Checkpoint(model_id="calib", tensors={name: rng.standard_normal((4, 16)).astype(np.float32)}),
        calib_path,
    )
    deltas = DeltaMap(base_id="b", tuned_id="t", deltas={name: rng.standard_normal((6, 4)).astype(np.float32)})
    pack = compress_delta(deltas, default_manifest(), simple_plan(rank=2), activations=load_checkpoint(calib_path).tensors)
    assert isinstance(pack.entries[name], QuantizedSvdEntry)


def test_only_svd_tensors_look_up_their_activations():
    """Dense and pruned tensors need no activations, so an empty map compresses them as none does."""
    rng = np.random.default_rng(7)
    for mclass in (ModuleClass.EMBEDDING_OR_HEAD, ModuleClass.PASSTHROUGH):
        delta = rng.standard_normal((6, 4)).astype(np.float32)
        with_map = compress_entry("w", delta, mclass, simple_plan(), activations={})
        without = compress_entry("w", delta, mclass, simple_plan())
        assert type(with_map) is type(without)
        assert with_map.reconstruct().tobytes() == without.reconstruct().tobytes()
    with pytest.raises(ValueError, match="delta 'w': no activations"):
        compress_entry("w", rng.standard_normal((6, 4)).astype(np.float32), ModuleClass.MLP, simple_plan(),
                       activations={})


def test_compress_calls_no_loader():
    """Compress does no I/O: activations come in as a map, read by the caller. No loader is
    imported, named or called in `compress.py`'s code (its docstrings may name one)."""
    loaders = {"load_checkpoint", "read_container", "open"}
    found = []
    for node in ast.walk(ast.parse(Path(compress_module.__file__).read_text())):
        names = [alias.name for alias in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else \
            [getattr(node, "id", None), getattr(node, "attr", None)]
        found += [f"line {node.lineno}: {n}" for n in names if n in loaders]
    assert not found


def test_monotone_fidelity_in_bits():
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        delta = rng.standard_normal((32, 48)).astype(np.float32)
        errs = []
        for bits in (2, 3, 4, 6, 8):
            entry = compress_entry("m", delta, ModuleClass.MLP, simple_plan(rank=12, bits=bits))
            errs.append(float(np.linalg.norm(entry.reconstruct().astype(np.float64) - delta)))
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_rank_sweep_tracks_tail_norm():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((32, 48))
    sigma = np.linalg.svd(a, compute_uv=False)
    for r in range(1, 33):
        plan = simple_plan(rank=r, bits=16)
        entry = compress_entry("m", a.astype(np.float32), ModuleClass.MLP, plan)
        err = float(np.linalg.norm(a - entry.reconstruct().astype(np.float64)))
        tail = float(np.sqrt(np.sum(sigma[r:] ** 2)))
        assert abs(err - tail) <= 0.05 * tail + 1e-3 * np.linalg.norm(a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stored_leading_sigma_is_the_float64_svds_to_float32_rounding(seed):
    """The float32 deltas of the small perfbench toy are factored in float32; the stored
    sigma, refined in float64, holds perfbench's leading-sigma check ten times tighter
    (unrefined float32 sigma was off by up to 9.6e-7 sigma_0 on these seeds)."""
    recipe = DeltaRecipe(rank=16, sparse_nnz=256, noise_std=2.0**-10)
    deltas = diff(*gen_toy(ToySpec(seed=seed, layers=1, hidden=128, mlp_width=352, vocab=1024, recipe=recipe)))
    pack = compress_delta(deltas, default_manifest(), default_plan())
    entries = {name: e for name, e in pack.entries.items() if isinstance(e, QuantizedSvdEntry)}
    assert len(entries) == 7
    for name, entry in entries.items():
        assert deltas.deltas[name].dtype == np.float32
        reference = np.linalg.svd(deltas.deltas[name].astype(np.float64), compute_uv=False)
        err = np.abs(entry.sigma[:16].astype(np.float64) - reference[:16])
        assert np.all(err <= 1e-7 * reference[0]), f"{name}: {err.max() / reference[0]:.3g} sigma_0"


def test_predicted_stats_match_actual():
    rng = np.random.default_rng(10)
    shapes = {
        "model.embed_tokens.weight": (16, 8),
        "model.layers.0.mlp.gate_proj.weight": (12, 8),
        "model.layers.0.self_attn.q_proj.weight": (8, 8),
        "model.layers.0.input_layernorm.weight": (8,),
    }
    deltas = DeltaMap(
        base_id="b", tuned_id="t",
        deltas={n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()},
    )
    plan = simple_plan(rank=4, bits=3, alpha=0.3)
    pack = compress_delta(deltas, default_manifest(), plan)
    predicted = predict_stats(shapes, default_manifest(), plan)
    assert predicted.to_dict() == pack.stats.to_dict()
    assert abs(predicted.total.ratio_total - pack.stats.total.ratio_total) <= 0.005


@pytest.mark.parametrize("shape", [(96, 64), (1408, 512)], ids=["96x64", "mlp-1408x512"])
def test_entry_without_factor_computes_the_v_side_factor_once(tmp_path, monkeypatch, shape):
    """Given activations, compress_entry factors its V-side activations once per
    entry, not once per bit group, and gives the entry compress_delta gives."""
    name = "model.layers.0.mlp.gate_proj.weight"
    rng = np.random.default_rng(15)
    delta = rng.standard_normal(shape).astype(np.float32)
    activations = {name: rng.standard_normal((shape[1], 32)).astype(np.float32)}
    plan = default_plan()
    groups = clip_groups(strategy_for(plan, ModuleClass.MLP, shape).groups, min(shape))
    assert len(groups) > 1 and all(g.length != shape[1] for g in groups)
    widths = []
    hessian_factor = quantize_module.hessian_factor

    def counting_factor(inputs, *args, **kwargs):
        widths.append(inputs.shape[0])
        return hessian_factor(inputs, *args, **kwargs)

    monkeypatch.setattr(quantize_module, "hessian_factor", counting_factor)
    entry = compress_entry(name, delta, ModuleClass.MLP, plan, activations=activations)
    assert widths == [shape[1]] + [g.length for g in groups]  # the V side once, then each group's U side
    packed = compress_delta(DeltaMap(base_id="b", tuned_id="t", deltas={name: delta}), default_manifest(), plan,
                            activations=activations)
    for field in ("sigma", "u_codes", "u_scales", "v_codes", "v_scales"):
        assert np.array_equal(getattr(entry, field), getattr(packed.entries[name], field)), field


def test_entry_calibrates_on_its_named_file_activations(tmp_path):
    """An SVD tensor's `compress_entry(..., activations=)` entry is `compress_delta`'s, bit for bit,
    with the activations read from a file as the command line reads them."""
    from skillpack.checkpoints import Checkpoint, load_checkpoint, save_checkpoint

    rng = np.random.default_rng(16)
    names = ["model.layers.0.mlp.gate_proj.weight", "model.layers.0.mlp.up_proj.weight"]
    calib_path = tmp_path / "calib.gltc"
    save_checkpoint(
        Checkpoint(model_id="calib", tensors={n: rng.standard_normal((8, 16)).astype(np.float32) for n in names}),
        calib_path,
    )
    acts = load_checkpoint(calib_path).tensors
    plan = simple_plan(rank=6, bits=2)
    delta = rng.standard_normal((12, 8)).astype(np.float32)
    deltas = DeltaMap(base_id="b", tuned_id="t", deltas={n: delta for n in names})
    pack = compress_delta(deltas, default_manifest(), plan, activations=acts)
    entries = {n: compress_entry(n, delta, ModuleClass.MLP, plan, activations=acts) for n in names}
    for n in names:
        for field in ("sigma", "u_codes", "u_scales", "v_codes", "v_scales"):
            got, want = getattr(entries[n], field), getattr(pack.entries[n], field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, field)
    # the same delta under each name's own activations gives different codes
    a, b = (entries[n] for n in names)
    assert not (np.array_equal(a.u_codes, b.u_codes) and np.array_equal(a.v_codes, b.v_codes))

    missing = "model.layers.1.mlp.gate_proj.weight"
    with pytest.raises(ValueError) as from_entry:
        compress_entry(missing, delta, ModuleClass.MLP, plan, activations=acts)
    with pytest.raises(ValueError) as from_delta:
        compress_delta(DeltaMap(base_id="b", tuned_id="t", deltas={missing: delta}), default_manifest(), plan,
                       activations=acts)
    assert str(from_entry.value) == str(from_delta.value) == f"delta {missing!r}: no activations"


def test_full_retention_prune_codes_equal_rtn():
    rng = np.random.default_rng(15)
    delta = rng.standard_normal((12, 10)).astype(np.float32)
    delta[3] = 0.0
    for bits in (2, 4, 8):
        entry = compress_entry("e", delta, ModuleClass.EMBEDDING_OR_HEAD, simple_plan(alpha=1.0, value_bits=bits))
        rtn = quantize_rtn(delta, bits)
        np.testing.assert_array_equal(entry.codes, rtn.codes.reshape(-1))
        np.testing.assert_array_equal(entry.scales, rtn.scales)


def reference_compress_svd(delta, mclass, strategy, x):
    """The preallocate-and-scatter `_compress_svd`: zero-filled code and scale
    buffers sized from the delta and the rank, written group by group, by RTN
    without activations and by GPTQ with them."""
    from skillpack.compress import quantize_gptq, svd, truncate

    rows, cols = delta.shape
    factors = truncate(svd(delta), strategy.rank)
    rank = factors.rank
    groups = clip_groups(strategy.groups, rank)
    u_codes = np.zeros((rows, rank), dtype=np.int32)
    v_codes = np.zeros((rank, cols), dtype=np.int32)
    u_scales = np.zeros(rank, dtype=np.float32)
    v_scales = np.zeros(rank, dtype=np.float32)
    for g in groups:
        if x is None:
            qv = quantize_rtn(factors.vt[g.begin : g.end, :], g.bits, "row")
            qu = quantize_rtn(factors.u[:, g.begin : g.end], g.bits, "column")
        else:
            qv = quantize_gptq(factors.vt[g.begin : g.end, :], x, g.bits, scale_axis="row")
            u_inputs = factors.sigma[g.begin : g.end, None] * (qv.dequantize() @ x)
            qu = quantize_gptq(factors.u[:, g.begin : g.end], u_inputs, g.bits, scale_axis="column")
        v_codes[g.begin : g.end, :] = qv.codes
        v_scales[g.begin : g.end] = qv.scales
        u_codes[:, g.begin : g.end] = qu.codes
        u_scales[g.begin : g.end] = qu.scales
    return QuantizedSvdEntry(shape=(rows, cols), mclass=mclass, rank=rank, groups=groups,
                             sigma=factors.sigma.astype(np.float32), u_codes=u_codes, u_scales=u_scales,
                             v_codes=v_codes, v_scales=v_scales)


REFERENCE_GROUPS = {
    1: (BitGroup(0, 8, 4),),
    2: (BitGroup(0, 3, 8), BitGroup(3, 8, 3)),
    3: (BitGroup(0, 2, 8), BitGroup(2, 5, 4), BitGroup(5, 8, 2)),
}


@pytest.mark.parametrize("calibration", ["none", "file", "zero-file"])
@pytest.mark.parametrize("shape", [(24, 16), (16, 24), (1, 12)], ids=["tall", "wide", "1xn"])
def test_svd_entry_equals_the_preallocated_reference(tmp_path, shape, calibration):
    """Entries built from the groups' quantizer results equal, in every field,
    bit and dtype, those the preallocate-and-scatter version built."""
    from skillpack.checkpoints import Checkpoint, load_checkpoint, save_checkpoint

    name = "model.layers.0.mlp.gate_proj.weight"
    rng = np.random.default_rng(17)
    if calibration == "none":
        x = None
    else:
        x = rng.standard_normal((shape[1], 32)) if calibration == "file" else np.zeros((shape[1], 32))
        save_checkpoint(Checkpoint(model_id="calib", tensors={name: x.astype(np.float32)}), tmp_path / "c.gltc")
        x = load_checkpoint(tmp_path / "c.gltc").tensors[name]
    deltas = {"random": rng.standard_normal(shape).astype(np.float32), "zero": np.zeros(shape, dtype=np.float32)}
    for (key, delta), count, rank in itertools.product(deltas.items(), REFERENCE_GROUPS, (4, 8)):
        # rank 8 is clamped to min(shape) on every shape here; rank 4 only on the 1 x n one
        strategy = SvdQuantStrategy(rank=rank, groups=clip_groups(REFERENCE_GROUPS[count], rank))
        case = (key, count, rank)
        entry = compress_module._compress_svd(delta, ModuleClass.MLP, strategy, x)
        expected = reference_compress_svd(delta, ModuleClass.MLP, strategy, x)
        assert (entry.shape, entry.mclass, entry.rank, entry.groups) == \
            (expected.shape, expected.mclass, expected.rank, expected.groups), case
        for field in ("sigma", "u_codes", "u_scales", "v_codes", "v_scales"):
            got, want = getattr(entry, field), getattr(expected, field)
            assert got.dtype == want.dtype and got.shape == want.shape, (case, field)
            assert got.tobytes() == want.tobytes(), (case, field)


def test_signal_free_file_calibration_is_factored_once(monkeypatch):
    """All-zero activations have no Hessian factor; the V side is not
    factored again per bit group, and the codes are those of plain RTN."""
    name = "model.layers.0.mlp.gate_proj.weight"
    activations = {name: np.zeros((64, 32), dtype=np.float32)}
    plan = default_plan()
    delta = np.random.default_rng(18).standard_normal((128, 64)).astype(np.float32)
    groups = clip_groups(strategy_for(plan, ModuleClass.MLP, delta.shape).groups, 64)
    assert len(groups) > 1
    v_side = []
    hessian_factor = quantize_module.hessian_factor

    def counting_factor(inputs, *args, **kwargs):
        if inputs.shape[0] == 64:
            v_side.append(inputs)
        return hessian_factor(inputs, *args, **kwargs)

    monkeypatch.setattr(quantize_module, "hessian_factor", counting_factor)
    entry = compress_entry(name, delta, ModuleClass.MLP, plan, activations=activations)
    assert len(v_side) == 1
    factors = compress_module.svd(delta)
    for g in groups:
        part = slice(g.begin, g.end)
        v_rtn, u_rtn = quantize_rtn(factors.vt[part], g.bits), quantize_rtn(factors.u[:, part], g.bits, "column")
        np.testing.assert_array_equal(entry.v_codes[part], v_rtn.codes)
        np.testing.assert_array_equal(entry.v_scales[part], v_rtn.scales)
        np.testing.assert_array_equal(entry.u_codes[:, part], u_rtn.codes)
        np.testing.assert_array_equal(entry.u_scales[part], u_rtn.scales)
