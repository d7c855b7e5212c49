import numpy as np
import pytest

import skillpack.compress as compress_module
import skillpack.quantize as quantize_module
from skillpack.checkpoints import DeltaMap
from skillpack.classify import ModuleClass, classify, default_manifest
from skillpack.compress import compress_delta, compress_entry, synthetic_calibration
from skillpack.packs import DenseEntry, PrunedSparseEntry, QuantizedSvdEntry, SkillPack, predict_stats, save_pack
from skillpack.plans import (
    CompressionPlan,
    DenseStrategy,
    FileCalibration,
    PruneStrategy,
    SvdQuantStrategy,
    SyntheticCalibration,
    clip_groups,
    default_plan,
    plan_from_dict,
    plan_to_dict,
    strategy_for,
)
from skillpack.quantize import BitGroup, quantize_rtn


def simple_plan(rank=4, bits=8, alpha=0.5, value_bits=4, **kwargs):
    return CompressionPlan(
        strategies={
            ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=alpha, value_bits=value_bits),
            ModuleClass.MLP: SvdQuantStrategy(rank=rank, groups=(BitGroup(0, rank, bits),)),
            ModuleClass.ATTENTION: SvdQuantStrategy(rank=rank, groups=(BitGroup(0, rank, bits),)),
            ModuleClass.PASSTHROUGH: DenseStrategy(),
        },
        **kwargs,
    )


def calib_for(delta, seed=0, samples=64):
    return synthetic_calibration(seed, delta.shape[1], samples)


def test_prune_strategy_checks_value_width():
    with pytest.raises(ValueError, match="above 16 bits"):
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
    assert len(entry.indices) == 8  # ceil(0.5 * 16)


def test_dispatch_svd_rank_clamps():
    rng = np.random.default_rng(1)
    delta = rng.standard_normal((4, 6)).astype(np.float32)
    plan = simple_plan(rank=10)
    entry = compress_entry("m", delta, ModuleClass.MLP, plan, calib_for(delta))
    assert isinstance(entry, QuantizedSvdEntry)
    assert entry.rank == 4
    assert entry.groups[-1].end == 4


def test_dispatch_1d_forced_dense():
    delta = np.arange(5, dtype=np.float32)
    entry = compress_entry("bias", delta, ModuleClass.MLP, simple_plan())
    assert isinstance(entry, DenseEntry)
    assert np.array_equal(entry.reconstruct(), delta)


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
        entry = compress_entry("x", delta, mclass, plan, calib_for(delta))
        assert isinstance(entry, kind_for[mclass])
        assert entry.mclass is mclass
        assert entry.shape == (5, 5)


def test_f16_promoted():
    delta = np.array([[1.5, -2.0], [0.25, 0.0]], dtype=np.float16)
    entry = compress_entry("p", delta, ModuleClass.PASSTHROUGH, simple_plan())
    assert entry.values.dtype == np.float32
    assert np.array_equal(entry.reconstruct(), delta.astype(np.float32))


def test_pruned_values_per_row_scales_over_dense_rows():
    delta = np.array([[1.0, 0.1], [0.0, 8.0]], dtype=np.float32)
    plan = simple_plan(alpha=0.5, value_bits=4)
    entry = compress_entry("e", delta, ModuleClass.EMBEDDING_OR_HEAD, plan)
    # row scales come from the dense rows: max|row|/qmax
    assert entry.scales[0] == np.float32(1.0 / 7)
    assert entry.scales[1] == np.float32(8.0 / 7)
    assert entry.indices.tolist() == [0, 3]


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
        entry = compress_entry("m", a, ModuleClass.MLP, plan, calib_for(a))
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


def test_calibration_seed_changes_codes():
    rng = np.random.default_rng(6)
    delta = rng.standard_normal((16, 16)).astype(np.float32)
    plan_a = simple_plan(rank=8, bits=2, calibration=SyntheticCalibration(seed=0, samples=8))
    plan_b = simple_plan(rank=8, bits=2, calibration=SyntheticCalibration(seed=1, samples=8))
    e_a = compress_entry("m", delta, ModuleClass.MLP, plan_a, synthetic_calibration(0, 16, 8))
    e_b = compress_entry("m", delta, ModuleClass.MLP, plan_b, synthetic_calibration(1, 16, 8))
    assert not np.array_equal(e_a.u_codes, e_b.u_codes) or not np.array_equal(e_a.v_codes, e_b.v_codes)


def test_file_calibration_missing_name(tmp_path):
    from skillpack.checkpoints import Checkpoint, save_checkpoint

    calib_path = tmp_path / "calib.gltc"
    save_checkpoint(
        Checkpoint(model_id="calib", tensors={"other.weight": np.ones((4, 2), np.float32)}),
        calib_path,
    )
    plan = simple_plan(calibration=FileCalibration(path=str(calib_path)))
    deltas = DeltaMap(
        base_id="b", tuned_id="t",
        deltas={"model.layers.0.mlp.gate_proj.weight": np.ones((6, 4), np.float32)},
    )
    with pytest.raises(KeyError, match="no activations"):
        compress_delta(deltas, default_manifest(), plan)


def test_file_calibration_used(tmp_path):
    from skillpack.checkpoints import Checkpoint, save_checkpoint

    rng = np.random.default_rng(8)
    name = "model.layers.0.mlp.gate_proj.weight"
    calib_path = tmp_path / "calib.gltc"
    save_checkpoint(
        Checkpoint(model_id="calib", tensors={name: rng.standard_normal((4, 16)).astype(np.float32)}),
        calib_path,
    )
    plan = simple_plan(rank=2, calibration=FileCalibration(path=str(calib_path)))
    deltas = DeltaMap(base_id="b", tuned_id="t", deltas={name: rng.standard_normal((6, 4)).astype(np.float32)})
    pack = compress_delta(deltas, default_manifest(), plan)
    assert isinstance(pack.entries[name], QuantizedSvdEntry)


def test_monotone_fidelity_in_bits():
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        delta = rng.standard_normal((32, 48)).astype(np.float32)
        x = calib_for(delta)
        errs = []
        for bits in (2, 3, 4, 6, 8):
            entry = compress_entry("m", delta, ModuleClass.MLP, simple_plan(rank=12, bits=bits), x)
            errs.append(float(np.linalg.norm(entry.reconstruct().astype(np.float64) - delta)))
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_rank_sweep_tracks_tail_norm():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((32, 48))
    sigma = np.linalg.svd(a, compute_uv=False)
    x = synthetic_calibration(0, 48, 128)
    for r in range(1, 33):
        entry = compress_entry("m", a.astype(np.float32), ModuleClass.MLP, simple_plan(rank=r, bits=16), x)
        err = float(np.linalg.norm(a - entry.reconstruct().astype(np.float64)))
        tail = float(np.sqrt(np.sum(sigma[r:] ** 2)))
        assert abs(err - tail) <= 0.05 * tail + 1e-3 * np.linalg.norm(a)


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


def test_cached_factor_gives_same_pack_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    shapes = {
        "model.layers.0.mlp.gate_proj.weight": (24, 16),
        "model.layers.0.mlp.up_proj.weight": (24, 16),
        "model.layers.0.mlp.down_proj.weight": (16, 24),
        "model.layers.0.self_attn.q_proj.weight": (16, 16),
    }
    deltas = DeltaMap(
        base_id="b", tuned_id="t",
        deltas={n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()},
    )
    groups = (BitGroup(0, 4, 8), BitGroup(4, 12, 3))
    plan = CompressionPlan(
        strategies={
            ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=0.5),
            ModuleClass.MLP: SvdQuantStrategy(rank=12, groups=groups),
            ModuleClass.ATTENTION: SvdQuantStrategy(rank=12, groups=groups),
            ModuleClass.PASSTHROUGH: DenseStrategy(),
        },
        calibration=SyntheticCalibration(seed=3, samples=32),
    )
    factorizations = []
    hessian_factor = compress_module.hessian_factor

    def counting_factor(*args):
        factorizations.append(args)
        return hessian_factor(*args)

    monkeypatch.setattr(compress_module, "hessian_factor", counting_factor)
    cached = compress_delta(deltas, default_manifest(), plan)
    assert len(factorizations) == 2  # one per input width, 16 and 24

    fresh = {
        name: compress_entry(name, d, classify(name, default_manifest()), plan,
                             synthetic_calibration(3, d.shape[1], 32))
        for name, d in deltas.deltas.items()
    }
    fresh_pack = SkillPack(cached.base_model_id, cached.tuned_model_id, cached.task_tag,
                           cached.plan_snapshot, fresh)
    save_pack(cached, tmp_path / "cached.skpk")
    save_pack(fresh_pack, tmp_path / "fresh.skpk")
    assert (tmp_path / "cached.skpk").read_bytes() == (tmp_path / "fresh.skpk").read_bytes()


@pytest.mark.parametrize("shape", [(96, 64), (1408, 512)], ids=["96x64", "mlp-1408x512"])
def test_entry_without_factor_computes_the_v_side_factor_once(monkeypatch, shape):
    """compress_entry called without `factor` factors its calibration once,
    not once per bit group, and gives the codes a precomputed factor gives."""
    delta = np.random.default_rng(15).standard_normal(shape).astype(np.float32)
    plan = default_plan()
    x = calib_for(delta, samples=32)
    assert len(clip_groups(strategy_for(plan, ModuleClass.MLP, shape).groups, min(shape))) > 1
    factor = compress_module.hessian_factor(x, plan.damping)
    with_factor = compress_entry("m", delta, ModuleClass.MLP, plan, x, factor)
    v_side_calls = []
    hessian_factor = quantize_module.hessian_factor

    def counting_factor(inputs, *args, **kwargs):
        if inputs is x:
            v_side_calls.append(inputs)
        return hessian_factor(inputs, *args, **kwargs)

    monkeypatch.setattr(compress_module, "hessian_factor", counting_factor)
    monkeypatch.setattr(quantize_module, "hessian_factor", counting_factor)
    entry = compress_entry("m", delta, ModuleClass.MLP, plan, x)
    assert len(v_side_calls) == 1
    for field in ("sigma", "u_codes", "u_scales", "v_codes", "v_scales"):
        assert np.array_equal(getattr(entry, field), getattr(with_factor, field)), field


def test_full_retention_prune_codes_equal_rtn():
    rng = np.random.default_rng(15)
    delta = rng.standard_normal((12, 10)).astype(np.float32)
    delta[3] = 0.0
    for bits in (2, 4, 8):
        entry = compress_entry("e", delta, ModuleClass.EMBEDDING_OR_HEAD, simple_plan(alpha=1.0, value_bits=bits))
        rtn = quantize_rtn(delta, bits)
        np.testing.assert_array_equal(entry.codes, rtn.codes.reshape(-1))
        np.testing.assert_array_equal(entry.scales, rtn.scales)
