"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] ...: PASS` line (visible with -s or on
failure) and enforces its runtime budget. Derived thresholds were frozen
from oracle runs of the shipped implementation; see test bodies.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from skillpack.checkpoints import Checkpoint, apply_pack, diff, load_checkpoint, save_checkpoint
from skillpack.classify import ModuleClass, default_manifest
from skillpack.compress import compress_delta
from skillpack.errors import IntegrityError
from skillpack.losses import PreferenceScores, dpo_loss, sft_nll
from skillpack.packs import load_pack, save_pack, storage_ratio
from skillpack.plans import CompressionPlan, DenseStrategy, PruneStrategy, default_plan
from skillpack.quantize import calibration_error, quantize_gptq, quantize_rtn
from skillpack.routing import (
    Features,
    FusionRequest,
    LinearClassifier,
    RouterTrainingSet,
    TaskTable,
    Tag,
    fuse,
    instantiate_task,
    route,
    train_router,
)
from skillpack.tensors import frobenius_rel_err, svd, truncate
from skillpack.toy import ToySpec, budget_plan, eval_retention, gen_toy, toy_param_shapes


@contextmanager
def criterion(number: int, title: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
    print(f"[criterion {number}] {title}: PASS ({elapsed:.2f}s)")


def bit_equal(a: Checkpoint, b: Checkpoint) -> bool:
    if a.tensors.keys() != b.tensors.keys():
        return False
    return all(
        a.tensors[k].dtype == b.tensors[k].dtype
        and np.array_equal(a.tensors[k].view(np.uint8), b.tensors[k].view(np.uint8))
        for k in a.tensors
    )


def test_criterion_1_embedding_storage_row():
    with criterion(1, "embedding storage row 12.5% exact", 1.0):
        strategy = PruneStrategy(alpha=0.5, value_bits=4)
        for shape in ((4096, 4096), (128256, 4096), (64, 64)):
            line = storage_ratio(shape, strategy)
            assert line.ratio_value_only == 0.125
        assert strategy.alpha * strategy.value_bits / 16 == 0.125


def test_criterion_2_svd_storage_rows():
    with criterion(2, "SVD storage rows match closed form, near reported costs", 1.0):
        plan = default_plan()
        mlp = storage_ratio((4096, 14336), plan.strategies[ModuleClass.MLP])
        attn = storage_ratio((4096, 4096), plan.strategies[ModuleClass.ATTENTION])
        # independent hand calculation: value bits = sum(group_len*(m+n)*k) + 32r,
        # over a 16-bit baseline of m*n elements
        mlp_value = (20 * 8 + 180 * 3 + 1200 * 2) * (4096 + 14336) + 32 * 1400
        attn_value = (20 * 8 + 980 * 2) * (4096 + 4096) + 32 * 1000
        mlp_expected = Fraction(mlp_value, 16 * 4096 * 14336)
        attn_expected = Fraction(attn_value, 16 * 4096 * 4096)
        assert abs(mlp.ratio_value_only - float(mlp_expected)) < 5e-7
        assert abs(attn.ratio_value_only - float(attn_expected)) < 5e-7
        # reported table costs are approximate targets (accounting unspecified)
        assert abs(100 * mlp.ratio_value_only - 5.43) <= 1.5
        assert abs(100 * attn.ratio_value_only - 5.59) <= 1.5


def test_criterion_3_numerical_core():
    with criterion(3, "SVD reconstruction/orthonormality/Eckart-Young on 100 matrices", 60.0):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            m = int(rng.integers(1, 513))
            n = int(rng.integers(1, 513))
            a = rng.standard_normal((m, n))
            factors = svd(a)
            assert frobenius_rel_err(a, factors.reconstruct(np.float32)) <= 1e-5
            p = factors.rank
            assert np.max(np.abs(factors.u.T @ factors.u - np.eye(p))) <= 1e-5
            assert np.max(np.abs(factors.vt @ factors.vt.T - np.eye(p))) <= 1e-5
            if p > 1:
                r = int(rng.integers(1, p))
                err = np.linalg.norm(a - truncate(factors, r).reconstruct())
                tail = float(np.sqrt(np.sum(factors.sigma[r:] ** 2)))
                if tail > 1e-12 * factors.sigma[0]:
                    assert abs(err - tail) <= 1e-6 * tail
                else:
                    assert err <= 1e-10 * max(factors.sigma[0], 1.0)


def test_criterion_4_gptq_dominance():
    with criterion(4, "calibrated quantizer dominates RTN; identity calibration matches it", 120.0):
        for bits in (2, 3, 4):
            wins = 0
            for seed in range(100):
                rng = np.random.default_rng(seed)
                matrix = rng.standard_normal((64, 64))
                x = rng.standard_normal((64, 32))
                e_rtn = calibration_error(matrix, quantize_rtn(matrix, bits).dequantize(), x)
                e_gptq = calibration_error(matrix, quantize_gptq(matrix, x, bits).dequantize(), x)
                wins += e_gptq <= e_rtn
            assert wins >= 90, f"{bits}-bit: only {wins}/100"
        rng = np.random.default_rng(7)
        for _ in range(20):
            matrix = rng.standard_normal((4, 4))
            assert np.array_equal(
                quantize_gptq(matrix, np.eye(4), 4).codes, quantize_rtn(matrix, 4).codes
            )


def _random_checkpoint(rng) -> Checkpoint:
    tensors = {}
    for i in range(int(rng.integers(1, 5))):
        shape = tuple(int(d) for d in rng.integers(1, 9, size=int(rng.integers(1, 3))))
        dtype = np.float32 if rng.integers(2) else np.float16
        tensors[f"t{i}.weight"] = rng.standard_normal(shape).astype(dtype)
    return Checkpoint(model_id=f"m{rng.integers(1000)}", tensors=tensors)


def _random_pack(rng):
    spec = ToySpec(seed=int(rng.integers(100)), layers=1, hidden=8, mlp_width=12, vocab=16)
    base, tuned = gen_toy(spec)
    plan = budget_plan(float(rng.uniform(0.05, 0.5)), toy_param_shapes(spec))
    return compress_delta(diff(base, tuned), default_manifest(), plan, task_tag=f"tag{rng.integers(5)}")


def _flip_random_blob_bit(path, rng):
    import json
    import struct

    raw = bytearray(path.read_bytes())
    _, _, header_len = struct.unpack_from("<4sIQ", bytes(raw))
    header = json.loads(bytes(raw[16 : 16 + header_len]))
    payload_start = 16 + header_len
    blobs = []
    for meta in header.get("tensors", []):
        blobs.append((meta["offset"], meta["byte_len"]))
    for entry in header.get("entries", []):
        for blob in entry["blobs"]:
            blobs.append((blob["offset"], blob["byte_len"]))
    blobs = [(off, ln) for off, ln in blobs if ln > 0]
    if not blobs:
        return False
    off, ln = blobs[int(rng.integers(len(blobs)))]
    byte_index = payload_start + off + int(rng.integers(ln))
    raw[byte_index] ^= 1 << int(rng.integers(8))
    path.write_bytes(bytes(raw))
    return True


def test_criterion_5_round_trips_and_corruption(tmp_path):
    with criterion(5, "container round-trips bit-exact; bit flips always detected", 30.0):
        rng = np.random.default_rng(99)
        for i in range(25):
            ckpt = _random_checkpoint(rng)
            path = tmp_path / f"c{i}.gltc"
            save_checkpoint(ckpt, path)
            loaded = load_checkpoint(path)
            assert bit_equal(loaded, ckpt)
            path2 = tmp_path / f"c{i}b.gltc"
            save_checkpoint(loaded, path2)
            assert path.read_bytes() == path2.read_bytes()
            if _flip_random_blob_bit(path, rng):
                with pytest.raises(IntegrityError):
                    load_checkpoint(path)
        for i in range(25):
            pack = _random_pack(rng)
            path = tmp_path / f"p{i}.skpk"
            save_pack(pack, path)
            loaded = load_pack(path)
            path2 = tmp_path / f"p{i}b.skpk"
            save_pack(loaded, path2)
            assert path.read_bytes() == path2.read_bytes()
            assert _flip_random_blob_bit(path, rng)
            with pytest.raises(IntegrityError):
                load_pack(path)


def test_criterion_6_graft_unload_fusion_identities():
    with criterion(6, "graft/unload/fusion identities bit-exact", 30.0):
        spec = ToySpec(seed=0)
        base, tuned = gen_toy(spec)
        dense = CompressionPlan(strategies={cls: DenseStrategy() for cls in ModuleClass})
        pack = compress_delta(diff(base, tuned), default_manifest(), dense, task_tag="all")
        assert bit_equal(apply_pack(base, pack, 1.0), tuned)

        router = TaskTable(table={"none": []})
        assert bit_equal(fuse(FusionRequest(base=base, packs={}, router=router, selector=Tag("none"))), base)

        # three packs over the same base, one per tag, plus an idle tag
        rng = np.random.default_rng(1)
        packs = {}
        table = {"idle": []}
        for i, tag in enumerate(("alpha", "beta", "gamma")):
            _, variant = gen_toy(ToySpec(seed=100 + i))
            packs[tag] = compress_delta(diff(base, variant), default_manifest(), dense, task_tag=tag)
            table[tag] = [tag]
        router = TaskTable(table=table)
        tags = list(table)
        snapshots = {tag: instantiate_task(base, packs, tag, router) for tag in tags}
        for trial in range(10):
            sequence = [tags[int(rng.integers(len(tags)))] for _ in range(int(rng.integers(1, 6)))]
            current = None
            for tag in sequence:
                current = instantiate_task(base, packs, tag, router)
            assert bit_equal(current, snapshots[sequence[-1]])
        fresh_base, _ = gen_toy(ToySpec(seed=0))
        assert bit_equal(base, fresh_base)


def test_criterion_7_toy_retention():
    with criterion(7, "retention <= 2% at the 10% budget; nonincreasing across budgets", 120.0):
        spec = ToySpec(seed=0)
        base, tuned = gen_toy(spec)
        delta = diff(base, tuned)
        shapes = toy_param_shapes(spec)
        manifest = default_manifest()
        deviations = []
        for budget in (0.02, 0.05, 0.10, 0.20):
            plan = budget_plan(budget, shapes)
            pack = compress_delta(delta, manifest, plan, task_tag="budget")
            report = eval_retention(base, tuned, pack, probe_count=64, seed=0)
            deviations.append(report.mean_deviation)
        # oracle run of this implementation: [0.5425, 0.1925, 0.0052, 0.0014]
        assert deviations[2] <= 0.02
        assert all(deviations[i + 1] <= deviations[i] for i in range(len(deviations) - 1))


def test_criterion_8_router():
    with criterion(8, "five-way router >= 95% accuracy; argmax rescaling invariance", 30.0):
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((5, 8)) * 5.0
        features, losses = [], []
        for c in range(5):
            features.append(centers[c] + rng.standard_normal((200, 8)))
            loss = np.ones((200, 5))
            loss[:, c] = 0.0
            losses.append(loss + 0.01 * rng.standard_normal((200, 5)))
        data = RouterTrainingSet(
            features=np.vstack(features), losses=np.vstack(losses),
            pack_ids=[f"p{i}" for i in range(5)],
        )
        _, accuracy = train_router(data, epochs=300, learning_rate=0.5)
        assert accuracy >= 0.95

        for seed in range(100):
            r = np.random.default_rng(seed)
            weights = r.standard_normal((4, 6))
            bias = r.standard_normal(4)
            feats = Features(r.standard_normal(6))
            scale = float(r.uniform(0.01, 100.0))
            ids = list("abcd")
            assert route(LinearClassifier(weights, bias, ids), feats) == route(
                LinearClassifier(scale * weights, scale * bias, ids), feats
            )


def test_criterion_9_objectives():
    with criterion(9, "loss fixtures exact", 1.0):
        assert abs(dpo_loss(PreferenceScores(0.0, 0.0, 0.0, 0.0, beta=3.0)) - math.log(2)) <= 1e-12
        assert abs(dpo_loss(PreferenceScores(2.0, 0.0, 0.0, 0.0, beta=1.0)) - 0.126928) <= 1e-6
        assert sft_nll([-0.5, -1.0]) == 0.75
        assert sft_nll([0.0, 0.0]) == 0.0
        with pytest.raises(ValueError):
            sft_nll([])
