import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skillpack.toy as toy_module
from skillpack.checkpoints import apply_pack, diff
from skillpack.classify import ModuleClass, classify, default_manifest
from skillpack.compress import compress_delta
from skillpack.packs import predict_stats
from skillpack.plans import BitGroup, CompressionPlan, DenseStrategy, plan_to_dict
from skillpack.toy import (
    DeltaRecipe,
    ToySpec,
    _knob_plan,
    budget_plan,
    eval_retention,
    gen_toy,
    retention_sweep,
    toy_forward,
    toy_param_shapes,
)


def bit_equal(a, b):
    return a.tensors.keys() == b.tensors.keys() and all(
        np.array_equal(a.tensors[k].view(np.uint32), b.tensors[k].view(np.uint32)) for k in a.tensors
    )


def dense_plan():
    return CompressionPlan(strategies={cls: DenseStrategy() for cls in ModuleClass})


def test_gen_toy_deterministic():
    b1, t1 = gen_toy(ToySpec(seed=5))
    b2, t2 = gen_toy(ToySpec(seed=5))
    assert bit_equal(b1, b2) and bit_equal(t1, t2)
    b3, _ = gen_toy(ToySpec(seed=6))
    assert not bit_equal(b1, b3)


def test_gen_toy_names_classify_per_manifest():
    spec = ToySpec()
    manifest = default_manifest()
    shapes = toy_param_shapes(spec)
    classes = {classify(n, manifest) for n in shapes}
    assert classes == set(ModuleClass)
    assert classify("model.embed_tokens.weight", manifest) is ModuleClass.EMBEDDING_OR_HEAD
    base, _ = gen_toy(spec)
    assert list(base.tensors) == list(shapes)
    assert all(base.tensors[n].shape == shapes[n] for n in shapes)


def test_gen_toy_sparse_only_recipe():
    spec = ToySpec(seed=1, recipe=DeltaRecipe(rank=0, sparse_nnz=16, noise_std=0.0))
    base, tuned = gen_toy(spec)
    d = diff(base, tuned)
    assert int(np.count_nonzero(d.deltas["model.embed_tokens.weight"])) == 16
    assert int(np.count_nonzero(d.deltas["lm_head.weight"])) == 16
    for name, delta in d.deltas.items():
        if "embed" not in name and "lm_head" not in name:
            assert np.all(delta == 0)


def test_gen_toy_lowrank_numerical_rank():
    base, tuned = gen_toy(ToySpec(seed=0))
    d = diff(base, tuned)
    for name, delta in d.deltas.items():
        if delta.ndim == 2 and "embed" not in name and "lm_head" not in name:
            sigma = np.linalg.svd(delta.astype(np.float64), compute_uv=False)
            assert int(np.sum(sigma > 1e-6 * sigma[0])) == 8


def test_gen_toy_diff_matches_direct_subtraction_bitwise():
    base, tuned = gen_toy(ToySpec(seed=2))
    d = diff(base, tuned)
    for name in base.tensors:
        direct = tuned.tensors[name].astype(np.float32) - base.tensors[name].astype(np.float32)
        assert np.array_equal(d.deltas[name].view(np.uint32), direct.view(np.uint32))


def test_gen_toy_noise_breaks_low_rank():
    spec = ToySpec(seed=3, recipe=DeltaRecipe(rank=4, sparse_nnz=0, noise_std=0.01))
    base, tuned = gen_toy(spec)
    d = diff(base, tuned)
    delta = d.deltas["model.layers.0.self_attn.q_proj.weight"].astype(np.float64)
    sigma = np.linalg.svd(delta, compute_uv=False)
    assert int(np.sum(sigma > 1e-6 * sigma[0])) > 4


def test_gen_toy_rejects_bad_dims():
    with pytest.raises(ValueError):
        ToySpec(hidden=0)
    with pytest.raises(ValueError):
        ToySpec(hidden=4, mlp_width=4, recipe=DeltaRecipe(rank=8))


# The odd spec has 1-D tensors, rows of 70,000 values (wider than a block of
# 2^16), tensors of 210,000 and 120,000 values (short tail blocks) and
# embedding/head spikes that fall in different blocks.
ODD_SPEC = ToySpec(seed=7, layers=1, hidden=3, mlp_width=70000, vocab=40000,
                   recipe=DeltaRecipe(rank=2, sparse_nnz=64, noise_std=2.0**-12))


@pytest.mark.parametrize("spec, digest", [
    (ToySpec(), "8740f3d8a2c1a050ede5d0fa36eafe5fabf06f8a239d217792015f78bbd3e3b4"),
    (ToySpec(seed=1, recipe=DeltaRecipe(rank=0, sparse_nnz=16, noise_std=0.0)),
     "eb1af4f8208d8b137555336b562cf16befd295d79fa0e50ffabcb3ca87ead29f"),
    (ToySpec(seed=3, recipe=DeltaRecipe(rank=4, sparse_nnz=64, noise_std=2.0**-10)),
     "80d2c51e88ebb5c8f6d576b681c652a16440b86593051b8a5e68a378ebd8e186"),
    (ODD_SPEC, "ce830b3dc28b5fe47774a22977940535eddda3547cc23a447a108024e779b775"),
], ids=["default", "sparse-only", "noise", "odd-shapes"])
def test_gen_toy_bytes_are_pinned(spec, digest):
    h = hashlib.sha256()
    for ckpt in gen_toy(spec):
        for name, tensor in ckpt.tensors.items():
            h.update(f"{name} {tensor.dtype.str} {tensor.shape}\n".encode())
            h.update(tensor.tobytes())
    assert h.hexdigest() == digest


def reference_toy(spec):
    """gen_toy's draws and arithmetic on whole float64 tensors: name -> (base, injected delta)."""
    def snap(values, grid):
        return np.round(values / grid) * grid

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x70F]))
    grid, recipe, manifest = 2.0**-16, spec.recipe, default_manifest()
    tensors = {}
    for name, shape in toy_param_shapes(spec).items():
        base = np.ones(shape)
        if len(shape) == 2:
            base = snap(rng.standard_normal(shape) * (1.0 / np.sqrt(spec.hidden)), grid) + 0.0
        delta = np.zeros(shape)
        sparse = classify(name, manifest) is ModuleClass.EMBEDDING_OR_HEAD
        if sparse and recipe.sparse_nnz > 0:
            positions = rng.choice(delta.size, size=min(recipe.sparse_nnz, delta.size), replace=False)
            spikes = rng.normal(0.0, 0.2, size=len(positions))
            codes = np.round(spikes / grid)
            delta.reshape(-1)[positions] = np.where(codes == 0, np.where(spikes >= 0, 1, -1), codes) * grid
        elif not sparse and len(shape) == 2 and recipe.rank > 0:
            left = snap(rng.standard_normal((shape[0], recipe.rank)) * 0.105, 2.0**-8)
            delta += left @ snap(rng.standard_normal((recipe.rank, shape[1])) * 0.105, 2.0**-8)
        if recipe.noise_std > 0:
            delta += snap(rng.normal(0.0, recipe.noise_std, size=shape), grid)
        tensors[name] = base, delta
    return tensors


@pytest.mark.parametrize("spec", [
    ToySpec(seed=1, recipe=DeltaRecipe(rank=0, sparse_nnz=0, noise_std=16.0)),
    ToySpec(seed=4, layers=1, hidden=8, mlp_width=20, vocab=30, recipe=DeltaRecipe(rank=3, sparse_nnz=40, noise_std=4.0)),
    ToySpec(seed=6, recipe=DeltaRecipe(rank=0, sparse_nnz=0, noise_std=0.0)),
], ids=["noise-16", "all-parts", "no-delta"])
def test_gen_toy_diff_recovers_the_injected_delta_bit_for_bit(spec):
    base, tuned = gen_toy(spec)
    d = diff(base, tuned)
    for name, (ref_base, ref_delta) in reference_toy(spec).items():
        assert np.array_equal(base.tensors[name].astype(np.float64), ref_base)
        assert np.array_equal(tuned.tensors[name].view(np.uint32), (ref_base + ref_delta).astype(np.float32).view(np.uint32))
        assert np.array_equal(d.deltas[name].astype(np.float64), ref_delta)


@pytest.mark.parametrize("noise_std, message", [
    (256.0, "the toy recipe's noise_std 256.0 puts a value of model.embed_tokens.weight at 2^8 or past it"),
    (1e300, "the toy recipe's noise_std overflows the float32 weights (overflow encountered in cast)"),
])
def test_gen_toy_refuses_noise_past_the_exact_float32_range(noise_std, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        gen_toy(ToySpec(seed=1, recipe=DeltaRecipe(rank=0, sparse_nnz=0, noise_std=noise_std)))


def test_gen_toy_working_memory_is_its_outputs_plus_a_block():
    spec = ToySpec(layers=2, hidden=256, mlp_width=704, vocab=2048,
                   recipe=DeltaRecipe(rank=16, sparse_nnz=256, noise_std=2.0**-10))
    tracemalloc.start()
    try:
        base, tuned = gen_toy(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(t.nbytes for ckpt in (base, tuned) for t in ckpt.tensors.values())
    assert outputs >= 8 * 2**20
    assert peak < outputs + 8 * 2**20


@pytest.mark.parametrize("field, value, bound", [
    ("seed", -1, ">= 0"), ("seed", 1.5, ">= 0"), ("hidden", 8.0, ">= 1"), ("layers", True, ">= 1"),
    ("vocab", np.int64(16), ">= 1"), ("mlp_width", 0, ">= 1"),
], ids=["seed-negative", "seed-float", "hidden-float", "layers-bool", "vocab-numpy", "mlp_width-zero"])
def test_toy_spec_requires_int_sizes_and_seed(field, value, bound):
    with pytest.raises(ValueError, match=re.escape(f"toy {field} must be an int {bound}, got {value!r}")):
        ToySpec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("rank", -1), ("rank", 2.0), ("rank", True), ("sparse_nnz", -1), ("sparse_nnz", 16.0),
    ("noise_std", float("nan")), ("noise_std", float("inf")), ("noise_std", -1.0), ("noise_std", True),
])
def test_delta_recipe_refuses_values_gen_toy_would_ignore(field, value):
    if field != "noise_std":
        message = f"recipe {field} must be an int >= 0, got {value!r}"
    elif value is True:
        message = "recipe noise_std True is not a number (an int or a float)"
    else:
        message = f"recipe noise_std must be a finite number >= 0, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        DeltaRecipe(**{field: value})


def test_toy_forward_deterministic_and_uses_weights():
    base, tuned = gen_toy(ToySpec(seed=0))
    tokens = np.array([1, 2, 3])
    y1 = toy_forward(base, tokens)
    y2 = toy_forward(base, tokens)
    assert np.array_equal(y1, y2)
    assert not np.allclose(toy_forward(tuned, tokens), y1)


@pytest.mark.parametrize("tokens", [[-1], [255.9], [256], [], [[1, 2]], [True, False], np.array([1, 2], np.float32)],
                         ids=["negative", "float", "past-vocab", "empty", "2-D", "bool", "float-array"])
def test_toy_forward_takes_only_tokens_in_range(tokens):
    base, _ = gen_toy(ToySpec(seed=0))
    assert base.tensors["model.embed_tokens.weight"].shape[0] == 256
    with pytest.raises(ValueError, match=re.escape("tokens must be a non-empty 1-D sequence of ints in [0, 256)")):
        toy_forward(base, tokens)


def test_toy_forward_takes_any_integer_dtype():
    base, _ = gen_toy(ToySpec(seed=0))
    want = toy_forward(base, [0, 7, 255])
    for dtype in (np.uint8, np.int32, np.uint64):
        assert np.array_equal(toy_forward(base, np.array([0, 7, 255], dtype)), want)


def test_eval_retention_dense_pack_is_zero():
    base, tuned = gen_toy(ToySpec(seed=0))
    pack = compress_delta(diff(base, tuned), default_manifest(), dense_plan())
    report = eval_retention(base, tuned, pack, probe_count=8, seed=0)
    assert report.deviations == [0.0] * 8
    assert report.mean_deviation == 0.0 and report.max_deviation == 0.0


def test_eval_retention_zero_delta_is_zero():
    base, _ = gen_toy(ToySpec(seed=1))
    pack = compress_delta(diff(base, base), default_manifest(), dense_plan())
    report = eval_retention(base, base, pack, probe_count=4, seed=3)
    assert report.mean_deviation == 0.0


def test_eval_retention_validates_probe_count():
    base, tuned = gen_toy(ToySpec(seed=0))
    pack = compress_delta(diff(base, tuned), default_manifest(), dense_plan())
    with pytest.raises(ValueError):
        eval_retention(base, tuned, pack, probe_count=0, seed=0)


@pytest.mark.parametrize("probe_count, seq_len", [(4, 0), (4, -1), (4, 8.0), (4, True), (2.0, 8), (np.int64(4), 8)])
def test_eval_retention_requires_int_probe_count_and_seq_len(probe_count, seq_len):
    """seq_len 0 would average empty slices into NaN deviations."""
    base, tuned = gen_toy(ToySpec(seed=0))
    pack = compress_delta(diff(base, tuned), default_manifest(), dense_plan())
    good_count = type(probe_count) is int and probe_count == 4  # then seq_len is the bad argument
    name, value = ("seq_len", seq_len) if good_count else ("probe_count", probe_count)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int >= 1, got {value!r}")):
        eval_retention(base, tuned, pack, probe_count=probe_count, seed=0, seq_len=seq_len)


@pytest.mark.parametrize("seed", [1.5, -1, True])
def test_eval_retention_requires_an_int_seed(seed):
    base, tuned = gen_toy(ToySpec(seed=0))
    pack = compress_delta(diff(base, tuned), default_manifest(), dense_plan())
    with pytest.raises(ValueError, match=f"eval seed must be an int >= 0, got {seed!r}"):
        eval_retention(base, tuned, pack, probe_count=2, seed=seed)


def test_eval_retention_deterministic():
    spec = ToySpec(seed=0)
    base, tuned = gen_toy(spec)
    plan = budget_plan(0.10, toy_param_shapes(spec))
    pack = compress_delta(diff(base, tuned), default_manifest(), plan)
    r1 = eval_retention(base, tuned, pack, probe_count=16, seed=9)
    r2 = eval_retention(base, tuned, pack, probe_count=16, seed=9)
    assert r1.deviations == r2.deviations


def test_budget_plan_hits_targets():
    spec = ToySpec()
    shapes = toy_param_shapes(spec)
    manifest = default_manifest()
    for budget in (0.02, 0.05, 0.10, 0.20):
        plan = budget_plan(budget, shapes)
        predicted = predict_stats(shapes, manifest, plan).total.ratio_total
        assert abs(predicted - budget) <= 0.2 * budget + 0.002


def test_budget_plan_rejects_nonpositive():
    with pytest.raises(ValueError):
        budget_plan(0.0, toy_param_shapes(ToySpec()))


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), True])
def test_budget_plan_rejects_a_budget_that_is_not_a_finite_positive_number(budget):
    if budget is True:
        message = "budget True is not a number (an int or a float)"
    else:
        message = f"budget must be a finite number greater than 0, got {budget!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        budget_plan(budget, toy_param_shapes(ToySpec()))


@pytest.mark.parametrize("budget", ["0.1", None])
def test_budget_plan_rejects_a_budget_that_is_not_a_number(budget):
    with pytest.raises(ValueError, match=re.escape(f"budget {budget!r} is not a number (an int or a float)")):
        budget_plan(budget, toy_param_shapes(ToySpec()))


KNOBS = np.linspace(0.004, 1.0, 500)


def knob_ratios(shapes):
    """min_dims and the predicted total ratio of every knob of the budget family."""
    manifest = default_manifest()
    min_dims = {ModuleClass.ATTENTION: 1, ModuleClass.MLP: 1}
    for name, shape in shapes.items():
        cls = classify(name, manifest)
        if len(shape) == 2 and cls in min_dims:
            min_dims[cls] = max(min_dims[cls], min(shape))
    plans = (_knob_plan(float(t), min_dims) for t in KNOBS)
    return min_dims, [predict_stats(shapes, manifest, plan).total.ratio_total for plan in plans]


SEARCH_SPECS = {
    "default": ToySpec(),
    "small": ToySpec(layers=1, hidden=128, mlp_width=352, vocab=1024),
    "mid": ToySpec(layers=1, hidden=512, mlp_width=1408, vocab=4096),
    "three-layer": ToySpec(layers=3, hidden=32, mlp_width=64, vocab=128),
}
SEARCH_BUDGETS = [*np.logspace(-4, np.log10(3), 80), 0.02, 0.05, 0.10, 0.20, 0.35, 0.50]


@pytest.mark.parametrize("key", sorted(SEARCH_SPECS))
def test_budget_plan_equals_the_full_scan(key):
    """The bisection returns the plan of a scan of all 500 knobs, the first of equally close ones."""
    shapes = toy_param_shapes(SEARCH_SPECS[key])
    min_dims, ratios = knob_ratios(shapes)
    for budget in SEARCH_BUDGETS:
        best = min(range(len(KNOBS)), key=lambda i: abs(ratios[i] - budget))
        expected = _knob_plan(float(KNOBS[best]), min_dims)
        assert plan_to_dict(budget_plan(float(budget), shapes)) == plan_to_dict(expected), budget


NAMES = ["model.embed_tokens.weight", "lm_head.weight", "model.layers.0.self_attn.q_proj.weight",
         "model.layers.1.self_attn.o_proj.weight", "model.layers.0.mlp.up_proj.weight",
         "model.layers.0.mlp.down_proj.weight", "model.norm.weight", "other.weight"]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from(NAMES), st.lists(st.integers(1, 300), min_size=1, max_size=2).map(tuple),
                       min_size=1))
def test_predicted_ratio_is_nondecreasing_along_the_knob_grid(shapes):
    _, ratios = knob_ratios(shapes)
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))


def test_budget_plan_searches_through_predict_stats(monkeypatch):
    calls = []
    monkeypatch.setattr(toy_module, "predict_stats", lambda *args: calls.append(1) or predict_stats(*args))
    shapes = toy_param_shapes(SEARCH_SPECS["small"])
    for budget in SEARCH_BUDGETS:
        calls.clear()
        budget_plan(float(budget), shapes)
        assert 1 <= len(calls) <= 25, budget


def test_diff_of_grafted_reproduces_pack_deltas_bitwise():
    base, tuned = gen_toy(ToySpec(seed=6))
    pack = compress_delta(diff(base, tuned), default_manifest(), dense_plan())
    grafted = apply_pack(base, pack, 1.0)
    rederived = diff(base, grafted)
    for name, entry in pack.entries.items():
        assert np.array_equal(
            rederived.deltas[name].view(np.uint32), entry.reconstruct().view(np.uint32)
        )


def test_default_plan_actual_within_predicted_half_point():
    spec = ToySpec(seed=0)
    base, tuned = gen_toy(spec)
    from skillpack.plans import default_plan

    plan = default_plan()
    manifest = default_manifest()
    pack = compress_delta(diff(base, tuned), manifest, plan)
    predicted = predict_stats(toy_param_shapes(spec), manifest, plan)
    assert abs(pack.stats.total.ratio_total - predicted.total.ratio_total) <= 0.005


def test_pipeline_end_to_end_deterministic(tmp_path):
    from skillpack.checkpoints import save_checkpoint
    from skillpack.packs import save_pack

    spec = ToySpec(seed=4)
    shapes = toy_param_shapes(spec)
    plan = budget_plan(0.10, shapes)
    outputs = []
    for run in range(2):
        base, tuned = gen_toy(spec)
        pack = compress_delta(diff(base, tuned), default_manifest(), plan, task_tag="run")
        pack_path = tmp_path / f"p{run}.skpk"
        save_pack(pack, pack_path)
        grafted = apply_pack(base, pack, 1.0)
        ckpt_path = tmp_path / f"g{run}.gltc"
        save_checkpoint(grafted, ckpt_path)
        report = eval_retention(base, tuned, pack, probe_count=8, seed=4)
        outputs.append((pack_path.read_bytes(), ckpt_path.read_bytes(), report.deviations))
    assert outputs[0] == outputs[1]


def reference_forward(ckpt, tokens):
    """The original per-token forward: re-casts every weight for every token."""
    t = ckpt.tensors
    embed = t["model.embed_tokens.weight"].astype(np.float64)
    head = t["lm_head.weight"].astype(np.float64)
    ln_final = t["model.norm.weight"].astype(np.float64)
    n_layers = 0
    while f"model.layers.{n_layers}.input_layernorm.weight" in t:
        n_layers += 1

    total = np.zeros(head.shape[0])
    for token in np.asarray(tokens, dtype=np.int64):
        h = embed[token].copy()
        for i in range(n_layers):
            prefix = f"model.layers.{i}"
            hn = t[f"{prefix}.input_layernorm.weight"].astype(np.float64) * h
            mixed = (
                t[f"{prefix}.self_attn.q_proj.weight"].astype(np.float64) @ hn
                + t[f"{prefix}.self_attn.k_proj.weight"].astype(np.float64) @ hn
                + t[f"{prefix}.self_attn.v_proj.weight"].astype(np.float64) @ hn
            )
            h = h + t[f"{prefix}.self_attn.o_proj.weight"].astype(np.float64) @ np.tanh(mixed)
            hm = t[f"{prefix}.post_attention_layernorm.weight"].astype(np.float64) * h
            gate = np.tanh(t[f"{prefix}.mlp.gate_proj.weight"].astype(np.float64) @ hm)
            up = np.tanh(t[f"{prefix}.mlp.up_proj.weight"].astype(np.float64) @ hm)
            h = h + t[f"{prefix}.mlp.down_proj.weight"].astype(np.float64) @ (gate * up)
        total += head @ (ln_final * h)
    return total / len(tokens)


def reference_deviations(base, tuned, pack, probe_count, seed, seq_len):
    """The original probe-by-probe eval_retention loop over reference_forward."""
    compressed = apply_pack(base, pack, scale=1.0)
    vocab = base.tensors["model.embed_tokens.weight"].shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A]))
    deviations = []
    for _ in range(probe_count):
        tokens = rng.integers(0, vocab, size=seq_len)
        y_full = reference_forward(tuned, tokens)
        y_comp = reference_forward(compressed, tokens)
        denom = float(np.linalg.norm(y_full))
        num = float(np.linalg.norm(y_comp - y_full))
        deviations.append(0.0 if num == 0.0 else (np.inf if denom == 0.0 else num / denom))
    return deviations


@pytest.mark.parametrize("spec", [ToySpec(seed=0), ToySpec(seed=1, layers=1, hidden=32, mlp_width=48, vocab=100)])
def test_toy_forward_matches_per_token_reference(spec):
    base, tuned = gen_toy(spec)
    rng = np.random.default_rng(5)
    for seq_len in (1, 3, 8, 17):
        tokens = rng.integers(0, spec.vocab, size=seq_len)
        for ckpt in (base, tuned):
            want = reference_forward(ckpt, tokens)
            got = toy_forward(ckpt, tokens)
            assert got.shape == want.shape == (spec.vocab,)
            # float64 throughout; only the summation order of the matrix products differs
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("probe_count", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("seq_len", [3, 8])
def test_eval_retention_matches_per_probe_reference(probe_count, seq_len):
    spec = ToySpec(seed=0)
    base, tuned = gen_toy(spec)
    pack = compress_delta(diff(base, tuned), default_manifest(), budget_plan(0.05, toy_param_shapes(spec)))
    report = eval_retention(base, tuned, pack, probe_count=probe_count, seed=11, seq_len=seq_len)
    want = reference_deviations(base, tuned, pack, probe_count, seed=11, seq_len=seq_len)
    assert len(report.deviations) == probe_count
    assert min(want) > 0.0
    np.testing.assert_allclose(report.deviations, want, rtol=1e-9, atol=0.0)


@pytest.fixture(scope="module")
def budget_sweep():
    """The small toy (perfbench's SMALL dims and RECIPE, seed 4242) and its four budget packs."""
    spec = ToySpec(seed=4242, layers=1, hidden=128, mlp_width=352, vocab=1024,
                   recipe=DeltaRecipe(rank=16, sparse_nnz=256, noise_std=2.0**-10))
    base, tuned = gen_toy(spec)
    delta = diff(base, tuned)
    packs = [compress_delta(delta, default_manifest(), budget_plan(budget, toy_param_shapes(spec)))
             for budget in (0.02, 0.05, 0.10, 0.20)]
    return base, tuned, packs


def report_bits(report):
    return [float(x).hex() for x in report.deviations], [
        float(getattr(report, f)).hex() for f in ("mean_deviation", "max_deviation", "storage_ratio_total")]


def test_retention_sweep_equals_one_eval_retention_per_pack_bit_for_bit(budget_sweep):
    base, tuned, packs = budget_sweep
    singles = [eval_retention(base, tuned, pack, probe_count=40, seed=3, seq_len=5) for pack in packs]
    sweep = retention_sweep(base, tuned, iter(packs), probe_count=40, seed=3, seq_len=5)
    assert [report_bits(r) for r in sweep] == [report_bits(r) for r in singles]
    assert len({r.mean_deviation for r in sweep}) == 4
    assert retention_sweep(base, tuned, [], probe_count=40) == []


def test_retention_sweep_runs_the_tuned_forward_once_per_probe_block(budget_sweep, monkeypatch):
    base, tuned, packs = budget_sweep
    calls, forward = [], toy_module._mean_logits

    def counted(tensors, tokens):
        calls.append(tensors is tuned.tensors)
        return forward(tensors, tokens)

    monkeypatch.setattr(toy_module, "_mean_logits", counted)
    retention_sweep(base, tuned, packs, probe_count=40)  # blocks of 16, 16 and 8 probes
    assert calls.count(True) == 3 and calls.count(False) == 12


# Plans the per-call-classifying budget search returned, per budget:
# (alpha, value_bits, MLP rank, MLP bits, attention rank, attention bits).
PINNED_PLANS = {
    "default": (ToySpec(), {
        0.02: (0.004, 4, 1, 2, 1, 2),
        0.05: (0.00403450382930189, 4, 6, 4, 6, 4),
        0.10: (0.008678173180027388, 4, 8, 8, 8, 8),
        0.20: (0.02543755387327761, 6, 14, 10, 14, 10),
        0.35: (0.0726729161730274, 8, 24, 10, 24, 10),
    }),
    "small": (ToySpec(layers=1, hidden=128, mlp_width=352, vocab=1024), {
        0.02: (0.004, 4, 6, 3, 6, 3),
        0.05: (0.0071721312283886405, 4, 15, 6, 15, 6),
        0.10: (0.01992152002602399, 6, 26, 8, 26, 8),
        0.20: (0.05292784347050814, 8, 42, 10, 42, 10),
        0.35: (0.1305512837297842, 8, 65, 10, 65, 10),
    }),
}


@pytest.mark.parametrize("key", sorted(PINNED_PLANS))
def test_budget_plan_pinned(key):
    spec, expected = PINNED_PLANS[key]
    shapes = toy_param_shapes(spec)
    for budget, (alpha, value_bits, mlp_rank, mlp_bits, attn_rank, attn_bits) in expected.items():
        s = budget_plan(budget, shapes).strategies
        emb, mlp, attn = s[ModuleClass.EMBEDDING_OR_HEAD], s[ModuleClass.MLP], s[ModuleClass.ATTENTION]
        assert (emb.alpha, emb.value_bits) == (alpha, value_bits), budget
        assert (mlp.rank, mlp.groups) == (mlp_rank, (BitGroup(0, mlp_rank, mlp_bits),)), budget
        assert (attn.rank, attn.groups) == (attn_rank, (BitGroup(0, attn_rank, attn_bits),)), budget
        assert isinstance(s[ModuleClass.PASSTHROUGH], DenseStrategy)
