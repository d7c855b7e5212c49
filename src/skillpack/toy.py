"""Synthetic toy models and the retention evaluator.

`gen_toy` builds a (base, tuned) checkpoint pair with a known injected
delta: sparse spikes in embedding/head matrices, low-rank bumps in
attention and MLP matrices, optional dense Gaussian noise. Parameter names
follow decoder-transformer conventions so the default manifest classifies
them the way a real model's tensors would be.

`retention_sweep` converts weight-space compression error of packs into
output-space deviation with a fixed forward map (`eval_retention` takes
one pack). The map is not a faithful transformer, just a deterministic
pipeline that touches every parameter:

    h = embed[token]
    per layer:  hn = ln_in * h
                h  = h + Wo @ tanh(Wq hn + Wk hn + Wv hn)
                hm = ln_post * h
                h  = h + Wdown @ (tanh(Wgate hm) * tanh(Wup hm))
    logits = lm_head @ (ln_final * h)

and the probe output is the mean logit vector over a token sequence.
Probes run batched: `retention_sweep` draws each probe's tokens in turn
from its seeded generator, then pushes blocks of `_PROBE_BLOCK` probes
through the map as (tokens x width) matrix products, casting each weight
to float64 only while that block uses it. Because the head is linear it
is applied once to the mean hidden state of each probe. The result equals
the token-by-token map up to floating-point rounding. A sweep runs the
tuned model once on its probes, whatever the number of packs it scores.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .checkpoints import Checkpoint, apply_pack, check_like
from .classify import ModuleClass, classify, default_manifest
from .packs import SkillPack, predict_stats
from .plans import BitGroup, CompressionPlan, DenseStrategy, PruneStrategy, SvdQuantStrategy
from .tensors import check_indices, check_int, check_number, frobenius_rel_err, overflow_checked

# Every toy value lives on a power-of-two grid: base weights, sparse spikes
# and noise are multiples of 2^-16, low-rank factors are multiples of 2^-8
# so their product is again a 2^-16 multiple. All magnitudes stay below 8,
# so base + delta is exact in float32 and diff(base, tuned) recovers the
# injected delta bit-for-bit; zero-delta elements never move at all.
_GRID = 2.0**-16
_FACTOR_GRID = 2.0**-8
_FACTOR_STD = 0.105  # low-rank factor scale, ~unit Frobenius norm per delta
_SPARSE_STD = 0.2  # magnitude of injected embedding/head spikes


@dataclass(frozen=True)
class DeltaRecipe:
    """What gets injected into the tuned checkpoint."""

    rank: int = 8  # low-rank delta rank per attention/MLP matrix (0 = none)
    sparse_nnz: int = 16  # nonzeros per embedding/head matrix (0 = none)
    noise_std: float = 0.0  # dense Gaussian noise on every delta

    def __post_init__(self):
        check_int(self.rank, "recipe rank", 0)
        check_int(self.sparse_nnz, "recipe sparse_nnz", 0)
        check_number(self.noise_std, "recipe noise_std", 0)


@dataclass(frozen=True)
class ToySpec:
    seed: int = 0
    layers: int = 2
    hidden: int = 64
    mlp_width: int = 128
    vocab: int = 256
    recipe: DeltaRecipe = field(default_factory=DeltaRecipe)

    def __post_init__(self):
        check_int(self.seed, "toy seed", 0)
        for name in ("layers", "hidden", "mlp_width", "vocab"):
            check_int(getattr(self, name), f"toy {name}", 1)
        if self.recipe.rank > min(self.hidden, self.mlp_width):
            raise ValueError("recipe rank exceeds the smallest matrix dimension")


def toy_param_shapes(spec: ToySpec) -> dict[str, tuple[int, ...]]:
    """Names and shapes of every toy parameter, in checkpoint order."""
    d, m, v = spec.hidden, spec.mlp_width, spec.vocab
    shapes: dict[str, tuple[int, ...]] = {"model.embed_tokens.weight": (v, d)}
    for i in range(spec.layers):
        prefix = f"model.layers.{i}"
        shapes[f"{prefix}.input_layernorm.weight"] = (d,)
        for proj in ("q_proj", "k_proj", "v_proj", "o_proj"):
            shapes[f"{prefix}.self_attn.{proj}.weight"] = (d, d)
        shapes[f"{prefix}.post_attention_layernorm.weight"] = (d,)
        shapes[f"{prefix}.mlp.gate_proj.weight"] = (m, d)
        shapes[f"{prefix}.mlp.up_proj.weight"] = (m, d)
        shapes[f"{prefix}.mlp.down_proj.weight"] = (d, m)
    shapes["model.norm.weight"] = (d,)
    shapes["lm_head.weight"] = (v, d)
    return shapes


def _snap(values: np.ndarray, grid: float) -> np.ndarray:
    return np.round(values / grid) * grid


@overflow_checked("the toy recipe's noise_std overflows the float32 weights")
def gen_toy(spec: ToySpec) -> tuple[Checkpoint, Checkpoint]:
    """Deterministic (base, tuned) pair; tuned = base + the recipe's delta.

    Base 2-D weights are standard normal scaled by 1/sqrt(hidden); norm
    weights start at one. Values are grid-snapped (see module constants) so
    the injected delta is exactly representable: diff(base, tuned) equals
    it bit-for-bit and a dense graft reproduces tuned exactly.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x70F]))
    scale = 1.0 / np.sqrt(spec.hidden)
    recipe = spec.recipe
    manifest = default_manifest()

    base_tensors: dict[str, np.ndarray] = {}
    tuned_tensors: dict[str, np.ndarray] = {}
    for name, shape in toy_param_shapes(spec).items():
        if len(shape) == 1:
            base = np.ones(shape, dtype=np.float64)
        else:
            # + 0.0 flushes -0.0 so zero-delta positions stay bit-identical
            base = _snap(rng.standard_normal(shape) * scale, _GRID) + 0.0

        delta = np.zeros(shape, dtype=np.float64)
        sparse = classify(name, manifest) is ModuleClass.EMBEDDING_OR_HEAD
        if sparse and recipe.sparse_nnz > 0:
            flat = delta.reshape(-1)
            positions = rng.choice(flat.size, size=min(recipe.sparse_nnz, flat.size), replace=False)
            spikes = rng.normal(0.0, _SPARSE_STD, size=len(positions))
            codes = np.round(spikes / _GRID)
            codes = np.where(codes == 0, np.where(spikes >= 0, 1, -1), codes)  # keep every spike nonzero
            flat[positions] = codes * _GRID
        elif not sparse and len(shape) == 2 and recipe.rank > 0:
            left = _snap(rng.standard_normal((shape[0], recipe.rank)) * _FACTOR_STD, _FACTOR_GRID)
            right = _snap(rng.standard_normal((recipe.rank, shape[1])) * _FACTOR_STD, _FACTOR_GRID)
            delta += left @ right
        if recipe.noise_std > 0:
            delta += _snap(rng.normal(0.0, recipe.noise_std, size=shape), _GRID)

        base_tensors[name] = base.astype(np.float32)
        tuned_tensors[name] = (base + delta).astype(np.float32)

    base_id = f"toy-{spec.seed}-L{spec.layers}-d{spec.hidden}"
    return (
        Checkpoint(model_id=base_id, tensors=base_tensors),
        Checkpoint(model_id=base_id, tensors=tuned_tensors),
    )


_PROBE_BLOCK = 16  # probes per batched forward; bounds the float64 activations


def _tensor(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise ValueError(f"the toy forward needs tensor {name!r}, which the checkpoint lacks")
    return tensors[name]


def _mean_logits(tensors: dict[str, np.ndarray], tokens: np.ndarray) -> np.ndarray:
    """Mean logit vector per probe for a (probes x seq_len) int token batch.

    Each weight is cast to float64 when the forward reaches it and dropped
    after use, so no float64 copy of the whole checkpoint is ever held.
    The head is linear, so it is applied to the mean hidden state: the
    same mean logits up to rounding, without a probes x seq x vocab array.
    """
    def weight(name: str) -> np.ndarray:
        return _tensor(tensors, name).astype(np.float64)

    probes, seq_len = tokens.shape
    h = _tensor(tensors, "model.embed_tokens.weight")[tokens.reshape(-1)].astype(np.float64)
    i = 0
    while f"model.layers.{i}.input_layernorm.weight" in tensors:
        prefix = f"model.layers.{i}"
        hn = weight(f"{prefix}.input_layernorm.weight") * h
        mixed = (
            hn @ weight(f"{prefix}.self_attn.q_proj.weight").T
            + hn @ weight(f"{prefix}.self_attn.k_proj.weight").T
            + hn @ weight(f"{prefix}.self_attn.v_proj.weight").T
        )
        h = h + np.tanh(mixed) @ weight(f"{prefix}.self_attn.o_proj.weight").T
        hm = weight(f"{prefix}.post_attention_layernorm.weight") * h
        gate = np.tanh(hm @ weight(f"{prefix}.mlp.gate_proj.weight").T)
        up = np.tanh(hm @ weight(f"{prefix}.mlp.up_proj.weight").T)
        h = h + (gate * up) @ weight(f"{prefix}.mlp.down_proj.weight").T
        i += 1
    mean_h = h.reshape(probes, seq_len, h.shape[1]).mean(axis=1)
    return (weight("model.norm.weight") * mean_h) @ weight("lm_head.weight").T


def toy_forward(ckpt: Checkpoint, tokens: np.ndarray) -> np.ndarray:
    """Mean logit vector of the fixed forward map over tokens, a non-empty 1-D sequence of ints in [0, vocab)."""
    tokens = check_indices(tokens, "tokens", _tensor(ckpt.tensors, "model.embed_tokens.weight").shape[0])
    return _mean_logits(ckpt.tensors, tokens.astype(np.int64)[None])[0]


@dataclass
class RetentionReport:
    deviations: list[float]
    mean_deviation: float
    max_deviation: float
    storage_ratio_total: float


def retention_sweep(base: Checkpoint, tuned: Checkpoint, packs: Iterable[SkillPack], probe_count: int = 64,
                    seed: int = 0, seq_len: int = 8) -> list[RetentionReport]:
    """Relative output deviation of (base + pack) against the tuned model, for each pack in turn.

    Probes are random token sequences; each deviation is
    ||y_compressed - y_tuned||_2 / ||y_tuned||_2 on the mean logit vector. Base and
    tuned must be like (`checkpoints.check_like`) and hold every tensor the map needs.
    Probes and tuned outputs are made once per sweep, so each report equals the pack's
    `eval_retention` bit for bit; one pack's composed checkpoint is alive at a time.
    """
    check_int(probe_count, "probe_count", 1)
    check_int(seq_len, "seq_len", 1)
    check_int(seed, "eval seed", 0)
    check_like(base, tuned)
    vocab = _tensor(base.tensors, "model.embed_tokens.weight").shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A]))
    tokens = np.stack([rng.integers(0, vocab, size=seq_len) for _ in range(probe_count)])
    blocks = [tokens[start : start + _PROBE_BLOCK] for start in range(0, probe_count, _PROBE_BLOCK)]
    references = [_mean_logits(tuned.tensors, block) for block in blocks]

    def score(pack: SkillPack) -> RetentionReport:
        compressed = apply_pack(base, pack, scale=1.0).tensors
        deviations = [frobenius_rel_err(y_full, y_comp) for block, y_fulls in zip(blocks, references)
                      for y_full, y_comp in zip(y_fulls, _mean_logits(compressed, block))]
        return RetentionReport(deviations, float(np.mean(deviations)), float(np.max(deviations)),
                               pack.stats.total.ratio_total)

    return [score(pack) for pack in packs]


def eval_retention(base: Checkpoint, tuned: Checkpoint, pack: SkillPack, probe_count: int = 64, seed: int = 0,
                   seq_len: int = 8) -> RetentionReport:
    """`retention_sweep` of the one pack."""
    return retention_sweep(base, tuned, [pack], probe_count, seed, seq_len)[0]


# --------------------------------------------------------------------------
# Budgeted plans
# --------------------------------------------------------------------------

def _knob_plan(t: float, min_dims: dict[ModuleClass, int]) -> CompressionPlan:
    """One member of the budget family.

    Every knob (retention ratio, SVD rank, factor bits, value bits) is
    nondecreasing in t, so a larger budget never compresses harder
    anywhere and retention improves monotonically with spend. SVD ranks
    scale the largest min(shape) of each class's 2-D tensors, `min_dims`.
    """
    svd_bits = (2, 3, 4, 6, 8, 10)[bisect_right((0.04, 0.065, 0.09, 0.12, 0.2), t)]
    value_bits = (4, 6, 8)[bisect_right((0.15, 0.25), t)]
    alpha = float(min(1.0, max(0.004, 0.5 * t * t)))

    def svd_strategy(limit: int) -> SvdQuantStrategy:
        rank = max(1, min(limit, round(t * limit)))
        return SvdQuantStrategy(rank=rank, groups=(BitGroup(0, rank, svd_bits),))

    return CompressionPlan(
        strategies={
            ModuleClass.EMBEDDING_OR_HEAD: PruneStrategy(alpha=alpha, value_bits=value_bits),
            ModuleClass.MLP: svd_strategy(min_dims[ModuleClass.MLP]),
            ModuleClass.ATTENTION: svd_strategy(min_dims[ModuleClass.ATTENTION]),
            ModuleClass.PASSTHROUGH: DenseStrategy(),
        },
    )


def budget_plan(budget: float, shapes: dict[str, tuple[int, ...]]) -> CompressionPlan:
    """Plan from a one-knob family whose predicted total ratio best matches `budget`.

    The family is `_knob_plan` at 500 knobs t from 0.004 to 1; of equally close
    plans the smallest knob wins. Bisection through `predict_stats` finds it:
    alpha, the SVD ranks and both bit widths are nondecreasing in t, and so are
    the retained count, clamped rank and bits per value they give, so the
    predicted ratio is nondecreasing in t for any shapes. Its SVD factors round
    to nearest unless compress is given activations, and then go through GPTQ.
    """
    check_number(budget, "budget", 0, above=True)
    manifest = default_manifest()
    min_dims = {ModuleClass.ATTENTION: 1, ModuleClass.MLP: 1}
    for name, shape in shapes.items():
        cls = classify(name, manifest)
        if len(shape) == 2 and cls in min_dims:
            min_dims[cls] = max(min_dims[cls], min(shape))
    grid = np.linspace(0.004, 1.0, 500)

    def ratio(i: int) -> float:
        return predict_stats(shapes, manifest, _knob_plan(float(grid[i]), min_dims)).total.ratio_total

    above = bisect_left(range(len(grid)), budget, key=ratio)  # the first knob reaching the budget, or len(grid)
    below = bisect_left(range(above), ratio(above - 1), key=ratio) if above else 0  # first knob of the plateau under it
    best = min((below, min(above, len(grid) - 1)), key=lambda i: abs(ratio(i) - budget))
    return _knob_plan(float(grid[best]), min_dims)
