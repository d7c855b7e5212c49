"""Module-aware adaptive compression of delta maps into SkillPacks.

Dispatch by module class: embedding/head deltas are magnitude-pruned and
their values quantized with per-row scales; MLP and attention deltas are
truncated-SVD factorized and the factors quantized group-wise with
calibrated (GPTQ-style) quantization; everything else, and every tensor
that is not 2-D or is empty, is stored dense and exact.

For a factorized delta U diag(sigma) V^T, the V^T rows of each group are
quantized against the calibration activations x, then the U columns of the
group are quantized against sigma_g * V^T_g * x, so the second step sees
the quantization error of the first. Sigma stays unquantized at 32 bits.
The V^T side's inverse-Hessian factor depends only on x, so it is computed
once per calibration matrix and shared by every group, and by every delta
of the same input width under synthetic calibration.
"""

from __future__ import annotations

import numpy as np

from .checkpoints import DeltaMap, load_checkpoint
from .classify import ClassificationManifest, ModuleClass, classify
from .packs import (
    CompressedEntry,
    DenseEntry,
    PrunedSparseEntry,
    QuantizedSvdEntry,
    SkillPack,
)
from .plans import (
    CompressionPlan,
    DenseStrategy,
    FileCalibration,
    PruneStrategy,
    SvdQuantStrategy,
    clip_groups,
    plan_to_dict,
    strategy_for,
)
from .quantize import divisors, encode, hessian_factor, quantize_gptq, rtn_scales
from .tensors import check_float32, check_matrix, magnitude_prune, svd, truncate


def synthetic_calibration(seed: int, width: int, samples: int) -> np.ndarray:
    """Standard-normal activations (width x samples), shared per input width."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, width]))
    return rng.standard_normal((width, samples))


def _calibration(plan: CompressionPlan):
    """`(name, width) -> (x, factor)`: a tensor's calibration activations
    (width x samples) and their V-side `hessian_factor`.

    Synthetic activations are shared per input width, so each width's pair
    is computed once. File activations are per tensor name, and the names
    of a delta map are unique, so nothing is kept.
    """
    spec = plan.calibration
    if isinstance(spec, FileCalibration):
        tensors = load_checkpoint(spec.path).tensors

        def from_file(name: str, width: int) -> tuple[np.ndarray, np.ndarray | None]:
            if name not in tensors:
                raise KeyError(f"calibration file has no activations for {name!r}")
            x = np.asarray(check_matrix(tensors[name], "calibration"), dtype=np.float64)  # `_compress` names the delta
            if x.shape[0] != width:
                raise ValueError(f"calibration must be ({width} x samples), got {x.shape}")
            return x, hessian_factor(x, plan.damping)

        return from_file
    by_width: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}

    def synthetic(name: str, width: int) -> tuple[np.ndarray, np.ndarray | None]:
        if width not in by_width:
            x = synthetic_calibration(spec.seed, width, spec.samples)
            by_width[width] = (x, hessian_factor(x, plan.damping))
        return by_width[width]

    return synthetic


def _compress_prune(delta: np.ndarray, mclass: ModuleClass, strategy: PruneStrategy) -> PrunedSparseEntry:
    sparse = magnitude_prune(delta, strategy.alpha)
    scales = rtn_scales(delta, strategy.value_bits, axis="row")
    codes = encode(sparse.values, divisors(scales)[sparse.indices // delta.shape[1]], strategy.value_bits)
    return PrunedSparseEntry(
        shape=tuple(delta.shape),
        mclass=mclass,
        alpha=strategy.alpha,
        value_bits=strategy.value_bits,
        indices=sparse.indices,
        codes=codes,
        scales=scales,
    )


def _compress_svd(
    delta: np.ndarray,
    mclass: ModuleClass,
    strategy: SvdQuantStrategy,
    x: np.ndarray,
    damping: float,
    factor: np.ndarray | None,
) -> QuantizedSvdEntry:
    factors = truncate(svd(delta), strategy.rank)
    groups = clip_groups(strategy.groups, factors.rank)
    widths = [g.bits for g in groups for _ in range(g.length)]
    qv = quantize_gptq(factors.vt, x, widths, damping=damping, scale_axis="row", factor=factor)
    vt_hat = qv.dequantize()
    u_parts = []
    for g in groups:
        u_inputs = factors.sigma[g.begin : g.end, None] * (vt_hat[g.begin : g.end] @ x)
        u_parts.append(quantize_gptq(factors.u[:, g.begin : g.end], u_inputs, g.bits, damping=damping, scale_axis="column"))
    return QuantizedSvdEntry(
        shape=tuple(delta.shape),
        mclass=mclass,
        rank=factors.rank,
        groups=groups,
        sigma=factors.sigma,
        u_codes=np.hstack([q.codes for q in u_parts]),
        u_scales=np.concatenate([q.scales for q in u_parts]),
        v_codes=qv.codes,
        v_scales=qv.scales,
    )


def _compress(name: str, delta: np.ndarray, mclass: ModuleClass, plan: CompressionPlan, calibration) -> CompressedEntry:
    """`compress_entry` with a `_calibration(plan)` lookup, which only an SVD strategy consults."""
    delta = np.asarray(delta)
    strategy = strategy_for(plan, mclass, delta.shape)
    if isinstance(strategy, DenseStrategy) or delta.dtype.itemsize > 4:  # a narrower one is in float32's range
        values = check_float32(delta, f"delta {name!r}")
    try:
        if isinstance(strategy, DenseStrategy):  # the entry owns its values: a float32 delta is copied
            return DenseEntry(shape=tuple(delta.shape), mclass=mclass, values_checked=True,
                              values=delta.astype(np.float32) if values is delta else values)
        if isinstance(strategy, PruneStrategy):
            return _compress_prune(delta, mclass, strategy)
        x, factor = calibration(name, delta.shape[1])
        return _compress_svd(delta, mclass, strategy, x, plan.damping, factor)
    except ValueError as exc:  # such as a NaN in a float32 delta, or a singular value past the float32 range
        raise ValueError(f"delta {name!r}: {exc}") from None


def compress_entry(name: str, delta: np.ndarray, mclass: ModuleClass, plan: CompressionPlan) -> CompressedEntry:
    """Compress one delta tensor according to its class strategy.

    Tensors that are not 2-D or are empty are stored dense (`strategy_for`). A float16
    delta needs no promotion: the dense path stores float32, `tensors.svd` factors a
    float32 or float16 delta in float32 with float64-refined sigma (a float64 one in
    float64), and the quantizers compute in float64. Every class refuses the same deltas by
    the float32 rule: `tensors.check_float32` checks a dense-stored or float64
    delta, and `check_matrix` in the operator a float32 or float16 one. Every
    ValueError starts with `delta '<name>'`. The entry calibrates from
    `plan.calibration`, as `compress_delta` does; with a `FileCalibration`
    plan the file is opened even for a dense or pruned tensor.
    """
    return _compress(name, delta, mclass, plan, _calibration(plan))


def compress_delta(
    deltas: DeltaMap,
    manifest: ClassificationManifest,
    plan: CompressionPlan,
    task_tag: str = "",
) -> SkillPack:
    """Compress every delta tensor into one SkillPack.

    Deterministic given (deltas, manifest, plan): each entry depends only
    on its own tensor, the plan, and the calibration seed or file.
    """
    calibration = _calibration(plan)
    entries = {name: _compress(name, delta, classify(name, manifest), plan, calibration)
               for name, delta in deltas.deltas.items()}
    return SkillPack(
        base_model_id=deltas.base_id,
        tuned_model_id=deltas.tuned_id,
        task_tag=task_tag,
        plan_snapshot=plan_to_dict(plan),
        entries=entries,
    )
