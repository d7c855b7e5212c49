"""Module-aware adaptive compression of delta maps into SkillPacks.

Dispatch by module class: embedding/head deltas are magnitude-pruned and
their values quantized with per-row scales; MLP and attention deltas are
truncated-SVD factorized and the factors quantized group-wise; everything
else, and every tensor that is not 2-D or is empty, is stored dense and
exact.

A factorized delta U diag(sigma) V^T keeps sigma unquantized at 32 bits.
Without a calibration file, V^T is rounded to nearest (RTN) per row and U
per column, each vector at its group's width. With a `FileCalibration`,
GPTQ quantizes them against the delta's activations x: the V^T rows of
every group in one sweep, then the U columns of each group against
sigma_g * V^T_g * x, so the second step sees the quantization error of the
first. GPTQ beats RTN only on correlated activations, such as those of a
real model (see `quantize`).
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
    PruneStrategy,
    SvdQuantStrategy,
    clip_groups,
    plan_to_dict,
    strategy_for,
)
from .quantize import divisors, encode, quantize_gptq, quantize_rtn, rtn_scales
from .tensors import check_float32, check_matrix, magnitude_prune, svd, truncate


def _calibration(plan: CompressionPlan):
    """`(name, width) -> x`: a tensor's calibration activations (width x samples),
    or None when the plan has no calibration file. File activations are per tensor
    name, and the names of a delta map are unique, so nothing is kept."""
    if plan.calibration is None:
        return lambda name, width: None
    tensors = load_checkpoint(plan.calibration.path).tensors

    def from_file(name: str, width: int) -> np.ndarray:
        if name not in tensors:
            raise KeyError(f"calibration file has no activations for {name!r}")
        x = np.asarray(check_matrix(tensors[name], "calibration"), dtype=np.float64)  # `_compress` names the delta
        if x.shape[0] != width:
            raise ValueError(f"calibration must be ({width} x samples), got {x.shape}")
        return x

    return from_file


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
    x: np.ndarray | None,
    damping: float,
) -> QuantizedSvdEntry:
    factors = truncate(svd(delta), strategy.rank)
    groups = clip_groups(strategy.groups, factors.rank)
    widths = [g.bits for g in groups for _ in range(g.length)]
    if x is None:  # no calibration file: both sides round to nearest
        qv, u_parts = quantize_rtn(factors.vt, widths, "row"), [quantize_rtn(factors.u, widths, "column")]
    else:
        qv = quantize_gptq(factors.vt, x, widths, damping=damping, scale_axis="row")
        vt_hat = qv.dequantize()
        u_parts = [quantize_gptq(factors.u[:, g.begin : g.end],
                                 factors.sigma[g.begin : g.end, None] * (vt_hat[g.begin : g.end] @ x),
                                 g.bits, damping=damping, scale_axis="column") for g in groups]
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
        return _compress_svd(delta, mclass, strategy, calibration(name, delta.shape[1]), plan.damping)
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
    on its own tensor, the plan, and, with a calibration file, its activations there.
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
