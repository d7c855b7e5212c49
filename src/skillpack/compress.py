"""Module-aware adaptive compression of delta maps into SkillPacks.

Dispatch by module class: embedding/head deltas are magnitude-pruned and
their values quantized with per-row scales; MLP and attention deltas are
truncated-SVD factorized and the factors quantized group-wise; everything
else, and every tensor that is not 2-D or is empty, is stored dense and
exact.

A factorized delta U diag(sigma) V^T keeps sigma unquantized at 32 bits.
Without activations, V^T is rounded to nearest (RTN) per row and U per
column, each vector at its group's width. Given `activations`, a map from
tensor name to its input activations x (width x samples), such as
`load_checkpoint(path).tensors`, GPTQ quantizes them against x: the V^T
rows of every group in one sweep, then the U columns of each group against
sigma_g * V^T_g * x, so the second step sees the quantization error of the
first. GPTQ beats RTN only on correlated activations, such as those of a
real model (see `quantize`). Compress reads no file.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .checkpoints import DeltaMap
from .classify import ClassificationManifest, ModuleClass, classify
from .packs import _VALUES_CHECKED, CompressedEntry, DenseEntry, PrunedSparseEntry, QuantizedSvdEntry, SkillPack
from .plans import (
    CompressionPlan,
    DenseStrategy,
    PruneStrategy,
    SvdQuantStrategy,
    clip_groups,
    plan_to_dict,
    strategy_for,
)
from .quantize import code_dtype, divisors, encode, qmax, quantize_gptq, quantize_rtn, rtn_scales
from .tensors import check_float32, magnitude_prune, svd, truncate


def _compress_prune(delta: np.ndarray, mclass: ModuleClass, strategy: PruneStrategy) -> PrunedSparseEntry:
    indices = magnitude_prune(delta, strategy.alpha)
    scales = rtn_scales(delta, strategy.value_bits, axis="row")
    codes = encode(delta.reshape(-1)[indices], divisors(scales)[indices // delta.shape[1]], qmax(strategy.value_bits))
    return PrunedSparseEntry(
        shape=delta.shape,
        mclass=mclass,
        alpha=strategy.alpha,
        value_bits=strategy.value_bits,
        indices=indices,
        codes=codes.astype(code_dtype(strategy.value_bits)),
        scales=scales,
    )


def _compress_svd(
    delta: np.ndarray,
    mclass: ModuleClass,
    strategy: SvdQuantStrategy,
    x: np.ndarray | None,
) -> QuantizedSvdEntry:
    factors = truncate(svd(delta), strategy.rank)
    groups = clip_groups(strategy.groups, factors.rank)
    widths = [g.bits for g in groups for _ in range(g.length)]
    if x is None:  # no activations: both sides round to nearest
        qv, u_parts = quantize_rtn(factors.vt, widths, "row"), [quantize_rtn(factors.u, widths, "column")]
    else:
        qv = quantize_gptq(factors.vt, x, widths, scale_axis="row")
        vt_hat = qv.dequantize()
        u_parts = [quantize_gptq(factors.u[:, g.begin : g.end],
                                 factors.sigma[g.begin : g.end, None] * (vt_hat[g.begin : g.end] @ x),
                                 g.bits, scale_axis="column") for g in groups]
    return QuantizedSvdEntry(
        shape=delta.shape,
        mclass=mclass,
        rank=factors.rank,
        groups=groups,
        sigma=factors.sigma,
        u_codes=np.hstack([q.codes for q in u_parts]),
        u_scales=np.concatenate([q.scales for q in u_parts]),
        v_codes=qv.codes,
        v_scales=qv.scales,
    )


def compress_entry(
    name: str,
    delta: np.ndarray,
    mclass: ModuleClass | str,
    plan: CompressionPlan,
    activations: Mapping[str, np.ndarray] | None = None,
) -> CompressedEntry:
    """Compress one delta tensor according to its class strategy; `mclass` may be a class's value.

    Tensors that are not 2-D or are empty are stored dense (`strategy_for`). A float16
    delta needs no promotion: the dense path stores float32, `tensors.svd` factors a
    float32 or float16 delta in float32 with float64-refined sigma (a float64 one in
    float64), and the quantizers compute in float64. Every class refuses the same deltas by
    the float32 rule: `tensors.check_float32` checks a dense-stored or float64
    delta, and `check_matrix` in the operator a float32 or float16 one. Every
    ValueError starts with `delta '<name>'`. `activations[name]` is looked up only
    for an SVD strategy, and a missing name is a ValueError too; `quantize_gptq`
    checks the matrix and its width.
    """
    delta = np.asarray(delta)
    try:
        strategy = strategy_for(plan, mclass, delta.shape)
    except ValueError as exc:  # an unknown class
        raise ValueError(f"delta {name!r}: {exc}") from None
    if isinstance(strategy, DenseStrategy) or delta.dtype.itemsize > 4:  # a narrower one is in float32's range
        values = check_float32(delta, f"delta {name!r}")
    try:
        if isinstance(strategy, DenseStrategy):  # the entry owns its values: a float32 delta is copied
            return DenseEntry(shape=delta.shape, mclass=mclass, _checked=_VALUES_CHECKED,
                              values=delta.astype(np.float32) if values is delta else values)
        if isinstance(strategy, PruneStrategy):
            return _compress_prune(delta, mclass, strategy)
        if activations is not None and name not in activations:
            raise ValueError("no activations")
        x = None if activations is None else activations[name]
        return _compress_svd(delta, mclass, strategy, x)
    except ValueError as exc:  # such as a NaN in a float32 delta, or missing or wrong-width activations
        raise ValueError(f"delta {name!r}: {exc}") from None


def compress_delta(
    deltas: DeltaMap,
    manifest: ClassificationManifest,
    plan: CompressionPlan,
    task_tag: str = "",
    activations: Mapping[str, np.ndarray] | None = None,
) -> SkillPack:
    """Compress every delta tensor into one SkillPack.

    Deterministic given (deltas, manifest, plan, activations): each entry depends
    only on its own tensor, the plan and, for an SVD strategy, its activations.
    """
    entries = {name: compress_entry(name, delta, classify(name, manifest), plan, activations)
               for name, delta in deltas.deltas.items()}
    return SkillPack(
        base_model_id=deltas.base_id,
        tuned_model_id=deltas.tuned_id,
        task_tag=task_tag,
        plan_snapshot=plan_to_dict(plan),
        entries=entries,
    )
