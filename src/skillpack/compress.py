"""Module-aware adaptive compression of delta maps into SkillPacks.

Dispatch by module class: embedding/head deltas are magnitude-pruned and
their values quantized with per-row scales; MLP and attention deltas are
truncated-SVD factorized and the factors quantized group-wise with
calibrated (GPTQ-style) quantization; everything else, and every tensor
that is not 2-D, is stored dense and exact.

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
from .quantize import encode, hessian_factor, quantize_gptq, rtn_scales
from .tensors import magnitude_prune, svd, truncate


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
            x = np.asarray(tensors[name], dtype=np.float64)
            if x.ndim != 2 or x.shape[0] != width:
                raise ValueError(f"calibration for {name!r} must be ({width} x samples), got {x.shape}")
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
    row_scales = scales.astype(np.float64)[sparse.indices // delta.shape[1]]
    codes = encode(sparse.values, row_scales, strategy.value_bits)
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
    rows, cols = delta.shape
    factors = truncate(svd(delta), strategy.rank)
    rank = factors.rank
    groups = clip_groups(strategy.groups, rank)
    if factor is None:
        factor = hessian_factor(x, damping)  # shared by every group's V-side sweep

    u_codes = np.zeros((rows, rank), dtype=np.int32)
    v_codes = np.zeros((rank, cols), dtype=np.int32)
    u_scales = np.zeros(rank, dtype=np.float32)
    v_scales = np.zeros(rank, dtype=np.float32)

    for g in groups:
        vt_block = factors.vt[g.begin : g.end, :]
        qv = quantize_gptq(vt_block, x, g.bits, damping=damping, scale_axis="row", factor=factor)
        v_codes[g.begin : g.end, :] = qv.codes
        v_scales[g.begin : g.end] = qv.scales

        vt_hat = qv.dequantize()
        u_inputs = factors.sigma[g.begin : g.end, None] * (vt_hat @ x)
        qu = quantize_gptq(factors.u[:, g.begin : g.end], u_inputs, g.bits, damping=damping, scale_axis="column")
        u_codes[:, g.begin : g.end] = qu.codes
        u_scales[g.begin : g.end] = qu.scales

    return QuantizedSvdEntry(
        shape=(rows, cols),
        mclass=mclass,
        rank=rank,
        groups=groups,
        sigma=factors.sigma.astype(np.float32),
        u_codes=u_codes,
        u_scales=u_scales,
        v_codes=v_codes,
        v_scales=v_scales,
    )


def compress_entry(
    name: str,
    delta: np.ndarray,
    mclass: ModuleClass,
    plan: CompressionPlan,
    calibration: np.ndarray | None = None,
    factor: np.ndarray | None = None,
) -> CompressedEntry:
    """Compress one delta tensor according to its class strategy.

    Tensors that are not 2-D are stored dense (`strategy_for`). A float16
    delta needs no promotion: the dense path stores float32, and the SVD
    and the quantizers compute in float64. `factor` is
    `hessian_factor(calibration, plan.damping)` when the caller already
    has it; otherwise it is computed once here for every bit group.
    """
    delta = np.asarray(delta)
    strategy = strategy_for(plan, mclass, delta.shape)
    if isinstance(strategy, DenseStrategy):
        return DenseEntry(shape=tuple(delta.shape), mclass=mclass, values=delta.astype(np.float32))
    if isinstance(strategy, PruneStrategy):
        return _compress_prune(delta, mclass, strategy)
    if isinstance(strategy, SvdQuantStrategy):
        if calibration is None:
            raise ValueError(f"entry {name!r} needs calibration activations for SVD quantization")
        return _compress_svd(delta, mclass, strategy, calibration, plan.damping, factor)
    raise TypeError(f"unknown strategy {strategy!r}")


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
    entries: dict[str, CompressedEntry] = {}
    for name, delta in deltas.deltas.items():
        mclass = classify(name, manifest)
        shape = np.shape(delta)
        needs_calibration = isinstance(strategy_for(plan, mclass, shape), SvdQuantStrategy)
        x, factor = calibration(name, shape[1]) if needs_calibration else (None, None)
        entries[name] = compress_entry(name, delta, mclass, plan, x, factor)
    return SkillPack(
        base_model_id=deltas.base_id,
        tuned_model_id=deltas.tuned_id,
        task_tag=task_tag,
        plan_snapshot=plan_to_dict(plan),
        entries=entries,
    )
