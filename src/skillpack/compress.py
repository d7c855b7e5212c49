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
    SyntheticCalibration,
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


class _Calibration:
    """Resolves per-tensor calibration activations for one compression run.

    Each activation matrix is cached beside its V-side `hessian_factor`,
    which depends only on the activations and the plan's damping. Synthetic
    activations are shared per input width, so their factors are too. File
    activations are per tensor name; only the latest is kept, since no
    other tensor reuses it.
    """

    def __init__(self, plan: CompressionPlan):
        self.plan = plan
        self._cache: dict[object, tuple[np.ndarray, np.ndarray | None]] = {}
        self._file_tensors = None
        if isinstance(plan.calibration, FileCalibration):
            self._file_tensors = load_checkpoint(plan.calibration.path).tensors

    def activations(self, name: str, width: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(x, factor): activations (width x samples) and their Hessian factor."""
        spec = self.plan.calibration
        key = width if isinstance(spec, SyntheticCalibration) else name
        if key not in self._cache:
            if isinstance(spec, SyntheticCalibration):
                x = synthetic_calibration(spec.seed, width, spec.samples)
            else:
                x = self._file_activations(name, width)
                self._cache.clear()
            self._cache[key] = (x, hessian_factor(x, self.plan.damping))
        return self._cache[key]

    def _file_activations(self, name: str, width: int) -> np.ndarray:
        x = self._file_tensors.get(name)
        if x is None:
            raise KeyError(f"calibration file has no activations for {name!r}")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != width:
            raise ValueError(f"calibration for {name!r} must be ({width} x samples), got {x.shape}")
        return x


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

    u_codes = np.zeros((rows, rank), dtype=np.int32)
    v_codes = np.zeros((rank, cols), dtype=np.int32)
    u_scales = np.zeros(rank, dtype=np.float32)
    v_scales = np.zeros(rank, dtype=np.float32)

    for g in groups:
        vt_block = factors.vt[g.begin : g.end, :]
        qv = quantize_gptq(vt_block, x, g.bits, damping=damping, scale_axis="row", factor=factor)
        v_codes[g.begin : g.end, :] = qv.codes
        v_scales[g.begin : g.end] = qv.scales

        vt_hat = qv.dequantize(np.float64)
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

    Tensors that are not 2-D are stored dense (`strategy_for`). Float16
    deltas are promoted to float32 before any decomposition. `factor` is
    `hessian_factor(calibration, plan.damping)` when the caller already
    has it; otherwise each quantizer call computes its own.
    """
    delta = np.asarray(delta)
    if delta.dtype == np.float16:
        delta = delta.astype(np.float32)
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
    calib = _Calibration(plan)
    entries: dict[str, CompressedEntry] = {}
    for name, delta in deltas.deltas.items():
        mclass = classify(name, manifest)
        shape = np.shape(delta)
        needs_calibration = isinstance(strategy_for(plan, mclass, shape), SvdQuantStrategy)
        x, factor = calib.activations(name, shape[1]) if needs_calibration else (None, None)
        entries[name] = compress_entry(name, delta, mclass, plan, x, factor)
    return SkillPack(
        base_model_id=deltas.base_id,
        tuned_model_id=deltas.tuned_id,
        task_tag=task_tag,
        plan_snapshot=plan_to_dict(plan),
        entries=entries,
    )
