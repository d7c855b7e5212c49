"""Symmetric integer quantizers and the bit-packed code codec.

Two quantizers share one code/scale layout:

* round-to-nearest (RTN): scale = max|v| / (2^(k-1) - 1) per vector,
  codes = round(v / scale) with halves away from zero.
* calibrated (GPTQ-style): same grid, but columns are quantized in
  natural order and each column's rounding error is propagated to the
  not-yet-quantized columns through the upper Cholesky factor of the
  inverse damped activation Hessian, approximately minimizing
  ||m x - m^ x||^2.

The calibrated quantizer has two parts. `hessian_factor(x, damping)`
computes the factor once; it depends only on the activations, so callers
quantizing several matrices against the same x (the V^T groups of one
delta, or every delta of one input width) compute it once and pass it in.
The column sweep then uses the "lazy batch" updates of GPTQ (Frantar et
al., arXiv 2210.17323), left-looking inside a block of GPTQ_BLOCK columns:
just before it is rounded, a column gathers the errors of the block's
earlier columns in one matrix-vector product, and the block's errors reach
the columns after it through one matrix product.

Codes are symmetric, zero-point free: c in [-(2^(k-1)-1), 2^(k-1)-1].
An all-zero vector gets scale 0 and codes 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .tensors import is_int

MIN_BITS = 2
MAX_BITS = 16
# Columns per lazy batch of the GPTQ sweep.
GPTQ_BLOCK = 128


def qmax(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def check_bits(bits: int) -> None:
    if not is_int(bits) or bits < MIN_BITS:
        raise ValueError(f"quantizer width must be an int of at least {MIN_BITS} bits, got {bits!r}")
    if bits > MAX_BITS:
        raise ValueError(f"quantizer width above {MAX_BITS} bits is not supported, got {bits}")


@dataclass(frozen=True)
class BitGroup:
    """Contiguous range [begin, end) of quantized vectors sharing one width."""

    begin: int
    end: int
    bits: int

    def __post_init__(self):
        if not (is_int(self.begin) and is_int(self.end) and 0 <= self.begin < self.end):
            raise ValueError(f"bit group [{self.begin!r}, {self.end!r}) needs int bounds 0 <= begin < end")
        check_bits(self.bits)

    @property
    def length(self) -> int:
        return self.end - self.begin


def groups_to_json(groups) -> list[list[int]]:
    """Bit groups as the `[begin, end, bits]` lists that plan files and pack headers hold."""
    return [[g.begin, g.end, g.bits] for g in groups]


def groups_from_json(value) -> tuple[BitGroup, ...]:
    """The inverse of `groups_to_json`; anything but a list of three-element lists is an error naming `groups`."""
    if not isinstance(value, list) or not all(isinstance(g, list) and len(g) == 3 for g in value):
        raise ValueError(f"groups must be a list of [begin, end, bits] lists, got {value!r}")
    return tuple(BitGroup(*g) for g in value)


def check_groups(groups, rank: int) -> None:
    """Groups must be contiguous, start at 0 and cover [0, rank) exactly."""
    if not groups:
        raise ValueError("at least one bit group is required")
    expect = 0
    for g in groups:
        if g.begin != expect:
            raise ValueError(f"bit groups must be contiguous from 0, got gap at {g.begin}")
        expect = g.end
    if expect != rank:
        raise ValueError(f"bit groups cover [0, {expect}) but rank is {rank}")


@dataclass(frozen=True)
class QuantizedMatrix:
    """Integer codes with one float32 scale per quantized vector.

    `axis` says which way the scales attach: "row" means scales[i] covers
    codes[i, :], "column" means scales[j] covers codes[:, j].
    """

    codes: np.ndarray  # int32, same shape as the source matrix
    scales: np.ndarray  # float32, length = size of the scale axis
    axis: str  # "row" | "column"

    def __post_init__(self):
        if self.axis not in ("row", "column"):
            raise ValueError(f"unknown scale axis {self.axis!r}")

    def dequantize(self) -> np.ndarray:
        scales = self.scales.astype(np.float64)
        return self.codes * (scales[:, None] if self.axis == "row" else scales[None, :])


def rtn_scales(m: np.ndarray, bits: int, axis: str = "row") -> np.ndarray:
    """Per-vector symmetric scales, rounded to their stored float32 values."""
    reduce_axis = 1 if axis == "row" else 0
    m = np.asarray(m)
    if not np.issubdtype(m.dtype, np.floating):
        m = m.astype(np.float64)
    # |.| and max are exact in any float type, so widening after the reduction is too.
    amax = np.max(np.abs(m), axis=reduce_axis).astype(np.float64)
    return (amax / qmax(bits)).astype(np.float32)


def encode(values: np.ndarray, scales64, bits: int) -> np.ndarray:
    """round(v / s) half-away-from-zero, codes 0 where the scale is 0.

    Rounds in place in the quotient's buffer, so encoding a large pruned
    entry allocates few float64 temporaries.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(values, scales64)
    np.copyto(ratio, 0.0, where=np.equal(scales64, 0.0))
    ratio += np.copysign(0.5, ratio)
    np.trunc(ratio, out=ratio)
    limit = qmax(bits)
    np.clip(ratio, -limit, limit, out=ratio)
    return ratio.astype(np.int32)


def quantize_rtn(m: np.ndarray, bits: int, axis: str = "row") -> QuantizedMatrix:
    """Uncalibrated symmetric quantization with per-vector scales."""
    check_bits(bits)
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"quantize_rtn requires a 2-D matrix, got shape {m.shape}")
    scales = rtn_scales(m, bits, axis)
    s64 = scales.astype(np.float64)
    broadcast = s64[:, None] if axis == "row" else s64[None, :]
    codes = encode(m.astype(np.float64), broadcast, bits)
    return QuantizedMatrix(codes=codes, scales=scales, axis=axis)


def _reverse(a: np.ndarray) -> None:
    """a[:] = a[::-1, ::-1] for a square array, one pair of rows at a time, so
    that no second n x n array is needed."""
    n = a.shape[0]
    for i in range(n // 2):
        top = a[i, ::-1].copy()
        a[i] = a[n - 1 - i, ::-1]
        a[n - 1 - i] = top
    if n % 2:
        a[n // 2] = a[n // 2, ::-1].copy()


def hessian_factor(x: np.ndarray, damping: float = 0.01) -> np.ndarray | None:
    """Upper Cholesky factor R of the inverse damped Hessian, R^T R = (x x^T + d I)^-1.

    d is `damping` times the mean of the Hessian's diagonal. Returns None
    when that diagonal is all zero: there is no calibration signal, every
    rounding is cost-free, and the calibrated quantizer is plain RTN.

    The factor is computed in the Hessian's own buffer, with no further
    n x n array: with J the exchange (reversal) matrix,
    R = J inv(L) J where L L^T = J H J is a lower Cholesky factorization,
    and both LAPACK steps (potrf, trtri) overwrite their input.
    """
    x64 = np.asarray(x, dtype=np.float64)
    cols = x64.shape[0]
    hess = x64 @ x64.T
    mean_diag = float(np.trace(hess)) / cols
    if mean_diag == 0.0:
        return None
    hess[np.diag_indices(cols)] += damping * mean_diag
    _reverse(hess)
    # hess is symmetric, so hess.T is the same matrix in Fortran order and
    # LAPACK can work on it in place.
    lower, info = lapack.dpotrf(hess.T, lower=1, clean=1, overwrite_a=1)
    if info == 0:
        lower, info = lapack.dtrtri(lower, lower=1, overwrite_c=1)
    if info != 0:
        raise ValueError("damped Hessian is singular; increase the damping factor")
    # Reversing both axes of lower.T (C-ordered, so row by row is fast)
    # reverses both axes of lower: J inv(L) J.
    _reverse(lower.T)
    return lower


def _sweep(w: np.ndarray, factor: np.ndarray, s64: np.ndarray, bits: int, scale_axis: str) -> np.ndarray:
    """Quantize w (rows x cols) column by column, in lazy batches.

    Works on a copy of w transposed, so that each column is one contiguous row.
    Left-looking in a block: column j first subtracts factor[b0:j, j] @ errs,
    the errors of the block's earlier columns; later blocks are updated once.
    """
    cols = w.shape[1]
    wt = np.array(w.T, order="C")
    codes = np.empty(wt.shape, dtype=np.int32)
    for b0 in range(0, cols, GPTQ_BLOCK):
        b1 = min(b0 + GPTQ_BLOCK, cols)
        errs = np.empty((b1 - b0, wt.shape[1]))
        for j in range(b0, b1):
            col = wt[j] - factor[b0:j, j] @ errs[: j - b0]
            s_j = s64 if scale_axis == "row" else s64[j]
            c = encode(col, s_j, bits)
            codes[j] = c
            errs[j - b0] = (col - c * s_j) / factor[j, j]
        if b1 < cols:
            wt[b1:] -= factor[b0:b1, b1:].T @ errs
    return np.ascontiguousarray(codes.T)


def quantize_gptq(
    m: np.ndarray,
    x: np.ndarray,
    bits: int,
    damping: float = 0.01,
    scale_axis: str = "row",
    factor: np.ndarray | None = None,
) -> QuantizedMatrix:
    """Calibrated quantization of m (out x in) against activations x (in x s).

    Scales are fixed from the original matrix by the RTN rule before any
    compensation. The Hessian is damped by `damping` times the mean of its
    diagonal; a Hessian with an all-zero diagonal (no calibration signal)
    degrades to plain RTN, since every rounding is then cost-free.
    `factor` is `hessian_factor(x, damping)` when the caller already has
    it; it is computed here when None.
    """
    check_bits(bits)
    m = np.asarray(m)
    x = np.asarray(x)
    if m.ndim != 2 or x.ndim != 2:
        raise ValueError("quantize_gptq requires 2-D matrix and calibration inputs")
    if m.shape[1] != x.shape[0]:
        raise ValueError(
            f"calibration rows ({x.shape[0]}) must match matrix columns ({m.shape[1]})"
        )
    if x.shape[1] < 1:
        raise ValueError("calibration needs at least one sample")
    if scale_axis not in ("row", "column"):
        raise ValueError(f"unknown scale axis {scale_axis!r}")

    if factor is None:
        factor = hessian_factor(x, damping)
    if factor is None:  # no calibration signal: plain RTN
        return quantize_rtn(m, bits, scale_axis)
    scales = rtn_scales(m, bits, scale_axis)
    codes = _sweep(np.asarray(m, dtype=np.float64), factor, scales.astype(np.float64), bits, scale_axis)
    return QuantizedMatrix(codes=codes, scales=scales, axis=scale_axis)


def calibration_error(m: np.ndarray, dequantized: np.ndarray, x: np.ndarray) -> float:
    """||m x - m^ x||_F, the objective both quantizers target."""
    m64 = np.asarray(m, dtype=np.float64)
    return float(np.linalg.norm(m64 @ x - np.asarray(dequantized, dtype=np.float64) @ x))


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack signed codes at `bits` per value, LSB-first, zero-padded to a byte. Eight fields
    fill `bits` bytes, so each field position of every group of eight is shifted in at once."""
    check_bits(bits)
    flat = np.asarray(codes, dtype=np.int64).reshape(-1)
    limit = qmax(bits)
    if flat.size and (flat.min() < -limit or flat.max() > limit):
        raise ValueError(f"codes out of range for {bits}-bit packing")
    fields = np.zeros((-(-flat.size // 8), 8), dtype=np.uint32)
    fields.reshape(-1)[: flat.size] = flat & ((1 << bits) - 1)
    out = np.zeros((len(fields), bits), dtype=np.uint8)
    for k in range(8):
        first, shift = divmod(k * bits, 8)
        word = fields[:, k] << shift
        for j in range((shift + bits + 7) // 8):
            out[:, first + j] |= (word >> 8 * j).astype(np.uint8)  # keeps the low byte
    return out.reshape(-1)[: packed_size(flat.size, bits)].tobytes()


def unpack_codes(buf: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of pack_codes; sign-extends each field. Range is NOT validated."""
    check_bits(bits)
    needed = packed_size(count, bits)
    if len(buf) < needed:
        raise ValueError(f"code buffer too short: {len(buf)} bytes for {count} x {bits}-bit")
    raw = np.zeros((-(-count // 8), bits), dtype=np.uint8)
    raw.reshape(-1)[:needed] = np.frombuffer(buf, dtype=np.uint8, count=needed)
    fields = np.empty((len(raw), 8), dtype=np.int32)
    half = 1 << (bits - 1)
    for k in range(8):
        first, shift = divmod(k * bits, 8)
        word = raw[:, first].astype(np.int32)
        for j in range(1, (shift + bits + 7) // 8):
            word |= raw[:, first + j].astype(np.int32) << 8 * j
        fields[:, k] = (((word >> shift) & ((1 << bits) - 1)) ^ half) - half
    return fields.reshape(-1)[:count]


def packed_size(count: int, bits: int) -> int:
    return (count * bits + 7) // 8
