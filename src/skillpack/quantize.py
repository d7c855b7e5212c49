"""Symmetric integer quantizers, their code types and the bit-packed field codec (codes, positions).

Two quantizers share one code/scale layout:

* round-to-nearest (RTN): scale = max|v| / (2^(k-1) - 1) per vector,
  codes = round(v / scale) with halves away from zero.
* calibrated (GPTQ-style): same grid, but columns are quantized in
  natural order and each column's rounding error is propagated to the
  not-yet-quantized columns through the upper Cholesky factor of the
  inverse damped activation Hessian, approximately minimizing
  ||m x - m^ x||^2.

The calibrated quantizer has two parts: `hessian_factor(x)` (of x scaled by a
power of two, which changes no code), then a column sweep with the "lazy batch"
updates of GPTQ (Frantar et al., arXiv 2210.17323), left-looking inside a block
of GPTQ_BLOCK columns: just before it is rounded, a column gathers the errors
of the block's earlier columns in one matrix-vector product, and the block's
errors reach the columns after it through one matrix product.

GPTQ lowers the error on activations it was not fitted to only when they are
correlated, as a real model's are. On isotropic ones, such as standard-normal
draws, the expected Hessian is a multiple of the identity, so GPTQ's expected
objective is RTN's: what it fits is the sampling noise of its samples, and
its held-out error is higher than RTN's. Compress therefore runs GPTQ only
when it is given activations.

Codes are symmetric, zero-point free: c in [-(2^(k-1)-1), 2^(k-1)-1].
An all-zero vector gets scale 0 and codes 0.

`encode` is the one code encoder (pruned values, RTN, each sweep column). It
takes the clip limit, `qmax` of the width, and gives float codes; each caller
casts them to their `code_dtype`. Both quantizers take one width, or one per
scale vector: the V^T rows of all bit groups of a factorized delta share one
sweep, each row clipped to its own limit, with codes of the widest group's
type. Which vectors get which width is a plan's choice, its bit groups
(`plans.BitGroup`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .tensors import check_int, check_matrix

MIN_BITS = 2
MAX_BITS = 16
# Columns per lazy batch of the GPTQ sweep.
GPTQ_BLOCK = 128
# The Hessian's damping, as a share of the mean of its diagonal: GPTQ's own 1%.
GPTQ_DAMPING = 0.01


def qmax(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def check_bits(bits: int) -> None:
    check_int(bits, "quantizer width", MIN_BITS, MAX_BITS)


def code_dtype(bits: int) -> np.dtype:
    """The type that holds `bits`-bit codes: int8 up to 8 bits, int16 up to 16."""
    return np.dtype(np.int8 if bits <= 8 else np.int16)


@dataclass(frozen=True)
class QuantizedMatrix:
    """Integer codes with one float32 scale per quantized vector.

    `axis` says which way the scales attach: "row" means scales[i] covers
    codes[i, :], "column" means scales[j] covers codes[:, j].
    """

    codes: np.ndarray  # code_dtype(bits), same shape as the source matrix
    scales: np.ndarray  # float32, length = size of the scale axis
    axis: str  # "row" | "column"

    def __post_init__(self):
        if self.axis not in ("row", "column"):
            raise ValueError(f"unknown scale axis {self.axis!r}")

    def dequantize(self) -> np.ndarray:
        scales = self.scales.astype(np.float64)
        return self.codes * (scales[:, None] if self.axis == "row" else scales[None, :])


def rtn_scales(m: np.ndarray, bits, axis: str = "row") -> np.ndarray:
    """Per-vector symmetric scales, rounded to their stored float32 values; `bits` as in `_widths`."""
    if axis not in ("row", "column"):
        raise ValueError(f"unknown scale axis {axis!r}")
    reduce_axis = 1 if axis == "row" else 0
    m = np.asarray(m)
    if not np.issubdtype(m.dtype, np.floating):
        m = m.astype(np.float64)
    # |.| and max are exact in any float type, so widening after the reduction is too.
    amax = np.max(np.abs(m), axis=reduce_axis).astype(np.float64)
    return (amax / qmax(bits)).astype(np.float32)


def encode(values, divisor, limit, out=None) -> np.ndarray:
    """round(values / divisor), halves away from zero, clipped to +-limit, as float
    codes: divide, add copysign(0.5), trunc, clip, in one buffer, `out` when given.

    `divisor` holds inf where the scale is 0 (`divisors`), and v / inf = +-0
    rounds to code 0, with no mask and no errstate. `limit` is `qmax` of the
    width, one or one per vector; the caller casts the codes to their type.
    """
    out = np.divide(values, divisor, out=out)
    out += np.copysign(0.5, out)
    np.trunc(out, out=out)
    np.minimum(out, limit, out=out)
    np.maximum(out, -limit, out=out)
    return out


def divisors(scales) -> np.ndarray:
    """`scales` in float64 with inf in place of 0: the divisor `encode` takes."""
    return np.where(scales == 0, np.inf, np.asarray(scales, dtype=np.float64))


def _widths(bits, m: np.ndarray, axis: str) -> tuple[np.ndarray, np.dtype]:
    """`bits`, one width or a list or tuple of one per scale vector of m, as one
    per vector; and the code type of the widest."""
    count, each = m.shape[0] if axis == "row" else m.shape[1], isinstance(bits, (list, tuple))
    for b in bits if each else [bits]:
        check_bits(b)
    if each and len(bits) != count:
        raise ValueError(f"quantizer widths must be one per {axis} ({count}), got {len(bits)}")
    return np.array(bits) if each else np.full(count, bits), code_dtype(max(bits, default=MIN_BITS) if each else bits)


def quantize_rtn(m: np.ndarray, bits, axis: str = "row") -> QuantizedMatrix:
    """Uncalibrated symmetric quantization with per-vector scales; `bits` as in `_widths`."""
    m = check_matrix(m, "quantizer input")
    widths, dtype = _widths(bits, m, axis)
    scales = rtn_scales(m, widths, axis)
    along = (slice(None), None) if axis == "row" else (None, slice(None))
    m64 = m.astype(np.float64)
    encode(m64, divisors(scales)[along], qmax(widths)[along], out=m64)
    return QuantizedMatrix(codes=m64.astype(dtype), scales=scales, axis=axis)


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


def hessian_factor(x: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor R of (x' x'^T + d I)^-1, x' = 2^-e x with max|x'| in [0.5, 1).

    d is GPTQ_DAMPING times the mean of the Hessian's diagonal. The scaling is exact and
    changes no GPTQ code, and x and 2^k x give one factor. Returns None when x is all
    zero: there is no calibration signal, and the calibrated quantizer is plain RTN.

    The factor is computed in the Hessian's own buffer, with no further
    n x n array: with J the exchange (reversal) matrix,
    R = J inv(L) J where L L^T = J H J is a lower Cholesky factorization,
    and both LAPACK steps (potrf, trtri) overwrite their input.
    """
    x64 = np.asarray(check_matrix(x, "calibration activations"), dtype=np.float64)
    if x64.size == 0:
        raise ValueError(f"calibration activations must not be empty, got shape {x64.shape}")
    peak = float(np.max(np.abs(x64)))
    if peak == 0.0:
        return None
    x64 = np.ldexp(x64, -np.frexp(peak)[1])
    hess = x64 @ x64.T
    hess[np.diag_indices_from(hess)] += GPTQ_DAMPING * (np.trace(hess) / len(hess))
    _reverse(hess)
    # hess is symmetric, so hess.T is the same matrix in Fortran order and LAPACK works
    # on it in place. Scaled, its condition number is at most 1 + 100 * width.
    lower, info = lapack.dpotrf(hess.T, lower=1, clean=1, overwrite_a=1)
    if info == 0:
        lower, info = lapack.dtrtri(lower, lower=1, overwrite_c=1)
    if info != 0:
        raise ValueError(f"damped Hessian could not be factored (LAPACK info {info})")
    # Reversing both axes of lower.T (C-ordered, so row by row is fast)
    # reverses both axes of lower: J inv(L) J.
    _reverse(lower.T)
    return lower


def _sweep(w: np.ndarray, factor: np.ndarray, scales: np.ndarray, widths: np.ndarray, dtype,
           scale_axis: str) -> np.ndarray:
    """Quantize w (rows x cols) column by column, in lazy batches.

    Works on a copy of w transposed, so that each column is one contiguous row.
    Left-looking in a block: column j first subtracts factor[b0:j, j] @ errs,
    the errors of the block's earlier columns; later blocks are updated once.
    Each scale vector has its own width: its clip limit, and a code of `dtype`.
    """
    cols = w.shape[1]
    wt = np.array(w.T, order="C")
    codes = np.empty(wt.shape, dtype=dtype)
    s64, divisor, limit = scales.astype(np.float64), divisors(scales), qmax(widths).astype(np.float64)
    ratio = np.empty(wt.shape[1])
    for b0 in range(0, cols, GPTQ_BLOCK):
        b1 = min(b0 + GPTQ_BLOCK, cols)
        errs = np.empty((b1 - b0, wt.shape[1]))
        for j in range(b0, b1):
            col = wt[j] - factor[b0:j, j] @ errs[: j - b0]
            s_j, d_j, limit_j = (s64, divisor, limit) if scale_axis == "row" else (s64[j], divisor[j], limit[j])
            encode(col, d_j, limit_j, out=ratio)
            codes[j] = ratio
            errs[j - b0] = (col - ratio * s_j) / factor[j, j]
        if b1 < cols:
            wt[b1:] -= factor[b0:b1, b1:].T @ errs
    return np.ascontiguousarray(codes.T)


def quantize_gptq(
    m: np.ndarray,
    x: np.ndarray,
    bits,
    scale_axis: str = "row",
) -> QuantizedMatrix:
    """Calibrated quantization of m (out x in) against activations x (in x s).

    Scales are fixed from the original matrix by the RTN rule before any
    compensation. The sweep uses `hessian_factor(x)`, of x scaled by a power of
    two, so x and 2^k x give the same codes; all-zero activations (no calibration
    signal) degrade to plain RTN, since every rounding is then cost-free. `bits`
    is one width, or one per scale vector (`_widths`), all in one sweep.
    """
    m = check_matrix(m, "quantizer input")
    x = check_matrix(x, "calibration activations")
    if m.shape[1] != x.shape[0]:
        raise ValueError(
            f"calibration rows ({x.shape[0]}) must match matrix columns ({m.shape[1]})"
        )
    widths, dtype = _widths(bits, m, scale_axis)

    factor = hessian_factor(x)
    if factor is None:  # no calibration signal: plain RTN
        return quantize_rtn(m, bits, scale_axis)
    scales = rtn_scales(m, widths, scale_axis)
    codes = _sweep(np.asarray(m, dtype=np.float64), factor, scales, widths, dtype, scale_axis)
    return QuantizedMatrix(codes=codes, scales=scales, axis=scale_axis)


def calibration_error(m: np.ndarray, dequantized: np.ndarray, x: np.ndarray) -> float:
    """||m x - m^ x||_F, the objective both quantizers target."""
    m64 = np.asarray(m, dtype=np.float64)
    return float(np.linalg.norm(m64 @ x - np.asarray(dequantized, dtype=np.float64) @ x))


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack signed codes at `bits` per value, in two's complement, as `pack_fields` packs."""
    check_bits(bits)
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu":  # a float would be truncated and a bool packed as 0 or 1
        raise ValueError(f"codes must be integers, got {codes.dtype}")
    limit = qmax(bits)
    if codes.size and (codes.min() < -limit or codes.max() > limit):
        raise ValueError(f"codes out of range for {bits}-bit packing")
    return pack_fields(codes, bits).tobytes()


def unpack_codes(buf, count: int, bits: int) -> np.ndarray:
    """Inverse of pack_codes; sign-extends each field into `code_dtype(bits)`. Range is NOT validated."""
    check_bits(bits)
    return unpack_fields(buf, count, bits, code_dtype(bits))


# Groups of eight fields per block of the field codec: a block's temporaries stay in cache.
_BLOCK = 8192


def pack_fields(values, bits: int) -> np.ndarray:
    """Integers modulo 2**bits, 0 <= bits <= 64, packed at `bits` per value, LSB-first and zero-padded
    to a byte, into a uint8 array; at 32 and 64 bits these are the bytes of a little-endian u32 or u64
    array. Eight fields fill `bits` bytes, held as 64-bit lanes: a block of groups at a time, each
    field position of every group is shifted in at once, and one into the next lane if it crosses."""
    check_int(bits, "field width", 0, 64)
    flat = np.asarray(values).reshape(-1)
    lanes = np.zeros((-(-flat.size // 8), max(1, -(-bits // 8))), "<u8")
    buffer = np.empty((min(len(lanes), _BLOCK), 8), np.uint64)  # one for every block: no page faults
    for g0 in range(0, len(lanes), _BLOCK):
        block, part, fields = lanes[g0 : g0 + _BLOCK], flat[8 * g0 : 8 * (g0 + _BLOCK)], buffer[: len(lanes) - g0]
        fields.reshape(-1)[: part.size] = part  # wraps negative codes to two's complement
        fields.reshape(-1)[part.size :] = 0
        fields &= np.uint64((1 << bits) - 1)
        for k in range(8):
            lane, shift = divmod(k * bits, 64)  # at 64 bits every shift is 0
            block[:, lane] |= fields[:, k] << shift
            if shift + bits > 64:
                block[:, lane + 1] |= fields[:, k] >> (64 - shift)
    return np.ascontiguousarray(lanes.view(np.uint8)[:, :bits]).reshape(-1)[: packed_size(flat.size, bits)]


def unpack_fields(buf, count: int, bits: int, dtype) -> np.ndarray:
    """The first `count` fields of `buf`, packed as `pack_fields` packs them, as `dtype`: each
    sign-extended from `bits` bits if `dtype` is signed. `buf` may hold more bytes than they take."""
    check_int(bits, "field width", 0, 64)
    needed = packed_size(count, bits)
    if len(buf) < needed:
        raise ValueError(f"buffer too short: {len(buf)} bytes for {count} x {bits}-bit fields")
    lanes = np.zeros((-(-count // 8), max(1, -(-bits // 8))), "<u8")
    raw = np.zeros(len(lanes) * bits, np.uint8)  # whole groups, the last one zero-padded
    raw[:needed] = np.frombuffer(buf, dtype=np.uint8, count=needed)
    lanes.view(np.uint8)[:, :bits] = raw.reshape(len(lanes), bits)
    out, signed = np.empty((len(lanes), 8), dtype), np.dtype(dtype).kind == "i"
    for g0 in range(0, len(lanes), _BLOCK):
        block = lanes[g0 : g0 + _BLOCK]
        for k in range(8):
            lane, shift = divmod(k * bits, 64)
            word = block[:, lane] >> shift
            if shift + bits > 64:
                word |= block[:, lane + 1] << (64 - shift)
            word <<= 64 - bits  # the field's top bit to bit 63, then back: masked, or sign-extended
            out[g0 : g0 + _BLOCK, k] = (word.view(np.int64) if signed else word) >> (64 - bits)
    return out.reshape(-1)[:count]


def packed_size(count: int, bits: int) -> int:
    return (count * bits + 7) // 8
