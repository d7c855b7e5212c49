"""Dense-tensor numerical kernels: SVD, truncation, magnitude pruning (which
returns indices; `packs.PrunedSparseEntry` owns the pruned layout), norms;
and the value checks and the overflow guard that other modules share.

Tensors are plain numpy arrays. Checkpoint payloads are float32/float16.
`svd` factors them in float32 and refines the singular values in float64;
it factors anything else in float64. The quantizers compute in float64.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg


def is_int(value) -> bool:
    """Whether `value` is an int; a bool, like any other subclass of int, is not."""
    return type(value) is int


def _shown(value) -> str:
    """`repr(value)` for an error message, a long one cut to its head and tail."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}...{text[-8:]} ({len(text)} characters)"


def check_int(value, what: str, low: int, high: float = math.inf) -> None:
    """An int in [low, high]; a bool or a numpy integer is not an int."""
    if not (is_int(value) and low <= value <= high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{what} must be an int {bounds}, got {_shown(value)}")


def check_shape(shape, what: str, ndim: int | None = None) -> tuple[int, ...]:
    """`shape`, a list or tuple of non-negative ints (`ndim` of them when given), as a tuple."""
    if not (isinstance(shape, (list, tuple)) and ndim in (None, len(shape)) and all(is_int(d) and d >= 0 for d in shape)):
        raise ValueError(f"{what} must be {'some' if ndim is None else ndim} non-negative ints, got {_shown(shape)}")
    return tuple(shape)


def check_number(value, what: str, low: float = -math.inf, high: float = math.inf, *, above: bool = False) -> None:
    """A number in [low, high], or in (low, high] when `above`. A number is an int
    or a float (numpy's float64 is one), never a bool, and it must be finite as a
    float: an int past the float range is refused, not left to overflow later."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {_shown(value)} is not a number (an int or a float)")
    if not (abs(value) <= sys.float_info.max and (low < value if above else low <= value) and value <= high):
        lower = f" {'greater than' if above else '>='} {low}" if low > -math.inf else ""
        bounds = f"a finite number{lower}" if high == math.inf else f"in {'(' if above else '['}{low}, {high}]"
        raise ValueError(f"{what} must be {bounds}, got {_shown(value)}")


@contextmanager
def overflow_checked(message: str):
    """numpy overflow or an invalid result inside the block raises
    `ValueError(message)` instead of warning and going on with inf or NaN."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{message} ({exc})") from None


def all_finite(values: np.ndarray) -> bool:
    """Whether every float in `values` is finite, tested a slice at a time so
    that no temporary grows with a C- or Fortran-contiguous array."""
    if values.dtype.kind != "f":
        return True
    flat, step = values.ravel(order="K"), 1 << 16
    return all(np.isfinite(flat[i : i + step]).all() for i in range(0, flat.size, step))


def check_matrix(a, what: str) -> np.ndarray:
    """`a` as an array, which must be 2-D with every float finite."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{what} must be a 2-D matrix, got shape {a.shape}")
    if not all_finite(a):
        raise ValueError(f"{what} contains non-finite values")
    return a


def check_indices(values, what: str, n: int) -> np.ndarray:
    """`values` as an array, which must be a non-empty 1-D one of integers in [0, n); bools are not integers."""
    values = np.asarray(values)
    if not (values.ndim == 1 and values.size and values.dtype.kind in "iu" and values.min() >= 0 and values.max() < n):
        raise ValueError(f"{what} must be a non-empty 1-D sequence of ints in [0, {n}), "
                         f"got {values.dtype} values of shape {values.shape}")
    return values


def check_float32(values, what: str) -> np.ndarray:
    """`values` as float32, every value finite; a float32 array is kept, not copied.
    A wider value that rounds to the float32 maximum passes; one past it (1e39) does not."""
    message = f"{what} must be finite in float32"
    with overflow_checked(message):
        values = np.asarray(values, dtype=np.float32)
    if not all_finite(values):
        raise ValueError(message)
    return values


def retained_count(alpha: float, n: int) -> int:
    """Number of elements kept when pruning n elements at retention ratio alpha.

    ceil(alpha * n), with products within 1e-9 of an integer snapped to it so
    that e.g. alpha=0.1, n=30 keeps 3 elements, not 4.
    """
    product = alpha * n
    nearest = round(product)
    if abs(product - nearest) < 1e-9:
        return max(int(nearest), 1) if n > 0 else 0
    return int(math.ceil(product))


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD a = u @ diag(sigma) @ vt.

    u has orthonormal columns, vt orthonormal rows, sigma is nonnegative
    and nonincreasing. Sign ambiguity is resolved by making the
    largest-magnitude element of each u column positive, so factors are
    reproducible across runs.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.sigma)

    def reconstruct(self) -> np.ndarray:
        return ((self.u * self.sigma) @ self.vt).astype(np.float64, copy=False)


def svd(a: np.ndarray) -> SvdFactors:
    """Full thin SVD of a 2-D matrix, in the precision of its input.

    Uses LAPACK's divide-and-conquer SVD (gesdd), several times faster
    than gesvd on the matrices compressed here. A wide matrix is factored
    as its transpose, which gesdd does faster (in float64, 248 ms on
    512x1408 against 166 ms on 1408x512), and u and vt are swapped back
    before the sign fix.

    A float32 or float16 matrix is factored in float32, and any other in
    float64. In float32, u and vt come back float32, orthonormal to about
    1e-6, and each singular value is refined in float64 as the Rayleigh
    quotient u_i' a v_i / (|u_i| |v_i|). That is second-order in the
    factors' error even where sigma_i is far below sigma_0; near-equal
    values that cross are clamped to keep sigma nonincreasing. On the toy
    deltas the refined sigma is within 1e-7 sigma_0 of a float64 SVD's (the
    leading 16 within 1e-10), where float32 gesdd's own was off by up to
    1.2e-6 sigma_0. On a 2-CPU Xeon with one OpenBLAS thread, float32 took
    173 ms on 1408x512 (float64: 216), 147 ms on 512x1408 (214) and 75 ms
    on 512x512 (111).

    At a fixed BLAS thread count, repeated calls on the same data give
    bit-identical factors. Across thread counts they need not: on a
    1408x512 Gaussian matrix with OpenBLAS, float64 U from 1 and from 2
    threads differed by up to 1.3e-16, where gesvd gave equal bits. Packs
    compressed with 1 and 2 threads were still byte-identical there, but
    that is not guaranteed.
    """
    a = check_matrix(a, "svd input")
    wide = a.shape[0] < a.shape[1]
    tall, single = a.T if wide else a, a.dtype in (np.float16, np.float32)
    # LAPACK overwrites this Fortran-ordered copy instead of making its own.
    u, sigma, vt = scipy.linalg.svd(
        np.array(tall, dtype=np.float32 if single else np.float64, order="F"),
        full_matrices=False,
        overwrite_a=True,
        check_finite=False,
        lapack_driver="gesdd",
    )
    if single:  # the Rayleigh quotients in float64, from the smaller product u' tall
        u64, vt64 = u.astype(np.float64), vt.astype(np.float64)
        quotients = np.abs(np.einsum("ij,ij->i", u64.T @ tall.astype(np.float64), vt64))
        sigma = np.minimum.accumulate(quotients / (np.linalg.norm(u64, axis=0) * np.linalg.norm(vt64, axis=1)))
    if wide:  # a.T = u diag(sigma) vt, so a = vt.T diag(sigma) u.T
        u, vt = vt.T, u.T
    # Fix signs: largest-|.| element of each left singular vector positive.
    anchor = np.argmax(np.abs(u), axis=0)
    flip = u[anchor, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    return SvdFactors(u=u, sigma=sigma, vt=vt)


def truncate(factors: SvdFactors, rank: int) -> SvdFactors:
    """Keep the top-`rank` singular triplets; rank clamps at the full rank."""
    check_int(rank, "rank", 1)
    if rank >= factors.rank:
        return factors
    return SvdFactors(
        u=factors.u[:, :rank],
        sigma=factors.sigma[:rank],
        vt=factors.vt[:rank, :],
    )


def magnitude_prune(a: np.ndarray, alpha: float) -> np.ndarray:
    """The flat row-major indices, ascending int64, of the keep = ceil(alpha*N)
    largest-|value| elements of a 2-D matrix.

    Ties broken toward the smaller flat row-major index, so the output is
    deterministic. One `np.partition` finds t, the keep-th largest |value|;
    every element above t is kept, then the first keep - (count above t)
    elements equal to t, in index order: the set a stable descending argsort
    puts first. The kept set is a mask, so its indices come out ascending
    with no sort.
    """
    check_number(alpha, "retention ratio", 0, 1, above=True)
    a = check_matrix(a, "prune input")
    flat = a.reshape(-1)
    keep = retained_count(alpha, flat.size)
    if keep == flat.size:  # also an empty matrix, which keeps 0 of 0
        return np.arange(flat.size, dtype=np.int64)
    mag, cut = np.abs(flat), flat.size - keep
    threshold = np.partition(mag, cut)[cut]
    kept = mag > threshold
    kept[np.flatnonzero(mag == threshold)[: keep - np.count_nonzero(kept)]] = True
    return np.flatnonzero(kept).astype(np.int64, copy=False)


def frobenius_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / ||a||_F; zero if both are zero, inf if only a is."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = float(np.linalg.norm(a.astype(np.float64)))
    num = float(np.linalg.norm(a.astype(np.float64) - b.astype(np.float64)))
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom
