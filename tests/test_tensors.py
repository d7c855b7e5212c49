import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from skillpack.tensors import (
    all_finite,
    check_int,
    check_number,
    frobenius_rel_err,
    magnitude_prune,
    retained_count,
    svd,
    truncate,
)


def test_svd_diagonal():
    factors = svd(np.diag([3.0, 1.0]))
    assert np.allclose(factors.sigma, [3.0, 1.0])


def test_svd_zero_matrix():
    factors = svd(np.zeros((4, 4)))
    assert np.allclose(factors.sigma, 0.0)
    assert np.allclose(factors.u.T @ factors.u, np.eye(4), atol=1e-12)
    assert np.allclose(factors.vt @ factors.vt.T, np.eye(4), atol=1e-12)


def test_svd_reconstruction_64bit():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 6))
    factors = svd(a)
    assert frobenius_rel_err(a, factors.reconstruct()) < 1e-10


def test_svd_repeated_calls_bit_identical():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((140, 60)).astype(np.float32)
    first = svd(a)
    for _ in range(3):
        again = svd(a)
        for got, want in ((again.u, first.u), (again.sigma, first.sigma), (again.vt, first.vt)):
            assert got.tobytes() == want.tobytes()


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.zeros(4))
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 7))
    f1 = svd(a)
    f2 = svd(a.copy())
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.vt, f2.vt)
    anchors = np.argmax(np.abs(f1.u), axis=0)
    assert np.all(f1.u[anchors, np.arange(f1.u.shape[1])] > 0)


def test_svd_properties_random_sizes():
    # reconstruction, orthonormality, nonincreasing sigma over assorted shapes
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(1, 64))
        n = int(rng.integers(1, 64))
        a = rng.standard_normal((m, n))
        f = svd(a)
        assert np.all(np.diff(f.sigma) <= 0)
        assert np.all(f.sigma >= 0)
        p = len(f.sigma)
        assert np.max(np.abs(f.u.T @ f.u - np.eye(p))) <= 1e-10
        assert np.max(np.abs(f.vt @ f.vt.T - np.eye(p))) <= 1e-10
        assert frobenius_rel_err(a, f.reconstruct()) <= 1e-10


def _assert_is_scipys_float64_gesdd(a):
    """svd(a) equals scipy's float64 gesdd bit for bit: of a itself when it is tall or
    square, of a.T with u and vt swapped when it is wide; then the sign rule on u."""
    got, wide = svd(a), a.shape[0] < a.shape[1]
    u, sigma, vt = scipy.linalg.svd(a.T if wide else a, full_matrices=False, lapack_driver="gesdd")
    if wide:
        u, vt = vt.T.copy(), u.T.copy()
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    for field, want in (("u", u), ("sigma", sigma), ("vt", vt)):
        have = getattr(got, field)
        assert have.shape == want.shape and np.ascontiguousarray(have).tobytes() == want.tobytes(), field
    assert np.all(got.u[np.argmax(np.abs(got.u), axis=0), np.arange(got.rank)] > 0)
    assert frobenius_rel_err(a, got.reconstruct()) <= 1e-13


@pytest.mark.parametrize("shape", [(1, 2), (1, 9), (1, 300), (2, 5), (7, 30), (40, 41), (12, 200)])
def test_a_wide_svd_is_the_sign_fixed_swap_of_its_transpose(shape):
    """A wide matrix is factored the tall way: scipy's gesdd of a.T with u and vt
    swapped, then the sign rule on u, bit for bit, at float64 accuracy."""
    _assert_is_scipys_float64_gesdd(np.random.default_rng(list(shape)).standard_normal(shape))


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (9, 1), (30, 7), (200, 12), (5, 5), (41, 41)])
def test_a_tall_or_square_float64_svd_is_scipys_gesdd(shape):
    """A tall or square float64 matrix is scipy's float64 gesdd of itself, bit for bit,
    with the sign rule on u: only float32 and float16 input is factored in float32."""
    _assert_is_scipys_float64_gesdd(np.random.default_rng(list(shape)).standard_normal(shape))


@st.composite
def single_matrices(draw):
    """A float32 or float16 matrix, tall, wide, square or 1 x n, with values in [-4, 4]."""
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    n, extra = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    shape = draw(st.sampled_from([(n + extra, n), (n, n + extra), (n, n), (1, n)]))
    return draw(hnp.arrays(dtype, shape, elements=st.floats(-4, 4, width=np.finfo(dtype).bits)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(a=single_matrices())
@example(a=np.full((40, 37), 3.3174, np.float32))  # rank 1: |a v_i| / |v_i| read a zero as 7.5e-7 sigma_0
def test_a_single_precision_svd_is_float32_with_float64_accurate_sigma(a):
    f, a64 = svd(a), a.astype(np.float64)
    p = min(a.shape)
    assert f.u.dtype == f.vt.dtype == np.float32 and f.sigma.dtype == np.float64
    assert f.u.shape == (a.shape[0], p) and f.vt.shape == (p, a.shape[1]) and f.rank == p
    assert np.max(np.abs(f.u.T.astype(np.float64) @ f.u - np.eye(p))) <= 1e-5
    assert np.max(np.abs(f.vt.astype(np.float64) @ f.vt.T - np.eye(p))) <= 1e-5
    assert frobenius_rel_err(a64, f.reconstruct()) <= 1e-5
    assert np.all(f.sigma >= 0) and np.all(np.diff(f.sigma) <= 0)
    reference = np.linalg.svd(a64, compute_uv=False)
    assert np.all(np.abs(f.sigma - reference) <= 2e-7 * reference[0])
    again = svd(a)
    for field in ("u", "sigma", "vt"):
        assert getattr(again, field).tobytes() == getattr(f, field).tobytes(), field


def test_truncate_diagonal():
    factors = truncate(svd(np.diag([3.0, 1.0])), 1)
    assert np.allclose(factors.reconstruct(), np.diag([3.0, 0.0]), atol=1e-12)


def test_truncate_clamps():
    f = svd(np.random.default_rng(1).standard_normal((5, 4)))
    assert truncate(f, 4) is f
    assert truncate(f, 99) is f
    with pytest.raises(ValueError):
        truncate(f, 0)


def test_truncate_eckart_young():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 6))
    f = svd(a)
    for r in (1, 2, 3, 5):
        err = np.linalg.norm(a - truncate(f, r).reconstruct())
        tail = np.sqrt(np.sum(f.sigma[r:] ** 2))
        assert abs(err - tail) <= 1e-8 * max(tail, 1.0)


def _densify(a: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """`a` with every element outside the flat row-major `indices` set to zero."""
    out = np.zeros_like(a).reshape(-1)
    out[indices] = a.reshape(-1)[indices]
    return out.reshape(a.shape)


def test_prune_example():
    a = np.array([[0.1, -0.5], [0.3, 0.05]])
    indices = magnitude_prune(a, 0.5)
    assert indices.tolist() == [1, 2]
    assert a.reshape(-1)[indices].tolist() == [-0.5, 0.3]


def test_prune_alpha_one_keeps_everything():
    a = np.array([[1.0, -2.0], [0.5, 4.0]])
    indices = magnitude_prune(a, 1.0)
    assert indices.tolist() == [0, 1, 2, 3]
    assert np.array_equal(_densify(a, indices), a)


def test_prune_tie_break_smaller_index():
    assert magnitude_prune(np.ones((2, 2)), 0.5).tolist() == [0, 1]


def test_prune_count_is_ceil():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 5))
    for alpha in (0.1, 0.25, 0.333, 0.5, 0.9, 1.0):
        assert len(magnitude_prune(a, alpha)) == retained_count(alpha, 30)
    assert retained_count(0.1, 30) == 3  # fp noise must not bump the ceil
    assert retained_count(0.3, 10) == 3
    assert retained_count(0.21, 10) == 3


def test_prune_retained_dominate_dropped():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((8, 8))
    indices = magnitude_prune(a, 0.4)
    dropped = np.setdiff1d(np.arange(a.size), indices)
    assert np.min(np.abs(a.reshape(-1)[indices])) >= np.max(np.abs(a.reshape(-1)[dropped]))


def test_prune_idempotent_after_densify():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    once = magnitude_prune(a, 0.5)
    assert magnitude_prune(_densify(a, once), 0.5).tolist() == once.tolist()


def _argsort_prune(a: np.ndarray, alpha: float) -> np.ndarray:
    """magnitude_prune as it was: a stable argsort of every -|value|."""
    order = np.argsort(-np.abs(a.reshape(-1)), kind="stable")
    return np.sort(order[: retained_count(alpha, a.size)])


def _assert_same_prune(a: np.ndarray, alpha: float) -> None:
    got = magnitude_prune(a, alpha)
    assert got.dtype == np.int64 and got.tolist() == _argsort_prune(a, alpha).tolist()


_TIE_SPLIT = np.array([[5.0, 1.0, 2.0], [2.0, 2.0, 1.0], [2.0, 0.0, 2.0]])  # at 4/9, 3 of the 5 twos are kept


@pytest.mark.parametrize(
    "a, alpha",
    [
        (np.ones((5, 7)), 0.5),
        (np.ones((5, 7), dtype=np.float16), 0.3),
        (np.arange(-6.0, 6.0).reshape(3, 4) // 3, 0.5),
        (np.arange(-6.0, 6.0).reshape(4, 3) % 3 - 1, 0.25),
        (_TIE_SPLIT, 4 / 9),
        (-_TIE_SPLIT.T, 0.5),
        (np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]), 0.5),
        (np.array([[-0.0, 1.0], [0.0, -0.0]]), 0.75),
        (np.random.default_rng(3).standard_normal((9, 11)).astype(np.float16), 0.2),
        (np.zeros((0, 4), dtype=np.float32), 0.5),
        (np.zeros((0, 4), dtype=np.float32), 1.0),
        (np.random.default_rng(4).standard_normal((6, 5)), 1.0),
        (np.random.default_rng(5).standard_normal((40, 50)), 1e-4),
        (np.ones((40, 50)), 1e-4),
    ],
    ids=["ones", "ones-f16", "int-floor", "int-mod", "row-split", "row-split-neg-T", "signed-zeros",
         "signed-zeros-and-one", "gauss-f16", "empty", "empty-alpha-1", "alpha-1", "keep-1", "keep-1-ties"],
)
def test_prune_equals_the_argsort_reference_on_forced_ties(a, alpha):
    _assert_same_prune(a, alpha)


def test_prune_split_tie_keeps_the_first_equal_magnitudes():
    assert magnitude_prune(_TIE_SPLIT, 4 / 9).tolist() == [0, 2, 3, 4]  # the tie spans all three rows
    assert magnitude_prune(np.ones((40, 50)), 1e-4).tolist() == [0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    rows=st.integers(0, 12),
    cols=st.integers(1, 12),
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    alpha=st.one_of(st.sampled_from([1.0, 0.5, 0.125, 0.004]), st.floats(1e-3, 1.0, exclude_min=True)),
    data=st.data(),
)
def test_prune_equals_the_argsort_reference(rows, cols, dtype, alpha, data):
    values = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0]),
                                min_size=rows * cols, max_size=rows * cols))
    _assert_same_prune(np.array(values, dtype=dtype).reshape(rows, cols), alpha)


def test_prune_rejects_bad_alpha():
    a = np.ones((2, 2))
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            magnitude_prune(a, alpha)


def test_frobenius_rel_err_basics():
    a = np.diag([3.0, 4.0])
    assert frobenius_rel_err(a, a) == 0.0
    assert frobenius_rel_err(a, np.zeros((2, 2))) == 1.0
    assert frobenius_rel_err(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    with pytest.raises(ValueError):
        frobenius_rel_err(a, np.zeros((3, 3)))


@pytest.mark.parametrize("order", ["C", "F"])
def test_all_finite_checks_every_slice_in_either_order(order):
    a = np.zeros((300, 500), dtype=np.float32, order=order)
    assert all_finite(a) and all_finite(a[:, ::3]) and all_finite(np.arange(5))
    a[299, 499] = np.nan  # the last element in memory of either order, past the first slice
    assert not all_finite(a)
    a[299, 499] = -np.inf
    assert not all_finite(a[1:, 1:])


@pytest.mark.parametrize("rank, limit", [(0, 5), (6, 5), (2.0, 5), (True, 5), ("2", 5), (-1, np.inf)])
def test_rank_rule_rejects(rank, limit):
    with pytest.raises(ValueError, match="rank"):
        check_int(rank, "rank", 1, limit)


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, 7.0, float("nan"), float("inf"), True, "0.5", None])
def test_alpha_rule_rejects(alpha):
    with pytest.raises(ValueError, match="retention ratio"):
        check_number(alpha, "retention ratio", 0, 1, above=True)


def test_truncate_takes_an_int_rank():
    factors = svd(np.eye(3))
    with pytest.raises(ValueError, match="rank"):
        truncate(factors, 2.0)
    assert truncate(factors, 2).rank == 2
