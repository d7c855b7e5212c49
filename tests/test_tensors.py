import numpy as np
import pytest

from skillpack.tensors import (
    SparseEntries,
    all_finite,
    check_alpha,
    check_rank,
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


def test_prune_example():
    entries = magnitude_prune(np.array([[0.1, -0.5], [0.3, 0.05]]), 0.5)
    assert entries.indices.tolist() == [1, 2]
    assert entries.values.tolist() == [-0.5, 0.3]


def test_prune_alpha_one_keeps_everything():
    a = np.array([[1.0, -2.0], [0.5, 4.0]])
    entries = magnitude_prune(a, 1.0)
    assert entries.indices.tolist() == [0, 1, 2, 3]
    assert np.array_equal(entries.densify(dtype=np.float64), a)


def test_prune_tie_break_smaller_index():
    entries = magnitude_prune(np.ones((2, 2)), 0.5)
    assert entries.indices.tolist() == [0, 1]


def test_prune_count_is_ceil():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 5))
    for alpha in (0.1, 0.25, 0.333, 0.5, 0.9, 1.0):
        entries = magnitude_prune(a, alpha)
        assert len(entries.indices) == retained_count(alpha, 30)
    assert retained_count(0.1, 30) == 3  # fp noise must not bump the ceil
    assert retained_count(0.3, 10) == 3
    assert retained_count(0.21, 10) == 3


def test_prune_retained_dominate_dropped():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((8, 8))
    entries = magnitude_prune(a, 0.4)
    dropped = np.setdiff1d(np.arange(a.size), entries.indices)
    assert np.min(np.abs(entries.values)) >= np.max(np.abs(a.reshape(-1)[dropped]))


def test_prune_idempotent_after_densify():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    once = magnitude_prune(a, 0.5)
    twice = magnitude_prune(once.densify(dtype=np.float64), 0.5)
    assert once.indices.tolist() == twice.indices.tolist()
    assert np.array_equal(once.values, twice.values)


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


def test_sparse_entries_densify():
    entries = SparseEntries(shape=(2, 3), indices=np.array([1, 4]), values=np.array([2.0, -1.0]))
    dense = entries.densify()
    assert dense.shape == (2, 3)
    assert dense[0, 1] == 2.0 and dense[1, 1] == -1.0
    assert np.count_nonzero(dense) == 2


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
        check_rank(rank, limit)


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, 7.0, float("nan"), float("inf"), True, "0.5", None])
def test_alpha_rule_rejects(alpha):
    with pytest.raises(ValueError, match="retention ratio"):
        check_alpha(alpha)


def test_truncate_takes_an_int_rank():
    factors = svd(np.eye(3))
    with pytest.raises(ValueError, match="rank"):
        truncate(factors, 2.0)
    assert truncate(factors, 2).rank == 2
