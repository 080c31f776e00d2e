"""Tests for the dense matrix container, the Gram matrix, lambda_min and
the least-norm solution."""

import numpy as np
import pytest

from kaczpen.linalg import (
    DenseMatrix,
    InconsistentSystemError,
    gram_matrix,
    lambda_min_variants,
    least_norm_solution,
)


# ---------------------------------------------------------------------------
# DenseMatrix container


def test_dense_matrix_caches_row_norms():
    a = DenseMatrix(np.array([[3.0, 4.0], [1.0, 0.0]]))
    assert a.shape == (2, 2)
    np.testing.assert_allclose(a.row_norms_sq, [25.0, 1.0], rtol=0, atol=0)
    assert a.frobenius_sq == a.row_norms_sq.sum()


def test_dense_matrix_allows_zero_matrix():
    a = DenseMatrix(np.zeros((3, 2)))
    assert a.frobenius_sq == 0.0
    np.testing.assert_array_equal(a.row_norms_sq, np.zeros(3))


def test_dense_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[np.inf, 0.0]]))


def test_dense_matrix_is_immutable():
    arr = np.array([[1.0, 2.0]])
    a = DenseMatrix(arr)
    arr[0, 0] = 99.0  # caller-side mutation must not leak in
    assert a.row(0)[0] == 1.0
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0


def test_frobenius_equals_row_norm_sum_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(1, 12)
        n = rng.integers(1, 12)
        a = DenseMatrix(rng.standard_normal((m, n)))
        # exact as-computed identity, not approximate
        assert a.frobenius_sq == a.row_norms_sq.sum()


# ---------------------------------------------------------------------------
# gram


def test_gram_matrix_diagonal():
    a = DenseMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(gram_matrix(a).data, np.diag([1.0, 4.0]))


def test_gram_matrix_rank_one():
    a = DenseMatrix(np.array([[1.0, 1.0]]))
    np.testing.assert_array_equal(gram_matrix(a).data, np.ones((2, 2)))


def test_gram_matrix_exactly_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = gram_matrix(DenseMatrix(rng.standard_normal((7, 5)))).data
        assert np.array_equal(g, g.T)


# ---------------------------------------------------------------------------
# lambda_min_variants


def test_lambda_min_identity():
    a = DenseMatrix(np.eye(2))
    assert lambda_min_variants(a) == (1.0, 1.0)


def test_lambda_min_rank_deficient():
    a = DenseMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    lam, lam_pos = lambda_min_variants(a)
    assert lam == 0.0
    assert lam_pos == pytest.approx(1.0, abs=1e-12)


def test_lambda_min_scaled_diagonal():
    a = DenseMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    lam, lam_pos = lambda_min_variants(a)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert lam_pos == pytest.approx(1.0, abs=1e-12)


def test_lambda_min_full_column_rank():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = DenseMatrix(rng.standard_normal((12, 4)))  # tall: full column rank a.s.
        lam, lam_pos = lambda_min_variants(a)
        assert lam == lam_pos
        assert lam > 0


# ---------------------------------------------------------------------------
# least_norm_solution


def test_least_norm_identity_system():
    a = DenseMatrix(np.eye(2))
    x = least_norm_solution(a, np.array([1.0, 2.0]), np.zeros(2))
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)


def test_least_norm_single_row():
    a = DenseMatrix(np.array([[1.0, 1.0]]))
    x = least_norm_solution(a, np.array([2.0]), np.zeros(2))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_least_norm_keeps_null_component():
    a = DenseMatrix(np.array([[1.0, 0.0]]))
    x = least_norm_solution(a, np.array([1.0]), np.array([0.0, 5.0]))
    np.testing.assert_allclose(x, [1.0, 5.0], atol=1e-12)


def test_least_norm_correction_in_row_space():
    """x* − x0 has no null-space component (projected norm ≤ 1e-8)."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        m, n = 4, 9
        raw = rng.standard_normal((m, n))
        a = DenseMatrix(raw)
        b = raw @ rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        x_star = least_norm_solution(a, b, x0)
        assert np.max(np.abs(raw @ x_star - b)) <= 1e-8 * (1 + np.abs(b).max())
        # null space of A = eigenvectors of AᵀA with (near) zero eigenvalue
        w, v = np.linalg.eigh(gram_matrix(a).data)
        null = v[:, w <= 1e-10 * np.abs(w).max()]
        assert null.shape[1] == n - m
        assert np.linalg.norm(null.T @ (x_star - x0)) <= 1e-8


def test_least_norm_inconsistent_system_raises():
    a = DenseMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(InconsistentSystemError):
        least_norm_solution(a, np.array([0.0, 1.0]), np.zeros(2))


@pytest.mark.parametrize(
    "rows, b, x0",
    [
        # x* = (-3.4e308, 3.4e308) itself is beyond the float64 range
        ([[1.0, 1.0], [1.0, 0.5]], [1.7e308, 0.0], [0.0, 0.0]),
        # x* = (0, 0.1) is fine, but A x0 overflows on the way
        ([[0.0, 30.0], [2.0, 0.0]], [3.0, 0.0], [1.7e308, 5.0]),
    ],
)
def test_least_norm_overflow_raises(rows, b, x0):
    """The residual turns nan there, which a `resid > tol` test lets pass."""
    with pytest.raises(InconsistentSystemError, match="float64 range"):
        least_norm_solution(DenseMatrix(rows), np.array(b), np.array(x0))


def test_least_norm_is_minimum_norm():
    """From x0 = 0 the returned solution has the smallest norm among solutions."""
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((3, 6))
    a = DenseMatrix(raw)
    b = raw @ rng.standard_normal(6)
    x_star = least_norm_solution(a, b, np.zeros(6))
    ref = np.linalg.lstsq(raw, b, rcond=None)[0]
    np.testing.assert_allclose(x_star, ref, atol=1e-9)


def test_least_norm_rank_deficient_matches_lstsq():
    """Tall and wide rank-deficient systems whose nonzero singular values
    span four decades: from x0 = 0, x* is lstsq's minimum-norm solution.
    (Working on A A^T squares that spread; the Jacobi solver x* once used
    missed here by up to 1.5e-6.)"""
    rng = np.random.default_rng(29)
    for m, n, r in [(30, 8, 5), (8, 30, 5), (40, 12, 6), (12, 40, 6)]:
        u = np.linalg.qr(rng.standard_normal((m, r)))[0]
        v = np.linalg.qr(rng.standard_normal((n, r)))[0]
        raw = (u * np.logspace(0, -4, r)) @ v.T
        b = raw @ rng.standard_normal(n)
        x_star = least_norm_solution(DenseMatrix(raw), b, np.zeros(n))
        ref = np.linalg.lstsq(raw, b, rcond=None)[0]
        np.testing.assert_allclose(x_star, ref, rtol=0, atol=1e-9)


def test_least_norm_has_no_size_cap():
    """More than 2000 rows (the Jacobi solver's cap on A A^T) is accepted."""
    rng = np.random.default_rng(31)
    raw = rng.standard_normal((2500, 20))
    x_true = rng.standard_normal(20)
    x_star = least_norm_solution(DenseMatrix(raw), raw @ x_true, np.zeros(20))
    np.testing.assert_allclose(x_star, x_true, rtol=0, atol=1e-9)


def test_least_norm_zero_matrix():
    a = DenseMatrix(np.zeros((3, 2)))
    x0 = np.array([1.0, -1.0])
    np.testing.assert_array_equal(least_norm_solution(a, np.zeros(3), x0), x0)
    with pytest.raises(InconsistentSystemError):
        least_norm_solution(a, np.ones(3), x0)
