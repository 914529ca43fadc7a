"""Tests for the dense numerical kernels."""

import numpy as np
import pytest

from rbkit.numerics import (
    SingularSystemError,
    complement_project,
    pivoted_qr,
    smallest_symmetric_eigenvalue,
    solve_dense,
)

import oracles


# ---------------------------------------------------------------------------
# pivoted_qr


def test_pivoted_qr_identity():
    Q, R, perm, rank = pivoted_qr(np.eye(3))
    assert rank == 3
    assert np.allclose(Q @ R, np.eye(3)[:, perm])


def test_pivoted_qr_duplicate_column_rank_one():
    v = np.array([1.0, 2.0, -1.0])
    B = np.column_stack([v, v])
    _, _, _, rank = pivoted_qr(B)
    assert rank == 1


def test_pivoted_qr_rank_matches_svd_oracle():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((50, 6))
    B[:, 2] = 0.3 * B[:, 0] - 1.1 * B[:, 1]
    B[:, 5] = B[:, 3] + 0.5 * B[:, 4]
    Q, R, perm, rank = pivoted_qr(B)
    assert rank == 4
    assert rank == oracles.svd_rank(B)
    # reconstruction of the permuted matrix from the truncated factors
    assert np.linalg.norm(B[:, perm] - Q @ R) <= 1e-12 * np.linalg.norm(B)


def test_pivoted_qr_invariants_random():
    rng = np.random.default_rng(5)
    for shape in [(30, 8), (10, 10), (6, 12)]:
        B = rng.standard_normal(shape)
        Q, R, perm, rank = pivoted_qr(B)
        assert np.linalg.norm(Q.T @ Q - np.eye(rank)) <= 1e-12 * max(rank, 1)
        diag = np.abs(np.diag(R))
        assert np.all(np.diff(diag) <= 1e-12 * diag[0])
        assert np.linalg.norm(B[:, perm] - Q @ R) <= 1e-12 * np.linalg.norm(B)


def test_pivoted_qr_zero_matrix():
    Q, R, perm, rank = pivoted_qr(np.zeros((4, 3)))
    assert rank == 0
    assert Q.shape == (4, 0)
    assert sorted(perm) == [0, 1, 2]


# ---------------------------------------------------------------------------
# complement_project


def test_complement_annihilates_range():
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
    v = Q @ rng.standard_normal(5)
    w = complement_project(Q, v)
    assert np.linalg.norm(w) <= 1e-12 * np.linalg.norm(v)


def test_complement_empty_q_is_identity():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(complement_project(np.zeros((3, 0)), v), v)


def test_complement_pythagoras_and_idempotence():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 7)))
    v = rng.standard_normal(40)
    w = complement_project(Q, v)
    lhs = np.linalg.norm(v) ** 2
    rhs = np.linalg.norm(Q.T @ v) ** 2 + np.linalg.norm(w) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert np.linalg.norm(complement_project(Q, w) - w) <= 1e-12 * np.linalg.norm(v)
    # orthogonality to every column
    assert np.max(np.abs(Q.T @ w)) <= 1e-12 * np.linalg.norm(v)


def test_complement_dimension_mismatch():
    with pytest.raises(ValueError):
        complement_project(np.eye(3), np.ones(4))


# ---------------------------------------------------------------------------
# solve_dense


def test_solve_identity():
    b = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(solve_dense(np.eye(3), b), b)


def test_solve_diagonal():
    x = solve_dense(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_solve_random_residual():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
    b = rng.standard_normal(30)
    x = solve_dense(A, b)
    res = np.linalg.norm(A @ x - b)
    assert res <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_singular_raises_with_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystemError) as err:
        solve_dense(A, np.ones(2))
    assert err.value.pivot is not None


# ---------------------------------------------------------------------------
# smallest_symmetric_eigenvalue


def test_smallest_eig_identity():
    assert smallest_symmetric_eigenvalue(np.eye(4)) == pytest.approx(1.0)


def test_smallest_eig_diagonal():
    assert smallest_symmetric_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)


def test_smallest_eig_matches_bisection_oracle():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((20, 20))
    A = 0.5 * (A + A.T)
    lam = smallest_symmetric_eigenvalue(A)
    ref = oracles.smallest_eig_bisection(A)
    assert lam == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_smallest_eig_rayleigh_lower_bound():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((15, 15))
    lam = smallest_symmetric_eigenvalue(A)
    S = 0.5 * (A + A.T)
    for _ in range(10):
        w = rng.standard_normal(15)
        w /= np.linalg.norm(w)
        assert (w @ S @ w) / (w @ w) >= lam - 1e-8 * np.linalg.norm(A)
