"""Tests for the dense numerical kernels."""

import math

import numpy as np
import pytest

from rbkit.numerics import (
    FINITE_BLOCK,
    _mgs_coeffs,
    pivoted_qr,
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
    # an all-zero matrix and one without columns both have rank 0
    for ncols in (3, 0):
        Q, R, perm, rank = pivoted_qr(np.zeros((4, ncols)))
        assert rank == 0
        assert Q.shape == (4, 0)
        assert R.shape == (0, ncols)
        assert sorted(perm) == list(range(ncols))


# ---------------------------------------------------------------------------
# _mgs_coeffs: the remainder is the orthogonal-complement part of v


def test_complement_annihilates_range():
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
    v = Q @ rng.standard_normal(5)
    _, w = _mgs_coeffs(Q, v)
    assert np.linalg.norm(w) <= 1e-12 * np.linalg.norm(v)


def test_complement_empty_q_is_identity():
    v = np.array([1.0, -2.0, 3.0])
    coeffs, w = _mgs_coeffs(np.zeros((3, 0)), v)
    assert coeffs.shape == (0,)
    assert np.array_equal(w, v)
    assert w is not v


def test_complement_pythagoras_and_idempotence():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 7)))
    v = rng.standard_normal(40)
    coeffs, w = _mgs_coeffs(Q, v)
    lhs = np.linalg.norm(v) ** 2
    rhs = np.linalg.norm(Q.T @ v) ** 2 + np.linalg.norm(w) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert np.linalg.norm(_mgs_coeffs(Q, w)[1] - w) <= 1e-12 * np.linalg.norm(v)
    # orthogonality to every column
    assert np.max(np.abs(Q.T @ w)) <= 1e-12 * np.linalg.norm(v)
    # the coefficients and the remainder give back v
    assert np.linalg.norm(Q @ coeffs + w - v) <= 1e-12 * np.linalg.norm(v)


def test_complement_dimension_mismatch():
    with pytest.raises(ValueError):
        _mgs_coeffs(np.eye(3), np.ones(4))


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
    x = solve_dense(A.copy(), b)  # solve_dense may overwrite A
    res = np.linalg.norm(A @ x - b)
    assert res <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_singular_raises_with_pivot():
    # singular at any scale, and the all-zero matrix, raise
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    for M in (A, 1e-17 * A, np.zeros((2, 2))):
        with pytest.raises(np.linalg.LinAlgError, match=r"\(pivot \d\.\d{3}e[+-]\d+\)"):
            solve_dense(M, np.ones(2))


@pytest.mark.parametrize("scale", [1e-17, 1e-200])
def test_solve_scaled_identity(scale):
    # the singularity decision is relative to the largest pivot, so a
    # well-conditioned matrix of any scale is solved
    x = solve_dense(scale * np.eye(3), scale * np.array([1.0, -2.0, 0.5]))
    assert np.allclose(x, [1.0, -2.0, 0.5], rtol=1e-14, atol=0)


#: Order of a matrix whose memory spans two full ``FINITE_BLOCK`` blocks and
#: a partial third.
_BLOCKS_ORDER = math.isqrt(5 * FINITE_BLOCK // 2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("block", ["first", "middle", "last"])
def test_solve_rejects_non_finite_operator(block, order, value):
    n = _BLOCKS_ORDER
    assert 2 * FINITE_BLOCK < n * n < 3 * FINITE_BLOCK
    A = np.asarray(np.eye(n), order=order)
    # flat index in memory order: the first entry, one inside the second
    # block, and the last entry, in the partial third block
    pos = {"first": 0, "middle": FINITE_BLOCK + 7, "last": n * n - 1}[block]
    A.ravel(order="K")[pos] = value
    with pytest.raises(ValueError, match="^A contains non-finite entries$"):
        solve_dense(A, np.ones(n))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_solve_rejects_non_finite_load(value):
    b = np.ones(4)
    b[2] = value
    with pytest.raises(ValueError, match="^b contains non-finite entries$"):
        solve_dense(np.eye(4), b)


@pytest.mark.parametrize("call", [lambda A: solve_dense(A, np.ones(2))],
                         ids=["solve_dense"])
def test_non_square_matrix_rejected(call):
    with pytest.raises(ValueError, match="A must be square"):
        call(np.ones((2, 3)))
