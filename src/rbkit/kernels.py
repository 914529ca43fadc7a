"""Batched kernels for the greedy sweep.

One greedy sweep evaluates the reduced solve plus an error indicator at every
training parameter, which dominates offline runtime once the training grid is
large.  Each kernel walks the training set in fixed chunks of ``CHUNK``
parameters, so its working memory is O(CHUNK N^2) whatever the grid size.
Within a chunk, ``_reduced_solve`` assembles and solves the stacked reduced
systems, and each indicator adds its own post-processing, vectorised over the
chunk.

Every parameter goes through the same BLAS/LAPACK calls, in the same order,
as a per-point evaluation would give it (the test suite keeps that loop as the
reference): the reduced operator and load are assembled by ``+=`` over q in
order, the solve is a stacked ``np.linalg.solve`` with one right-hand side per
system, matrix-vector and dot products are stacked ``np.matmul`` calls (one
gemv or dot per parameter), and the Lagrange back substitution and the |c| sum
run column by column.  The values are therefore bit-identical to per-point
evaluation and do not depend on how the training set is split, so a
chunk-parallel sweep reproduces the serial one.

All kernels take precomputed theta tables, ``theta_a (M, Q_a)`` and
``theta_f (M, Q_f)``, the reduced blocks ``a_blocks (Q_a, N, N)`` and
``f_blocks (Q_f, N)``, and return one indicator value per parameter.  The
residual-coefficient ordering is snapshot-major: ``c[m*Q_a + q]``.
"""

import numpy as np

__all__ = [
    "CHUNK",
    "USE_JIT",
    "classical_sweep",
    "stable_sweep",
    "lebesgue_sweep",
]

#: There is a single, uncompiled backend.  The flag stays because run
#: metadata (``metadata.json``) and benchmark machine records store it, and
#: comparisons across versions read it there.
USE_JIT = False

#: Parameters per batched call; bounds the stacked reduced systems in memory.
CHUNK = 256


def _chunks(M):
    for lo in range(0, M, CHUNK):
        yield lo, min(lo + CHUNK, M)


def _reduced_solve(theta_a, theta_f, a_blocks, f_blocks):
    """Reduced solutions ``u (m, N)`` for a chunk of ``m`` parameters."""
    m, N = theta_a.shape[0], a_blocks.shape[1]
    A = np.zeros((m, N, N))
    for q in range(a_blocks.shape[0]):
        A += theta_a[:, q, None, None] * a_blocks[q]
    rhs = np.zeros((m, N))
    for q in range(f_blocks.shape[0]):
        rhs += theta_f[:, q, None] * f_blocks[q]
    return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]


def _residual_coefficients(theta_a, u):
    """``c[:, m*Q_a + q] = theta_a[:, q] * u[:, m]``."""
    return (u[:, :, None] * theta_a[:, None, :]).reshape(u.shape[0], -1)


def _vecmat(x, B):
    """Row ``i`` is ``x[i] @ B`` (one gemv per row)."""
    return np.matmul(x[:, None, :], B)[:, 0, :]


def _matvec(B, x):
    """Row ``i`` is ``B @ x[i]`` (one gemv per row)."""
    return np.matmul(B, x[:, :, None])[:, :, 0]


def _dot(x, y):
    """Entry ``i`` is ``x[i] @ y[i]`` (one dot per row)."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def classical_sweep(theta_a, theta_f, alpha, a_blocks, f_blocks, cc, cl, ll):
    """Expanded-quadratic residual estimate per parameter; returns
    (values, clamped) where clamped marks parameters whose squared form went
    negative in floating point and was clamped at zero.  A clamped value is
    unresolved, not zero: the true residual lies somewhere below the
    quadratic's rounding floor."""
    M = theta_a.shape[0]
    values = np.empty(M)
    clamped = np.zeros(M, dtype=np.bool_)
    for lo, hi in _chunks(M):
        ta, tf = theta_a[lo:hi], theta_f[lo:hi]
        c = _residual_coefficients(ta, _reduced_solve(ta, tf, a_blocks, f_blocks))
        quad = _dot(_vecmat(tf, cc), tf) + _dot(_vecmat(c, ll), c) - 2.0 * _dot(
            _vecmat(tf, cl), c
        )
        neg = quad < 0.0
        clamped[lo:hi] = neg
        values[lo:hi] = np.sqrt(np.where(neg, 0.0, quad)) / alpha[lo:hi]
    return values, clamped


def stable_sweep(theta_a, theta_f, alpha, a_blocks, f_blocks, w_coords, qtc, rzt):
    """Pythagorean-split residual estimate per parameter (never clamped)."""
    M = theta_a.shape[0]
    values = np.empty(M)
    for lo, hi in _chunks(M):
        ta, tf = theta_a[lo:hi], theta_f[lo:hi]
        c = _residual_coefficients(ta, _reduced_solve(ta, tf, a_blocks, f_blocks))
        t1 = _matvec(w_coords, tf)
        t2 = _matvec(qtc, tf) - _matvec(rzt, c)
        values[lo:hi] = np.sqrt(_dot(t1, t1) + _dot(t2, t2)) / alpha[lo:hi]
    return values


def lebesgue_sweep(theta_a, theta_f, a_blocks, f_blocks, rs):
    """Sum of absolute snapshot-basis (Lagrange) coefficients per parameter.

    ``rs`` is the upper-triangular change-of-basis factor with
    snapshots = basis @ rs; the Lagrange coefficients solve rs c = u by
    back substitution.
    """
    M = theta_a.shape[0]
    N = a_blocks.shape[1]
    values = np.empty(M)
    for lo, hi in _chunks(M):
        u = _reduced_solve(theta_a[lo:hi], theta_f[lo:hi], a_blocks, f_blocks)
        c = np.empty_like(u)
        for m in range(N - 1, -1, -1):
            s = u[:, m].copy()
            for k in range(m + 1, N):
                s -= rs[m, k] * c[:, k]
            c[:, m] = s / rs[m, m]
        acc = np.zeros(hi - lo)
        for m in range(N):
            acc += np.abs(c[:, m])
        values[lo:hi] = acc
    return values
