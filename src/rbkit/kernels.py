"""Batched kernels for the greedy sweep.

One greedy sweep evaluates the reduced solve plus an error indicator at every
training parameter, which dominates offline runtime once the training grid is
large.  Each kernel walks the training set in fixed chunks of ``CHUNK``
parameters, so its working memory is O(CHUNK N^2) whatever the grid size.
Within a chunk, ``_reduced_solve`` assembles and solves the stacked reduced
systems, and each indicator's formula (``classical_values``, ``stable_values``,
``lebesgue_values``) post-processes the chunk.  Those three functions are the
only copy of the indicator math: the estimators' one-point ``value_at`` calls
them on a one-row batch.

Every parameter goes through the same BLAS/LAPACK calls, in the same order,
as a per-point evaluation would give it (the test suite keeps that loop as the
reference): the reduced operator and load are assembled by ``+=`` over q in
order, the solve is a stacked ``np.linalg.solve`` with one right-hand side per
system, matrix-vector and dot products are stacked ``np.matmul`` calls (one
gemv or dot per parameter), and the Lagrange back substitution and the |c| sum
run column by column.  The values are therefore bit-identical to per-point
evaluation and do not depend on how the training set is split, so a
chunk-parallel sweep reproduces the serial one.  ``lagrange_values`` is also
the only triangular solve for Lagrange coefficients
(``rbm.lagrange_coefficients`` calls it), so a written coefficient trace sums
to the Lebesgue indicator bit for bit.

The sweep kernels take precomputed theta tables, ``theta_a (M, Q_a)`` and
``theta_f (M, Q_f)``, the reduced blocks ``a_blocks (Q_a, N, N)`` and
``f_blocks (Q_f, N)``, and return one indicator value per parameter.  The
residual-coefficient ordering is snapshot-major: ``c[m*Q_a + q]``.
"""

import numpy as np

__all__ = [
    "CHUNK",
    "USE_JIT",
    "residual_coefficients",
    "classical_values",
    "stable_values",
    "lagrange_values",
    "lebesgue_values",
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


def residual_coefficients(theta_a, u):
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


def classical_values(theta_f, c, alpha, cc, cl, ll):
    """Expanded-quadratic residual estimate for rows of load coefficients
    ``theta_f (m, Q_f)`` and residual coefficients ``c (m, N*Q_a)``; returns
    (values, clamped) where clamped marks rows whose squared form went
    negative in floating point and was clamped at zero.  A clamped value is
    unresolved, not zero: the true residual lies somewhere below the
    quadratic's rounding floor."""
    quad = _dot(_vecmat(theta_f, cc), theta_f) + _dot(_vecmat(c, ll), c) - 2.0 * _dot(
        _vecmat(theta_f, cl), c
    )
    clamped = quad < 0.0
    return np.sqrt(np.where(clamped, 0.0, quad)) / alpha, clamped


def stable_values(theta_f, c, alpha, w_coords, qtc, rzt):
    """Pythagorean-split residual estimate for rows of load and residual
    coefficients (never clamped): the complement part ``w_coords theta_f``
    and the range part ``qtc theta_f - rzt c`` are normed separately."""
    t1 = _matvec(w_coords, theta_f)
    t2 = _matvec(qtc, theta_f) - _matvec(rzt, c)
    return np.sqrt(_dot(t1, t1) + _dot(t2, t2)) / alpha


def lagrange_values(u, rs):
    """Snapshot-basis (Lagrange) coefficients ``c (m, N)`` for rows of
    reduced solutions ``u (m, N)``.

    ``rs`` is the upper-triangular change-of-basis factor with
    snapshots = basis @ rs; the coefficients solve rs c = u by column back
    substitution, elementwise across rows, so a row's result does not depend
    on the batch it comes in.
    """
    N = u.shape[1]
    c = np.empty_like(u)
    for m in range(N - 1, -1, -1):
        s = u[:, m].copy()
        for k in range(m + 1, N):
            s -= rs[m, k] * c[:, k]
        c[:, m] = s / rs[m, m]
    return c


def lebesgue_values(u, rs):
    """Sum of absolute Lagrange coefficients (``lagrange_values``) for rows
    of reduced solutions ``u (m, N)``."""
    c = lagrange_values(u, rs)
    acc = np.zeros(u.shape[0])
    for m in range(u.shape[1]):
        acc += np.abs(c[:, m])
    return acc


def classical_sweep(theta_a, theta_f, alpha, a_blocks, f_blocks, cc, cl, ll):
    """``classical_values`` at every parameter; returns (values, clamped)."""
    M = theta_a.shape[0]
    values = np.empty(M)
    clamped = np.zeros(M, dtype=np.bool_)
    for lo, hi in _chunks(M):
        ta, tf = theta_a[lo:hi], theta_f[lo:hi]
        c = residual_coefficients(ta, _reduced_solve(ta, tf, a_blocks, f_blocks))
        values[lo:hi], clamped[lo:hi] = classical_values(
            tf, c, alpha[lo:hi], cc, cl, ll
        )
    return values, clamped


def stable_sweep(theta_a, theta_f, alpha, a_blocks, f_blocks, w_coords, qtc, rzt):
    """``stable_values`` at every parameter."""
    M = theta_a.shape[0]
    values = np.empty(M)
    for lo, hi in _chunks(M):
        ta, tf = theta_a[lo:hi], theta_f[lo:hi]
        c = residual_coefficients(ta, _reduced_solve(ta, tf, a_blocks, f_blocks))
        values[lo:hi] = stable_values(tf, c, alpha[lo:hi], w_coords, qtc, rzt)
    return values


def lebesgue_sweep(theta_a, theta_f, a_blocks, f_blocks, rs):
    """``lebesgue_values`` at every parameter."""
    M = theta_a.shape[0]
    values = np.empty(M)
    for lo, hi in _chunks(M):
        u = _reduced_solve(theta_a[lo:hi], theta_f[lo:hi], a_blocks, f_blocks)
        values[lo:hi] = lebesgue_values(u, rs)
    return values
