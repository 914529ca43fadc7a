"""Batched kernels for the reduced solve and the greedy sweep.

One greedy sweep evaluates the reduced solve plus an error indicator at every
training parameter, which dominates offline runtime once the training grid is
large.  ``_solve_chunks`` is the one reduced assemble-and-solve in the
package: the three sweeps and ``reduced_solve`` (and through it
``rbm.rb_solve``, validation, the field and Lagrange files) all use it, so
every reduced solution the program writes is the one the sweep scored.  It
walks the parameters in fixed chunks of ``CHUNK``, serially or over threads.
The classical and stable sweeps share one loop, ``_sweep``, which applies
their formula (``classical_values``, ``stable_values``) to each chunk's
solutions, so their working memory is O(CHUNK N (N + Q_a)) whatever the grid
size; the Lebesgue sweep applies ``lebesgue_values`` to all rows at once.
The three formulas are the only copy of the indicator math: the estimators'
one-point ``value_at`` calls them on a one-row batch.

Every parameter goes through the same BLAS/LAPACK calls, in the same order,
as a per-point evaluation would give it (the test suite keeps that loop as the
reference): the reduced operator and load are assembled by ``+=`` over q in
order, the solve is a stacked ``np.linalg.solve`` with one right-hand side per
system, matrix-vector and dot products are stacked ``np.matmul`` calls (one
gemv or dot per parameter), and the Lagrange back substitution and the |c| sum
run column by column.  The values are therefore bit-identical to per-point
evaluation and do not depend on how the parameters are batched.
``lagrange_values`` is also the only triangular solve for Lagrange
coefficients (``rbm.lagrange_coefficients`` calls it), so a written
coefficient trace sums to the Lebesgue indicator bit for bit.

The kernels take precomputed theta tables, ``theta_a (M, Q_a)`` and
``theta_f (M, Q_f)``, the reduced blocks ``a_blocks (Q_a, N, N)`` and
``f_blocks (Q_f, N)``.  Every formula and sweep returns one float array,
one indicator value per parameter; a value the indicator cannot resolve is
NaN, and only the classical quadratic has such values.
The residual-coefficient ordering is snapshot-major: ``c[m*Q_a + q]``.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "CHUNK",
    "USE_JIT",
    "reduced_solve",
    "residual_coefficients",
    "classical_values",
    "stable_values",
    "lagrange_values",
    "lebesgue_values",
    "classical_sweep",
    "stable_sweep",
    "lebesgue_sweep",
]

#: There is a single, uncompiled backend.  The flag stays because benchmark
#: machine records store it, and comparisons across versions read it there.
USE_JIT = False

#: Parameters per batched call; bounds the stacked reduced systems in memory.
CHUNK = 256

#: Doubles per term product in a chunk's assembly: the 256 KB buffer stays in
#: cache at large N, while up to N = 11 a whole chunk takes one product per
#: term (a fixed row count made small-N sweeps pay per-call overhead).
BLOCK_DOUBLES = 32768


def _solve_chunks(theta_a, theta_f, a_blocks, f_blocks, write, workers=1):
    """Call ``write(lo, hi, u)`` with the reduced solutions ``u (hi - lo, N)``
    of parameters ``lo:hi``, ``CHUNK`` parameters at a time.

    This is the only split of a sweep: the chunk boundaries do not depend on
    ``workers``.  With ``workers > 1`` the chunks are dealt, in index order,
    to at most min(``workers``, usable CPUs, chunk count) threads, so a grid
    of at most ``CHUNK`` points always runs on the calling thread.  ``write``
    must only touch rows ``lo:hi`` of its outputs.
    """
    M, Q_a = theta_a.shape
    N = a_blocks.shape[1]
    a_flat = a_blocks.reshape(Q_a, N * N)
    block = max(1, BLOCK_DOUBLES // (N * N))

    def run(starts):
        # work buffers, one set per thread and call: a chunk's A and rhs
        # start from zeros and add the terms, q in order, ``block`` rows at
        # a time through one product buffer
        A = np.empty((min(CHUNK, M), N * N))
        rhs = np.empty((min(CHUNK, M), N))
        tmp = np.empty((min(block, CHUNK, M), N * N))
        for lo in starts:
            hi = min(lo + CHUNK, M)
            m, ta, tf = hi - lo, theta_a[lo:hi], theta_f[lo:hi]
            A[:m] = 0.0
            rhs[:m] = 0.0
            for b in range(0, m, block):
                e = min(b + block, m)
                a_rows, f_rows, t = A[b:e], rhs[b:e], tmp[:e - b]
                for q in range(Q_a):
                    np.multiply(ta[b:e, q, None], a_flat[q], out=t)
                    a_rows += t
                for q in range(f_blocks.shape[0]):
                    np.multiply(tf[b:e, q, None], f_blocks[q], out=t[:, :N])
                    f_rows += t[:, :N]
            write(lo, hi, np.linalg.solve(A[:m].reshape(m, N, N),
                                          rhs[:m, :, None])[:, :, 0])

    starts = range(0, M, CHUNK)
    # the affinity set is reported on Linux only; elsewhere count every CPU
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threads = min(workers, cpus, len(starts))
    if threads <= 1:
        run(starts)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # reading every result re-raises a thread's exception here
        list(pool.map(run, [starts[i::threads] for i in range(threads)]))


def reduced_solve(theta_a, theta_f, a_blocks, f_blocks, workers=1):
    """Reduced solutions ``u (M, N)``, one row per parameter.

    An exactly singular reduced system raises ``np.linalg.LinAlgError``; a
    near-singular one is solved, not refused.
    """
    u = np.empty((theta_a.shape[0], a_blocks.shape[1]))

    def write(lo, hi, u_chunk):
        u[lo:hi] = u_chunk

    _solve_chunks(theta_a, theta_f, a_blocks, f_blocks, write, workers)
    return u


def residual_coefficients(theta_a, u):
    """``c[:, m*Q_a + q] = theta_a[:, q] * u[:, m]``."""
    return (u[:, :, None] * theta_a[:, None, :]).reshape(
        u.shape[0], u.shape[1] * theta_a.shape[1])


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
    ``theta_f (m, Q_f)`` and residual coefficients ``c (m, N*Q_a)``.  A row
    whose squared form went negative in floating point is NaN: unresolved,
    not zero, since the true residual lies somewhere below the quadratic's
    rounding floor."""
    quad = _dot(_vecmat(theta_f, cc), theta_f) + _dot(_vecmat(c, ll), c) - 2.0 * _dot(
        _vecmat(theta_f, cl), c
    )
    return np.sqrt(np.where(quad < 0.0, np.nan, quad)) / alpha


def stable_values(theta_f, c, alpha, w_coords, qtc, rzt):
    """Pythagorean-split residual estimate for rows of load and residual
    coefficients (never NaN): the complement part ``w_coords theta_f``
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
    of reduced solutions ``u (m, N)`` (never NaN)."""
    c = lagrange_values(u, rs)
    acc = np.zeros(u.shape[0])
    for m in range(u.shape[1]):
        acc += np.abs(c[:, m])
    return acc


# The three sweeps keep their positional arguments 0-7 in this order (for
# ``lebesgue_sweep``, 0-4) and take ``workers`` after them:
# ``bench/tracing.py`` counts points and flops from those positions.


def _sweep(formula, tables, theta_a, theta_f, alpha, a_blocks, f_blocks, workers):
    """``formula(theta_f, c, alpha, *tables)`` on each chunk's coefficients ``c``."""
    values = np.empty(theta_a.shape[0])

    def write(lo, hi, u):
        c = residual_coefficients(theta_a[lo:hi], u)
        values[lo:hi] = formula(theta_f[lo:hi], c, alpha[lo:hi], *tables)

    _solve_chunks(theta_a, theta_f, a_blocks, f_blocks, write, workers)
    return values


def classical_sweep(theta_a, theta_f, alpha, a_blocks, f_blocks, cc, cl, ll, workers=1):
    """``classical_values`` at every parameter."""
    return _sweep(classical_values, (cc, cl, ll), theta_a, theta_f, alpha, a_blocks,
                  f_blocks, workers)


def stable_sweep(theta_a, theta_f, alpha, a_blocks, f_blocks, w_coords, qtc, rzt,
                 workers=1):
    """``stable_values`` at every parameter."""
    return _sweep(stable_values, (w_coords, qtc, rzt), theta_a, theta_f, alpha,
                  a_blocks, f_blocks, workers)


def lebesgue_sweep(theta_a, theta_f, a_blocks, f_blocks, rs, workers=1):
    """``lebesgue_values`` at every parameter, applied to all rows at once:
    its back substitution costs O(N^2) numpy calls per batch, so chunking it
    would only add call overhead (twice the serial time at 4,096 points and
    N = 20)."""
    u = reduced_solve(theta_a, theta_f, a_blocks, f_blocks, workers)
    return lebesgue_values(u, rs)
