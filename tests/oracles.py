"""Independent verification oracles used by the test suite.

These deliberately avoid the code paths in the package under test: rank via
singular values, smallest eigenvalue via inertia bisection on an LDL^T
factorization, norms via explicit summation.
"""

import numpy as np
import scipy.linalg as sla


def svd_rank(B, rel_tol=1e-10):
    """Numerical rank from singular values (independent of any QR code)."""
    s = np.linalg.svd(B, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _count_eigs_below(S, t):
    """Number of eigenvalues of symmetric S strictly below t, from the
    inertia of the LDL^T factorization of S - t I."""
    _, D, _ = sla.ldl(S - t * np.eye(S.shape[0]))
    count = 0
    j = 0
    n = D.shape[0]
    while j < n:
        if j + 1 < n and D[j, j + 1] != 0.0:
            # 2x2 block: one positive and one negative eigenvalue iff the
            # determinant is negative
            det = D[j, j] * D[j + 1, j + 1] - D[j, j + 1] * D[j + 1, j]
            tr = D[j, j] + D[j + 1, j + 1]
            if det < 0.0:
                count += 1
            elif det > 0.0 and tr < 0.0:
                count += 2
            j += 2
        else:
            if D[j, j] < 0.0:
                count += 1
            j += 1
    return count


def smallest_eig_bisection(A, iters=200):
    """Smallest eigenvalue of sym(A) by inertia bisection; no eigensolver."""
    S = 0.5 * (A + A.T)
    bound = np.linalg.norm(S, np.inf) + 1.0
    lo, hi = -bound, bound
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(S, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def direct_norm(v):
    """Euclidean norm by explicit summation."""
    acc = 0.0
    for x in np.asarray(v, dtype=float):
        acc += x * x
    return float(np.sqrt(acc))


# ---------------------------------------------------------------------------
# Per-point sweep references.  One Python iteration per training parameter,
# with the same BLAS/LAPACK calls the batched kernels in ``rbkit.kernels``
# make for each point, so the two must agree bit for bit.


def classical_sweep_loop(theta_a, theta_f, alpha, a_blocks, f_blocks, cc, cl, ll):
    """Per-point reference for ``kernels.classical_sweep``."""
    M = theta_a.shape[0]
    Qa = a_blocks.shape[0]
    Qf = f_blocks.shape[0]
    N = a_blocks.shape[1]
    values = np.empty(M)
    clamped = np.zeros(M, dtype=np.bool_)
    for i in range(M):
        A = np.zeros((N, N))
        for q in range(Qa):
            A += theta_a[i, q] * a_blocks[q]
        rhs = np.zeros(N)
        for q in range(Qf):
            rhs += theta_f[i, q] * f_blocks[q]
        u = np.linalg.solve(A, rhs)
        c = np.empty(N * Qa)
        for m in range(N):
            for q in range(Qa):
                c[m * Qa + q] = theta_a[i, q] * u[m]
        tf = theta_f[i]
        quad = np.dot(np.dot(tf, cc), tf) + np.dot(np.dot(c, ll), c) - 2.0 * np.dot(
            np.dot(tf, cl), c
        )
        if quad < 0.0:
            clamped[i] = True
            quad = 0.0
        values[i] = np.sqrt(quad) / alpha[i]
    return values, clamped


def stable_sweep_loop(theta_a, theta_f, alpha, a_blocks, f_blocks, w_coords, qtc, rzt):
    """Per-point reference for ``kernels.stable_sweep``."""
    M = theta_a.shape[0]
    Qa = a_blocks.shape[0]
    Qf = f_blocks.shape[0]
    N = a_blocks.shape[1]
    values = np.empty(M)
    for i in range(M):
        A = np.zeros((N, N))
        for q in range(Qa):
            A += theta_a[i, q] * a_blocks[q]
        rhs = np.zeros(N)
        for q in range(Qf):
            rhs += theta_f[i, q] * f_blocks[q]
        u = np.linalg.solve(A, rhs)
        c = np.empty(N * Qa)
        for m in range(N):
            for q in range(Qa):
                c[m * Qa + q] = theta_a[i, q] * u[m]
        tf = theta_f[i]
        t1 = np.dot(w_coords, tf)
        t2 = np.dot(qtc, tf) - np.dot(rzt, c)
        values[i] = np.sqrt(np.dot(t1, t1) + np.dot(t2, t2)) / alpha[i]
    return values


def lebesgue_sweep_loop(theta_a, theta_f, a_blocks, f_blocks, rs):
    """Per-point reference for ``kernels.lebesgue_sweep``."""
    M = theta_a.shape[0]
    Qa = a_blocks.shape[0]
    Qf = f_blocks.shape[0]
    N = a_blocks.shape[1]
    values = np.empty(M)
    for i in range(M):
        A = np.zeros((N, N))
        for q in range(Qa):
            A += theta_a[i, q] * a_blocks[q]
        rhs = np.zeros(N)
        for q in range(Qf):
            rhs += theta_f[i, q] * f_blocks[q]
        u = np.linalg.solve(A, rhs)
        c = np.empty(N)
        for m in range(N - 1, -1, -1):
            s = u[m]
            for k in range(m + 1, N):
                s -= rs[m, k] * c[k]
            c[m] = s / rs[m, m]
        acc = 0.0
        for m in range(N):
            acc += abs(c[m])
        values[i] = acc
    return values
