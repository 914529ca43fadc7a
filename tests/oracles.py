"""Independent verification oracles used by the test suite.

These deliberately avoid the code paths in the package under test: rank via
singular values, true errors via dense solves and an explicit Galerkin
system.  ``build_basis`` alone is a fixture built with the package itself.
"""

import numpy as np

from rbkit.rbm import empty_basis, empty_model, extend_basis
from rbkit.truth import truth_solve


def svd_rank(B, rel_tol=1e-10):
    """Numerical rank from singular values (independent of any QR code)."""
    s = np.linalg.svd(B, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def dense_operator(op, mu):
    """Dense C-ordered ``A(mu) = sum_q theta_a^q(mu) A^q``, each component
    built from its 1-D factors by ``kron_sum`` below, not by the package's
    writer."""
    return sum(th * kron_sum(Ax, Ay)
               for th, (Ax, Ay) in zip(op.theta_a_values([mu])[0], op.kron_factors))


def true_error_reference(op, basis, mu):
    """True error at mu from a dense ``np.linalg.solve`` truth solution and
    the explicit Galerkin system ``xi^T A xi``, with neither the package's
    truth solvers nor its stored components or reduced blocks: the operator
    is ``dense_operator``."""
    A = dense_operator(op, mu)
    f = sum(th * fq for th, fq in zip(op.theta_f_values([mu])[0], op.f_components))
    xi = basis.xi
    u = np.linalg.solve(A, f)
    u_hat = np.linalg.solve(xi.T @ A @ xi, xi.T @ f)
    return float(np.linalg.norm(u - xi @ u_hat))


def build_basis(op, mus):
    """Basis/model pair from snapshots at the given parameters, through the
    package's ``truth_solve`` and ``extend_basis``."""
    basis = empty_basis(op.dim)
    model = empty_model(len(op.kron_factors), len(op.f_components))
    for mu in mus:
        basis, model = extend_basis(basis, model, mu, truth_solve(op, mu), op)
    return basis, model


# ---------------------------------------------------------------------------
# Per-point sweep references.  One Python iteration per training parameter,
# with the same BLAS/LAPACK calls the batched kernels in ``rbkit.kernels``
# make for each point, so the two must agree bit for bit.


def classical_sweep_loop(theta_a, theta_f, alpha, a_blocks, f_blocks, cc, cl, ll,
                         workers=1):
    """Per-point reference for ``kernels.classical_sweep`` (``workers`` is
    accepted and ignored)."""
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
        quad = np.dot(np.dot(tf, cc), tf) + np.dot(np.dot(c, ll), c) - 2.0 * np.dot(
            np.dot(tf, cl), c
        )
        # a negative quadratic is unresolved, NaN
        values[i] = np.sqrt(quad) / alpha[i] if quad >= 0.0 else np.nan
    return values


def stable_sweep_loop(theta_a, theta_f, alpha, a_blocks, f_blocks, w_coords, qtc, rzt,
                      workers=1):
    """Per-point reference for ``kernels.stable_sweep``, never NaN
    (``workers`` is accepted and ignored)."""
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


def lebesgue_sweep_loop(theta_a, theta_f, a_blocks, f_blocks, rs, workers=1):
    """Per-point reference for ``kernels.lebesgue_sweep``, never NaN
    (``workers`` is accepted and ignored)."""
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


# ---------------------------------------------------------------------------
# Dense operator components built on the full tensor grid and restricted to
# the interior nodes, without the 1-D Kronecker factors.


def kron_sum(Ax, Ay):
    """Dense ``kron(Ax, I) + kron(I, Ay)`` from two ``np.kron`` products, the
    reference for the package's row-major writer ``truth._kron_affine_sum``."""
    A = np.kron(Ax, np.eye(Ay.shape[0]))
    A += np.kron(np.eye(Ax.shape[0]), Ay)
    return A


def dense_components(pid, disc):
    """The ``a_components`` of a built-in problem from the full-grid
    ``d_xx = kron(D2, I)`` and ``d_yy = kron(I, D2)``, restricted to the
    interior."""
    nx = disc.nodes_per_dim
    I1 = np.eye(nx)
    # flattened index k = i*nx + j for (x_i, y_j)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(nx), indexing="ij")
    mask = (ii > 0) & (ii < nx - 1) & (jj > 0) & (jj < nx - 1)
    interior = np.flatnonzero(mask.ravel())
    idx = np.ix_(interior, interior)
    Dxx = np.kron(disc.diff2, I1)[idx]
    Dyy = np.kron(I1, disc.diff2)[idx]
    X, Y = disc.x_int, disc.y_int
    if pid in ("oned-continuous", "oned-discontinuous"):
        return [Dxx + Dyy, X[:, None] * Dxx]
    if pid == "twod-first":
        return [-Dxx, -Dyy, -np.eye(Dxx.shape[0])]
    if pid == "twod-second":
        return [Dxx + Dyy, X[:, None] * Dxx, Y[:, None] * Dyy]
    raise ValueError(pid)
