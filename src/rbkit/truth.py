"""Chebyshev collocation truth discretization on [-1,1]^2 and the affine
operator assembly for the four built-in parametric test problems.

All problems impose homogeneous Dirichlet conditions, handled by restricting
the tensorized operators to interior grid nodes (boundary rows and columns
eliminated), which keeps the affine decomposition exact.

On interior nodes every operator component is a Kronecker sum
``A^q = kron(Ax^q, I) + kron(I, Ay^q)`` of 1-D factors, so with ``U[i, j]``
the value at ``(x_i, y_j)`` the system ``A(mu) u = f(mu)`` is the Sylvester
equation ``Ax(mu) U + U Ay(mu)^T = F``.  The greedy's snapshots use the dense
LU solve (``truth_solve``); validation sweeps solve the Sylvester form by
Bartels-Stewart (``truth_solve_many``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .numerics import solve_dense

__all__ = [
    "ProblemSpec",
    "TruthDiscretization",
    "AffineOperator",
    "Snapshot",
    "PROBLEM_IDS",
    "chebyshev_grid",
    "problem_spec",
    "build_discretization",
    "assemble_affine",
    "kron_sum",
    "assemble",
    "load_vector",
    "truth_solve",
    "truth_solve_many",
]

PROBLEM_IDS = ("oned-continuous", "oned-discontinuous", "twod-first", "twod-second")

#: sign convention used in the discontinuous coefficient at mu = 0.  The
#: training grids never place a point exactly at 0, so any total extension
#: works; +1 is fixed here for reproducibility.
SIGN_AT_ZERO = 1.0


def chebyshev_grid(n):
    """Chebyshev-Gauss-Lobatto nodes and differentiation matrix of degree n.

    Nodes are ``cos(j*pi/n)`` for j = 0..n, descending from 1 to -1.  The
    returned (n+1) x (n+1) matrix differentiates polynomials of degree <= n
    exactly on the node set (standard Trefethen construction).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


@dataclass(frozen=True)
class ProblemSpec:
    """Identity and parameter-domain description of a test problem."""

    id: str
    param_dim: int
    param_domain: tuple  # ((lo, hi), ...) per parameter dimension
    Q_a: int
    Q_f: int


@dataclass
class TruthDiscretization:
    """Interior-restricted 2-D Chebyshev collocation workspace."""

    nodes_per_dim: int
    nodes: np.ndarray  # 1-D node vector, length nodes_per_dim
    diff1: np.ndarray  # first-derivative matrix on the full node set
    diff2: np.ndarray  # second-derivative matrix on the full node set
    interior: np.ndarray  # indices of interior nodes in the flattened grid
    x_int: np.ndarray  # x coordinate at each interior node
    y_int: np.ndarray  # y coordinate at each interior node

    @property
    def interior_dim(self):
        return self.interior.shape[0]


@dataclass
class AffineOperator:
    """Affine decomposition: sum_q theta_a^q(mu) A^q and sum_q theta_f^q(mu) f^q."""

    spec: ProblemSpec
    a_components: list  # Q_a interior matrices
    f_components: list  # Q_f interior vectors
    theta_a: list  # Q_a callables mu -> float
    theta_f: list  # Q_f callables mu -> float
    #: Q_a pairs (Ax^q, Ay^q) with A^q = kron_sum(Ax^q, Ay^q); None for an
    #: operator without Kronecker structure
    kron_factors: list | None = None

    @property
    def dim(self):
        return self.a_components[0].shape[0]

    def theta_a_values(self, mus):
        """Evaluate all theta_a over an (M, p) array of parameters -> (M, Q_a)."""
        mus = np.atleast_2d(np.asarray(mus, dtype=float))
        return np.column_stack([
            np.array([th(mu) for mu in mus]) for th in self.theta_a
        ])

    def theta_f_values(self, mus):
        mus = np.atleast_2d(np.asarray(mus, dtype=float))
        return np.column_stack([
            np.array([th(mu) for mu in mus]) for th in self.theta_f
        ])


@dataclass
class Snapshot:
    """Truth solution at a single parameter point."""

    mu: np.ndarray
    values: np.ndarray


def problem_spec(problem_id):
    if problem_id in ("oned-continuous", "oned-discontinuous"):
        return ProblemSpec(problem_id, 1, ((-0.995, 0.995),), Q_a=2, Q_f=1)
    if problem_id == "twod-first":
        return ProblemSpec(problem_id, 2, ((0.1, 4.0), (0.0, 2.0)), Q_a=3, Q_f=1)
    if problem_id == "twod-second":
        return ProblemSpec(problem_id, 2, ((-0.99, 0.99), (-0.99, 0.99)), Q_a=3, Q_f=1)
    raise ValueError(f"unknown problem id {problem_id!r}")


def build_discretization(nodes_per_dim):
    """Set up the tensor-product Chebyshev grid with interior restriction.

    ``nodes_per_dim`` counts all nodes per direction (boundary included), so
    the interior dimension is ``(nodes_per_dim - 2)**2``.
    """
    if nodes_per_dim < 3:
        raise ValueError("need at least 3 nodes per direction")
    n = nodes_per_dim - 1
    x, D = chebyshev_grid(n)
    D2 = D @ D
    nx = nodes_per_dim
    # flattened index k = i*nx + j for (x_i, y_j)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(nx), indexing="ij")
    mask = (ii > 0) & (ii < nx - 1) & (jj > 0) & (jj < nx - 1)
    interior = np.flatnonzero(mask.ravel())
    X = x[ii.ravel()[interior]]
    Y = x[jj.ravel()[interior]]
    return TruthDiscretization(
        nodes_per_dim=nodes_per_dim,
        nodes=x,
        diff1=D,
        diff2=D2,
        interior=interior,
        x_int=X,
        y_int=Y,
    )


def kron_sum(Ax, Ay):
    """Dense ``kron(Ax, I) + kron(I, Ay)`` in the ``k = i*ny + j`` order."""
    A = np.kron(Ax, np.eye(Ay.shape[0]))
    A += np.kron(np.eye(Ax.shape[0]), Ay)
    return A


def _sign(t):
    return SIGN_AT_ZERO if t == 0 else float(np.sign(t))


def assemble_affine(spec, disc):
    """Assemble the parameter-independent components for a built-in problem:
    the 1-D factor pairs and the dense components derived from them."""
    D2 = disc.diff2[1:-1, 1:-1]
    x = disc.nodes[1:-1]
    Z = np.zeros_like(D2)
    X = disc.x_int
    Y = disc.y_int
    pid = spec.id
    if pid in ("oned-continuous", "oned-discontinuous"):
        # (1 + l(mu) x) u_xx + u_yy = e^{4xy}, l = identity or the
        # discontinuous sin((mu - sign(mu)) pi/2)
        pairs = [(D2, D2), (x[:, None] * D2, Z)]
        f_components = [np.exp(4.0 * X * Y)]
        if pid == "oned-continuous":
            theta2 = lambda mu: float(mu[0])
        else:
            theta2 = lambda mu: float(np.sin((mu[0] - _sign(mu[0])) * np.pi / 2.0))
        theta_a = [lambda mu: 1.0, theta2]
        theta_f = [lambda mu: 1.0]
    elif pid == "twod-first":
        # -u_xx - mu1 u_yy - mu2 u = -10 sin(8x(y-1))
        pairs = [(-D2, Z), (Z, -D2), (-np.eye(D2.shape[0]), Z)]
        f_components = [-10.0 * np.sin(8.0 * X * (Y - 1.0))]
        theta_a = [lambda mu: 1.0, lambda mu: float(mu[0]), lambda mu: float(mu[1])]
        theta_f = [lambda mu: 1.0]
    elif pid == "twod-second":
        # (1 + mu1 x) u_xx + (1 + mu2 y) u_yy = e^{4xy}; y has the nodes of x
        pairs = [(D2, D2), (x[:, None] * D2, Z), (Z, x[:, None] * D2)]
        f_components = [np.exp(4.0 * X * Y)]
        theta_a = [lambda mu: 1.0, lambda mu: float(mu[0]), lambda mu: float(mu[1])]
        theta_f = [lambda mu: 1.0]
    else:
        raise ValueError(f"unknown problem id {pid!r}")
    return AffineOperator(
        spec=spec,
        a_components=[kron_sum(Ax, Ay) for Ax, Ay in pairs],
        f_components=f_components,
        theta_a=theta_a,
        theta_f=theta_f,
        kron_factors=pairs,
    )


def assemble(op, mu):
    """Full operator matrix at mu: sum_q theta_a^q(mu) A^q."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    A = np.zeros_like(op.a_components[0])
    for th, Aq in zip(op.theta_a, op.a_components):
        A += th(mu) * Aq
    return A


def load_vector(op, mu):
    """Load vector at mu: sum_q theta_f^q(mu) f^q."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    f = np.zeros_like(op.f_components[0])
    for th, fq in zip(op.theta_f, op.f_components):
        f += th(mu) * fq
    return f


def truth_solve(op, mu):
    """High-fidelity solve of the assembled system at mu."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    u = solve_dense(assemble(op, mu), load_vector(op, mu))
    return Snapshot(mu=mu, values=u)


def truth_solve_many(op, mus):
    """Truth solutions at many parameters, one row per point, through the
    Sylvester form ``Ax(mu) U + U Ay(mu)^T = F(mu)`` of a Kronecker-sum
    operator: real Schur forms of both factors and LAPACK ``trsyl``
    (Bartels-Stewart).  A row is NaN where the operator is singular or
    nearly so (``trsyl`` reports close eigenvalues of ``Ax`` and ``-Ay``, or
    had to scale the solution down) or where the solution is not finite.
    """
    if op.kron_factors is None:
        raise ValueError("operator has no Kronecker factors")
    mus = np.atleast_2d(np.asarray(mus, dtype=float))
    ta = op.theta_a_values(mus)
    rhs = op.theta_f_values(mus) @ np.stack(op.f_components)
    nx = op.kron_factors[0][0].shape[0]
    ny = op.kron_factors[0][1].shape[0]
    out = np.empty((mus.shape[0], nx * ny))
    (trsyl,) = sla.get_lapack_funcs(("trsyl",), (out,))
    for i in range(mus.shape[0]):
        Ax = sum(t * Fx for t, (Fx, _) in zip(ta[i], op.kron_factors))
        Ay = sum(t * Fy for t, (_, Fy) in zip(ta[i], op.kron_factors))
        Tx, Qx = sla.schur(Ax, output="real")
        Ty, Qy = sla.schur(Ay, output="real")
        C = Qx.T @ rhs[i].reshape(nx, ny) @ Qy
        Y, scale, info = trsyl(Tx, Ty, C, tranb="T")
        U = Qx @ Y @ Qy.T
        if info != 0 or scale != 1.0 or not np.all(np.isfinite(U)):
            out[i] = np.nan
        else:
            out[i] = U.ravel()
    return out
