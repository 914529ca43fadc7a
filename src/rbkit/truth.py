"""Chebyshev collocation truth discretization on [-1,1]^2 and the affine
operator assembly for the four built-in parametric test problems.

All problems impose homogeneous Dirichlet conditions, handled by restricting
the tensorized operators to interior grid nodes (boundary rows and columns
eliminated), which keeps the affine decomposition exact.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    "assemble",
    "load_vector",
    "truth_solve",
    "true_error",
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


def _interior_ops(disc):
    """Interior-restricted d_xx, d_yy and the diagonal coordinate scalings."""
    nx = disc.nodes_per_dim
    I1 = np.eye(nx)
    Dxx = np.kron(disc.diff2, I1)
    Dyy = np.kron(I1, disc.diff2)
    idx = disc.interior
    Dxx = Dxx[np.ix_(idx, idx)]
    Dyy = Dyy[np.ix_(idx, idx)]
    return Dxx, Dyy


def _sign(t):
    return SIGN_AT_ZERO if t == 0 else float(np.sign(t))


def assemble_affine(spec, disc):
    """Assemble the parameter-independent components for a built-in problem."""
    Dxx, Dyy = _interior_ops(disc)
    X = disc.x_int
    Y = disc.y_int
    pid = spec.id
    if pid in ("oned-continuous", "oned-discontinuous"):
        # (1 + l(mu) x) u_xx + u_yy = e^{4xy}, l = identity or the
        # discontinuous sin((mu - sign(mu)) pi/2)
        a_components = [Dxx + Dyy, X[:, None] * Dxx]
        f_components = [np.exp(4.0 * X * Y)]
        if pid == "oned-continuous":
            theta2 = lambda mu: float(mu[0])
        else:
            theta2 = lambda mu: float(np.sin((mu[0] - _sign(mu[0])) * np.pi / 2.0))
        theta_a = [lambda mu: 1.0, theta2]
        theta_f = [lambda mu: 1.0]
    elif pid == "twod-first":
        # -u_xx - mu1 u_yy - mu2 u = -10 sin(8x(y-1))
        n_int = Dxx.shape[0]
        a_components = [-Dxx, -Dyy, -np.eye(n_int)]
        f_components = [-10.0 * np.sin(8.0 * X * (Y - 1.0))]
        theta_a = [lambda mu: 1.0, lambda mu: float(mu[0]), lambda mu: float(mu[1])]
        theta_f = [lambda mu: 1.0]
    elif pid == "twod-second":
        # (1 + mu1 x) u_xx + (1 + mu2 y) u_yy = e^{4xy}
        a_components = [Dxx + Dyy, X[:, None] * Dxx, Y[:, None] * Dyy]
        f_components = [np.exp(4.0 * X * Y)]
        theta_a = [lambda mu: 1.0, lambda mu: float(mu[0]), lambda mu: float(mu[1])]
        theta_f = [lambda mu: 1.0]
    else:
        raise ValueError(f"unknown problem id {pid!r}")
    return AffineOperator(
        spec=spec,
        a_components=a_components,
        f_components=f_components,
        theta_a=theta_a,
        theta_f=theta_f,
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


def true_error(u_truth, u_rb):
    """Euclidean norm of the difference between a snapshot and an RB
    reconstruction."""
    values = u_truth.values if isinstance(u_truth, Snapshot) else np.asarray(u_truth)
    return float(np.linalg.norm(values - np.asarray(u_rb)))
