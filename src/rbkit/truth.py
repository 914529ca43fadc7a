"""Chebyshev collocation truth discretization on [-1,1]^2 and the affine
operator assembly for the four built-in parametric test problems.

All problems impose homogeneous Dirichlet conditions, handled by restricting
the tensorized operators to interior grid nodes (boundary rows and columns
eliminated), which keeps the affine decomposition exact.

On interior nodes every operator component is a Kronecker sum
``A^q = kron(Ax^q, I) + kron(I, Ay^q)`` of 1-D factors, so with ``U[i, j]``
the value at ``(x_i, y_j)`` the system ``A(mu) u = f(mu)`` is the Sylvester
equation ``Ax(mu) U + U Ay(mu)^T = F``.  Dense matrices are written from the
1-D factors by one row-major writer.  The greedy's snapshots use the dense
LU solve: ``truth_solve`` returns the snapshot vector, and ``assemble``
writes the transpose of A(mu) and returns its column-major transposed view,
which ``solve_dense`` factors in place.  Validation truth rows solve the
Sylvester form by Bartels-Stewart (``truth_solve_many``, ``_truth_solver``).
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import as_strided

from .numerics import solve_dense

__all__ = [
    "ProblemSpec",
    "TruthDiscretization",
    "AffineOperator",
    "PROBLEM_IDS",
    "chebyshev_grid",
    "problem_spec",
    "build_discretization",
    "assemble_affine",
    "assemble",
    "load_vector",
    "truth_solve",
    "truth_solve_many",
]

#: Parameter domain of each built-in problem, ``((lo, hi), ...)`` per
#: parameter dimension.
_PARAM_DOMAINS = {
    "oned-continuous": ((-0.995, 0.995),),
    "oned-discontinuous": ((-0.995, 0.995),),
    "twod-first": ((0.1, 4.0), (0.0, 2.0)),
    "twod-second": ((-0.99, 0.99), (-0.99, 0.99)),
}

PROBLEM_IDS = tuple(_PARAM_DOMAINS)

#: sign convention used in the discontinuous coefficient at mu = 0.  A grid
#: with an odd point count places its middle point exactly at 0 (129 points:
#: ``np.linspace(-0.995, 0.995, 129)[64] == 0.0``), so the extension picks
#: that point's coefficient; +1 is fixed here for reproducibility.
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
    param_domain: tuple  # ((lo, hi), ...) per parameter dimension

    @property
    def param_dim(self):
        return len(self.param_domain)


@dataclass
class TruthDiscretization:
    """Interior-restricted 2-D Chebyshev collocation workspace."""

    nodes_per_dim: int
    nodes: np.ndarray  # 1-D node vector, length nodes_per_dim
    diff2: np.ndarray  # second-derivative matrix on the full node set
    x_int: np.ndarray  # x coordinate at each interior node
    y_int: np.ndarray  # y coordinate at each interior node


@dataclass
class AffineOperator:
    """Affine decomposition: sum_q theta_a^q(mu) A^q and sum_q theta_f^q(mu) f^q.

    The weights are two array functions, read through ``theta_a_values`` and
    ``theta_f_values``: ``(M, p)`` parameter rows to ``(M, Q_a)`` and ``(M, Q_f)``.

    The operator is given by its Q_a factor pairs ``(Ax^q, Ay^q)``; the
    components, the Kronecker sums ``A^q = kron(Ax^q, I) + kron(I, Ay^q)``,
    are derived from them.  A dense matrix ``A`` without Kronecker structure
    is the pair ``(A, np.zeros((1, 1)))``, whose Kronecker sum is ``A``
    exactly.

    A component whose two factors are both diagonal is kept as its diagonal,
    a ``dim`` vector.  No other component stays in memory: products with the
    components go through ``component_products``, which writes the dense
    row-major Kronecker sum of each in turn into one array that lives for
    the call.
    """

    spec: ProblemSpec
    kron_factors: list  # Q_a pairs (Ax^q, Ay^q)
    f_components: list  # Q_f interior vectors
    theta_a: object  # (M, p) parameter rows -> (M, Q_a) weights
    theta_f: object  # (M, p) parameter rows -> (M, Q_f) weights
    diagonals: list = field(init=False)  # Q_a: a diagonal component's vector, else None

    def __post_init__(self):
        self.diagonals = [
            np.add.outer(Ax.diagonal(), Ay.diagonal()).ravel()
            if _is_diagonal(Ax) and _is_diagonal(Ay) else None
            for Ax, Ay in self.kron_factors
        ]

    @property
    def dim(self):
        Ax, Ay = self.kron_factors[0]
        return Ax.shape[0] * Ay.shape[0]

    @property
    def a_components(self):
        """The Q_a components, diagonal ones as ``dim`` vectors and the rest
        as dense matrices written anew on every access (``dim^2`` doubles
        each)."""
        return [diagonal if diagonal is not None
                else _kron_affine_sum([1.0], [pair])
                for diagonal, pair in zip(self.diagonals, self.kron_factors)]

    def component_products(self, v, V):
        """``(A^q v, A^q V)`` for each component q in order, with ``v`` a
        ``dim`` vector and ``V`` a ``(dim, N)`` block.

        The dense components are written in turn into one row-major array,
        each once per call, so one ``dim^2`` array is alive, with the
        writer's one ``(nx, ny, ny)`` term buffer, and none outlives the
        call.  Every Kronecker sum of factors of one shape writes the
        same entries and leaves the rest +0, so each overwrites the last
        completely and the array holds that component bit for bit.  The
        vector product is a GEMV and the block product a GEMM on that array,
        so the bits do not depend on how long the matrix lives.  A diagonal
        component scales rows: each row of a diagonal matrix has one
        nonzero, so the BLAS product of the dense matrix is that one rounded
        product, and the two forms agree bit for bit.
        """
        products, dense = [], None
        for diagonal, pair in zip(self.diagonals, self.kron_factors):
            if diagonal is not None:
                products.append((diagonal * v, diagonal[:, None] * V))
            else:
                dense = _kron_affine_sum([1.0], [pair], out=dense)
                products.append((dense @ v, dense @ V))
        return products

    def theta_a_values(self, mus):
        """Evaluate theta_a over an (M, p) array of parameters -> (M, Q_a)."""
        return self._theta_table(self.theta_a, mus, len(self.kron_factors))

    def theta_f_values(self, mus):
        """Evaluate theta_f over an (M, p) array of parameters -> (M, Q_f)."""
        return self._theta_table(self.theta_f, mus, len(self.f_components))

    def _theta_table(self, theta, mus, Q):
        # every theta weight in the package is evaluated here, behind the checks
        mus = np.atleast_2d(np.asarray(mus, dtype=float))
        p = self.spec.param_dim
        if mus.ndim != 2 or mus.shape[1] != p:
            raise ValueError(f"parameter points must have width {p}, "
                             f"got width {mus.shape[-1]} (shape {mus.shape})")
        table = np.asarray(theta(mus), dtype=float)
        if table.shape != (mus.shape[0], Q):
            raise ValueError(f"theta table must have shape {(mus.shape[0], Q)}, "
                             f"one weight per component, got shape {table.shape}")
        return table


def _is_diagonal(M):
    return np.count_nonzero(M) == np.count_nonzero(M.diagonal())


def _affine_sum(weights, terms):
    """``sum_q weights[q] * terms[q]``, accumulated from zeros in q order (the
    order fixes the rounding of every assembled operator and load)."""
    out = np.zeros_like(terms[0])
    for w, X in zip(weights, terms):
        out += w * X
    return out


def problem_spec(problem_id):
    if problem_id not in _PARAM_DOMAINS:
        raise ValueError(f"unknown problem id {problem_id!r}")
    return ProblemSpec(problem_id, _PARAM_DOMAINS[problem_id])


def build_discretization(nodes_per_dim):
    """Set up the tensor-product Chebyshev grid with interior restriction.

    ``nodes_per_dim`` counts all nodes per direction (boundary included), so
    the interior dimension is ``(nodes_per_dim - 2)**2``.
    """
    if nodes_per_dim < 3:
        raise ValueError("need at least 3 nodes per direction")
    x, D = chebyshev_grid(nodes_per_dim - 1)
    inner = x[1:-1]
    # interior index k = i*inner.size + j for (x_i, y_j), x_i and y_j interior
    return TruthDiscretization(
        nodes_per_dim=nodes_per_dim,
        nodes=x,
        diff2=D @ D,
        x_int=np.repeat(inner, inner.size),
        y_int=np.tile(inner, inner.size),
    )


def _kron_affine_sum(weights, pairs, out=None):
    """Dense ``sum_q weights[q] * (kron(Ax^q, I) + kron(I, Ay^q))`` for
    ``pairs[q] = (Ax^q, Ay^q)``, in the ``k = i*ny + j`` order, in a new
    row-major array, or over ``out``, a row-major Kronecker sum of factors
    of the same shapes; written from the 1-D factors through two strided
    views of the array.

    Block (i, k) is ``Sx[i, k] I`` for i != k, with ``Sx`` the weighted sum
    of the ``Ax^q``, and diagonal block i is the weighted sum of
    ``Ax^q[i, i] I + Ay^q``.  Each entry is accumulated from zeros in q order
    from the same products as the weighted sum of the dense components, so
    the result equals it bit for bit, with +0 at every zero.  Besides the
    array, one ``(nx, ny, ny)`` term buffer is allocated.
    """
    Fx, Fy = zip(*pairs)
    nx, ny = Fx[0].shape[0], Fy[0].shape[0]
    dim = nx * ny
    if out is None:
        out = np.zeros((dim, dim))
    s = out.itemsize
    # off[i, k, j] is entry (i*ny + j, k*ny + j), diag[i, j, l] entry
    # (i*ny + j, i*ny + l); off covers the diagonal of each diagonal block,
    # which diag then overwrites
    off = as_strided(out, (nx, nx, ny), (ny * dim * s, ny * s, (dim + 1) * s))
    diag = as_strided(out, (nx, ny, ny), ((dim + 1) * ny * s, dim * s, s))
    off[...] = _affine_sum(weights, Fx)[:, :, None]
    diag[...] = 0.0
    term, eye = np.empty((nx, ny, ny)), np.eye(ny)
    for w, (Ax, Ay) in zip(weights, pairs):
        np.multiply(Ax.diagonal()[:, None, None], eye, out=term)
        term += Ay
        term *= w
        diag += term
    return out


def assemble_affine(spec, disc):
    """Assemble the parameter-independent components for a built-in problem,
    stated once as 1-D factor pairs."""
    D2 = disc.diff2[1:-1, 1:-1]
    x = disc.nodes[1:-1]
    Z = np.zeros_like(D2)
    X = disc.x_int
    Y = disc.y_int
    pid = spec.id
    # the weights of every problem but oned-discontinuous are (1, mu)
    theta_a = lambda m: np.column_stack([np.ones(len(m)), m])
    if pid in ("oned-continuous", "oned-discontinuous"):
        # (1 + l(mu) x) u_xx + u_yy = e^{4xy}, l = identity or the
        # discontinuous sin((mu - sign(mu)) pi/2)
        pairs = [(D2, D2), (x[:, None] * D2, Z)]
        f_components = [np.exp(4.0 * X * Y)]
        if pid == "oned-discontinuous":
            def theta_a(m):
                t = m[:, 0] - np.where(m[:, 0] == 0, SIGN_AT_ZERO, np.sign(m[:, 0]))
                return np.column_stack([np.ones(len(m)), np.sin(t * np.pi / 2.0)])
    elif pid == "twod-first":
        # -u_xx - mu1 u_yy - mu2 u = -10 sin(8x(y-1))
        pairs = [(-D2, Z), (Z, -D2), (-np.eye(D2.shape[0]), Z)]
        f_components = [-10.0 * np.sin(8.0 * X * (Y - 1.0))]
    elif pid == "twod-second":
        # (1 + mu1 x) u_xx + (1 + mu2 y) u_yy = e^{4xy}; y has the nodes of x
        pairs = [(D2, D2), (x[:, None] * D2, Z), (Z, x[:, None] * D2)]
        f_components = [np.exp(4.0 * X * Y)]
    else:
        raise ValueError(f"unknown problem id {pid!r}")
    return AffineOperator(
        spec=spec,
        kron_factors=pairs,
        f_components=f_components,
        theta_a=theta_a,
        theta_f=lambda m: np.ones((len(m), 1)),
    )


def assemble(op, mu):
    """Full operator matrix at mu, sum_q theta_a^q(mu) A^q, column-major (the
    layout LAPACK factors in place): the transposed view of the sum over the
    transposed pairs, as the Kronecker sum of ``(Ax.T, Ay.T)`` is the
    transpose of that of ``(Ax, Ay)``; equal bit for bit to the weighted sum
    of the dense components."""
    pairs = [(Ax.T, Ay.T) for Ax, Ay in op.kron_factors]
    return _kron_affine_sum(op.theta_a_values([mu])[0], pairs).T


def load_vector(op, mu):
    """Load vector at mu: sum_q theta_f^q(mu) f^q."""
    return _affine_sum(op.theta_f_values([mu])[0], op.f_components)


def truth_solve(op, mu):
    """The snapshot vector: the high-fidelity solve of the assembled system
    at mu; the LU overwrites the assembled matrix."""
    return solve_dense(assemble(op, mu), load_vector(op, mu))


def truth_solve_many(op, mus):
    """Truth solutions at many parameters, one row per point, through the
    Sylvester form ``Ax(mu) U + U Ay(mu)^T = F(mu)`` of a Kronecker-sum
    operator: real Schur forms of both factors and LAPACK ``trsyl``
    (Bartels-Stewart).  A row is NaN where the operator is singular or
    nearly so (``trsyl`` reports close eigenvalues of ``Ax`` and ``-Ay``, or
    had to scale the solution down) or where the solution is not finite.

    A factor takes one Schur form per tuple of the theta weights of its
    nonzero terms among ``mus`` (``_FactorCache``): one per point of its axis
    on a tensor grid, and on the oned problems one for ``Ay`` and one per
    point for ``Ax``.
    """
    return _truth_solver(op, mus)(mus)


def _truth_solver(op, points):
    """``truth_solve_many`` on ``op`` as a function of the points, with one
    Schur-form cache for ``points``, the grid its calls walk in slices."""
    nx, ny = (F.shape[0] for F in op.kron_factors[0])
    (trsyl,) = sla.get_lapack_funcs(("trsyl",), dtype=float)
    schur = _FactorCache(op, op.theta_a_values(points))

    def solve(mus):
        ta = op.theta_a_values(mus)
        tf = op.theta_f_values(mus)
        out = np.empty((ta.shape[0], nx * ny))
        for i in range(ta.shape[0]):
            (Tx, Qx), (Ty, Qy) = schur.get(ta[i])
            F = _affine_sum(tf[i], op.f_components)
            C = Qx.T @ F.reshape(nx, ny) @ Qy
            Y, scale, info = trsyl(Tx, Ty, C, tranb="T")
            U = Qx @ Y @ Qy.T
            if info != 0 or scale != 1.0 or not np.all(np.isfinite(U)):
                out[i] = np.nan
            else:
                out[i] = U.ravel()
        return out

    return solve


def _factor_sums(op, weights):
    """``(Sx, Sy)``, the sums of the 1-D factors under one row of theta_a
    weights, so that A = kron(Sx, I) + kron(I, Sy)."""
    return tuple(_affine_sum(weights, F) for F in zip(*op.kron_factors))


class _FactorCache:
    """The real Schur forms ``[(Tx, Qx), (Ty, Qy)]`` of ``Sx`` and ``Sy`` at a
    row of ``table``, the theta_a weights of the points the cache serves.
    Each side is keyed by the tuple of the weights of its nonzero factors: a
    zero factor adds only zeros to an accumulation that starts at +0, so that
    tuple fixes every bit of the sum.  A side's form is kept only when its
    key occurs more than once in ``table``, so a recurring key costs one
    Schur form and a key that occurs once (the x factor of the oned
    problems, at every point) holds nothing."""

    def __init__(self, op, table):
        self.sides = []
        for factors in zip(*op.kron_factors):
            nonzero = [q for q, M in enumerate(factors) if np.any(M)]
            counts = Counter(map(tuple, table[:, nonzero]))
            recurring = {key for key, count in counts.items() if count > 1}
            self.sides.append((factors, nonzero, recurring, {}))

    def get(self, weights):
        values = []
        for factors, nonzero, recurring, kept in self.sides:
            key = tuple(weights[nonzero])
            if key not in kept:
                kept[key] = sla.schur(_affine_sum(weights, factors), output="real")
            values.append(kept[key] if key in recurring else kept.pop(key))
        return values
