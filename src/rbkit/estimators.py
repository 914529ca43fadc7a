"""The three greedy objectives and their offline data.

* classical: the expanded quadratic offline-online form of the residual dual
  norm.  Cheap, but the quadratic cancels catastrophically once the residual
  falls near the square root of machine precision.
* stable: the same quantity evaluated through a column-pivoted QR
  factorization of the Riesz-representer matrix, splitting the residual into
  orthogonal parts whose norms are formed without squaring first.
* lebesgue: residual-free; the sum of absolute snapshot-basis (Lagrange)
  coefficients of the reduced solution.

Also here: the coercivity lower-bound plug-in, a truth-space residual-norm
oracle used by the tests, and the scalar loss-of-significance demo that
motivates the stable evaluation.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import (
    DEFAULT_DROP_TOL,
    DEFAULT_RANK_TOL,
    complement_project,
    pivoted_qr,
    smallest_symmetric_eigenvalue,
)
from .truth import assemble, load_vector

__all__ = [
    "RieszData",
    "StableFactors",
    "EstimateValue",
    "build_riesz_data",
    "estimator_classical",
    "build_stable_factors",
    "stable_factors_from_matrices",
    "estimator_stable",
    "stable_value",
    "estimator_lebesgue",
    "coercivity_lower_bound",
    "residual_norm_oracle",
    "float_demo",
    "make_estimator",
    "ClassicalEstimator",
    "StableEstimator",
    "LebesgueEstimator",
    "ESTIMATOR_KINDS",
    "ALPHA_MODES",
]

#: Greedy objectives and stability-constant modes that ``make_estimator``
#: accepts.
ESTIMATOR_KINDS = ("classical", "stable", "lebesgue")
ALPHA_MODES = ("unit", "exact-eig")


@dataclass
class RieszData:
    """Riesz representers of load and operator terms plus their inner-product
    tables.

    In the Euclidean inner product a functional's Riesz representer is its
    own coefficient vector, so ``C`` holds the load components, ``L`` the
    operator images ``A^q xi_m``, and every table entry is a plain dot
    product.  Operator columns are snapshot-major: column ``m*Q_a + q``
    represents a^q(xi_m, .).
    """

    C: np.ndarray  # (dim, Q_f)
    L: np.ndarray  # (dim, N*Q_a)
    cc: np.ndarray  # (Q_f, Q_f)
    cl: np.ndarray  # (Q_f, N*Q_a)
    ll: np.ndarray  # (N*Q_a, N*Q_a)
    Q_a: int

    @property
    def basis_size(self):
        return self.L.shape[1] // self.Q_a if self.Q_a else 0


@dataclass
class StableFactors:
    """Pivoted-QR factors of the Riesz matrix and the precomputed online
    products; nothing stored here scales with the truth dimension except the
    factors themselves (kept for testing; the online formula touches only
    ``w_coords``, ``qtc`` and ``rzt``)."""

    Q: np.ndarray
    R: np.ndarray
    perm: np.ndarray
    rank: int
    w_coords: np.ndarray  # (k, Q_f), k <= Q_f
    qtc: np.ndarray  # (rank, Q_f)
    rzt: np.ndarray  # (rank, N*Q_a)
    Q_a: int


@dataclass
class EstimateValue:
    value: float
    clamped: bool = False
    alpha_used: float = 1.0
    term_perp: float | None = None
    term_par: float | None = None


def build_riesz_data(op, basis, prev=None):
    """Build (or hierarchically extend) the Riesz representers and tables.

    With ``prev`` from the same operator and the leading basis columns, the
    existing table entries are reused bit-identically and only the rows and
    columns for the newly appended snapshots are computed.
    """
    if basis.size == 0:
        raise ValueError("basis must be nonempty")
    Qa = len(op.a_components)
    F = np.column_stack(op.f_components)
    N = basis.size

    if prev is not None and prev.basis_size <= N and prev.Q_a == Qa:
        C = prev.C
        n_old = prev.basis_size
    else:
        C = F
        prev = None
        n_old = 0

    new_cols = []
    for m in range(n_old, N):
        xi_m = basis.xi[:, m]
        for Aq in op.a_components:
            new_cols.append(Aq @ xi_m)
    Lnew = np.column_stack(new_cols) if new_cols else np.zeros((basis.xi.shape[0], 0))

    if prev is None:
        L = Lnew
        cc = C.T @ C
        cl = C.T @ L
        ll = L.T @ L
    else:
        L = np.column_stack([prev.L, Lnew]) if Lnew.size else prev.L
        cc = prev.cc
        cl = np.hstack([prev.cl, C.T @ Lnew])
        k_old = prev.L.shape[1]
        k = L.shape[1]
        ll = np.zeros((k, k))
        ll[:k_old, :k_old] = prev.ll
        cross = prev.L.T @ Lnew
        ll[:k_old, k_old:] = cross
        ll[k_old:, :k_old] = cross.T
        ll[k_old:, k_old:] = Lnew.T @ Lnew
    return RieszData(C=C, L=L, cc=cc, cl=cl, ll=ll, Q_a=Qa)


def _interleave(theta_a_vals, u_hat):
    """Residual coefficient vector c[m*Q_a + q] = theta_a^q * u_m."""
    return np.outer(np.asarray(u_hat, dtype=float), theta_a_vals).ravel()


def _thetas_at(op, mu):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    theta_a = np.array([th(mu) for th in op.theta_a])
    theta_f = np.array([th(mu) for th in op.theta_f])
    return theta_a, theta_f


def estimator_classical(riesz, op, mu, u_hat, alpha_lb):
    """Classical estimate from the precomputed tables (expanded quadratic)."""
    if alpha_lb <= 0:
        raise ValueError("alpha_lb must be positive")
    theta_a, theta_f = _thetas_at(op, mu)
    c = _interleave(theta_a, u_hat)
    quad = theta_f @ riesz.cc @ theta_f + c @ riesz.ll @ c - 2.0 * (
        theta_f @ riesz.cl @ c
    )
    clamped = quad < 0.0
    value = float(np.sqrt(max(quad, 0.0)) / alpha_lb)
    return EstimateValue(value=value, clamped=bool(clamped), alpha_used=alpha_lb)


def stable_factors_from_matrices(L, C, rank_tol_rel=DEFAULT_RANK_TOL,
                                 drop_tol=DEFAULT_DROP_TOL, Q_a=1):
    """Pivoted-QR factors and online products from raw Riesz matrices;
    exposed separately so rank-deficiency behavior can be exercised on
    hand-built column sets."""
    Q, R, perm, rank = pivoted_qr(L, rank_tol_rel)
    if L.shape[1]:
        invperm = np.empty_like(perm)
        invperm[perm] = np.arange(perm.shape[0])
        rzt = R[:, invperm]
    else:
        rzt = np.zeros((0, 0))
    qtc = Q.T @ C

    # orthonormal basis for the span of the complement parts of the load
    # representers; drop directions smaller than drop_tol times the load norm
    w_cols = []
    c_perp = np.empty_like(C)
    for j in range(C.shape[1]):
        w = complement_project(Q, C[:, j])
        c_perp[:, j] = w
        r = w.copy()
        for wc in w_cols:
            r -= (wc @ r) * wc
        for wc in w_cols:
            r -= (wc @ r) * wc
        rnorm = np.linalg.norm(r)
        if rnorm > drop_tol * max(np.linalg.norm(C[:, j]), 1e-300):
            w_cols.append(r / rnorm)
    W = np.column_stack(w_cols) if w_cols else np.zeros((C.shape[0], 0))
    w_coords = W.T @ c_perp
    return StableFactors(
        Q=Q, R=R, perm=perm, rank=rank, w_coords=w_coords, qtc=qtc, rzt=rzt, Q_a=Q_a
    )


def build_stable_factors(riesz, rank_tol_rel=DEFAULT_RANK_TOL,
                         drop_tol=DEFAULT_DROP_TOL):
    return stable_factors_from_matrices(
        riesz.L, riesz.C, rank_tol_rel, drop_tol, Q_a=riesz.Q_a
    )


def stable_value(factors, theta_f, c, alpha_lb):
    """Online stable evaluation from an explicit residual-coefficient vector."""
    t1 = factors.w_coords @ theta_f
    t2 = factors.qtc @ theta_f - factors.rzt @ c
    term_perp = float(np.linalg.norm(t1))
    term_par = float(np.linalg.norm(t2))
    value = float(np.sqrt(term_perp**2 + term_par**2) / alpha_lb)
    return EstimateValue(
        value=value,
        clamped=False,
        alpha_used=alpha_lb,
        term_perp=term_perp,
        term_par=term_par,
    )


def estimator_stable(factors, op, mu, u_hat, alpha_lb):
    """Robust residual estimate via the Pythagorean split of the residual."""
    if alpha_lb <= 0:
        raise ValueError("alpha_lb must be positive")
    theta_a, theta_f = _thetas_at(op, mu)
    c = _interleave(theta_a, u_hat)
    return stable_value(factors, theta_f, c, alpha_lb)


def estimator_lebesgue(c):
    """Residual-free indicator: sum of absolute Lagrange coefficients."""
    value = float(np.sum(np.abs(np.asarray(c, dtype=float))))
    return EstimateValue(value=value, clamped=False, alpha_used=1.0)


def coercivity_lower_bound(op, mu, mode="unit", floor=1e-12, with_flag=False):
    """Lower bound for the stability constant at mu.

    ``unit`` returns 1 (the estimator degenerates to the plain residual dual
    norm); ``exact-eig`` computes the smallest eigenvalue of the symmetrized
    assembled operator, floored at ``floor``.  With ``with_flag=True`` the
    return is ``(value, degenerate)`` where the flag marks a floored result.
    """
    if mode == "unit":
        return (1.0, False) if with_flag else 1.0
    if mode != "exact-eig":
        raise ValueError(f"unknown alpha mode {mode!r}")
    lam = smallest_symmetric_eigenvalue(assemble(op, mu))
    degenerate = lam < floor
    value = max(lam, floor)
    return (value, degenerate) if with_flag else value


def residual_norm_oracle(op, basis, mu, u_hat):
    """Euclidean (dual) norm of f(mu) - A(mu) (xi u_hat), formed directly in
    the truth space.  O(dim^2) per call; test-side oracle only."""
    u = basis.xi @ np.asarray(u_hat, dtype=float)
    r = load_vector(op, mu) - assemble(op, mu) @ u
    return float(np.linalg.norm(r))


def float_demo(N_values, mu_samples=1000, seed=0):
    """Scalar demonstration of the loss of significance in the expanded
    quadratic.

    a is a single seeded uniform draw from (0,1) shared by every row;
    b = a + mu*4^{-N} over ``mu_samples`` uniformly spaced mu in (0,1).
    Returns one row (N, max_stable, max_expanded) per N, where stable
    evaluates sqrt((a-b)^2) and expanded evaluates
    sqrt(max(a^2 - 2ab + b^2, 0)).
    """
    if mu_samples < 1:
        raise ValueError("mu_samples must be at least 1")
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.0, 1.0))
    mu = (np.arange(mu_samples) + 1.0) / (mu_samples + 1.0)
    rows = []
    for N in N_values:
        b = a + mu * 4.0 ** (-float(N))
        stable = np.sqrt((a - b) ** 2)
        expanded = np.sqrt(np.maximum(a * a - 2.0 * a * b + b * b, 0.0))
        rows.append((int(N), float(stable.max()), float(expanded.max())))
    return rows


# ---------------------------------------------------------------------------
# Greedy-facing estimator drivers


def _run_chunked(fn, M, workers):
    """Evaluate ``fn(lo, hi)`` over contiguous index chunks and concatenate in
    index order, so results match the serial run bit for bit."""
    if workers <= 1 or M == 0:
        return fn(0, M)
    from concurrent.futures import ThreadPoolExecutor

    chunks = np.array_split(np.arange(M), workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(
            pool.map(lambda ch: fn(int(ch[0]), int(ch[-1]) + 1),
                     [ch for ch in chunks if ch.size])
        )
    return np.concatenate(parts)


class _EstimatorBase:
    kind = ""

    #: Mask over the training set from the last sweep: True where the value
    #: is unresolved (clamped at zero).  None for indicators that never clamp.
    clamped = None

    def __init__(self, alpha_mode="unit", alpha_floor=1e-12):
        self.alpha_mode = alpha_mode
        self.alpha_floor = alpha_floor

    def alpha_values(self, op, train):
        if self.alpha_mode == "unit":
            return np.ones(train.shape[0])
        return np.array([
            coercivity_lower_bound(op, mu, self.alpha_mode, self.alpha_floor)
            for mu in train
        ])

    def refresh(self, op, basis, model):
        raise NotImplementedError

    def sweep(self, op, basis, model, theta_a, theta_f, alpha, workers=1):
        raise NotImplementedError


class ClassicalEstimator(_EstimatorBase):
    kind = "classical"

    def __init__(self, alpha_mode="unit", alpha_floor=1e-12):
        super().__init__(alpha_mode, alpha_floor)
        self.riesz = None

    def refresh(self, op, basis, model):
        self.riesz = build_riesz_data(op, basis, prev=self.riesz)

    def sweep(self, op, basis, model, theta_a, theta_f, alpha, workers=1):
        rz = self.riesz
        clamped = np.zeros(theta_a.shape[0], dtype=bool)

        def run(lo, hi):
            values, clamped[lo:hi] = kernels.classical_sweep(
                theta_a[lo:hi], theta_f[lo:hi], alpha[lo:hi],
                model.a_blocks, model.f_blocks, rz.cc, rz.cl, rz.ll,
            )
            return values

        values = _run_chunked(run, theta_a.shape[0], workers)
        self.clamped = clamped
        return values

    def value_at(self, op, mu, u_hat, alpha_lb):
        return estimator_classical(self.riesz, op, mu, u_hat, alpha_lb)


class StableEstimator(_EstimatorBase):
    kind = "stable"

    def __init__(self, alpha_mode="unit", alpha_floor=1e-12,
                 rank_tol_rel=DEFAULT_RANK_TOL):
        super().__init__(alpha_mode, alpha_floor)
        self.rank_tol_rel = rank_tol_rel
        self.riesz = None
        self.factors = None

    def refresh(self, op, basis, model):
        self.riesz = build_riesz_data(op, basis, prev=self.riesz)
        self.factors = build_stable_factors(self.riesz, self.rank_tol_rel)

    def sweep(self, op, basis, model, theta_a, theta_f, alpha, workers=1):
        fc = self.factors

        def run(lo, hi):
            return kernels.stable_sweep(
                theta_a[lo:hi], theta_f[lo:hi], alpha[lo:hi],
                model.a_blocks, model.f_blocks, fc.w_coords, fc.qtc, fc.rzt,
            )

        return _run_chunked(run, theta_a.shape[0], workers)

    def value_at(self, op, mu, u_hat, alpha_lb):
        return estimator_stable(self.factors, op, mu, u_hat, alpha_lb)


class LebesgueEstimator(_EstimatorBase):
    kind = "lebesgue"

    def __init__(self):
        super().__init__(alpha_mode="unit")
        self.chol_coeffs = None

    def refresh(self, op, basis, model):
        self.chol_coeffs = basis.chol_coeffs

    def sweep(self, op, basis, model, theta_a, theta_f, alpha, workers=1):
        rs = self.chol_coeffs

        def run(lo, hi):
            return kernels.lebesgue_sweep(
                theta_a[lo:hi], theta_f[lo:hi],
                model.a_blocks, model.f_blocks, rs,
            )

        return _run_chunked(run, theta_a.shape[0], workers)


def make_estimator(kind, alpha_mode="unit", alpha_floor=1e-12,
                   rank_tol_rel=DEFAULT_RANK_TOL):
    if alpha_mode not in ALPHA_MODES:
        raise ValueError(f"unknown alpha mode {alpha_mode!r}")
    if kind == "classical":
        return ClassicalEstimator(alpha_mode, alpha_floor)
    if kind == "stable":
        return StableEstimator(alpha_mode, alpha_floor, rank_tol_rel)
    if kind == "lebesgue":
        return LebesgueEstimator()
    raise ValueError(f"unknown estimator kind {kind!r}")
