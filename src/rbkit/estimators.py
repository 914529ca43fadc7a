"""The three greedy objectives and their offline data.

* classical: the expanded quadratic offline-online form of the residual dual
  norm.  Cheap, but the quadratic cancels catastrophically once the residual
  falls near the square root of machine precision.
* stable: the same quantity evaluated through a column-pivoted QR
  factorization of the Riesz-representer matrix, splitting the residual into
  orthogonal parts whose norms are formed without squaring first.
* lebesgue: residual-free; the sum of absolute snapshot-basis (Lagrange)
  coefficients of the reduced solution.

This module holds each indicator's offline data and the greedy-facing
drivers; the formulas themselves live once, in ``kernels``.  Also here: the
coercivity lower-bound plug-in, a truth-space residual-norm oracle used by
the tests, and the scalar loss-of-significance demo that motivates the
stable evaluation.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import (
    DROP_TOL,
    _mgs_coeffs,
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
    "build_stable_factors",
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

#: Floor of the ``exact-eig`` coercivity lower bound; a smaller eigenvalue
#: is reported as degenerate.
ALPHA_FLOOR = 1e-12


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


@dataclass
class StableFactors:
    """Pivoted-QR range basis ``Q`` of the Riesz matrix, its rank, and the
    precomputed online products; only ``Q`` scales with the truth dimension
    (kept for testing; the online formula touches only ``w_coords``, ``qtc``
    and ``rzt``)."""

    Q: np.ndarray
    rank: int
    w_coords: np.ndarray  # (k, Q_f), k <= Q_f
    qtc: np.ndarray  # (rank, Q_f)
    rzt: np.ndarray  # (rank, N*Q_a)


@dataclass
class EstimateValue:
    value: float
    clamped: bool = False


def build_riesz_data(op, basis):
    """The Riesz representers of a basis and their tables, built from scratch.

    The operator columns ``L`` are the basis's own ``images``; nothing here
    multiplies a component.  The result depends on ``op`` and ``basis``
    alone, so any two builds for one basis give the same bits.
    """
    if basis.size == 0:
        raise ValueError("basis must be nonempty")
    C = np.column_stack(op.f_components)
    L = basis.images
    return RieszData(C=C, L=L, cc=C.T @ C, cl=C.T @ L, ll=L.T @ L)


def build_stable_factors(L, C):
    """Pivoted-QR factors and online products from the Riesz matrices
    ``L`` (operator columns) and ``C`` (load columns)."""
    Q, R, perm, rank = pivoted_qr(L)
    if L.shape[1]:
        invperm = np.empty_like(perm)
        invperm[perm] = np.arange(perm.shape[0])
        rzt = R[:, invperm]
    else:
        rzt = np.zeros((0, 0))
    qtc = Q.T @ C

    # orthonormal basis for the span of the complement parts of the load
    # representers; drop directions smaller than DROP_TOL times the load norm
    W = np.zeros((C.shape[0], 0))
    c_perp = np.empty_like(C)
    for j in range(C.shape[1]):
        c_perp[:, j] = complement_project(Q, C[:, j])
        _, r = _mgs_coeffs(W, c_perp[:, j])
        rnorm = np.linalg.norm(r)
        if rnorm > DROP_TOL * max(np.linalg.norm(C[:, j]), 1e-300):
            W = np.column_stack([W, r / rnorm])
    w_coords = W.T @ c_perp
    return StableFactors(Q=Q, rank=rank, w_coords=w_coords, qtc=qtc, rzt=rzt)


def coercivity_lower_bound(op, mu, mode="unit", with_flag=False):
    """Lower bound for the stability constant at mu.

    ``unit`` returns 1 (the estimator degenerates to the plain residual dual
    norm); ``exact-eig`` computes the smallest eigenvalue of the symmetrized
    assembled operator, floored at ``ALPHA_FLOOR``.  With ``with_flag=True``
    the return is ``(value, degenerate)`` where the flag marks a floored
    result.
    """
    if mode == "unit":
        return (1.0, False) if with_flag else 1.0
    if mode != "exact-eig":
        raise ValueError(f"unknown alpha mode {mode!r}")
    lam = smallest_symmetric_eigenvalue(assemble(op, mu))
    degenerate = lam < ALPHA_FLOOR
    value = max(lam, ALPHA_FLOOR)
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
    index order, so results match the serial run bit for bit.  At most one
    chunk and thread per usable CPU, whatever ``workers`` asks for."""
    workers = min(workers, len(os.sched_getaffinity(0)))
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

    def __init__(self, alpha_mode="unit"):
        self.alpha_mode = alpha_mode

    def alpha_values(self, op, train):
        if self.alpha_mode == "unit":
            return np.ones(train.shape[0])
        return np.array([
            coercivity_lower_bound(op, mu, self.alpha_mode) for mu in train
        ])

    def value_at(self, op, mu, u_hat, alpha_lb):
        """The indicator at one parameter ``mu`` for a given reduced solution
        ``u_hat``: the sweep's formula from ``kernels`` on a one-row batch,
        with the offline data of the last ``refresh``."""
        if alpha_lb <= 0:
            raise ValueError("alpha_lb must be positive")
        u = np.asarray(u_hat, dtype=float)[None, :]
        theta_f = op.theta_f_values([mu])
        c = kernels.residual_coefficients(op.theta_a_values([mu]), u)
        alpha = np.array([float(alpha_lb)])
        clamped = [False]
        if self.kind == "classical":
            rz = self.riesz
            values, clamped = kernels.classical_values(
                theta_f, c, alpha, rz.cc, rz.cl, rz.ll)
        elif self.kind == "stable":
            fc = self.factors
            values = kernels.stable_values(
                theta_f, c, alpha, fc.w_coords, fc.qtc, fc.rzt)
        else:
            values = kernels.lebesgue_values(u, self.chol_coeffs)
        return EstimateValue(float(values[0]), bool(clamped[0]))

    def refresh(self, op, basis, model):
        raise NotImplementedError

    def sweep(self, op, basis, model, theta_a, theta_f, alpha, workers=1):
        raise NotImplementedError


class ClassicalEstimator(_EstimatorBase):
    kind = "classical"

    def __init__(self, alpha_mode="unit"):
        super().__init__(alpha_mode)
        self.riesz = None

    def refresh(self, op, basis, model):
        self.riesz = build_riesz_data(op, basis)

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


class StableEstimator(_EstimatorBase):
    kind = "stable"

    def __init__(self, alpha_mode="unit"):
        super().__init__(alpha_mode)
        self.factors = None

    def refresh(self, op, basis, model):
        riesz = build_riesz_data(op, basis)
        self.factors = build_stable_factors(riesz.L, riesz.C)

    def sweep(self, op, basis, model, theta_a, theta_f, alpha, workers=1):
        fc = self.factors

        def run(lo, hi):
            return kernels.stable_sweep(
                theta_a[lo:hi], theta_f[lo:hi], alpha[lo:hi],
                model.a_blocks, model.f_blocks, fc.w_coords, fc.qtc, fc.rzt,
            )

        return _run_chunked(run, theta_a.shape[0], workers)


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


def make_estimator(kind, alpha_mode="unit"):
    if alpha_mode not in ALPHA_MODES:
        raise ValueError(f"unknown alpha mode {alpha_mode!r}")
    if kind == "classical":
        return ClassicalEstimator(alpha_mode)
    if kind == "stable":
        return StableEstimator(alpha_mode)
    if kind == "lebesgue":
        if alpha_mode != "unit":
            raise ValueError(f"alpha mode {alpha_mode!r} has no effect on the "
                             "lebesgue estimator, which reads no stability constant")
        return LebesgueEstimator()
    raise ValueError(f"unknown estimator kind {kind!r}")
