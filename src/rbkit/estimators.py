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
drivers, which only forward that data to the formulas and sweeps in
``kernels`` and pass on their values, NaN where unresolved.  Also here: a
truth-space residual-norm oracle used by the tests, and the scalar
loss-of-significance demo that motivates the stable evaluation.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import DROP_TOL, _mgs_coeffs, pivoted_qr
from .truth import _factor_sums, load_vector

__all__ = [
    "StableFactors",
    "EstimateValue",
    "build_riesz_data",
    "build_stable_factors",
    "residual_norm_oracle",
    "float_demo",
    "make_estimator",
    "ClassicalEstimator",
    "StableEstimator",
    "LebesgueEstimator",
    "ESTIMATOR_KINDS",
]


@dataclass
class StableFactors:
    """The pivoted-QR rank of the Riesz matrix and the online products of the
    stable formula; none of them scales with the truth dimension."""

    rank: int
    w_coords: np.ndarray  # (k, Q_f), k <= Q_f
    qtc: np.ndarray  # (rank, Q_f)
    rzt: np.ndarray  # (rank, N*Q_a)


@dataclass
class EstimateValue:
    value: float  # NaN when the indicator cannot resolve it


def build_riesz_data(op, basis):
    """The Riesz representers ``(C, L)`` of a basis: the load columns
    ``C (dim, Q_f)`` and the operator columns ``L (dim, N*Q_a)``.

    In the Euclidean inner product a functional's Riesz representer is its
    own coefficient vector, so ``C`` holds the load components and ``L`` is
    the basis's own ``images`` ``A^q xi_m``, snapshot-major: column
    ``m*Q_a + q`` represents a^q(xi_m, .).  Nothing here multiplies a
    component, and the result depends on ``op`` and ``basis`` alone.
    """
    if basis.size == 0:
        raise ValueError("basis must be nonempty")
    return np.column_stack(op.f_components), basis.images


def build_stable_factors(L, C):
    """Pivoted-QR factors and online products from the Riesz matrices
    ``L`` (operator columns) and ``C`` (load columns).

    Each load column is split by one Gram-Schmidt routine, ``_mgs_coeffs``:
    its remainder outside the span of Q, then that remainder's part outside
    the load directions W kept so far."""
    Q, R, perm, rank = pivoted_qr(L)
    rzt = R[:, np.argsort(perm)]
    qtc = Q.T @ C

    # orthonormal basis for the span of the complement parts of the load
    # representers; drop directions smaller than DROP_TOL times the load norm
    W = np.zeros((C.shape[0], 0))
    c_perp = np.empty_like(C)
    for j in range(C.shape[1]):
        _, c_perp[:, j] = _mgs_coeffs(Q, C[:, j])
        _, r = _mgs_coeffs(W, c_perp[:, j])
        rnorm = np.linalg.norm(r)
        if rnorm > DROP_TOL * max(np.linalg.norm(C[:, j]), 1e-300):
            W = np.column_stack([W, r / rnorm])
    w_coords = W.T @ c_perp
    return StableFactors(rank=rank, w_coords=w_coords, qtc=qtc, rzt=rzt)


def residual_norm_oracle(op, basis, mu, u_hat):
    """Euclidean (dual) norm of f(mu) - A(mu) (xi u_hat), formed directly in
    the truth space for checks of the estimators.

    A(mu) u is applied in its Kronecker form ``Sx U + U Sy^T`` on
    ``U = u.reshape(nx, ny)``, so no ``dim x dim`` matrix is formed."""
    Sx, Sy = _factor_sums(op, op.theta_a_values([mu])[0])
    U = (basis.xi @ np.asarray(u_hat, dtype=float)).reshape(Sx.shape[0], Sy.shape[0])
    r = load_vector(op, mu) - (Sx @ U + U @ Sy.T).ravel()
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


class _EstimatorBase:
    """A driver's ``sweep(model, theta_a, theta_f, alpha, workers=1)`` gives
    the indicator at every row of the theta tables from ``model``'s blocks
    and the last ``refresh``, one float array (NaN where unresolved)."""

    def alpha_values(self, op, train):
        """The stability constant at each row of ``train``: 1, so the
        residual-based indicators are the plain residual dual norms.  A
        method, called by the greedy and the field files, because the
        benchmark's tracer (``bench/tracing.py``) wraps it."""
        return np.ones(train.shape[0])

    def value_at(self, op, mu, u_hat, alpha_lb):
        """The indicator at one parameter ``mu`` for a given reduced solution
        ``u_hat``: the sweep's formula from ``kernels`` on a one-row batch,
        with the offline data of the last ``refresh``."""
        if alpha_lb <= 0:
            raise ValueError("alpha_lb must be positive")
        u = np.asarray(u_hat, dtype=float)[None, :]
        c = kernels.residual_coefficients(op.theta_a_values([mu]), u)
        values = self._values(op.theta_f_values([mu]), c,
                              np.array([float(alpha_lb)]), u)
        return EstimateValue(float(values[0]))


class ClassicalEstimator(_EstimatorBase):
    kind = "classical"
    tables = None  # (cc, cl, ll)

    def refresh(self, op, basis, model):
        C, L = build_riesz_data(op, basis)
        self.tables = (C.T @ C, C.T @ L, L.T @ L)

    def _values(self, theta_f, c, alpha, u):
        return kernels.classical_values(theta_f, c, alpha, *self.tables)

    def sweep(self, model, theta_a, theta_f, alpha, workers=1):
        return kernels.classical_sweep(theta_a, theta_f, alpha, model.a_blocks,
                                       model.f_blocks, *self.tables, workers)


class StableEstimator(_EstimatorBase):
    kind = "stable"
    factors = None

    def refresh(self, op, basis, model):
        # build_riesz_data, build_stable_factors and (inside it) pivoted_qr
        # are called through the module globals: the benchmark's tracer
        # (bench/tracing.py) wraps those names, and bench/test_smoke.py
        # requires their spans in the stable workloads
        C, L = build_riesz_data(op, basis)
        self.factors = build_stable_factors(L, C)

    def _values(self, theta_f, c, alpha, u):
        fc = self.factors
        return kernels.stable_values(theta_f, c, alpha, fc.w_coords, fc.qtc, fc.rzt)

    def sweep(self, model, theta_a, theta_f, alpha, workers=1):
        fc = self.factors
        return kernels.stable_sweep(theta_a, theta_f, alpha, model.a_blocks,
                                    model.f_blocks, fc.w_coords, fc.qtc, fc.rzt,
                                    workers)


class LebesgueEstimator(_EstimatorBase):
    kind = "lebesgue"
    chol_coeffs = None

    def refresh(self, op, basis, model):
        self.chol_coeffs = basis.chol_coeffs

    def _values(self, theta_f, c, alpha, u):
        return kernels.lebesgue_values(u, self.chol_coeffs)

    def sweep(self, model, theta_a, theta_f, alpha, workers=1):
        return kernels.lebesgue_sweep(theta_a, theta_f, model.a_blocks, model.f_blocks,
                                      self.chol_coeffs, workers)


_ESTIMATORS = {cls.kind: cls
               for cls in (ClassicalEstimator, StableEstimator, LebesgueEstimator)}

#: Greedy objectives that ``make_estimator`` accepts.
ESTIMATOR_KINDS = tuple(_ESTIMATORS)


def make_estimator(kind):
    if not isinstance(kind, str) or kind not in _ESTIMATORS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return _ESTIMATORS[kind]()
