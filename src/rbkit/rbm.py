"""Reduced-basis machinery: snapshot basis management, reduced-model
assembly, reduced solves, Lagrange-coefficient recovery, and the greedy
sample-selection loop.
A snapshot is a plain truth vector, passed with its parameter; ``greedy``
returns ``(basis, model, history)`` and refreshes its estimator in place.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .numerics import DROP_TOL, _mgs_coeffs
# unused here; kept because bench/tracing.py wraps ``rbkit.rbm.solve_dense``
from .numerics import solve_dense  # noqa: F401
from .truth import truth_solve

__all__ = [
    "DependentSnapshotError",
    "ReducedBasis",
    "ReducedModel",
    "GreedyRecord",
    "GreedyHistory",
    "empty_basis",
    "empty_model",
    "rb_solve",
    "lagrange_coefficients",
    "extend_basis",
    "validate",
    "greedy",
]


class DependentSnapshotError(RuntimeError):
    """A new snapshot is numerically dependent on the current basis."""


@dataclass
class ReducedBasis:
    """Orthonormal snapshot basis with its triangular change-of-basis factor.

    ``xi`` holds the orthonormal basis columns, ``chol_coeffs`` the
    upper-triangular factor R with snapshots = xi @ R, and ``sample_set``
    the selected parameters in greedy order.  ``images`` holds the operator
    images ``A^q xi_m``, snapshot-major (column ``m*Q_a + q``): the Riesz
    representers of the residual-based estimators.
    """

    sample_set: list
    xi: np.ndarray
    chol_coeffs: np.ndarray
    images: np.ndarray  # (dim, N*Q_a)

    @property
    def size(self):
        return self.xi.shape[1]


@dataclass
class ReducedModel:
    """Parameter-independent N x N reduced blocks and reduced load vectors."""

    a_blocks: np.ndarray  # (Q_a, N, N), entry [q, n, m] = a^q(xi_m, xi_n)
    f_blocks: np.ndarray  # (Q_f, N), entry [q, n] = f^q(xi_n)

    @property
    def size(self):
        return self.a_blocks.shape[1]


@dataclass
class GreedyRecord:
    n: int  # basis size when the sweep ran (0 for the seeded initial pick)
    mu: np.ndarray
    estimate: float
    seconds: float  # sweep and selection; 0.0 for the seeded pick


@dataclass
class GreedyHistory:
    records: list = field(default_factory=list)
    saturated: bool = False

    @property
    def estimates(self):
        return np.array([r.estimate for r in self.records[1:]])


def empty_basis(dim):
    return ReducedBasis(sample_set=[], xi=np.zeros((dim, 0)),
                        chol_coeffs=np.zeros((0, 0)), images=np.zeros((dim, 0)))


def empty_model(Q_a, Q_f):
    return ReducedModel(
        a_blocks=np.zeros((Q_a, 0, 0)), f_blocks=np.zeros((Q_f, 0))
    )


def rb_solve(model, op, mu):
    """Reduced Galerkin solution in the orthonormal basis: ``(N,)`` for one
    point ``mu (p,)``, ``(M, N)`` for rows ``mu (M, p)``.

    The solve is ``kernels.reduced_solve``, the one the sweeps score, so a
    row does not depend on the batch it comes in.  An exactly singular
    reduced system raises ``np.linalg.LinAlgError``.
    """
    if model.size == 0:
        raise ValueError("reduced model is empty")
    mu = np.asarray(mu, dtype=float)
    points = mu if mu.ndim == 2 else mu.reshape(1, -1)
    u = kernels.reduced_solve(op.theta_a_values(points), op.theta_f_values(points),
                              model.a_blocks, model.f_blocks)
    return u if mu.ndim == 2 else u[0]


def lagrange_coefficients(basis, u_hat):
    """Snapshot-basis (cardinal Lagrange) coefficients c with R c = u_hat,
    for one reduced solution ``(N,)`` or rows of them ``(m, N)``."""
    R = basis.chol_coeffs
    u_hat = np.asarray(u_hat, dtype=float)
    if R.shape[0] != u_hat.shape[-1]:
        raise ValueError("coefficient length does not match basis size")
    cond = np.linalg.cond(R) if R.size else 0.0
    if cond > 1e12:
        warnings.warn(
            f"change-of-basis factor is ill conditioned (cond ~ {cond:.2e}); "
            "Lagrange coefficients may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return kernels.lagrange_values(np.atleast_2d(u_hat), R).reshape(u_hat.shape)


def extend_basis(basis, model, mu, values, op):
    """Append the snapshot ``values`` taken at parameter ``mu``:
    orthonormalize it against the basis, grow the reduced blocks by one row
    and one column, leaving old entries untouched, and append the new
    vector's operator images.

    Raises :class:`DependentSnapshotError` when the snapshot adds no stable
    new direction (its remainder is below ``DROP_TOL`` times its norm); the
    greedy driver treats that as a stopping signal.
    """
    for mu_prev in basis.sample_set:
        if np.array_equal(mu_prev, mu):
            raise ValueError("parameter already in the sample set")
    v = np.asarray(values, dtype=float)
    orig = float(np.linalg.norm(v))
    coeffs, w = _mgs_coeffs(basis.xi, v)
    wnorm = float(np.linalg.norm(w))
    if orig == 0.0 or wnorm < DROP_TOL * orig:
        raise DependentSnapshotError(
            f"snapshot at mu={mu} is dependent on the current basis "
            f"(projection residual {wnorm:.3e} vs norm {orig:.3e})"
        )
    xi_new = w / wnorm
    N = basis.size
    new_xi = np.column_stack([basis.xi, xi_new])
    new_R = np.zeros((N + 1, N + 1))
    new_R[:N, :N] = basis.chol_coeffs
    new_R[:N, N] = coeffs
    new_R[N, N] = wnorm

    Qa = len(op.kron_factors)
    Qf = len(op.f_components)
    a_blocks = np.zeros((Qa, N + 1, N + 1))
    a_blocks[:, :N, :N] = model.a_blocks
    images = [basis.images]
    for q, (image, old) in enumerate(op.component_products(xi_new, basis.xi)):
        a_blocks[q, :, N] = new_xi.T @ image
        a_blocks[q, N, :N] = xi_new @ old
        images.append(image)
    new_basis = ReducedBasis(
        sample_set=basis.sample_set + [np.atleast_1d(np.array(mu, dtype=float))],
        xi=new_xi,
        chol_coeffs=new_R,
        images=np.column_stack(images),
    )
    f_blocks = np.zeros((Qf, N + 1))
    f_blocks[:, :N] = model.f_blocks
    for q, fq in enumerate(op.f_components):
        f_blocks[q, N] = xi_new @ fq
    return new_basis, ReducedModel(a_blocks=a_blocks, f_blocks=f_blocks)


def validate(basis, model, op, points, truth):
    """True error ``||u(mu) - xi u_hat(mu)||`` at each point, in input order,
    against ``truth``, the points' truth rows (``truth_solve_many``).

    The one true-error formula; ``harness._grid_errors`` passes it a grid
    ``kernels.CHUNK`` points at a time, so no temporary is larger than
    ``truth``.  The reduced solve and the reconstruction go point by point, so
    a point's error does not depend on the points validated with it.  A NaN
    truth row (a singular operator) gives a NaN error; an exactly singular
    reduced system raises ``np.linalg.LinAlgError``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        return np.empty(0)
    u_rb = np.matmul(basis.xi, rb_solve(model, op, points)[:, :, None])[:, :, 0]
    return np.linalg.norm(truth - u_rb, axis=1)


def greedy(op, estimator, training_set, *, N_max, eps_tol, seed=0, workers=1):
    """Greedy construction of the reduced space, driven by ``estimator``,
    over the training points ``training_set (M, p)``.

    The first pick is a ``seed``-deterministic uniform draw from the training
    set, recorded with estimate NaN and seconds 0.0 since no sweep chose it.
    Each step solves the snapshot at the pick, extends the basis, refreshes
    the estimator, then sweeps every not-yet-selected training point and
    records the argmax (ties broken by lowest index) as the next pick.  The
    loop stops when

    * the recorded estimate falls to ``eps_tol``;
    * the basis reaches ``N_max``;
    * the basis saturates (``history.saturated`` is set and the sweep is not
      recorded): an already-selected point is the strict maximizer, or the
      maximum is unresolved because the sweep's mask marks it clamped (a
      clamped value is a rounding floor, not a zero error, so it never
      satisfies ``eps_tol``);
    * the picked snapshot is numerically dependent on the basis
      (``history.saturated`` is set after the sweep is recorded); at the
      seeded pick the :class:`DependentSnapshotError` propagates instead.

    Returns ``(basis, model, history)``; ``estimator`` is left refreshed on
    the final basis.
    """
    if eps_tol <= 0:
        raise ValueError("eps_tol must be positive")
    if N_max < 1:
        raise ValueError("N_max must be at least 1")
    train = np.atleast_2d(np.asarray(training_set, dtype=float))
    if train.shape[0] == 0:
        raise ValueError("training set must be nonempty")
    best = int(np.random.default_rng(seed).integers(train.shape[0]))
    theta_a = op.theta_a_values(train)
    theta_f = op.theta_f_values(train)
    alpha = estimator.alpha_values(op, train)

    history = GreedyHistory()
    basis = empty_basis(op.dim)
    model = empty_model(len(op.kron_factors), len(op.f_components))
    selected = []
    record = GreedyRecord(0, train[best].copy(), float("nan"), 0.0)
    while True:
        history.records.append(record)
        if record.estimate <= eps_tol:  # False for the seed's NaN
            break
        try:
            basis, model = extend_basis(basis, model, train[best],
                                        truth_solve(op, train[best]), op)
        except DependentSnapshotError:
            if basis.size == 0:
                raise
            history.saturated = True
            break
        estimator.refresh(op, basis, model)
        selected.append(best)
        if basis.size >= N_max:
            break
        t0 = time.perf_counter()
        values, clamped = estimator.sweep(model, theta_a, theta_f, alpha, workers)
        masked = values.copy()
        masked[selected] = -np.inf
        best = int(np.argmax(masked))
        if (masked[best] == -np.inf or np.max(values[selected]) > values[best]
                or clamped[best]):
            # an already-selected point is the strict maximizer (re-selecting
            # it would force a dependent snapshot), or every remaining value
            # is below the estimator's rounding floor: no informative pick
            history.saturated = True
            break
        record = GreedyRecord(basis.size, train[best].copy(), float(values[best]),
                              time.perf_counter() - t0)
    return basis, model, history
