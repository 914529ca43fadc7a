"""Dense numerical kernels shared by the rest of the package.

Everything here operates on plain float64 numpy arrays.  The one inner
product is the Euclidean one on interior collocation values, so norms and
dual norms are plain ``np.linalg.norm`` calls.
"""

import warnings

import numpy as np
import scipy.linalg as sla

__all__ = [
    "SingularSystemError",
    "pivoted_qr",
    "complement_project",
    "solve_dense",
    "smallest_symmetric_eigenvalue",
]

#: Tolerance for dropping a nearly dependent vector during
#: orthonormalization, relative to the vector's original norm.
DROP_TOL = 1e-10

#: Relative diagonal threshold for the rank decision in pivoted QR.
RANK_TOL = 1e-10


class SingularSystemError(np.linalg.LinAlgError):
    """A linear system is singular to working precision."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


def _check_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def _mgs_coeffs(basis, v):
    """Project v onto the span of ``basis`` columns via modified Gram-Schmidt
    with one re-orthogonalization pass.  Returns (coefficients, remainder)."""
    w = np.array(v, dtype=float)
    n = basis.shape[1]
    coeffs = np.zeros(n)
    for _ in range(2):
        for j in range(n):
            h = float(np.dot(basis[:, j], w))
            coeffs[j] += h
            w -= h * basis[:, j]
    return coeffs, w


def pivoted_qr(B):
    """Column-pivoted reduced QR with a rank decision on the R diagonal.

    Returns ``(Q, R, perm, rank)`` with ``B[:, perm] = Q @ R``, ``Q`` holding
    exactly ``rank`` orthonormal columns and ``R`` upper triangular with
    nonincreasing diagonal magnitudes.  The rank counts diagonal entries with
    ``|R_kk| > RANK_TOL * |R_00|``.
    """
    B = np.asarray(B, dtype=float)
    _check_finite(B, "B")
    if B.size == 0 or not np.any(B):
        ncols = B.shape[1] if B.ndim == 2 else 0
        return (
            np.zeros((B.shape[0], 0)),
            np.zeros((0, ncols)),
            np.arange(ncols),
            0,
        )
    Q, R, perm = sla.qr(B, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.count_nonzero(diag > RANK_TOL * diag[0]))
    return Q[:, :rank], R[:rank, :], perm, rank


def complement_project(Q, v):
    """Apply the orthogonal-complement projector (I - Q Q^T) to v.

    Two projection passes are used so that the result is orthogonal to the
    columns of Q at machine-precision level even for large columns counts.
    """
    v = np.asarray(v, dtype=float)
    if Q.size == 0:
        return v.copy()
    if Q.shape[0] != v.shape[0]:
        raise ValueError("dimension mismatch between Q and v")
    w = v - Q @ (Q.T @ v)
    w -= Q @ (Q.T @ w)
    return w


def solve_dense(A, b):
    """Solve a dense square system by LU with partial pivoting.

    Raises :class:`SingularSystemError` carrying the offending pivot
    magnitude when A is singular to working precision.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_finite(A, "A")
    _check_finite(b, "b")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    with warnings.catch_warnings():
        # the pivot check below raises a richer error than scipy's warning
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(A, check_finite=False)
    diag = np.abs(np.diag(lu))
    pivot_min = float(diag.min()) if diag.size else 0.0
    if pivot_min <= np.finfo(float).eps * max(diag.max(initial=0.0), 1.0) * A.shape[0]:
        raise SingularSystemError(
            f"matrix singular to working precision (pivot {pivot_min:.3e})",
            pivot=pivot_min,
        )
    return sla.lu_solve((lu, piv), b, check_finite=False)


def smallest_symmetric_eigenvalue(A):
    """Smallest eigenvalue of sym(A) = (A + A^T)/2.

    This is the infimum of the Rayleigh quotient w^T sym(A) w / w^T w.
    """
    A = np.asarray(A, dtype=float)
    _check_finite(A, "A")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    S = 0.5 * (A + A.T)
    vals = sla.eigh(S, eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])
