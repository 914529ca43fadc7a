"""Dense numerical kernels shared by the rest of the package.

Everything here operates on plain float64 numpy arrays.  The one inner
product is the Euclidean one on interior collocation values, so norms and
dual norms are plain ``np.linalg.norm`` calls.
"""

import numpy as np
import scipy.linalg as sla

__all__ = [
    "pivoted_qr",
    "solve_dense",
]

#: Tolerance for dropping a nearly dependent vector during
#: orthonormalization, relative to the vector's original norm.
DROP_TOL = 1e-10

#: Relative diagonal threshold for the rank decision in pivoted QR.
RANK_TOL = 1e-10


#: Elements per block in which ``_check_finite`` reads an array.
FINITE_BLOCK = 1 << 16


def _check_finite(a, name):
    """Raise ``ValueError`` naming ``a`` if any entry is not finite.

    The array is read in blocks of ``FINITE_BLOCK`` elements in memory order,
    so the check allocates one block-sized mask, not an array-sized one."""
    blocks = np.nditer(a, flags=["external_loop", "buffered", "zerosize_ok"],
                       order="K", buffersize=FINITE_BLOCK)
    for block in blocks:
        if not np.all(np.isfinite(block)):
            raise ValueError(f"{name} contains non-finite entries")


def _mgs_coeffs(basis, v):
    """Project v onto the span of the orthonormal ``basis`` columns by
    modified Gram-Schmidt with one re-orthogonalization pass, which leaves
    the remainder orthogonal to working precision (Giraud-Langou-Rozloznik
    2005).  Returns (coefficients, remainder)."""
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
    _check_finite(B, "B")  # so scipy need not read B again
    Q, R, perm = sla.qr(B, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(R))
    # diag[:1] is empty with diag, so an empty B has rank 0; so has a zero B
    rank = int(np.count_nonzero(diag > RANK_TOL * diag[:1]))
    return Q[:, :rank], R[:rank, :], perm, rank


def solve_dense(A, b):
    """Solve a dense square system by LU with partial pivoting, LAPACK
    ``getrf`` then ``getrs``.

    A may be overwritten by its LU factors: a column-major float64 A is
    factored in place, any other A is copied first.  Raises
    ``np.linalg.LinAlgError`` naming the offending pivot magnitude when A is
    singular to working precision.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_finite(A, "A")
    _check_finite(b, "b")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if b.shape[:1] != A.shape[:1]:
        raise ValueError(f"b of shape {b.shape} does not fit A of shape {A.shape}")
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), dtype=float)
    # dgetrf calls an empty A illegal: its empty diagonal raises below, as
    # an exactly zero pivot (getrf's info > 0) does
    lu, piv, _ = getrf(A, overwrite_a=True) if A.size else (A, None, 0)
    diag = np.abs(np.diag(lu))
    pivot_min = float(diag.min()) if diag.size else 0.0
    # relative to the largest pivot, so the decision does not depend on
    # the scale of A; an all-zero diagonal still raises
    if pivot_min <= np.finfo(float).eps * A.shape[0] * diag.max(initial=0.0):
        raise np.linalg.LinAlgError(
            f"matrix singular to working precision (pivot {pivot_min:.3e})")
    return getrs(lu, piv, b)[0]
