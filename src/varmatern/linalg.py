"""Dense symmetric linear algebra: Cholesky, SPD solves, inverse sandwiches.

Thin wrappers over LAPACK (scipy) that pin down the residual contracts and
error reporting the rest of the package relies on. Inputs are row-major
float64 arrays or scipy.sparse arrays, which are densified; outputs are owned
by the caller.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

__all__ = [
    "NotPositiveDefiniteError",
    "ensure_symmetric",
    "cholesky",
    "solve_spd",
    "solve_with_factor",
    "inv_triple_product",
]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky hit a nonpositive pivot; ``index`` is the failing 1-based minor."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"matrix is not positive definite (leading minor {index})")


def ensure_symmetric(mat, tol=1e-12, name="matrix"):
    """Validate shape/finiteness/symmetry of a symmetric matrix; a
    scipy.sparse one comes back dense."""
    if sparse.issparse(mat):
        mat = mat.toarray()
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    scale = np.max(np.abs(mat))
    if scale > 0 and np.max(np.abs(mat - mat.T)) > tol * scale:
        raise ValueError(f"{name} is not symmetric within {tol:g} relative")
    return mat


def cholesky(mat):
    """Lower-triangular factor L with L L^T = mat.

    Reconstruction satisfies ||L L^T - mat||_max <= 1e-10 ||mat||_max for
    SPD input; a nonpositive pivot raises NotPositiveDefiniteError with the
    failing index.
    """
    mat = ensure_symmetric(mat)
    c, info = dpotrf(mat, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def solve_spd(a, b):
    """Solve a u = b for SPD a via Cholesky."""
    return solve_with_factor(cholesky(a), b)


def solve_with_factor(lower, b):
    """Solve using a precomputed lower Cholesky factor."""
    return cho_solve((lower, True), np.asarray(b, dtype=float))


def inv_triple_product(a, m):
    """C = A^{-1} M A^{-T} via triangular solve sweeps against M's columns.

    Returned matrix is symmetrized; for SPD A and symmetric PSD M it is
    symmetric positive semidefinite up to roundoff.
    """
    m = ensure_symmetric(m, name="M")
    lower = cholesky(a)
    x = cho_solve((lower, True), m)  # A^{-1} M
    c = cho_solve((lower, True), x.T)  # A^{-1} (A^{-1} M)^T = A^{-1} M A^{-T}
    return 0.5 * (c + c.T)
