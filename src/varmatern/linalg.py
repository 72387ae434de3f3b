"""Dense symmetric linear algebra: Cholesky, solves with a factor, inverse sandwiches.

Thin wrappers over LAPACK (scipy) that pin down the residual contracts and
error reporting the rest of the package relies on. Inputs are row-major
float64 arrays or scipy.sparse arrays, which are densified; outputs are owned
by the caller. Nothing here caches a factor: the solves and the sandwich take
the factors the caller holds (``AssembledSystem`` for A and M).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

__all__ = [
    "NotPositiveDefiniteError",
    "cholesky",
    "solve_with_factor",
    "inv_triple_product",
]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky hit a nonpositive pivot; ``index`` is the failing 1-based minor."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"matrix is not positive definite (leading minor {index})")


def cholesky(mat):
    """Lower-triangular factor L with L L^T = mat.

    mat must be square, finite and symmetric within 1e-12 relative (else
    ValueError); a scipy.sparse one is densified. Reconstruction satisfies
    ||L L^T - mat||_max <= 1e-10 ||mat||_max for SPD input; a nonpositive
    pivot raises NotPositiveDefiniteError with the failing index.
    """
    if sparse.issparse(mat):
        mat = mat.toarray()
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    scale = np.max(np.abs(mat))
    if scale > 0 and np.max(np.abs(mat - mat.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    c, info = dpotrf(mat, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def solve_with_factor(lower, b):
    """Solve using a precomputed lower Cholesky factor."""
    return cho_solve((lower, True), np.asarray(b, dtype=float))


def inv_triple_product(lower, mass_lower):
    """C = A^{-1} M A^{-1} from the lower Cholesky factors of A and M.

    C = Y Y^T with Y = A^{-1} L_M: two triangular sweeps against the columns
    of L_M and one symmetric product (numpy forms y @ y.T by one BLAS syrk
    and mirrors it), so C is exactly symmetric and positive semidefinite by
    construction. mass_lower may be dense or scipy.sparse.
    """
    if sparse.issparse(mass_lower):
        mass_lower = mass_lower.toarray(order="F")
    else:
        mass_lower = np.array(mass_lower, dtype=float, order="F")
    y = cho_solve((lower, True), mass_lower, overwrite_b=True)  # Y overwrites our copy
    return y @ y.T
