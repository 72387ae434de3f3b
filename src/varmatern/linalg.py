"""Dense symmetric linear algebra: Cholesky, solves with a factor, inverse sandwiches.

Thin wrappers over LAPACK (scipy) that pin down the residual contracts and
error reporting the rest of the package relies on. Inputs are row-major
float64 arrays or scipy.sparse arrays, which are densified; outputs are owned
by the caller, except that ``overwrite_*`` reuses the input's memory for the
output (LAPACK's in-place convention). Nothing here caches a factor: the solves
and the sandwich take the factors the caller holds (``AssembledSystem`` for A
and M). The sandwich takes 5/3 N^3: dpotri on A's factor, a sparse product
with M's, one syrk.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotri

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


def _mirror_upper(a):
    """Copy the upper triangle of a onto its lower one, 256 rows at a time."""
    for i0 in range(0, a.shape[0], 256):
        i1 = min(i0 + 256, a.shape[0])
        a[i0:i1, :i0] = a[:i0, i0:i1].T
        block = a[i0:i1, i0:i1]
        block[np.tril_indices(i1 - i0, -1)] = block.T[np.tril_indices(i1 - i0, -1)]


def cholesky(mat, overwrite_a=False):
    """Lower-triangular factor L with L L^T = mat.

    mat must be square, finite and symmetric within 1e-12 relative (else
    ValueError); a scipy.sparse one is densified. Reconstruction satisfies
    ||L L^T - mat||_max <= 1e-10 ||mat||_max for SPD input; a nonpositive
    pivot raises NotPositiveDefiniteError with the failing index. The checks
    take one pass over 256-row panels of the upper half and their mirrors.
    With overwrite_a, a C-order float64 mat is factored in its own storage
    after the checks: L is the Fortran-order view mat.T.
    """
    if sparse.issparse(mat):
        mat = mat.toarray()
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    # copied first, so the check's panels are freed above the copy on the heap
    c = mat.T if overwrite_a else np.array(mat, order="F")
    skew = scale = 0.0
    for i0 in range(0, mat.shape[0], 256):
        upper, lower = mat[i0 : i0 + 256, i0:], mat[i0:, i0 : i0 + 256].T
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise ValueError("matrix has non-finite entries")
        diff = upper - lower
        skew = max(skew, np.abs(diff, out=diff).max())
        del diff  # one panel alive at a time
        scale = max(scale, upper.max(), -upper.min(), lower.max(), -lower.min())
    if scale > 0 and skew > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    c, info = dpotrf(c, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def solve_with_factor(lower, b, overwrite_b=False):
    """x = A^{-1} b from A's lower factor L; b is (N,) or (N, m) and finite (else
    ValueError). Two BLAS dtrsm sweeps from the right, (b^T L^{-T}) L^{-1}, on
    b.T; with overwrite_b, a C-order float64 b holds x in its own memory."""
    b = np.asarray(b, dtype=float) if overwrite_b else np.array(b, dtype=float, order="C")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has non-finite entries")
    rhs = b.reshape(b.shape[0], -1).T
    rhs = dtrsm(1.0, lower, rhs, side=1, lower=1, trans_a=1, overwrite_b=1)
    rhs = dtrsm(1.0, lower, rhs, side=1, lower=1, overwrite_b=1)
    return rhs.T.reshape(b.shape)


def inv_triple_product(lower, mass_lower):
    """C = A^{-1} M A^{-1} from the lower Cholesky factors of A and M.

    C = Y Y^T with Y = A^{-1} L_M, in 5/3 N^3: A^{-1} by LAPACK dpotri from
    A's factor (2/3 N^3), Y as a sparse product (O(N^2) for M's bidiagonal
    factor), y @ y.T by one BLAS syrk (N^3); C is exactly symmetric and PSD,
    and at most two N x N arrays live at once. mass_lower may be dense or
    scipy.sparse; a singular factor raises NotPositiveDefiniteError.
    """
    inv, info = dpotri(lower, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotri")
    _mirror_upper(inv.T)
    y = (sparse.csr_array(mass_lower).T @ inv.T).T
    del inv
    return y @ y.T
