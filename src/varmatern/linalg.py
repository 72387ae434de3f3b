"""Dense symmetric linear algebra: Cholesky, solves with a factor, inverse sandwiches.

Thin wrappers over LAPACK (scipy) that pin down the residual contracts and
error reporting the rest of the package relies on. Inputs are row-major
float64 arrays or scipy.sparse arrays, which are densified; outputs are owned
by the caller, except that ``overwrite_*`` reuses the input's memory for the
output (LAPACK's in-place convention) and the sandwich consumes A's factor.
Nothing here caches a factor: the solves and the sandwich take the factors the
caller holds (``AssembledSystem`` for A and M). The solves sweep L in row
blocks of ``_SOLVE_BLOCK``: each off-diagonal block enters through a matrix
product (GEMM) on a view of L, and each diagonal block through its inverse
(LAPACK dtrtri), applied by GEMM too, so the work runs at GEMM speed rather
than that of the BLAS triangular solve dtrsm. ``cholesky`` reads one triangle
of a symmetric matrix, the upper one of a C-order input, so A is factored as
assembly leaves it, on its upper triangle, with no mirror and no symmetry
check. One N x N array carries A, its factor L and then C: the sandwich takes
5/3 N^3 (dpotri on A's factor, a sparse product with M's, one panelled product
Y Y^T) in L's own storage, and a scale on M's factor (1/mu) reaches C through
it, with no pass over C.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpotrf, dpotri, dtrtri

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
    """Copy the upper triangle of a onto its lower one, in 128 x 128 tiles."""
    for i0 in range(0, a.shape[0], 128):
        for j0 in range(0, i0, 128):
            a[i0 : i0 + 128, j0 : j0 + 128] = a[j0 : j0 + 128, i0 : i0 + 128].T
        block = a[i0 : i0 + 128, i0 : i0 + 128]
        below = np.tril_indices(block.shape[0], -1)
        block[below] = block.T[below]


def cholesky(mat, overwrite_a=False):
    """Lower-triangular factor L with L L^T = S, where S is the symmetric
    matrix held in the upper triangle of mat (the lower triangle of mat.T).

    Only that triangle is read: dpotrf factors the lower triangle of mat.T
    on the copy path and with overwrite_a alike, so the two paths agree
    bitwise and mat's strictly lower triangle may hold anything finite. mat
    must be square and finite in both triangles (else ValueError), checked
    in one pass over contiguous 256-row panels; a scipy.sparse one is
    densified and factored in the dense copy. Reconstruction satisfies
    ||L L^T - S||_max <= 1e-10 ||S||_max for SPD S; a nonpositive pivot
    raises NotPositiveDefiniteError with the failing index. With
    overwrite_a, a C-order float64 mat is factored in its own storage after
    the checks: L is the Fortran-order view mat.T.
    """
    if sparse.issparse(mat):
        mat, overwrite_a = mat.toarray(), True
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    for i0 in range(0, mat.shape[0], 256):
        if not np.isfinite(mat[i0 : i0 + 256]).all():
            raise ValueError("matrix has non-finite entries")
    c = mat.T if overwrite_a else np.array(mat.T, order="F")
    c, info = dpotrf(c, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


# Row-block height of the solve sweeps. With 1000 right-hand sides on one
# OpenBLAS thread (2-vCPU x86-64 host), two dtrsm sweeps ran at 21 GF/s
# (N = 385) to 42 GF/s (N = 1537) and the panel GEMMs at 53-64 GF/s. Each
# block costs one dtrtri of its diagonal block per sweep (0.12-0.16 ms at
# 128 rows, about 5 GF/s), which few right-hand sides do not amortize: with
# m <= 10 these sweeps lose 0.7-1.9 ms to dtrsm at N <= 1537. 256-row
# blocks were slower than 128 at every N and m measured, and lost to dtrsm
# up to m = 100; 64-row ones won at m <= 100 and at N = 385 but lost
# 6-14 % at m = 1000 for N >= 1537. Applying the inverse by dtrmm would
# halve the diagonal flops, but OpenBLAS's two-thread dtrmm took 6-8 ms per
# block, against 0.35 ms on one thread and 0.41-0.45 ms for the GEMM on two.
_SOLVE_BLOCK = 128
_STRICT_UPPER = ~np.tri(_SOLVE_BLOCK, dtype=bool)


def solve_with_factor(lower, b, overwrite_b=False):
    """x = A^{-1} b from A's lower factor L; b is (N,) or (N, m) and finite (else
    ValueError). Two sweeps over L in row blocks of _SOLVE_BLOCK, forward for
    L y = b, y_i = L_ii^{-1} (b_i - L[i, :i] y[:i]), and backward for
    L^T x = y, x_i = L_ii^{-T} (y_i - L[i+1:, i]^T x[i+1:]). Every product
    is a GEMM on views of L, of any layout, through one _SOLVE_BLOCK x m
    panel; the diagonal inverses come from LAPACK dtrtri, one at a time,
    once per sweep. Only L's lower triangle is read, and a zero on its
    diagonal raises NotPositiveDefiniteError. With overwrite_b, a C-order
    float64 b holds x in its own memory."""
    b = np.asarray(b, dtype=float, order="C") if overwrite_b else np.array(b, dtype=float, order="C")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has non-finite entries")
    y = b.reshape(b.shape[0], -1)
    n = y.shape[0]
    panel = np.empty((min(_SOLVE_BLOCK, n), y.shape[1]))
    blocks = [slice(i0, min(i0 + _SOLVE_BLOCK, n)) for i0 in range(0, n, _SOLVE_BLOCK)]
    for i in blocks:
        p = panel[: i.stop - i.start]
        np.subtract(y[i], np.matmul(lower[i, : i.start], y[: i.start], out=p), out=p)
        np.matmul(_diagonal_inverse(lower, i), p, out=y[i])
    for i in reversed(blocks):
        p = panel[: i.stop - i.start]
        np.subtract(y[i], np.matmul(lower[i.stop :, i].T, y[i.stop :], out=p), out=p)
        np.matmul(_diagonal_inverse(lower, i).T, p, out=y[i])
    return b


def _diagonal_inverse(lower, i):
    """Inverse of the diagonal block lower[i, i], read from its lower triangle;
    dtrtri keeps the input's strictly upper triangle, which is zeroed."""
    inv, info = dtrtri(lower[i, i], lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(i.start + info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtri")
    np.copyto(inv, 0.0, where=_STRICT_UPPER[: inv.shape[0], : inv.shape[0]])
    return inv


def inv_triple_product(lower, mass_lower):
    """C = A^{-1} M A^{-1} from the lower Cholesky factors of A and M, in the
    storage of A's factor, which it consumes.

    C = Y Y^T with Y = A^{-1} L_M, in 5/3 N^3. An F-order float64 factor (as
    ``cholesky`` returns) is overwritten by A^{-1} (LAPACK dpotri, 2/3 N^3),
    then by W = Y^T = L_M^T A^{-1} in 256-row panels, top-down (a sparse
    product, O(N^2) for M's bidiagonal factor: as L_M^T is upper triangular,
    rows I of W read only rows i0: of A^{-1}), then by C = W^T W in 256-column
    panels, right to left (N^3: columns I of C's upper triangle read only
    columns :i1 of W), then mirrored. C is the C-order array lower.T, exactly
    symmetric and PSD; besides it, O(256 N) floats live at once. A factor of
    another layout is copied first. mass_lower may be dense or scipy.sparse
    and must be lower triangular (else ValueError); a singular factor raises
    NotPositiveDefiniteError.
    """
    mass_t = sparse.csr_array(sparse.csr_array(mass_lower).T)
    if sparse.tril(mass_t, -1).count_nonzero():
        raise ValueError("mass factor is not lower triangular")
    inv, info = dpotri(lower, lower=1, overwrite_c=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotri")
    c = inv.T  # C order: A^{-1}'s lower triangle is its upper one
    _mirror_upper(c)
    n = c.shape[0]
    for i0 in range(0, n, 256):
        c[i0 : i0 + 256] = mass_t[i0 : i0 + 256, i0:] @ c[i0:]
    for i0 in reversed(range(0, n, 256)):
        w = c[:, i0 : i0 + 256]
        diag = w.T @ w  # by syrk, before the columns above it are overwritten
        c[:i0, i0 : i0 + 256] = (w.T @ c[:, :i0]).T  # faster than its transpose
        c[i0 : i0 + 256, i0 : i0 + 256] = diag
    _mirror_upper(c)
    return c
