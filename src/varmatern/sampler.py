"""White-noise loads, field samples, and analytic/empirical covariances,
each returned as a plain array over the interior nodes
(``system.mesh.interior_coords``; exterior values are 0).

Noise is drawn from a seeded counter-based generator (Philox), so a batch
is reproducible bit-for-bit for a given seed regardless of how the
downstream solves are scheduled. The load carries the 1/mu scaling of the
right-hand side, equivalently the covariance scales by 1/mu^2.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .linalg import inv_triple_product, solve_with_factor

__all__ = ["draw_noise", "sample_fields", "analytic_covariance", "empirical_covariance"]


# bytes of the rows of L z formed per step of draw_noise
_NOISE_BLOCK_BYTES = 2**16


def _standard_normal(n, m, seed):
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return rng.standard_normal((n, m))


def draw_noise(mass_lower, m, seed):
    """m white-noise load vectors b = L z with z ~ N(0, I); E[b b^T] = M.

    L is M's lower-bidiagonal factor, sparse or dense. b is formed in z's
    memory, bottom-up in blocks of about _NOISE_BLOCK_BYTES, as
    b_i = l_(i,i-1) z_(i-1) + l_ii z_i, which is bitwise L @ z; so a draw
    holds one N x m array. Raises ValueError when L has an entry off its
    two diagonals."""
    n = mass_lower.shape[0]
    m = int(m)
    if m == 0:
        return np.zeros((n, 0))
    diag, sub = mass_lower.diagonal(), mass_lower.diagonal(-1)
    entries = (mass_lower.count_nonzero() if sparse.issparse(mass_lower)
               else np.count_nonzero(mass_lower))
    if entries > np.count_nonzero(diag) + np.count_nonzero(sub):
        raise ValueError("draw_noise takes a lower-bidiagonal factor of M")
    z = _standard_normal(n, m, seed)
    rows = max(1, _NOISE_BLOCK_BYTES // (8 * m))
    for i1 in range(n, 0, -rows):
        i0 = max(i1 - rows, 1)
        above = sub[i0 - 1 : i1 - 1, None] * z[i0 - 1 : i1 - 1]
        z[i0:i1] *= diag[i0:i1, None]
        z[i0:i1] += above
    z[:1] *= diag[:1, None]
    return z


def sample_fields(system, m, seed):
    """Solve A u = b / mu for m coupled noise draws; returns the N x m array u,
    one sample per column. Raises FloatingPointError when a value is not
    finite."""
    b = draw_noise(system.mass_cholesky, m, seed)
    if b.shape[1] == 0:
        return b
    u = solve_with_factor(system.stiffness_cholesky, b, overwrite_b=True)
    with np.errstate(over="ignore"):  # the check below reports an overflow
        u /= system.ctx.mu
    if not np.isfinite(u).all():
        raise FloatingPointError(f"sampling: non-finite field values (mu = {system.ctx.mu})")
    return u


def analytic_covariance(system):
    """Exact covariance (1/mu^2) A^{-1} M A^{-1} of the discrete field; returns
    the N x N array C. It is formed in the storage of A's factor, which the
    system hands over: A -> L -> C share one N x N array, and the system
    cannot sample afterwards. 1/mu enters through M's factor, L_M / mu, so no
    pass over C scales it. Raises FloatingPointError when an entry is not
    finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        c = inv_triple_product(system.take_stiffness_cholesky(),
                               system.mass_cholesky / system.ctx.mu)
    if not np.isfinite([c.min(), c.max()]).all():  # NaN propagates; no N x N mask
        raise FloatingPointError(f"covariance: non-finite entries (mu = {system.ctx.mu})")
    return c


def empirical_covariance(samples):
    """Biased (1/m) covariance of the N x m samples, centered at the exact zero
    mean; returns an N x N array."""
    m = samples.shape[1]
    if m == 0:
        raise ValueError("empirical covariance needs at least one sample")
    c = samples @ samples.T
    c /= m
    return c
