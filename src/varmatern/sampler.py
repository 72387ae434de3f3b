"""White-noise loads, field samples, and analytic/empirical covariances.

Noise is drawn from a seeded counter-based generator (Philox), so a batch
is reproducible bit-for-bit for a given seed regardless of how the
downstream solves are scheduled. The load carries the 1/mu scaling of the
right-hand side, equivalently the covariance scales by 1/mu^2.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import inv_triple_product, solve_with_factor

__all__ = [
    "SampleBatch",
    "CovarianceResult",
    "draw_noise",
    "sample_fields",
    "analytic_covariance",
    "empirical_covariance",
    "covariance_slice",
]


class SampleBatch:
    """m field samples on the interior unknowns (exterior values are 0)."""

    __slots__ = ("mesh", "seed", "samples")

    def __init__(self, mesh, seed, samples):
        self.mesh = mesh
        self.seed = int(seed)
        self.samples = samples  # (N, m)

    @property
    def m(self):
        return self.samples.shape[1]

    @property
    def coords(self):
        return self.mesh.interior_coords


class CovarianceResult:
    """Covariance matrix over the interior nodes plus its provenance."""

    __slots__ = ("kind", "matrix", "coords", "metadata")

    def __init__(self, kind, matrix, coords, metadata):
        if kind not in ("analytic", "empirical"):
            raise ValueError(f"unknown covariance kind {kind!r}")
        self.kind = kind
        self.matrix = matrix
        self.coords = coords
        self.metadata = dict(metadata)


def _standard_normal(n, m, seed):
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return rng.standard_normal((n, m))


def draw_noise(mass_lower, m, seed):
    """m white-noise load vectors b = L z with z ~ N(0, I); E[b b^T] = M."""
    n = mass_lower.shape[0]
    m = int(m)
    if m == 0:
        return np.zeros((n, 0))
    z = _standard_normal(n, m, seed)
    return mass_lower @ z


def sample_fields(system, m, seed):
    """Solve A u = b / mu for m coupled noise draws; returns a SampleBatch.
    Raises FloatingPointError when a value is not finite."""
    b = draw_noise(system.mass_cholesky, m, seed)
    if b.shape[1] == 0:
        return SampleBatch(system.mesh, seed, b)
    u = solve_with_factor(system.stiffness_cholesky, b, overwrite_b=True)
    with np.errstate(over="ignore"):  # the check below reports an overflow
        u /= system.ctx.mu
    if not np.isfinite(u).all():
        raise FloatingPointError(f"sampling: non-finite field values (mu = {system.ctx.mu})")
    return SampleBatch(system.mesh, seed, u)


def analytic_covariance(system):
    """Exact covariance (1/mu^2) A^{-1} M A^{-1} of the discrete field, from the cached factors.
    Raises FloatingPointError when an entry is not finite."""
    c = inv_triple_product(system.stiffness_cholesky, system.mass_cholesky)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        c /= system.ctx.mu**2
    if not np.isfinite(c).all():
        raise FloatingPointError(f"covariance: non-finite entries (mu = {system.ctx.mu})")
    return CovarianceResult(
        "analytic", c, system.mesh.interior_coords, system.to_manifest()
    )


def empirical_covariance(batch, metadata=None):
    """Biased (1/m) covariance centered at the exact zero mean."""
    m = batch.m
    if m == 0:
        raise ValueError("empirical covariance needs at least one sample")
    c = (batch.samples @ batch.samples.T) / m
    meta = dict(metadata or {})
    meta.update({"m": m, "seed": batch.seed})
    return CovarianceResult("empirical", c, batch.coords, meta)


def covariance_slice(cov, x0):
    """Row of the covariance at the node nearest to x0.

    x0 must lie inside D; off-node values snap to the nearest node with a
    warning. Returns (node coordinates, covariance values).
    """
    coords = cov.coords
    x0 = float(x0)
    if x0 < coords[0] or x0 > coords[-1]:
        raise ValueError(f"slice location {x0} lies outside D = [{coords[0]}, {coords[-1]}]")
    idx = int(np.argmin(np.abs(coords - x0)))
    if coords[idx] != x0:
        warnings.warn(
            f"slice location {x0} is not a node; snapping to {coords[idx]}",
            stacklevel=2,
        )
    return coords.copy(), cov.matrix[idx].copy()
