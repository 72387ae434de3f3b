"""Coupled-noise nested-mesh strong-error estimation and rate reporting.

One fine Gaussian vector drives every level: the fine load is b_f = L_f z,
coarser loads are successive restrictions P^T b. The strong error between
consecutive levels is measured in the fine-level mass norm, over D or (the
"quadrature" norm) over the whole mesh, and the rate estimate is
log2(E_{l-1} / E_l).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .assembly import assemble_stiffness  # noqa: F401  (perfbench/spans.py traces this name)
from .linalg import solve_with_factor
from .sampler import draw_noise

__all__ = [
    "NORM_KINDS",
    "RateReport",
    "injection",
    "coupled_loads",
    "level_error_samples",
    "error_mass",
    "rate_from_systems",
]

# Error norms rate_from_systems accepts, over D or over the whole mesh (error_mass).
NORM_KINDS = ("mass_matrix", "quadrature")


class RateReport:
    """Per-level strong errors and the estimated convergence rate."""

    __slots__ = ("levels", "m", "errors", "r_hat", "norm_kind", "config", "per_sample")

    def __init__(self, levels, m, errors, r_hat, norm_kind, config, per_sample=None):
        self.levels = list(levels)
        self.m = int(m)
        self.errors = dict(errors)
        self.r_hat = float(r_hat)
        self.norm_kind = norm_kind
        self.config = dict(config)
        self.per_sample = dict(per_sample or {})

    def to_dict(self):
        return {
            "levels": self.levels,
            "m": self.m,
            "errors": {str(k): v for k, v in self.errors.items()},
            "r_hat": self.r_hat,
            "norm_kind": self.norm_kind,
            "config": self.config,
        }


def injection(coarse, fine):
    """Coarse-to-fine nodal interpolation on the interior unknowns, a CSR array.

    Coinciding nodes copy, fine midpoints average their coarse neighbours;
    coarse values beyond the unknowns follow the zero-extension convention.
    """
    if fine.level != coarse.level + 1 or fine.r_int != coarse.r_int or \
            fine.r_ext != coarse.r_ext:
        raise ValueError(
            f"incompatible meshes: fine level {fine.level} vs coarse {coarse.level}"
        )
    # Even fine nodes 2i coincide with coarse node i, odd ones are midpoints.
    i = np.arange(coarse.interior_node_count)
    rows = np.concatenate([2 * i, 2 * i[:-1] + 1, 2 * i[1:] - 1])
    cols = np.concatenate([i, i[:-1], i[1:]])
    vals = np.concatenate([np.ones(i.size), np.full(2 * i.size - 2, 0.5)])
    return sparse.csr_array((vals, (rows, cols)), shape=(fine.interior_node_count, i.size))


def coupled_loads(fine_system, coarser_meshes, m, seed):
    """Loads per level: fine b = L z, then successive restrictions P^T b.

    ``coarser_meshes`` is ordered fine-to-coarse, each one level below the
    previous; the returned list starts with the fine load.
    """
    loads = [draw_noise(fine_system.mass_cholesky, m, seed)]
    mesh_fine = fine_system.mesh
    for mesh_coarse in coarser_meshes:
        p = injection(mesh_coarse, mesh_fine)
        loads.append(p.T @ loads[-1])
        mesh_fine = mesh_coarse
    return loads


def level_error_samples(fine_batch, coarse_batch, p, mass_fine):
    """Per-sample mass-norm distances between coupled level solutions, 128 at a time."""
    if fine_batch.shape[1] != coarse_batch.shape[1]:
        raise ValueError(
            f"sample count mismatch: {fine_batch.shape[1]} vs {coarse_batch.shape[1]}"
        )
    sq = np.empty(fine_batch.shape[1])
    for k0 in range(0, sq.size, 128):
        cols = slice(k0, k0 + 128)
        d = p @ coarse_batch[:, cols]
        np.subtract(fine_batch[:, cols], d, out=d)
        sq[cols] = np.einsum("ik,ik->k", d, mass_fine @ d)
    return np.sqrt(sq)


def error_mass(system, norm_kind):
    """Gram matrix of the error norm on the interior unknowns of ``system``.

    "mass_matrix" is M, which integrates over D. "quadrature" integrates
    over the whole mesh, so the first exterior elements add the hat tails of
    the nodes at +-r_int: 2h/3 at the two corners in place of h/3 (exact, as
    the squared P1 error is a quadratic on each element).
    """
    if norm_kind == "mass_matrix":
        return system.m
    full = system.m.copy()
    full[[0, -1], [0, -1]] = 2.0 * system.mesh.h / 3.0
    return full


def rate_from_systems(systems, m, seed, norm_kind="mass_matrix"):
    """Rate estimate from three systems of consecutive levels, ordered fine
    to coarse: coupled loads by successive restriction, one solve per level
    with its cached factor, and log2(E_{l-1} / E_l)."""
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    levels = [s.mesh.level for s in systems]
    if len(systems) != 3 or levels[0] - levels[1] != 1 or levels[1] - levels[2] != 1:
        raise ValueError(f"need three consecutive levels fine to coarse, got {levels}")
    meshes = [s.mesh for s in systems]
    mu = systems[0].ctx.mu
    try:
        loads = coupled_loads(systems[0], meshes[1:], m, seed)
    except Exception as exc:
        raise RuntimeError(f"coupled load generation failed: {exc}") from exc

    sols = []  # each solved in its load's memory
    for sys_l, b in zip(systems, loads):
        try:
            sols.append(solve_with_factor(sys_l.stiffness_cholesky, b, overwrite_b=True))
            sols[-1] /= mu
        except Exception as exc:
            raise RuntimeError(
                f"solve failed at level {sys_l.mesh.level}: {exc}"
            ) from exc

    errors = {}
    per_sample = {}
    for i in (0, 1):
        p = injection(meshes[i + 1], meshes[i])
        mass = error_mass(systems[i], norm_kind)
        samples = level_error_samples(sols[i], sols[i + 1], p, mass)
        per_sample[levels[i]] = samples
        errors[levels[i]] = float(np.sqrt(np.mean(samples**2)))
    r_hat = float(np.log2(errors[levels[1]] / errors[levels[0]]))
    config = {
        "kernel": systems[0].ctx.to_dict(),
        "mesh": meshes[0].to_dict(),
        "seed": seed,
        "quad_n_per_level": {
            str(s.mesh.level): s.quad_meta["n_disjoint"] for s in systems
        },
    }
    return RateReport(levels, m, errors, r_hat, norm_kind, config, per_sample)
