"""Coupled-noise nested-mesh strong-error estimation and the rate estimate.

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
from .mesh import build_uniform
from .sampler import draw_noise

__all__ = [
    "NORM_KINDS",
    "injection",
    "coupled_loads",
    "level_error_samples",
    "error_mass",
    "rate_from_systems",
    "rate_standard_errors",
]

# Error norms rate_from_systems accepts, over D or over the whole mesh (error_mass).
NORM_KINDS = ("mass_matrix", "quadrature")

# Failures of a stage that rate_from_systems reports with the stage's name; any
# other exception (a TypeError, say) is a programming error and propagates.
_NUMERICAL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeError)


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


def coupled_loads(fine_system, prolongations, m, seed):
    """Loads per level: fine b = L z, then successive restrictions P^T b.

    ``prolongations`` holds the injections into each level from the one
    below, fine to coarse; the returned list starts with the fine load.
    """
    loads = [draw_noise(fine_system.mass_cholesky, m, seed)]
    for p in prolongations:
        loads.append(p.T @ loads[-1])
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
    """Rate estimate from three systems of consecutive levels, taken fine to
    coarse from any iterable: coupled loads by successive restriction, one
    solve per level with its cached factor, and log2(E_{l-1} / E_l). The
    loads come from the finest system, as the restrictions need only its
    mesh; each system is solved as it arrives and dropped before the next is
    asked for, so a generator that assembles each on demand holds one N x N
    array at a time. Returns (errors, r_hat, per_sample): E_l and the
    per-sample errors keyed by the two finer levels, fine first. Raises
    FloatingPointError when a solution is not finite."""
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    levels, sols, masses = [], [], []  # each solution in its load's memory
    for system in systems:
        mesh = system.mesh
        levels.append(mesh.level)
        if len(levels) > 3 or levels[0] - mesh.level != len(levels) - 1 or levels[0] < 2:
            raise ValueError(f"need three consecutive levels fine to coarse, got {levels}")
        if len(levels) == 1:
            mu = system.ctx.mu
            meshes = [mesh] + [build_uniform(mesh.r_int, mesh.r_ext, mesh.level - k) for k in (1, 2)]
            try:
                prolongations = [injection(coarse, fine) for fine, coarse in zip(meshes, meshes[1:])]
                loads = coupled_loads(system, prolongations, m, seed)
            except _NUMERICAL_ERRORS as exc:
                raise RuntimeError(f"coupled load generation failed: {exc}") from exc
        elif (mesh.r_int, mesh.r_ext) != (meshes[0].r_int, meshes[0].r_ext):
            raise ValueError(
                f"incompatible meshes: fine level {mesh.level + 1} vs coarse {mesh.level}"
            )
        try:
            u = solve_with_factor(system.stiffness_cholesky, loads[len(sols)], overwrite_b=True)
        except _NUMERICAL_ERRORS as exc:
            raise RuntimeError(f"solve failed at level {mesh.level}: {exc}") from exc
        with np.errstate(over="ignore"):  # the check below reports an overflow
            u /= mu
        if not np.isfinite(u).all():
            raise FloatingPointError(
                f"converge: non-finite solution at level {mesh.level} (mu = {mu})"
            )
        sols.append(u)
        if len(masses) < 2:
            masses.append(error_mass(system, norm_kind))
        del system  # no reference to this level's factor while the next one is made
    if len(levels) != 3:
        raise ValueError(f"need three consecutive levels fine to coarse, got {levels}")

    per_sample = {
        levels[i]: level_error_samples(sols[i], sols[i + 1], p, masses[i])
        for i, p in enumerate(prolongations)
    }
    errors = {level: float(np.sqrt(np.mean(e**2))) for level, e in per_sample.items()}
    r_hat = float(np.log2(errors[levels[1]] / errors[levels[0]]))
    return errors, r_hat, per_sample


def rate_standard_errors(per_sample):
    """Delta-method standard errors of rate_from_systems' E_l and r_hat from
    its per-sample errors, with q = mean(e^2) per level, f the finer level
    and c the coarser: SE(E_l) = sd(e_l^2) / (2 E_l sqrt(m)) and
    Var(r_hat) = [Var(e_c^2) / q_c^2 + Var(e_f^2) / q_f^2
    - 2 Cov(e_c^2, e_f^2) / (q_c q_f)] / (4 m ln^2 2), sample moments with
    m - 1 degrees of freedom. Returns (errors_se keyed like per_sample,
    r_hat_se); all None when m < 2."""
    sq = np.stack([e**2 for e in per_sample.values()])
    m = sq.shape[1]
    if m < 2:
        return dict.fromkeys(per_sample), None
    q = sq.mean(axis=1)
    cov = np.cov(sq)
    errors_se = {
        level: float(np.sqrt(cov[i, i] / m) / (2.0 * np.sqrt(q[i])))
        for i, level in enumerate(per_sample)
    }
    var = (cov[1, 1] / q[1] ** 2 + cov[0, 0] / q[0] ** 2 - 2.0 * cov[0, 1] / (q[0] * q[1])) / (
        4.0 * m * np.log(2.0) ** 2
    )
    return errors_se, float(np.sqrt(var))
