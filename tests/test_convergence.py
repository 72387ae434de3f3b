import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from varmatern.convergence import (
    coupled_loads,
    error_mass,
    injection,
    level_error_samples,
    rate_from_systems,
)
from varmatern.assembly import assemble_plain_mass
from varmatern.mesh import build_uniform
from varmatern.quadrature import gauss_legendre_01
from varmatern.sampler import draw_noise


def test_injection_structure():
    coarse = build_uniform(3, 4, 2)
    fine = build_uniform(3, 4, 3)
    p = injection(coarse, fine).toarray()
    assert p.shape == (fine.interior_node_count, coarse.interior_node_count)
    # coinciding nodes copy: each coarse column has a single 1 on even rows
    even = p[::2]
    assert np.array_equal(even, np.eye(coarse.interior_node_count))
    # midpoints average the two coarse neighbours
    odd = p[1::2]
    assert np.all(np.sum(odd != 0, axis=1) == 2)
    assert np.allclose(odd[odd != 0], 0.5)
    # constant-1 coarse vector interpolates to 1 at every fine unknown
    assert np.allclose(p @ np.ones(coarse.interior_node_count), 1.0)


def test_injection_rejects_incompatible():
    with pytest.raises(ValueError):
        injection(build_uniform(3, 4, 2), build_uniform(3, 4, 4))
    with pytest.raises(ValueError):
        injection(build_uniform(3, 5, 2), build_uniform(3, 4, 3))


def test_coupled_loads_single_level(build_system):
    system = build_system("const05", 2.5, 3)
    loads = coupled_loads(system, [], 8, seed=3)
    assert len(loads) == 1
    assert np.array_equal(loads[0], draw_noise(system.mass_cholesky, 8, seed=3))


def test_coupled_loads_restriction_linearity(build_system):
    fine = build_system("const05", 2.5, 4)
    coarse_mesh = build_uniform(3, 4, 3)
    p = injection(coarse_mesh, fine.mesh)
    b1 = draw_noise(fine.mass_cholesky, 4, seed=1)
    b2 = draw_noise(fine.mass_cholesky, 4, seed=2)
    assert np.allclose(p.T @ (b1 + b2), p.T @ b1 + p.T @ b2)


def test_coupled_loads_galerkin_mass(build_system):
    fine = build_system("const05", 2.5, 3)
    coarse = build_system("const05", 2.5, 2)
    m = 10_000
    loads = coupled_loads(fine, [coarse.mesh], m, seed=17)
    b_c = loads[1]
    emp = b_c @ b_c.T / m
    p = injection(coarse.mesh, fine.mesh)
    ref = (p.T @ fine.m @ p).toarray()
    stderr = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / m)
    assert np.all(np.abs(emp - ref) <= 5 * stderr)


def test_level_error_identical_and_unit_vector(build_system):
    fine = build_system("const05", 2.5, 3)
    coarse = build_system("const05", 2.5, 2)
    p = injection(coarse.mesh, fine.mesh)
    u_c = np.zeros((coarse.n, 3))
    u_f = p @ u_c
    assert np.array_equal(level_error_samples(u_f, u_c, p, fine.m), np.zeros(3))
    # d = e_i gives E^2 = M_ii
    i = 5
    d = np.zeros((fine.n, 1))
    d[i] = 1.0
    e = level_error_samples(p @ u_c[:, :1] + d, u_c[:, :1], p, fine.m)
    assert e.shape == (1,)
    assert e[0] == pytest.approx(np.sqrt(fine.m[i, i]), rel=1e-13)
    with pytest.raises(ValueError):
        level_error_samples(u_f, u_c[:, :2], p, fine.m)


def test_quadrature_norm_close_to_mass_norm(build_system):
    systems = [build_system("const05", 2.5, lev) for lev in (5, 4, 3)]
    rep_mass = rate_from_systems(systems, 200, seed=31, norm_kind="mass_matrix")
    rep_quad = rate_from_systems(systems, 200, seed=31, norm_kind="quadrature")
    for lev in (5, 4):
        ratio = rep_quad.errors[lev] / rep_mass.errors[lev]
        assert abs(ratio - 1.0) < 0.10


def _gauss_error_norms(fine_batch, coarse_batch, p, fine_mesh):
    """Per-sample L2 error over the whole fine mesh by two-point Gauss on each
    element, the exterior nodal values being zero: the former quadrature norm."""
    d = fine_batch - p @ coarse_batch
    full = np.zeros((fine_mesh.n_nodes, d.shape[1]))
    full[fine_mesh.interior_slice] = d
    rule = gauss_legendre_01(2)
    vals_sq = 0.0
    for xq, wq in zip(rule.nodes, rule.weights):
        vals_sq = vals_sq + wq * ((1.0 - xq) * full[:-1] + xq * full[1:]) ** 2
    return np.sqrt(fine_mesh.h * np.sum(vals_sq, axis=0))


@pytest.mark.parametrize("level", [3, 5, 7])
def test_quadrature_norm_matches_gauss_loop(level, rng):
    fine = build_uniform(3, 4, level)
    coarse = build_uniform(3, 4, level - 1)
    p = injection(coarse, fine)
    system = SimpleNamespace(mesh=fine, m=assemble_plain_mass(fine))
    u_f = rng.standard_normal((fine.interior_node_count, 6))
    u_c = rng.standard_normal((coarse.interior_node_count, 6))
    got = level_error_samples(u_f, u_c, p, error_mass(system, "quadrature"))
    ref = _gauss_error_norms(u_f, u_c, p, fine)
    assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
    # the mass-matrix norm leaves out the two exterior elements
    assert error_mass(system, "mass_matrix") is system.m


def test_quadrature_norm_reports_per_sample(build_system):
    systems = [build_system("const05", 2.5, lev) for lev in (5, 4, 3)]
    rep = rate_from_systems(systems, 50, seed=31, norm_kind="quadrature")
    for lev in (5, 4):
        assert rep.per_sample[lev].shape == (50,)
        assert rep.errors[lev] == np.sqrt(np.mean(rep.per_sample[lev] ** 2))


def test_converge_rate_report_contents(tmp_path):
    from varmatern import cli

    out = tmp_path / "conv"
    assert cli.main(["converge", "--levels", "5,4,3", "--m", "100", "--seed", "19",
                     "--out", str(out)]) == 0
    d = json.loads((out / "rate_report.json").read_text())
    assert set(d) == {"levels", "m", "errors", "r_hat", "norm_kind", "config", "config_echo"}
    assert d["levels"] == [5, 4, 3]
    assert d["m"] == 100
    assert all(v > 0 for v in d["errors"].values())
    assert d["r_hat"] == pytest.approx(np.log2(d["errors"]["4"] / d["errors"]["5"]), abs=1e-14)
    # the quadrature settings are in config_echo only
    assert set(d["config"]) == {"kernel", "mesh", "seed", "quad_n_per_level"}
    assert d["config"]["mesh"]["level"] == 5
    assert d["config"]["seed"] == 19
    assert d["config"]["quad_n_per_level"]["5"] >= 4
    assert d["config_echo"]["quadrature"]["c"] == 1.0
    per_sample = np.loadtxt(out / "per_sample_errors.csv", delimiter=",", skiprows=1)
    assert per_sample.shape == (100, 3)


def test_estimate_rate_validates_levels(build_system):
    # a gap between levels and a two-level ladder are both refused
    systems = {lev: build_system("const05", 2.5, lev) for lev in (5, 4, 3, 2)}
    for levels in ((5, 3, 2), (5, 4)):
        with pytest.raises(ValueError, match="consecutive"):
            rate_from_systems([systems[lev] for lev in levels], 10, seed=1)


def test_rate_from_systems_validates_order(build_system):
    systems = [build_system("const05", 2.5, lev) for lev in (3, 4, 5)]
    with pytest.raises(ValueError, match="consecutive"):
        rate_from_systems(systems, 10, seed=1)


def test_stage_failure_names_stage(monkeypatch, build_system):
    systems = [build_system("const05", 2.5, lev) for lev in (5, 4, 3)]
    import varmatern.convergence as conv

    def boom(*a, **k):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(conv, "draw_noise", boom)
    with pytest.raises(RuntimeError, match="coupled load"):
        rate_from_systems(systems, 10, seed=1)


def test_level_error_samples_matches_per_sample_loop(rng):
    from varmatern.convergence import level_error_samples

    n_f, n_c, m = 9, 4, 300  # m spans three blocks of samples
    a = rng.standard_normal((n_f, n_f))
    mass = a @ a.T + n_f * np.eye(n_f)  # dense SPD, not tridiagonal
    p = rng.standard_normal((n_f, n_c))
    fine = rng.standard_normal((n_f, m))
    coarse = rng.standard_normal((n_c, m))
    ref = []
    for k in range(m):
        d = fine[:, k] - p @ coarse[:, k]
        ref.append(np.sqrt(d @ mass @ d))
    got = level_error_samples(fine, coarse, p, mass)
    assert got.shape == (m,)
    assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


def test_rate_from_systems_peak_memory_within_loads(build_system):
    # the factors take A's memory and the solutions the loads'; beyond the loads,
    # the largest array is one 256-row check panel of the fine A (or, just as
    # large, one block of d and M d)
    systems = [build_system("const05", 2.5, lev) for lev in (7, 6, 5)]
    m = 200
    loads = sum(s.n for s in systems) * m * 8
    panel = 256 * systems[0].n * 8
    tracemalloc.start()
    try:
        rate_from_systems(systems, m, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (loads + panel), peak / (loads + panel)
