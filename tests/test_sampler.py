import tracemalloc

import numpy as np
import pytest

from varmatern import assembly, linalg, smoothness
from varmatern.kernel import KernelContext
from varmatern.mesh import build_uniform
from varmatern.sampler import analytic_covariance, draw_noise, empirical_covariance, sample_fields


def test_draw_noise_empty():
    b = draw_noise(np.eye(7), 0, seed=1)
    assert b.shape == (7, 0)


def test_draw_noise_identity_covariance():
    b = draw_noise(np.eye(6), 100_000, seed=42)
    cov = b @ b.T / b.shape[1]
    assert np.max(np.abs(cov - np.eye(6))) < 0.02


@pytest.mark.parametrize("level", [3, 6, 8])
def test_draw_noise_is_mass_factor_times_standard_normal(build_system, level):
    # L z formed in z's memory equals the sparse product bitwise
    from varmatern.sampler import _standard_normal

    lower = build_system("const05", 2.5, level).mass_cholesky
    n = lower.shape[0]
    for m in (0, 1, 7, 1000):
        b = draw_noise(lower, m, seed=5)
        assert b.shape == (n, m)
        assert np.array_equal(b, lower @ _standard_normal(n, m, 5)), m


def test_draw_noise_holds_one_load_array(build_system):
    lower = build_system("const05", 2.5, 8).mass_cholesky
    n, m = lower.shape[0], 1000
    tracemalloc.start()
    try:
        b = draw_noise(lower, m, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.shape == (n, m)
    assert peak <= 1.1 * n * m * 8, peak / (n * m * 8)


def test_draw_noise_rejects_a_factor_that_is_not_bidiagonal():
    lower = np.tril(np.ones((5, 5)))
    with pytest.raises(ValueError, match="bidiagonal"):
        draw_noise(lower, 3, seed=1)


def test_draw_noise_matches_mass(build_system):
    system = build_system("const05", 2.5, 3)
    m = 20_000
    b = draw_noise(system.mass_cholesky, m, seed=7)
    emp = b @ b.T / m
    ref = system.m.toarray()
    stderr = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / m)
    assert np.all(np.abs(emp - ref) <= 5 * stderr)


def test_sample_scaling_in_mu(build_system):
    sys1 = build_system("const05", 2.5, 3, mu=1.0)
    sys2 = build_system("const05", 2.5, 3, mu=2.0)
    assert np.allclose(sys1.a, sys2.a)  # mu enters only through the load
    u1 = sample_fields(sys1, 16, seed=5)
    u2 = sample_fields(sys2, 16, seed=5)
    assert np.array_equal(u1, 2.0 * u2)


def test_sampling_deterministic_given_seed(build_system):
    system = build_system("const05", 2.5, 3)
    a = sample_fields(system, 32, seed=11)
    b = sample_fields(system, 32, seed=11)
    c = sample_fields(system, 32, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empty_batch(build_system):
    system = build_system("const05", 2.5, 3)
    u = sample_fields(system, 0, seed=1)
    assert u.shape == (system.n, 0)
    with pytest.raises(ValueError):
        empirical_covariance(u)


def test_analytic_covariance_basic_properties(build_system):
    system = build_system("const05", 2.5, 4)
    cov = analytic_covariance(system)
    assert np.all(np.diag(cov) > 0)
    assert np.max(np.abs(cov - cov.T)) <= 1e-12 * np.max(cov)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() >= -1e-10 * np.max(np.abs(cov))


def test_stiffness_factored_once_per_system(monkeypatch):
    # samples and the analytic covariance share the system's cached factor of A
    calls = []
    for module in (assembly, linalg):
        def counted(mat, _factor=module.cholesky, **kw):
            calls.append(mat.shape)
            return _factor(mat, **kw)
        monkeypatch.setattr(module, "cholesky", counted)
    ctx = KernelContext(2.5, 1.0, smoothness.step(0.35, 0.85))
    system = assembly.assemble_stiffness(build_uniform(3.0, 4.0, 3), ctx)
    sample_fields(system, 4, seed=1)
    analytic_covariance(system)
    assert calls == [(system.n, system.n)]


@pytest.mark.parametrize("profile", ["step", "bump"])
@pytest.mark.parametrize("level", [3, 4, 5])
def test_analytic_covariance_symmetric_and_matches_dense(build_system, profile, level):
    system = build_system(profile, 2.5, level)
    c = analytic_covariance(system)
    assert np.array_equal(c, c.T)
    a = build_system(profile, 2.5, level).a  # factoring overwrote system.a
    ref = np.linalg.solve(a, np.linalg.solve(a, system.m.toarray()).T) / system.ctx.mu**2
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_analytic_covariance_mu_scaling(build_system):
    # 1/mu scales M's factor: a power of two commutes with every rounding
    c1 = analytic_covariance(build_system("const05", 2.5, 3, mu=1.0))
    c2 = analytic_covariance(build_system("const05", 2.5, 3, mu=2.0))
    assert np.array_equal(c1, 4.0 * c2)
    c25 = analytic_covariance(build_system("const05", 2.5, 3, mu=2.5))
    assert np.array_equal(c25, c25.T)
    assert np.max(np.abs(6.25 * c25 - c1)) <= 1e-14 * np.max(np.abs(c1))


def test_empirical_matches_analytic(build_system):
    cov = analytic_covariance(build_system("const05", 2.5, 3))
    system = build_system("const05", 2.5, 3)  # the covariance took the first one's factor
    m = 2000
    emp = empirical_covariance(sample_fields(system, m, seed=3))
    stderr = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / m)
    assert np.all(np.abs(emp - cov) <= 5 * stderr)


def test_monte_carlo_consistency_shrinks(build_system):
    ref = analytic_covariance(build_system("const05", 2.5, 3))
    system = build_system("const05", 2.5, 3)  # the covariance took the first one's factor
    devs = []
    for m in (100, 1000, 10_000):
        emp = empirical_covariance(sample_fields(system, m, seed=21))
        devs.append(np.linalg.norm(emp - ref))
    assert devs[0] > devs[1] > devs[2]


def test_empirical_covariance_holds_one_array(rng):
    # the product is scaled in its own memory: bitwise (s s^T) / m, one N x N array
    n, m = build_uniform(3.0, 4.0, 7).interior_node_count, 40
    samples = rng.standard_normal((n, m))
    tracemalloc.start()
    try:
        c = empirical_covariance(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(c, (samples @ samples.T) / m)
    assert peak <= 1.02 * n * n * 8


def test_covariance_even_symmetry(build_system):
    # even profile on a symmetric domain: C(0, y) = C(0, -y)
    system = build_system("bump", 2.5, 4)
    i0 = int(np.argmin(np.abs(system.mesh.interior_coords)))
    vals = analytic_covariance(system)[i0]
    assert np.allclose(vals, vals[::-1], atol=1e-10 * np.max(np.abs(vals)))


def test_sandwich_preview_level5(build_system):
    # Case-1 ordering at a desk level (the acceptance runs level 6)
    c_mid = analytic_covariance(build_system("step", 2.0, 5))
    c_lo = analytic_covariance(build_system("const035", 1.5, 5))
    c_hi = analytic_covariance(build_system("const085", 2.5, 5))
    coords = build_system("step", 2.0, 5).mesh.interior_coords
    for x0 in (-1.5, 0.0, 1.5):
        i = int(np.argmin(np.abs(coords - x0)))
        assert np.max(c_hi[i] - c_mid[i]) <= 1e-3
        assert np.max(c_mid[i] - c_lo[i]) <= 1e-3
