import numpy as np
import pytest

from varmatern import assembly, linalg, smoothness
from varmatern.kernel import KernelContext
from varmatern.mesh import build_uniform
from varmatern.sampler import (
    analytic_covariance,
    covariance_slice,
    draw_noise,
    empirical_covariance,
    sample_fields,
)


def test_draw_noise_empty():
    b = draw_noise(np.eye(7), 0, seed=1)
    assert b.shape == (7, 0)


def test_draw_noise_identity_covariance():
    b = draw_noise(np.eye(6), 100_000, seed=42)
    cov = b @ b.T / b.shape[1]
    assert np.max(np.abs(cov - np.eye(6))) < 0.02


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
    u1 = sample_fields(sys1, 16, seed=5).samples
    u2 = sample_fields(sys2, 16, seed=5).samples
    assert np.array_equal(u1, 2.0 * u2)


def test_sampling_deterministic_given_seed(build_system):
    system = build_system("const05", 2.5, 3)
    a = sample_fields(system, 32, seed=11).samples
    b = sample_fields(system, 32, seed=11).samples
    c = sample_fields(system, 32, seed=12).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empty_batch(build_system):
    system = build_system("const05", 2.5, 3)
    batch = sample_fields(system, 0, seed=1)
    assert batch.samples.shape == (system.n, 0)
    with pytest.raises(ValueError):
        empirical_covariance(batch)


def test_analytic_covariance_basic_properties(build_system):
    system = build_system("const05", 2.5, 4)
    cov = analytic_covariance(system)
    assert cov.kind == "analytic"
    assert np.all(np.diag(cov.matrix) > 0)
    assert np.max(np.abs(cov.matrix - cov.matrix.T)) <= 1e-12 * np.max(cov.matrix)
    eigs = np.linalg.eigvalsh(cov.matrix)
    assert eigs.min() >= -1e-10 * np.max(np.abs(cov.matrix))


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
    c = analytic_covariance(system).matrix
    assert np.array_equal(c, c.T)
    a = build_system(profile, 2.5, level).a  # factoring overwrote system.a
    ref = np.linalg.solve(a, np.linalg.solve(a, system.m.toarray()).T) / system.ctx.mu**2
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_analytic_covariance_mu_scaling(build_system):
    c1 = analytic_covariance(build_system("const05", 2.5, 3, mu=1.0)).matrix
    c2 = analytic_covariance(build_system("const05", 2.5, 3, mu=2.0)).matrix
    assert np.allclose(c1, 4.0 * c2, rtol=1e-12)


def test_empirical_matches_analytic(build_system):
    system = build_system("const05", 2.5, 3)
    cov = analytic_covariance(system)
    m = 2000
    emp = empirical_covariance(sample_fields(system, m, seed=3))
    stderr = np.sqrt(
        (np.outer(np.diag(cov.matrix), np.diag(cov.matrix)) + cov.matrix**2) / m
    )
    assert np.all(np.abs(emp.matrix - cov.matrix) <= 5 * stderr)


def test_monte_carlo_consistency_shrinks(build_system):
    system = build_system("const05", 2.5, 3)
    ref = analytic_covariance(system).matrix
    devs = []
    for m in (100, 1000, 10_000):
        emp = empirical_covariance(sample_fields(system, m, seed=21)).matrix
        devs.append(np.linalg.norm(emp - ref))
    assert devs[0] > devs[1] > devs[2]


def test_covariance_even_symmetry(build_system):
    # even profile on a symmetric domain: C(0, y) = C(0, -y)
    cov = analytic_covariance(build_system("bump", 2.5, 4))
    ys, vals = covariance_slice(cov, 0.0)
    assert np.allclose(vals, vals[::-1], atol=1e-10 * np.max(np.abs(vals)))


def test_slice_diagonal_value(build_system):
    cov = analytic_covariance(build_system("const05", 2.5, 3))
    ys, vals = covariance_slice(cov, 1.5)
    idx = int(np.argmin(np.abs(ys - 1.5)))
    assert vals[idx] == cov.matrix[idx, idx]


def test_slice_snapping_warns(build_system):
    cov = analytic_covariance(build_system("const05", 2.5, 3))
    with pytest.warns(UserWarning, match="snapping"):
        ys, vals = covariance_slice(cov, 0.001)
    i0 = int(np.argmin(np.abs(ys)))  # snapped to the node at 0
    assert np.array_equal(vals, cov.matrix[i0])
    with pytest.raises(ValueError):
        covariance_slice(cov, 3.5)


def test_sandwich_preview_level5(build_system):
    # Case-1 ordering at a desk level (the acceptance runs level 6)
    c_mid = analytic_covariance(build_system("step", 2.0, 5)).matrix
    c_lo = analytic_covariance(build_system("const035", 1.5, 5)).matrix
    c_hi = analytic_covariance(build_system("const085", 2.5, 5)).matrix
    coords = build_system("step", 2.0, 5).mesh.interior_coords
    for x0 in (-1.5, 0.0, 1.5):
        i = int(np.argmin(np.abs(coords - x0)))
        assert np.max(c_hi[i] - c_mid[i]) <= 1e-3
        assert np.max(c_mid[i] - c_lo[i]) <= 1e-3
