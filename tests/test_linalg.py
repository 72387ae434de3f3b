import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve

from varmatern.linalg import (
    NotPositiveDefiniteError,
    cholesky,
    inv_triple_product,
    solve_with_factor,
)


def _p1_mass(n, h):
    m = np.zeros((n, n))
    np.fill_diagonal(m, 2 * h / 3)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = h / 6
    return m


def test_cholesky_identity():
    assert np.array_equal(cholesky(np.eye(4)), np.eye(4))


def test_cholesky_hand_2x2():
    lower = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert np.allclose(lower, expected, atol=1e-15)
    assert np.all(np.triu(lower, 1) == 0.0)


def test_cholesky_mass_reconstruction():
    m = _p1_mass(5, 1.0)
    lower = cholesky(m)
    assert np.max(np.abs(lower @ lower.T - m)) <= 1e-12


def test_cholesky_failure_reports_index():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky(bad)
    assert exc.value.index == 2
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        cholesky(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_solve_identity_and_zero():
    b = np.arange(5.0)
    assert np.array_equal(solve_with_factor(cholesky(np.eye(5)), b), b)
    a = _p1_mass(5, 1.0)
    assert np.array_equal(solve_with_factor(cholesky(a), np.zeros(5)), np.zeros(5))


def test_solve_residual_bound(rng):
    n = 50
    q = rng.standard_normal((n, n))
    a = q @ q.T + n * np.eye(n)
    b = rng.standard_normal(n)
    u = solve_with_factor(cholesky(a), b)
    resid = np.linalg.norm(a @ u - b)
    bound = 1e-9 * (np.linalg.norm(a) * np.linalg.norm(u) + np.linalg.norm(b))
    assert resid <= bound


def test_triple_product_identity_cases(rng):
    # the arguments are the lower Cholesky factors of A and M
    m = _p1_mass(6, 0.5)
    assert np.allclose(inv_triple_product(np.eye(6), cholesky(m)), m, atol=1e-14)
    n = 20
    q = rng.standard_normal((n, n))
    a = q @ q.T + n * np.eye(n)
    c = inv_triple_product(cholesky(a), np.eye(n))
    # C = A^{-2}: verify by reconstruction A C A = I
    assert np.max(np.abs(a @ c @ a - np.eye(n))) <= 1e-8


def test_triple_product_symmetry_and_psd(rng):
    n = 30
    q = rng.standard_normal((n, n))
    a = q @ q.T + n * np.eye(n)
    w = rng.standard_normal((n, n))
    m = w @ w.T / n
    c = inv_triple_product(cholesky(a), cholesky(m))
    assert np.array_equal(c, c.T)
    eigs = np.linalg.eigvalsh(c)
    assert eigs.min() >= -1e-10 * np.max(np.abs(c))


def test_sparse_mass_accepted(build_system):
    # the system holds M and its factor as sparse arrays; the wrappers densify them
    system = build_system("const05", 2.5, 3)
    dense = system.m.toarray()
    assert np.array_equal(cholesky(system.m), cholesky(dense))
    lower = system.stiffness_cholesky
    assert np.array_equal(inv_triple_product(lower, system.mass_cholesky),
                          inv_triple_product(lower, system.mass_cholesky.toarray()))


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("profile", ["const05", "step", "bump"])
def test_triple_product_matches_two_sweeps(build_system, profile, level):
    # reference: two triangular sweeps against the columns of L_M, then Y Y^T
    system = build_system(profile, 2.5, level)
    lower = system.stiffness_cholesky
    y = cho_solve((lower, True), system.mass_cholesky.toarray())
    ref = y @ y.T
    c = inv_triple_product(lower, system.mass_cholesky)
    assert np.array_equal(c, c.T)
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_triple_product_holds_two_dense_arrays(build_system):
    system = build_system("step", 2.5, 6)
    lower, mass_lower = system.stiffness_cholesky, system.mass_cholesky
    n = lower.shape[0]
    tracemalloc.start()
    try:
        inv_triple_product(lower, mass_lower)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * n * n * 8


def test_triple_product_singular_factor_raises():
    lower = np.tril(np.ones((4, 4)))
    lower[2, 2] = 0.0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        inv_triple_product(lower, np.eye(4))
    assert exc.value.index == 3


def _spd(rng, n):
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n)


@pytest.mark.parametrize("at", [(255, 400), (256, 400), (400, 255), (400, 256),
                                (255, 256), (256, 255), (599, 0)])
def test_cholesky_checks_across_panels(rng, at):
    # the checks run in 256-row panels of the upper half against their mirror
    # columns; an entry on either side of a panel boundary, in either half
    a = _spd(rng, 600)
    scale = np.max(np.abs(a))
    ok = a.copy()
    ok[at] += 0.5e-12 * scale
    cholesky(ok)
    skewed = a.copy()
    skewed[at] += 2e-12 * scale
    with pytest.raises(ValueError, match="not symmetric"):
        cholesky(skewed)
    bad = a.copy()
    bad[at] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        cholesky(bad)


def test_cholesky_reports_non_finite_before_asymmetry(rng):
    a = _spd(rng, 600)
    a[0, 599] += 1.0
    a[599, 300] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        cholesky(a)


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("profile", ["const05", "step", "bump"])
def test_stiffness_factored_in_its_own_storage(build_system, profile, level):
    # dpotrf on the Fortran-order view A.T of an exactly symmetric A reads the
    # same numbers as the copy path, so the factors agree bitwise
    system = build_system(profile, 2.5, level)
    a = system.a
    assert np.array_equal(a, a.T)
    copied = cholesky(a)
    lower = system.stiffness_cholesky
    assert np.shares_memory(lower, a)
    assert np.array_equal(lower, copied)


def test_factored_system_no_longer_holds_a(build_system):
    system = build_system("step", 2.5, 4)
    n = system.a.shape[0]
    system.stiffness_cholesky
    with pytest.raises(AttributeError, match="stiffness_cholesky"):
        system.a
    assert system.n == n


def _max_rel(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("m", [1, 7, 300])
def test_solve_overwrite_b_solves_in_place(rng, m):
    lower = cholesky(_spd(rng, 40))
    b = rng.standard_normal((40, m))
    ref = cho_solve((lower, True), b)
    kept = b.copy()
    assert _max_rel(solve_with_factor(lower, b), ref) <= 1e-14
    assert np.array_equal(b, kept)
    x = solve_with_factor(lower, b, overwrite_b=True)
    assert np.shares_memory(x, b) and np.array_equal(x, b)
    assert _max_rel(x, ref) <= 1e-14


@pytest.mark.parametrize("kind", ["1d", "fortran", "int", "strided"])
@pytest.mark.parametrize("overwrite_b", [False, True])
def test_solve_matches_cho_solve(rng, kind, overwrite_b):
    lower = cholesky(_spd(rng, 30))
    b = {
        "1d": rng.standard_normal(30),
        "fortran": np.asfortranarray(rng.standard_normal((30, 5))),
        "int": rng.integers(-9, 10, (30, 4)),
        "strided": rng.standard_normal((30, 8))[:, ::2],
    }[kind]
    ref = cho_solve((lower, True), b.astype(float))
    x = solve_with_factor(lower, b, overwrite_b=overwrite_b)
    assert x.shape == b.shape
    assert _max_rel(x, ref) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_load(rng, bad):
    lower = cholesky(_spd(rng, 10))
    b = rng.standard_normal((10, 3))
    b[4, 1] = bad
    for overwrite_b in (False, True):
        with pytest.raises(ValueError, match="non-finite"):
            solve_with_factor(lower, b, overwrite_b=overwrite_b)
