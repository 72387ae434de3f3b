import math

import numpy as np
import pytest

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
