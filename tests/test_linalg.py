import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve

from varmatern import assembly, linalg, sampler
from varmatern.kernel import KernelContext
from varmatern.linalg import (
    NotPositiveDefiniteError,
    cholesky,
    inv_triple_product,
    solve_with_factor,
)
from varmatern.mesh import build_uniform
from varmatern.sampler import analytic_covariance, sample_fields

from conftest import PROFILES


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
    # only the upper triangle is read: this is the factor of [[1, .5], [.5, 1]]
    assert np.array_equal(cholesky(np.array([[1.0, 0.5], [0.0, 1.0]])),
                          cholesky(np.array([[1.0, 0.5], [0.5, 1.0]])))
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
    lower = system.stiffness_cholesky  # each call consumes its factor
    assert np.array_equal(inv_triple_product(lower.copy(order="F"), system.mass_cholesky),
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
    # at level 8 (N = 1537, six 256-row panels) C is formed in the factor's
    # storage; besides it the call holds one panel of 256 x N floats (1.02
    # measured), where holding A^{-1} and Y took 12.0 panels
    system = build_system("step", 2.5, 8)
    lower, mass_lower = system.stiffness_cholesky, system.mass_cholesky
    n = lower.shape[0]
    assert n == 1537
    tracemalloc.start()
    try:
        c = inv_triple_product(lower, mass_lower)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(c, lower)
    assert peak <= 1.1 * 256 * n * 8


@pytest.mark.parametrize("n", [255, 256, 257, 520])
def test_triple_product_dense_mass_factor_across_panels(rng, n):
    # a full lower-triangular mass factor: each row panel of W = L_M^T A^{-1}
    # reads every later row of A^{-1}, and N falls on either side of a panel
    # boundary
    a = _spd(rng, n)
    mass_lower = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    lower = cholesky(a)
    y = cho_solve((lower, True), mass_lower)
    ref = y @ y.T
    c = inv_triple_product(lower, mass_lower)
    assert np.shares_memory(c, lower) and c.flags.c_contiguous
    assert np.array_equal(c, c.T)
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_triple_product_singular_factor_raises():
    lower = np.tril(np.ones((4, 4)))
    lower[2, 2] = 0.0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        inv_triple_product(lower, np.eye(4))
    assert exc.value.index == 3


def test_triple_product_needs_lower_triangular_mass_factor(rng):
    # W = L_M^T A^{-1} is formed top-down, which needs L_M^T upper triangular;
    # the check comes before the factor is overwritten
    lower = cholesky(_spd(rng, 5))
    kept = lower.copy()
    with pytest.raises(ValueError, match="lower triangular"):
        inv_triple_product(lower, np.eye(5) + np.eye(5, k=1))
    assert np.array_equal(lower, kept)


def _spd(rng, n):
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n)


def _factors(mat):
    """The factor of mat from the copy path and from overwrite_a, on a copy."""
    return cholesky(mat), cholesky(mat.copy(), overwrite_a=True)


@pytest.mark.parametrize("at", [(255, 400), (256, 400), (400, 255), (400, 256),
                                (255, 256), (256, 255), (599, 0)])
def test_cholesky_checks_across_panels(rng, at):
    # the finiteness check runs over contiguous 256-row panels: an entry on
    # either side of a panel boundary, in either triangle, on either path.
    # Only the upper triangle is factored, so a skewed entry changes the
    # factor where it lies in the upper triangle and nowhere else.
    a = _spd(rng, 600)
    ref = cholesky(a)
    skewed = a.copy()
    skewed[at] += 2e-12 * np.max(np.abs(a))
    for lower in _factors(skewed):
        assert np.array_equal(lower, ref) == (at[0] > at[1])
    for bad in (np.nan, np.inf, -np.inf):
        a_bad = a.copy()
        a_bad[at] = bad
        for overwrite_a in (False, True):
            with pytest.raises(ValueError, match="non-finite"):
                cholesky(a_bad, overwrite_a=overwrite_a)


def test_cholesky_reports_non_finite_before_asymmetry(rng):
    # a NaN in the triangle the factor never reads still raises
    a = _spd(rng, 600)
    a[0, 599] += 1.0
    a[599, 300] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        cholesky(a)


def test_cholesky_paths_agree_bitwise_on_skewed_input(rng):
    # a skew of 0.5e-12 of max|a| in the lower triangle: both paths factor the
    # upper one, so they agree bitwise
    a = _spd(rng, 50)
    a[40, 3] += 0.5e-12 * np.max(np.abs(a))
    copied, in_place = _factors(a)
    assert np.array_equal(copied, in_place)
    assert np.array_equal(copied, cholesky(np.triu(a) + np.triu(a, 1).T))


@pytest.mark.parametrize("n", [255, 256, 257, 600])
@pytest.mark.parametrize("overwrite_a", [False, True])
def test_cholesky_reads_only_the_upper_triangle(rng, n, overwrite_a):
    # a strictly lower triangle of arbitrary finite values factors bitwise like
    # the mirrored upper triangle, on either side of a panel boundary
    a = _spd(rng, n)
    ref = cholesky(a)
    junk = np.triu(a) + np.tril(rng.uniform(-1e300, 1e300, (n, n)), -1)
    lower = cholesky(junk, overwrite_a=overwrite_a)
    assert np.shares_memory(lower, junk) == overwrite_a
    assert np.array_equal(lower, ref)


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("profile", ["const05", "step", "bump"])
def test_stiffness_factored_in_its_own_storage(build_system, profile, level):
    # both paths factor the upper triangle of A (the lower one of the
    # Fortran-order view A.T), so the factors agree bitwise
    system = build_system(profile, 2.5, level)
    a = system.a
    assert np.array_equal(a, a.T)
    copied = cholesky(a)
    lower = system.stiffness_cholesky
    assert np.shares_memory(lower, a)
    assert np.array_equal(lower, copied)


def test_fresh_system_mirrors_a_on_its_first_read():
    # assembly leaves A on its upper triangle; ``a`` mirrors it, and factoring
    # the unread upper triangle gives the factor of the symmetric A bitwise
    ctx = KernelContext(2.5, 1.0, PROFILES["step"]())
    mesh = build_uniform(3, 4, 5)
    read = assembly.assemble_stiffness(mesh, ctx)
    a = read.a.copy()
    assert np.array_equal(a, a.T)
    assert np.array_equal(read.stiffness_cholesky, cholesky(a))
    unread = assembly.assemble_stiffness(mesh, ctx)
    assert np.array_equal(unread.stiffness_cholesky, cholesky(a))


def test_sampling_and_covariance_mirror_only_in_triple_product(monkeypatch):
    calls, inside = [], []
    real_mirror, real_triple = linalg._mirror_upper, sampler.inv_triple_product

    def mirror(a):
        calls.append(bool(inside))
        real_mirror(a)

    def triple(*args):
        inside.append(True)
        try:
            return real_triple(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "_mirror_upper", mirror)
    monkeypatch.setattr(assembly, "_mirror_upper", mirror)
    monkeypatch.setattr(sampler, "inv_triple_product", triple)
    ctx = KernelContext(2.5, 1.0, PROFILES["bump"]())
    system = assembly.assemble_stiffness(build_uniform(3, 4, 4), ctx)
    sample_fields(system, 3, seed=1)
    assert calls == []
    analytic_covariance(system)
    assert calls == [True, True]


def test_covariance_takes_over_the_factor(build_system):
    # one N x N array lives A -> L -> C
    system = build_system("step", 2.5, 4)
    a = system.a
    cov = analytic_covariance(system)
    assert np.shares_memory(cov, a)
    with pytest.raises(AttributeError, match="analytic_covariance"):
        system.stiffness_cholesky
    with pytest.raises(AttributeError, match="stiffness_cholesky"):
        system.a


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


def _loads(rng, n):
    """A 1-D load, then (n, m) loads for m in {1, 3, 130}, in C and F order."""
    yield rng.standard_normal(n)
    for m in (1, 3, 130):
        b = rng.standard_normal((n, m))
        yield b
        yield np.asfortranarray(b)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 385])
@pytest.mark.parametrize("order", ["F", "C"])
def test_solve_across_block_boundaries(rng, n, order):
    # the sweeps take L in row blocks of linalg._SOLVE_BLOCK = 128: N inside
    # one block, on either side of one boundary and past two, each load
    # layout, and a factor in either layout
    lower = np.asarray(cholesky(_spd(rng, n)), order=order)
    for b in _loads(rng, n):
        ref = cho_solve((lower, True), b)
        for overwrite_b in (False, True):
            b_in = b.copy(order="K")
            x = solve_with_factor(lower, b_in, overwrite_b=overwrite_b)
            assert x.shape == b.shape
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
            in_place = overwrite_b and b_in.flags.c_contiguous
            assert np.shares_memory(x, b_in) == in_place
            if not overwrite_b:
                assert np.array_equal(b_in, b)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 385])
def test_solve_identity_and_zero_across_block_boundaries(rng, n):
    b = rng.standard_normal((n, 3))
    assert np.array_equal(solve_with_factor(np.eye(n), b), b)
    assert np.array_equal(solve_with_factor(np.eye(n, order="F"), b[:, 0]), b[:, 0])
    zero = np.zeros((n, 130))
    assert np.array_equal(solve_with_factor(cholesky(_spd(rng, n)), zero), zero)


def test_solve_reads_only_the_lower_triangle(rng):
    # the GEMMs read blocks strictly below the diagonal, and dtrsm reads only
    # the lower triangle of each diagonal block
    lower = cholesky(_spd(rng, 300))
    b = rng.standard_normal((300, 4))
    junk = np.asfortranarray(lower + np.triu(rng.uniform(-1e3, 1e3, (300, 300)), 1))
    assert np.array_equal(solve_with_factor(junk, b), solve_with_factor(lower, b))


@pytest.mark.parametrize("row", [1, 128, 129, 201, 300])
@pytest.mark.parametrize("order", ["F", "C"])
def test_solve_zero_pivot_raises(row, order):
    # the 1-based index of the first zero on L's diagonal, at either end of a
    # 128-row block and at N = 300, for a factor in either layout
    lower = np.asarray(np.tril(np.ones((300, 300))), order=order)
    lower[row - 1, row - 1] = lower[-1, -1] = 0.0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        solve_with_factor(lower, np.ones(300))
    assert exc.value.index == row


def test_solve_in_place_holds_one_block_of_the_factor(rng):
    # with overwrite_b the loads hold x: besides them the solve holds no
    # N x m array, and f2py copies at most one 128-row block of L per call
    # (641 x 128 floats at most here, 0.67 of the bound)
    n, m = 769, 300
    lower = cholesky(_spd(rng, n))
    b = rng.standard_normal((n, m))
    ref = cho_solve((lower, True), b)
    tracemalloc.start()
    try:
        x = solve_with_factor(lower, b, overwrite_b=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 128 * n * 8
    assert np.shares_memory(x, b)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [1, 128, 129, 385])
def test_solve_makes_no_empty_gemm(monkeypatch, rng, n):
    # the first forward block has no block before it and the last backward
    # block none after it, so each sweep makes one dgemm per block but one
    calls, dgemm = [], linalg.dgemm

    def counted(alpha, a, b, *args, **kwargs):
        calls.append((a.size, b.size))
        return dgemm(alpha, a, b, *args, **kwargs)

    monkeypatch.setattr(linalg, "dgemm", counted)
    lower = cholesky(_spd(rng, n))
    b = rng.standard_normal((n, 5))
    x = solve_with_factor(lower, b)
    blocks = -(-n // linalg._SOLVE_BLOCK)
    assert len(calls) == 2 * (blocks - 1)
    assert all(a and b for a, b in calls)
    ref = cho_solve((lower, True), b)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
