import json

import numpy as np
import pytest

from varmatern import farfield, kernel, smoothness
from varmatern.assembly import (
    AssemblyError,
    assemble_plain_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    _adjacent_delta_coeffs,
)
from varmatern.kernel import KernelContext
from varmatern.linalg import cholesky
from varmatern.mesh import build_uniform
from varmatern.quadrature import gauss_legendre_01, quadrature_order
from varmatern.sampler import analytic_covariance

from conftest import PROFILES
from oracles import (
    _blocks_from_kernel,
    _disjoint_blocks_direct,
    adjacent_block_oracle,
    classify_pair,
    coercivity,
    identical_block_oracle,
    pair_block_adjacent,
    pair_block_disjoint,
    pair_block_identical,
)


def _ctx(key, kappa=2.5, mu=1.0):
    return KernelContext(kappa, mu, PROFILES[key]())


# ---------------------------------------------------------------- mass parts


def test_plain_mass_entries():
    mesh = build_uniform(3, 4, 2)
    m = assemble_plain_mass(mesh).toarray()
    h = mesh.h
    n = mesh.interior_node_count
    assert m[5, 5] == pytest.approx(2 * h / 3)
    assert m[5, 6] == pytest.approx(h / 6)
    assert m[0, 0] == pytest.approx(h / 3)  # node at -r_int
    assert m[n - 1, n - 1] == pytest.approx(h / 3)
    assert np.array_equal(m, m.T)


def test_weighted_mass_reduces_to_plain_mass():
    mesh = build_uniform(3, 4, 3)
    rule = gauss_legendre_01(8)
    a1 = assemble_weighted_mass(mesh, _ctx("const05", kappa=1.0), rule)
    assert np.allclose(a1.toarray(), assemble_plain_mass(mesh).toarray(), atol=1e-14)


def test_weighted_mass_constant_scaling():
    mesh = build_uniform(3, 4, 3)
    rule = gauss_legendre_01(8)
    a1 = assemble_weighted_mass(mesh, _ctx("const05", kappa=4.0), rule)
    assert np.allclose(a1.toarray(), 4.0 * assemble_plain_mass(mesh).toarray(), rtol=1e-13)


def test_weighted_mass_step_closed_form():
    mesh = build_uniform(3, 4, 3)
    rule = gauss_legendre_01(8)
    ctx = _ctx("step", kappa=2.5)
    a1 = assemble_weighted_mass(mesh, ctx, rule)
    h = mesh.h
    # node well inside x < 0: both supporting elements carry kappa^{2 * 0.35}
    i = 8  # coordinate -2.0
    assert mesh.interior_coords[i] == -2.0
    assert a1[i, i] == pytest.approx(2.5**0.7 * 2 * h / 3, rel=1e-12)
    assert a1[i, i + 1] == pytest.approx(2.5**0.7 * h / 6, rel=1e-12)


# ------------------------------------------------------------- pair blocks


def test_disjoint_block_symmetry_under_swap():
    mesh = build_uniform(3, 4, 3)
    ctx = _ctx("step")
    b12, n12 = pair_block_disjoint(mesh, ctx, 10, 20, 8)
    b21, n21 = pair_block_disjoint(mesh, ctx, 20, 10, 8)
    perm = [2, 3, 0, 1]  # node order swaps between the two calls
    assert np.allclose(b12, b21[np.ix_(perm, perm)], rtol=1e-13)
    assert np.allclose(b12, b12.T, atol=1e-15)


def test_disjoint_block_order_convergence():
    mesh = build_uniform(3, 4, 3)
    ctx = _ctx("bump")
    e1 = 12
    e2 = 14  # distance 2h pair
    b24, _ = pair_block_disjoint(mesh, ctx, e1, e2, 24)
    b64, _ = pair_block_disjoint(mesh, ctx, e1, e2, 64)
    assert np.max(np.abs(b24 - b64)) <= 1e-10 * np.max(np.abs(b64))


def test_disjoint_block_far_field_smallness():
    mesh = build_uniform(3, 4, 3)
    ctx = _ctx("const05")
    h = mesh.h
    e1 = 0
    e2 = mesh.n_elements - 1  # distance ~ 7.9, kappa r >= 5 / kappa easily
    block, _ = pair_block_disjoint(mesh, ctx, e1, e2, 8)
    r_min = mesh.nodes[e2] - mesh.nodes[e1 + 1]
    from varmatern.kernel import gamma_kernel

    bound = gamma_kernel(ctx, mesh.nodes[e1 + 1], mesh.nodes[e2]) * h * h
    assert np.max(np.abs(block)) <= bound * (1 + 1e-9)
    assert np.max(np.abs(block)) < 1e-10  # exponentially small in kappa r


def test_pair_block_classification_guards():
    mesh = build_uniform(3, 4, 2)
    ctx = _ctx("const05")
    with pytest.raises(AssemblyError):
        pair_block_disjoint(mesh, ctx, 3, 4, 8)
    with pytest.raises(AssemblyError):
        pair_block_adjacent(mesh, ctx, 3, 5, 8)


def test_adjacent_delta_coeffs_match_reference_pattern():
    # the derived affine coefficients must reproduce the reference-square
    # pattern p1 = [1, eta - 1, -eta], p2 = [eta, 1 - eta, -1]
    mesh = build_uniform(3, 4, 2)
    alpha, delta = _adjacent_delta_coeffs(mesh, 6)
    assert np.array_equal(alpha, [1.0, -1.0, 0.0])
    assert np.array_equal(delta, [0.0, 1.0, -1.0])
    # shared-vertex hat with itself: p p = (1 - eta)^2, the +-xi^2 (1-eta)^2 law
    eta = np.linspace(0, 1, 5)
    p_shared = alpha[1] + delta[1] * eta
    assert np.allclose(p_shared**2, (1 - eta) ** 2)


@pytest.mark.parametrize("key", ["const05", "step"])
def test_adjacent_block_matches_oracle(key):
    mesh = build_uniform(3, 4, 3)
    ctx = _ctx(key)
    e = mesh.n_elements // 2 - 1
    block, nodes = pair_block_adjacent(mesh, ctx, e, e + 1, 40)
    assert nodes == (e, e + 1, e + 2)
    oracle = adjacent_block_oracle(mesh, ctx, e)
    assert np.max(np.abs(block - oracle)) <= 1e-8 * np.max(np.abs(oracle))


def test_adjacent_constant_upper_order_fast_convergence():
    # beta == s_upper: the zeta power vanishes, so successive orders agree
    mesh = build_uniform(3, 4, 3)
    ctx = _ctx("const085")
    b1, _ = pair_block_adjacent(mesh, ctx, 10, 11, 58)
    b2, _ = pair_block_adjacent(mesh, ctx, 10, 11, 60)
    assert np.max(np.abs(b1 - b2)) <= 1e-11 * np.max(np.abs(b1))


def test_identical_block_structure():
    mesh = build_uniform(3, 4, 3)
    ctx = _ctx("const05")
    block, nodes = pair_block_identical(mesh, ctx, 9, 16)
    assert nodes == (9, 10)
    assert block[0, 1] == -block[0, 0]  # off-diagonal negates the diagonal
    assert np.allclose(block.sum(axis=1), 0.0, atol=1e-18)
    assert block[0, 0] > 0


def test_identical_block_matches_oracle():
    mesh = build_uniform(3, 4, 2)  # h = 1/4 as in the quarter-step example
    ctx = KernelContext(1.0, 1.0, smoothness.constant(0.5))
    e = 10
    block, _ = pair_block_identical(mesh, ctx, e, 40)
    oracle = identical_block_oracle(mesh, ctx, e)
    assert np.max(np.abs(block - oracle)) <= 1e-8 * np.max(np.abs(oracle))



def test_single_pair_blocks_run_the_shipped_near_field(monkeypatch):
    # criteria 3 and 4 hold these wrappers against the oracles: they must
    # reach assembly's own near-field integrands, not an independent copy
    import varmatern.assembly as asm

    calls = []
    for name in ("_identical_common", "_adjacent_blocks"):
        def counted(*args, _real=getattr(asm, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(asm, name, counted)
    mesh = build_uniform(3, 4, 3)
    ctx = _ctx("step")
    pair_block_identical(mesh, ctx, 20, 8)
    assert calls == ["_identical_common"]
    pair_block_adjacent(mesh, ctx, 20, 21, 8)
    assert calls == ["_identical_common", "_adjacent_blocks"]

# ------------------------------------------------------- global assembly


def _assemble_brute(mesh, ctx, n):
    """Reference assembly from the single-pair blocks (no banded paths)."""
    n_all = mesh.n_nodes
    a2 = np.zeros((n_all, n_all))
    ext = ~mesh.element_interior
    for e1 in range(mesh.n_elements):
        for e2 in range(e1, mesh.n_elements):
            if ext[e1] and ext[e2]:
                continue
            kind = classify_pair(mesh, e1, e2)
            if kind == "identical":
                block, nodes = pair_block_identical(mesh, ctx, e1, n)
                factor = 1.0
            elif kind == "vertex_sharing":
                block, nodes = pair_block_adjacent(mesh, ctx, e1, e2, n)
                factor = 2.0
            else:
                block, nodes = pair_block_disjoint(mesh, ctx, e1, e2, n)
                factor = 2.0
            a2[np.ix_(nodes, nodes)] += factor * block
    sl = mesh.interior_slice
    rule = gauss_legendre_01(n)
    return assemble_weighted_mass(mesh, ctx, rule) + a2[sl, sl]


BRUTE_FORCE_PROFILES = {
    **{key: PROFILES[key] for key in ("const05", "step", "bump", "ramp")},
    "tabulated": lambda: smoothness.tabulated([-1.5, -0.4, 0.3, 1.5], [0.45, 0.8, 0.52, 0.61]),
}


@pytest.mark.parametrize("key", list(BRUTE_FORCE_PROFILES))
def test_assembly_matches_brute_force(key):
    mesh = build_uniform(1, 2, 2)  # 16 elements keeps the brute loop cheap
    ctx = KernelContext(2.5, 1.0, BRUTE_FORCE_PROFILES[key]())
    system = assemble_stiffness(mesh, ctx, n=6)
    ref = _assemble_brute(mesh, ctx, 6)
    assert np.max(np.abs(system.a - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("key", ["step", "bump", "ramp"])
def test_assembled_stiffness_exactly_symmetric(build_system, key):
    for level in (3, 4, 5, 6):
        system = build_system(key, 2.5, level)
        assert np.array_equal(system.a, system.a.T), level
        assert np.array_equal(system.a1.toarray(), system.a1.T.toarray()), level


def test_constant_tabulated_profile_matches_constant_bitwise():
    mesh = build_uniform(3, 4, 4)
    flat = assemble_stiffness(
        mesh, KernelContext(2.5, 1.0, smoothness.tabulated([-4.0, 4.0], [0.5, 0.5]))
    )
    const = assemble_stiffness(mesh, _ctx("const05"))
    assert np.array_equal(flat.a, const.a)


def test_assembled_system_spd_and_symmetric(build_system):
    system = build_system("const05", 2.5, 4)
    assert np.max(np.abs(system.a - system.a.T)) <= 1e-12 * np.max(np.abs(system.a))
    cholesky(system.a)  # must not raise
    cholesky(system.m.toarray())
    assert np.allclose(system.a @ np.zeros(system.n), 0.0)


def test_a1_diagonal_nonnegative(build_system):
    system = build_system("step", 2.5, 4)
    assert np.all(system.a1.diagonal() >= 0)
    assert np.allclose(system.a1.toarray(), system.a1.T.toarray(), atol=1e-15)


def test_coercivity_floor(build_system):
    for key, kappa in (("const05", 2.5), ("step", 2.5), ("bump", 0.25)):
        lowest, floor = coercivity(build_system(key, kappa, 4))
        assert lowest >= floor, (key, kappa)


def test_truncation_insensitivity(build_system):
    sys4 = build_system("const05", 2.5, 5, r_ext=4.0)
    sys5 = build_system("const05", 2.5, 5, r_ext=5.0)
    c4 = analytic_covariance(sys4)
    c5 = analytic_covariance(sys5)
    i4 = int(np.argmin(np.abs(sys4.mesh.interior_coords)))
    i5 = int(np.argmin(np.abs(sys5.mesh.interior_coords)))
    v4 = c4[i4, i4]
    v5 = c5[i5, i5]
    assert abs(v4 - v5) / v5 < 0.02


def test_quadrature_order_robustness(build_system):
    base = build_system("const05", 2.5, 6)
    n0 = base.quad_meta["n_disjoint"]
    bumped = build_system("const05", 2.5, 6, n=n0 + 4)
    c0 = analytic_covariance(base)
    c1 = analytic_covariance(bumped)
    i0 = int(np.argmin(np.abs(base.mesh.interior_coords)))
    rel = abs(c0[i0, i0] - c1[i0, i0]) / c1[i0, i0]
    assert rel < 1e-6


def test_non_finite_block_names_pair(monkeypatch):
    mesh = build_uniform(1, 2, 1)  # elements 0, 1, 6 and 7 are exterior
    ctx = _ctx("bump")
    real = farfield.kernel_grids

    def poisoned(*args):
        return np.full_like(real(*args), np.nan)

    monkeypatch.setattr(farfield, "kernel_grids", poisoned)
    # every disjoint kernel grid is poisoned: (0, 2) is the first kept pair
    # of the first disjoint offset
    with pytest.raises(AssemblyError, match=r"disjoint block for element pair \(0, 2\)"):
        assemble_stiffness(mesh, ctx, n=4)


@pytest.mark.parametrize("key", ["const05", "step", "bump"])
def test_grouped_non_finite_block_names_pair(monkeypatch, key):
    # a poisoned grid reaches every pair of its key, and the first kept one
    # is named
    mesh = build_uniform(3, 4, 2)  # elements 0-3 and 28-31 are exterior
    ctx = _ctx(key)
    real = farfield.kernel_grids

    def poisoned(kappa, profile, r, beta, group, ks):
        g = real(kappa, profile, r, beta, group, ks)
        g[ks[group] == 3] = np.nan
        return g

    monkeypatch.setattr(farfield, "kernel_grids", poisoned)
    # (0, 3) has offset 3 too, but both its elements are exterior
    with pytest.raises(AssemblyError, match=r"element pair \(1, 4\)"):
        assemble_stiffness(mesh, ctx, n=4)


def _far_field(monkeypatch, mesh, ctx):
    """An assembly of ``mesh`` and the pairs of leaf cells it marks in
    ``far``, as farfield.needed receives them."""
    seen = []
    real = farfield.needed
    monkeypatch.setattr(farfield, "needed", lambda mesh, far: seen.append(far)
                        or real(mesh, far))
    system = assemble_stiffness(mesh, ctx)
    monkeypatch.setattr(farfield, "needed", real)
    return system, seen[0]


def _covered(mesh, far):
    """What the assembly drops of the element pairs (e, f): both exterior,
    or in a pair of leaf cells marked in ``far``."""
    ext = ~mesh.element_interior
    cell_of = np.minimum(np.arange(mesh.n_elements) // farfield.CELL_SIZE, far.shape[0] - 1)
    return lambda e, f: (ext[e] & ext[f]) | far[cell_of[e], cell_of[f]]


def test_grouped_path_one_bessel_call_per_chunk(monkeypatch):
    # a constant order puts every pair of one offset under one key: each
    # pass of the element cells is one direct kernel call
    import varmatern.assembly as asm

    calls = []
    real = farfield._phi_from_beta

    def counted(kappa, b, r):
        if np.shape(b)[-1] != farfield.CELL_ORDER:  # not a far cell grid
            calls.append(np.shape(b))
        return real(kappa, b, r)

    monkeypatch.setattr(farfield, "_phi_from_beta", counted)
    mesh = build_uniform(3, 4, 7)
    system, far = _far_field(monkeypatch, mesh, _ctx("const05"))
    n_el = mesh.n_elements
    assert 0 < len(calls) < (n_el - 2) / 8
    n = system.quad_meta["n_disjoint"]
    # one grid per offset with a pair left to the element cells, none
    # repeated
    covered = _covered(mesh, far)
    needed = sum(asm._pairs_left(n_el, np.array([k]), covered)[0].size > 0
                 for k in range(2, n_el))
    assert sum(shape[0] for shape in calls) == needed
    # each pass's grids take the order of its band
    bands = system.quad_meta["disjoint_orders"]
    offsets = farfield.needed(mesh, far)
    width = max(1, asm._CHUNK_PAIRS // n_el)
    orders = []
    for k_first, k_last, order in bands:
        passes = -(-np.count_nonzero(offsets[k_first : k_last + 1]) // width)
        orders += [(order, order)] * passes
    assert [shape[1:] for shape in calls] == orders
    assert bands[0][2] == n


def _element_sums(ctx, mesh, ks, order):
    """What the element cells of ``order`` add for the pairs of the offsets
    ``ks`` that are not both exterior, in one pass: the upper triangle of A2
    over the unknowns, and the self blocks per element."""
    import varmatern.assembly as asm

    ext = ~mesh.element_interior
    cells = farfield.element_cells(mesh, ctx.profile, order)
    e, k = asm._pairs_left(mesh.n_elements, ks, lambda e, f: ext[e] & ext[f])
    a = np.zeros((mesh.interior_node_count,) * 2)
    if e.size:
        cells.add(a, e, k, *cells.grids(ctx, e, k))
    return a, cells.self_blocks()


def _pair_reference(mesh, e, f, blocks):
    """The same sums, pair by pair, from the blocks (P, 3, 2, 2) of the
    pairs (e, f), (sxx, sxy, syy) along axis 1."""
    sxx, sxy, syy = np.moveaxis(blocks, 1, 0)
    self_ref = np.zeros((mesh.n_elements, 2, 2))
    np.add.at(self_ref, e, sxx)
    np.add.at(self_ref, f, syy)
    a = np.zeros((mesh.n_nodes,) * 2)
    for u in range(2):
        for w in range(2):
            np.add.at(a, (e + u, f + w), 2.0 * sxy[:, u, w])
    return a[mesh.interior_slice, mesh.interior_slice], self_ref


def _kept(mesh, ks):
    """The pairs (e, e + k), k in ``ks``, that are not both exterior."""
    import varmatern.assembly as asm

    ext = ~mesh.element_interior
    e, k = asm._pairs_left(mesh.n_elements, ks, lambda e, f: ext[e] & ext[f])
    return e, e + k


def _direct_blocks(ctx, mesh, e, f, rule):
    return np.stack(_disjoint_blocks_direct(ctx, mesh.h, mesh.nodes[e], mesh.nodes[f], rule),
                    axis=1)


@pytest.mark.parametrize("key", ["const05", "step", "bump"])
@pytest.mark.parametrize("level", [3, 4, 5])
def test_grouped_weights_match_pair_loop(monkeypatch, key, level):
    # every pair reads a grid that is its own: with the kernel replaced by
    # beta + k, the element cells' sums match those of each pair's own grid
    mesh = build_uniform(3, 4, level)
    n_el = mesh.n_elements
    ext = ~mesh.element_interior
    # every offset: the last ones pair exterior elements and run past the mesh end
    ks = np.arange(2, n_el)
    e, f = _kept(mesh, ks)
    pairs = [(k, i) for k in ks for i in range(n_el - k) if not (ext[i] and ext[i + k])]
    assert np.array_equal(np.stack([f - e, e], axis=1), np.array(pairs))

    monkeypatch.setattr(farfield, "kernel_grids",
                        lambda kappa, profile, r, beta, group, ks: beta + ks[group, None, None])
    rule = gauss_legendre_01(4)
    got = _element_sums(_ctx(key), mesh, ks, rule.n)
    s_q = smoothness.evaluate(PROFILES[key](), mesh.nodes[:n_el, None] + mesh.h * rule.nodes)
    own = 0.5 * (s_q[e, :, None] + s_q[f, None, :]) + (f - e)[:, None, None]
    ref = _pair_reference(mesh, e, f, _blocks_from_kernel(own, mesh.h, rule))
    for part, part_ref in zip(got, ref):
        assert np.max(np.abs(part - part_ref)) <= 1e-14 * np.max(np.abs(part_ref))


GROUPED_CASES = [(key, kappa) for key in ("const05", "step", "bump")
                 for kappa in (0.5, 2.5, 10.0)]


@pytest.mark.parametrize("key, kappa", GROUPED_CASES,
                         ids=[f"{key}-{kappa}" for key, kappa in GROUPED_CASES])
def test_grouped_chunk_blocks_match_direct(key, kappa):
    # the pairs grouped by key, through either branch of kernel_grids
    ctx = _ctx(key, kappa=kappa)
    rule = gauss_legendre_01(8)
    for level in (3, 4, 5):
        mesh = build_uniform(3, 4, level)
        # both ends of the offset range and geometric steps in between
        ks = np.unique(np.geomspace(2, mesh.n_elements - 1, 8).astype(int))
        e, f = _kept(mesh, ks)
        # the one pair of the last offset has both elements exterior
        assert np.max(f - e) < ks[-1]
        got = _element_sums(ctx, mesh, ks, rule.n)
        refs = _pair_reference(mesh, e, f, _direct_blocks(ctx, mesh, e, f, rule))
        for part, ref in zip(got, refs):
            err = np.max(np.abs(part - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (level, err / np.max(np.abs(ref)))


def test_add_cell_blocks_of_one_element_match_dense_loop(monkeypatch):
    # D = [-r_int, r_int] ends inside a cell, 4.5 cells from either end of
    # G, whose pairs keep the element cells, so blocks are cut at -+r_int;
    # offsets 2 size + 1 to 3 size - 1 lie in cell pairs 2 and 3 apart, so
    # the far cell pairs take some of their element pairs
    import varmatern.assembly as asm

    size = farfield.CELL_SIZE
    mesh = build_uniform(4 - 4.5 * size / 32, 4, 5)
    far = _far_field(monkeypatch, mesh, _ctx("const05", kappa=0.5))[1]
    covered = _covered(mesh, far)
    n, first = mesh.interior_node_count, mesh.first_interior_node
    rng = np.random.default_rng(5)
    gaps = cut = 0
    for k in range(2 * size + 1, 3 * size):
        rows = asm._pairs_left(mesh.n_elements, np.array([k]), covered)[0] - first
        blocks = rng.standard_normal((rows.size, 2, 2))
        a = np.zeros((n, n))
        farfield._add_cell_blocks(a, rows, rows + k, 1, blocks)
        ref = np.zeros((n, n))
        for i, row in enumerate(rows):
            for u in range(2):
                for w in range(2):
                    if 0 <= row + u < n and 0 <= row + k + w < n:
                        ref[row + u, row + k + w] += blocks[i, u, w]
        assert np.array_equal(a, ref), k
        gaps += np.any(np.diff(rows) > 1)
        cut += np.any(rows == -1) and np.any(rows + k == n - 1)
    assert gaps and cut


def test_add_cell_blocks_of_an_empty_pass_add_nothing():
    # a pass whose pairs the far cells all took leaves no block to add
    a = np.ones((6, 6))
    empty = np.zeros(0, dtype=int)
    farfield._add_cell_blocks(a, empty, empty + 3, 1, np.zeros((0, 2, 2)))
    assert np.array_equal(a, np.ones((6, 6)))


def _needed_by_offset(mesh, far):
    """farfield.needed as one scan per cell offset d: the pairs (c, c + d)
    not marked in ``far`` and not both exterior."""
    size, n_el = farfield.CELL_SIZE, mesh.n_elements
    ext = np.logical_and.reduceat(~mesh.element_interior, np.arange(0, n_el, size))
    m = ext.size
    open_ = np.zeros(m + 1, dtype=bool)
    for d in range(m):
        c = np.arange(m - d)
        open_[d] = np.any(~far[c, c + d] & ~(ext[c] & ext[c + d]))
    k = np.arange(n_el)
    return open_[k // size] | ((k % size > 0) & open_[k // size + 1])


@pytest.mark.parametrize("r_int, r_ext, level, key, kappa", [
    (3, 4, 5, "bump", 2.5), (3, 4, 6, "step", 0.5), (3, 4, 6, "ramp", 10.0),
    (4 - 36 / 32, 4, 5, "const05", 0.5), (3, 4 - 1 / 32, 6, "bump", 2.5),
])
def test_needed_offsets_match_the_scan_by_cell_offset(monkeypatch, r_int, r_ext, level, key,
                                                      kappa):
    # the leaf pairs an assembly marks, the leaf pairs of one cell offset
    # struck out, and random marks; D ends inside a cell in the fourth case,
    # and in the last the elements past the last cell are not a whole cell
    mesh = build_uniform(r_int, r_ext, level)
    far = _far_field(monkeypatch, mesh, _ctx(key, kappa=kappa))[1]
    struck = far.copy()
    d = farfield.CELL_SEPARATION + 1
    struck[np.arange(far.shape[0] - d), np.arange(d, far.shape[0])] = False
    rng = np.random.default_rng(level)
    for marks in (far, struck, rng.random(far.shape) < 0.97):
        assert np.array_equal(farfield.needed(mesh, marks), _needed_by_offset(mesh, marks))


KERNEL_GRID_CASES = [(key, kappa) for key in ("step", "bump", "ramp")
                     for kappa in (0.5, 2.5, 10.0)]


@pytest.mark.parametrize("key, kappa", KERNEL_GRID_CASES,
                         ids=[f"{key}-{kappa}" for key, kappa in KERNEL_GRID_CASES])
def test_kernel_grids_table_matches_direct(monkeypatch, key, kappa):
    # the grids of 56 pairs at each of four offsets take the beta table in
    # one call, and each grid alone the direct kernel
    ctx = _ctx(key, kappa=kappa)
    mesh = build_uniform(3, 4, 5)
    xq = gauss_legendre_01(8).nodes
    s_q = smoothness.evaluate(ctx.profile, mesh.nodes[: mesh.n_elements, None] + mesh.h * xq)
    ks = np.array([2, 7, 40, 200])
    e = np.arange(mesh.n_elements - ks[-1])
    beta = 0.5 * (s_q[e, :, None] + s_q[e[:, None] + ks[:, None, None], None, :]).reshape(-1, 8, 8)
    group = np.repeat(np.arange(ks.size), e.size)
    r = mesh.h * (ks[:, None, None] + xq[None, None, :] - xq[None, :, None])
    tables = []
    real = farfield._beta_coefficients

    def coefficients(*args):
        tables.append(args)
        return real(*args)

    monkeypatch.setattr(farfield, "_beta_coefficients", coefficients)
    many = farfield.kernel_grids(kappa, ctx.profile, r, beta, group, ks)
    assert len(tables) == 1
    for i, j in enumerate(group):
        one = farfield.kernel_grids(kappa, ctx.profile, r[j : j + 1], beta[i : i + 1],
                                    np.zeros(1, int), ks[j : j + 1])[0]
        assert np.max(np.abs(many[i] - one)) <= 1e-12 * np.max(np.abs(one)), (i, ks[j])
    assert len(tables) == 1


@pytest.mark.parametrize("key, level, takes_table", [
    ("const05", 7, False),
    ("step", 7, False),
    ("bump", 6, True),
])
def test_beta_table_only_for_many_grids_per_offset(monkeypatch, key, level, takes_table):
    tables, grids = [], []
    real_coefficients = farfield._beta_coefficients
    real_grids = farfield.kernel_grids

    def coefficients(*args):
        tables.append(args)
        return real_coefficients(*args)

    def kernel_grids(kappa, profile, r, beta, group, ks):
        if beta.shape[-1] != farfield.CELL_ORDER:  # the element path
            grids.append(np.bincount(group).max())
        return real_grids(kappa, profile, r, beta, group, ks)

    monkeypatch.setattr(farfield, "_beta_coefficients", coefficients)
    monkeypatch.setattr(farfield, "kernel_grids", kernel_grids)
    assemble_stiffness(build_uniform(3, 4, level), _ctx(key))
    assert bool(tables) == takes_table
    # a constant order: one grid per offset; the step: one per pair of its
    # two orders
    if not takes_table:
        assert max(grids) == {"const05": 1, "step": 3}[key]


@pytest.mark.parametrize("key", ["const05", "step", "bump"])
def test_grouped_chunking_matches_brute_force(monkeypatch, key):
    # one to a few offsets per chunk against one chunk per band: 32
    # elements, 4 exterior at each end, also against brute force, and 128,
    # where the bump's chunks take the beta table
    import varmatern.assembly as asm

    ctx = _ctx(key)
    for level, n in ((2, 6), (4, 10)):
        mesh = build_uniform(3, 4, level)
        monkeypatch.setattr(asm, "_CHUNK_PAIRS", 2**40)
        monkeypatch.setattr(asm, "_CHUNK_POINTS", 2**40)
        one_chunk = assemble_stiffness(mesh, ctx, n=n).a
        monkeypatch.setattr(asm, "_CHUNK_PAIRS", 3 * mesh.n_elements)
        monkeypatch.setattr(asm, "_CHUNK_POINTS", 3 * mesh.n_elements * 16)
        chunked = assemble_stiffness(mesh, ctx, n=n).a
        scale = np.max(np.abs(one_chunk))
        assert np.max(np.abs(chunked - one_chunk)) <= 1e-14 * scale, level
        if level == 2:
            ref = _assemble_brute(mesh, ctx, n)
            assert np.max(np.abs(chunked - ref)) <= 1e-13 * scale


def test_quad_metadata_recorded():
    mesh = build_uniform(3, 4, 3)
    for key in ("const05", "bump"):
        profile = PROFILES[key]()
        meta = assemble_stiffness(mesh, _ctx(key)).quad_meta
        # each fact once: n as "n_disjoint", by the default log(1/h) rule
        assert set(meta) == {"n_disjoint", "disjoint_orders", "beta_degree",
                             "near_field_keys", "far_cells"}
        assert meta["n_disjoint"] == quadrature_order(mesh.h, profile.s_upper, profile.s_lower)
        assert meta["beta_degree"] == farfield.BETA_DEGREE
        # the order bands cover the offsets 2 ... n_el - 1 in turn, none above n
        bands = meta["disjoint_orders"]
        assert bands[0][0] == 2 and bands[-1][1] == mesh.n_elements - 1
        assert all(nxt[0] == prev[1] + 1 for prev, nxt in zip(bands, bands[1:]))
        assert all(first <= last and order <= meta["n_disjoint"]
                   for first, last, order in bands)
    # one near-field integrand per element order on the constant profile;
    # on the bump every interior element has its own, and the exterior
    # elements on either side, where s = s_lower, share one per side
    n_int = int(np.count_nonzero(mesh.element_interior))
    keys = {"const05": (1, 1), "bump": (n_int + 2, n_int + 3)}
    for key, (identical, vertex_sharing) in keys.items():
        meta = assemble_stiffness(mesh, _ctx(key)).quad_meta
        assert meta["near_field_keys"] == {
            "identical": identical, "vertex_sharing": vertex_sharing
        }
    # the far cells, and the disjoint pairs they leave to the element path:
    # together they hold every disjoint pair that is not both exterior
    for level in (3, 5):
        mesh = build_uniform(3, 4, level)
        n_el = mesh.n_elements
        ext = ~mesh.element_interior
        disjoint = sum(np.count_nonzero(~(ext[: n_el - k] & ext[k:])) for k in range(2, n_el))
        for key in ("const05", "bump"):
            meta = assemble_stiffness(mesh, _ctx(key)).quad_meta
            json.dumps(meta)  # the manifest takes it as it is
            far = meta["far_cells"]
            assert set(far) == {"cell_size", "order", "separation", "cell_pairs",
                                "cell_pairs_by_size", "element_pairs"}
            assert (far["cell_size"], far["order"], far["separation"]) == (
                farfield.CELL_SIZE, farfield.CELL_ORDER, farfield.CELL_SEPARATION)
            by_size = far["cell_pairs_by_size"]
            assert all(type(far[name]) is int for name in ("cell_pairs", "element_pairs"))
            assert all(type(pairs) is int for pairs in by_size.values())
            # the sizes built, each key the size as a string
            assert list(by_size) == [str(size) for size in farfield.cell_sizes(mesh, 2.5)]
            assert far["cell_pairs"] == sum(by_size.values())
            assert (far["cell_pairs"] > 0) == (level == 5)
            assert far["element_pairs"] + sum(
                pairs * int(size)**2 for size, pairs in by_size.items()) == disjoint


def test_assembly_calls_its_phases_once_in_order(monkeypatch):
    # the phases, and the weighted mass the benchmark traces, are looked up
    # on the module, so a wrapper set there sees every call
    import varmatern.assembly as asm

    mesh, ctx = build_uniform(3, 4, 5), _ctx("bump")
    plain = assemble_stiffness(mesh, ctx)
    assert plain.quad_meta["far_cells"]["cell_pairs"] > 0
    calls = []
    for name in ("_add_near_field", "_add_far_cells", "_add_element_pairs",
                 "_add_weighted_mass", "assemble_weighted_mass"):
        def counted(*args, _name=name, _real=getattr(asm, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(asm, name, counted)
    wrapped = assemble_stiffness(mesh, ctx)
    assert calls == ["_add_near_field", "_add_far_cells", "_add_element_pairs",
                     "_add_weighted_mass", "assemble_weighted_mass"]
    assert wrapped.a.tobytes() == plain.a.tobytes()
    assert wrapped.a1.toarray().tobytes() == plain.a1.toarray().tobytes()
    assert wrapped.quad_meta == plain.quad_meta


# ------------------------------------------------------- near-field keys

NEAR_FIELD_PROFILES = {
    "const05": PROFILES["const05"],
    "step": PROFILES["step"],
    "tabulated_const": lambda: smoothness.tabulated([-4.0, 4.0], [0.5, 0.5]),
    # two equal flat parts apart, so equal keys that are not next to each
    # other; the lopsided peak on the node 0 gives both its elements the
    # same s_up but not the same beta grids
    "tabulated_flats": lambda: smoothness.tabulated([-4.0, -1.0, 0.0, 2.0, 4.0],
                                                    [0.5, 0.5, 0.7, 0.5, 0.5]),
    "bump": PROFILES["bump"],
}


@pytest.mark.parametrize("level", [4, 5])
@pytest.mark.parametrize("key", list(NEAR_FIELD_PROFILES))
def test_near_field_keys_match_row_by_row(key, level):
    import varmatern.assembly as asm

    mesh = build_uniform(3, 4, level)
    ctx = KernelContext(2.5, 1.0, NEAR_FIELD_PROFILES[key]())
    rule = gauss_legendre_01(7)
    h, n_el, nodes = mesh.h, mesh.n_elements, mesh.nodes
    el_max = asm._element_order_max(ctx.profile, h, nodes[:n_el])
    vals, _ = asm._identical_common(ctx, h, rule, el_max, nodes[: n_el + 1])
    rows = [asm._identical_common(ctx, h, rule, el_max[e : e + 1], nodes[e : e + 2])[0]
            for e in range(n_el)]
    assert np.array_equal(vals, np.concatenate(rows))
    alpha, delta = _adjacent_delta_coeffs(mesh, 0)
    s_up = 0.5 * (el_max[:-1] + el_max[1:])
    blocks, _ = asm._adjacent_blocks(ctx, h, rule, s_up, nodes[1:n_el], alpha, delta)
    rows = [asm._adjacent_blocks(ctx, h, rule, s_up[p : p + 1], nodes[p + 1 : p + 2],
                                 alpha, delta)[0] for p in range(n_el - 1)]
    assert np.array_equal(blocks, np.concatenate(rows))


# rows: the distinct integrands of the identical and vertex-sharing pairs
@pytest.mark.parametrize("key, rows", [("const05", [1, 1]), ("step", [2, 3])])
def test_near_field_evaluates_each_key_once(monkeypatch, key, rows):
    import varmatern.assembly as asm

    seen, far = [], []
    real = asm._phi_from_beta

    def counted(record):
        def call(kappa, b, r):
            record.append(np.shape(b)[0])
            return real(kappa, b, r)
        return call

    real_grids = farfield._Cells.grids

    def far_grids(self, ctx, c, d):
        g, inverse = real_grids(self, ctx, c, d)
        if self.size > 1:
            far.append((self.size, g.shape[0], np.unique(d).size))
        return g, inverse

    monkeypatch.setattr(asm, "_phi_from_beta", counted(seen))
    monkeypatch.setattr(farfield._Cells, "grids", far_grids)
    mesh = build_uniform(3, 4, 6)
    system = assemble_stiffness(mesh, _ctx(key))
    # the disjoint pairs evaluate their kernel in kernel_grids, directly on
    # these profiles: these are one call for the two anchors of the identical
    # pairs, then one for the two halves of the vertex-sharing pairs, with
    # one row per distinct integrand and anchor or half
    assert seen == [2 * rows[0], 2 * rows[1]]
    # the far cells: one pass per cell size holds every cell offset of its
    # candidate pairs, with one grid per offset and distinct pair of cell
    # orders (s is constant on every cell of either profile)
    sizes = farfield.cell_sizes(mesh, 2.5)
    assert len(sizes) > 1
    assert [size for size, _, _ in far] == sizes[::-1]
    for _, grids, offsets in far:
        assert (grids == offsets if key == "const05" else offsets <= grids <= 3 * offsets)
    assert key == "const05" or sum(grids for _, grids, _ in far) > sum(offsets for *_, offsets in far)
    assert system.quad_meta["near_field_keys"] == {
        "identical": rows[0], "vertex_sharing": rows[1]
    }


def test_phi_in_assembly_serves_the_near_field_alone(monkeypatch):
    # on the bump the disjoint pairs take the beta table, whose phi is
    # farfield's: assembly's phi evaluates 2 n^2 points per near-field key
    # (both anchors or halves of each), and nothing more
    import varmatern.assembly as asm

    points = []
    real = asm._phi_from_beta

    def counted(kappa, b, r):
        points.append(np.broadcast(b, r).size)
        return real(kappa, b, r)

    monkeypatch.setattr(asm, "_phi_from_beta", counted)
    system = assemble_stiffness(build_uniform(3, 4, 6), _ctx("bump"))
    n, keys = system.quad_meta["n_disjoint"], system.quad_meta["near_field_keys"]
    assert n == 8
    assert sum(points) == 2 * n * n * (keys["identical"] + keys["vertex_sharing"]) == 98_944


@pytest.mark.parametrize("what, vertex_sharing, pair", [
    ("identical", False, (4, 4)),
    ("vertex-sharing", True, (3, 4)),
])
def test_near_field_non_finite_block_names_kept_pair(monkeypatch, what, vertex_sharing, pair):
    import varmatern.assembly as asm

    mesh = build_uniform(1, 2, 2)  # elements 0-3 and 12-15 are exterior
    ctx = _ctx("step")
    h = mesh.h
    real = asm._phi_from_beta

    def poisoned(kappa, b, r):
        out = np.array(real(kappa, b, r), dtype=float, copy=True)
        # vertex-sharing grids reach r = 2 h xi, identical ones stay below h
        if (np.max(r) > h) == vertex_sharing:
            # the key of the elements left of the step, first met at element 0
            out[np.all(b == 0.35, axis=(1, 2))] = np.nan
        return out

    monkeypatch.setattr(asm, "_phi_from_beta", poisoned)
    with pytest.raises(AssemblyError, match=rf"non-finite {what} block for element pair "
                                            rf"\({pair[0]}, {pair[1]}\)"):
        assemble_stiffness(mesh, ctx, n=4)


def test_single_pair_blocks_read_only_their_elements(monkeypatch):
    seen = []
    real = smoothness.evaluate

    def counted(profile, x):
        seen.append(np.size(x))
        return real(profile, x)

    monkeypatch.setattr(smoothness, "evaluate", counted)
    mesh = build_uniform(3, 4, 4)
    ctx = _ctx("step")
    pair_block_identical(mesh, ctx, 60, 6)
    pair_block_adjacent(mesh, ctx, 60, 61, 6)
    # 33 profile samples for each element the block needs (the order-6
    # near-field grids hold 36 points), none for the rest of the mesh
    assert max(seen) == 2 * 33


# ------------------------------------------------------------------ beta table

BETA_TABLE_PROFILES = {
    "gaussian_bump": lambda: smoothness.gaussian_bump(0.35, 0.85, 0.9, 3.0),
    "oscillatory_ramp": PROFILES["ramp"],
    "tabulated": lambda: smoothness.tabulated([-3.0, -1.0, 2.0, 3.5],
                                              [0.45, 0.8, 0.52, 0.61]),
    "wide_bump": lambda: smoothness.gaussian_bump(0.05, 0.95, 0.9, 3.0),
    "bump_01": lambda: smoothness.gaussian_bump(0.01, 0.99, 0.9, 3.0),
    "bump_02": lambda: smoothness.gaussian_bump(0.02, 0.98, 0.9, 3.0),
    "bump_001": lambda: smoothness.gaussian_bump(0.001, 0.999, 0.9, 3.0),
}

BETA_TABLE_CASES = [
    (key, kappa, (3, 4, 5, 6))
    for key in ("gaussian_bump", "oscillatory_ramp", "tabulated", "wide_bump")
    for kappa in (0.5, 2.5, 10.0)
] + [
    # the kernel far out in its exponential tail (kappa r past the underflow
    # cutoff 700) or close to its r -> 0 limit (kappa r down to 4e-6)
    ("bump_01", 50.0, (3,)),
    ("bump_01", 200.0, (3,)),
    ("bump_01", 0.1, (9,)),
    ("bump_02", 0.1, (9,)),
    ("bump_001", 0.001, (8,)),
]


@pytest.mark.parametrize("key, kappa, levels", BETA_TABLE_CASES,
                         ids=[f"{key}-{kappa}" for key, kappa, _ in BETA_TABLE_CASES])
def test_beta_table_offset_blocks_match_direct(key, kappa, levels):
    profile = BETA_TABLE_PROFILES[key]()
    ctx = KernelContext(kappa, 1.0, profile)
    rule = gauss_legendre_01(8)
    for level in levels:
        mesh = build_uniform(3, 4, level)
        n_el = mesh.n_elements
        # both ends of the offset range and geometric steps in between, each
        # a one-offset pass; self blocks per element, A2 per row
        for k in np.unique(np.geomspace(2, n_el - 1, 8).astype(int)):
            ks = np.array([k])
            e, f = _kept(mesh, ks)
            tab = _element_sums(ctx, mesh, ks, rule.n)
            ref = _pair_reference(mesh, e, f, _direct_blocks(ctx, mesh, e, f, rule))
            for part_tab, part_ref in zip(tab, ref):
                axes = tuple(range(1, part_ref.ndim))
                scale = np.max(np.abs(part_ref), axis=axes)
                err = np.max(np.abs(part_tab - part_ref), axis=axes)
                assert np.all(err <= 1e-10 * scale), (level, k, np.max(err / scale))


FAR_ORDER_CASES = [(key, kappa) for key in ("gaussian_bump", "bump_01")
                   for kappa in (0.5, 2.5, 10.0)]


@pytest.mark.parametrize("key, kappa", FAR_ORDER_CASES,
                         ids=[f"{key}-{kappa}" for key, kappa in FAR_ORDER_CASES])
def test_far_orders_hold_block_tolerance(key, kappa):
    # each band's order at its first and last offset against an order-24
    # reference; one order less per band fails this test
    import varmatern.assembly as asm

    ctx = KernelContext(kappa, 1.0, BETA_TABLE_PROFILES[key]())
    ref_rule = gauss_legendre_01(24)
    for level in (7, 8):
        mesh = build_uniform(3, 4, level)
        n_el = mesh.n_elements
        bands = asm._disjoint_orders(n_el, ref_rule.n, kappa * mesh.h)
        assert [order for *_, order in bands] == list(asm.FAR_ORDERS)
        for first, last, order in bands:
            for k in (first, last):
                # 65 pairs spread over the offset's first elements
                e = np.unique(np.linspace(0, n_el - 1 - k, 65).astype(int))
                lefts = (mesh.nodes[e], mesh.nodes[e + k])
                got, ref = (
                    np.stack(_disjoint_blocks_direct(ctx, mesh.h, *lefts, rule), 1)
                    for rule in (gauss_legendre_01(order), ref_rule)
                )
                err = np.max(np.abs(got - ref), axis=(1, 2, 3))
                worst = np.max(err / np.max(np.abs(ref), axis=(1, 2, 3)))
                assert worst <= asm.DISJOINT_BLOCK_RTOL, (level, k, order, worst)
    # where kappa h > 1 every offset keeps the order n
    assert asm._disjoint_orders(64, 7, 1.25) == [[2, 63, 7]]
    assert asm._disjoint_orders(64, 7, 1.0)[1:] == [[6, 23, 6], [24, 63, 5]]


def test_beta_degree_recorded_for_general_path():
    # wide bounds and a large kappa: every offset's table must resolve
    ctx = KernelContext(50.0, 1.0, BETA_TABLE_PROFILES["bump_01"]())
    system = assemble_stiffness(build_uniform(3, 4, 3), ctx)
    assert system.quad_meta["beta_degree"] == farfield.BETA_DEGREE


def test_beta_table_unresolved_degree_raises(monkeypatch):
    monkeypatch.setattr(farfield, "BETA_DEGREE", 4)
    ctx = KernelContext(2.5, 1.0, smoothness.gaussian_bump(0.05, 0.95, 0.9, 3.0))
    with pytest.raises(AssemblyError, match="beta table of degree 4"):
        assemble_stiffness(build_uniform(3, 4, 2), ctx, n=4)


CHOP_CASES = [(bounds, kappa) for bounds in ((0.35, 0.85), (0.01, 0.99))
              for kappa in (0.5, 2.5, 10.0)]


@pytest.mark.parametrize("bounds, kappa", CHOP_CASES,
                         ids=[f"{lo}-{hi}-{kappa}" for (lo, hi), kappa in CHOP_CASES])
def test_beta_table_chopped_sum_matches_full_degree(bounds, kappa):
    lower, upper = bounds
    mid, half = 0.5 * (lower + upper), 0.5 * (upper - lower)
    tau, to_coef = farfield._chebyshev(farfield.BETA_DEGREE + 1)
    xq = gauss_legendre_01(6).nodes
    rng = np.random.default_rng(7)
    terms = []
    for level in (4, 6, 8):
        h = 2.0**-level
        for ks in (np.arange(2, 6), np.arange(40, 48), np.arange(1990, 2000)):
            r = h * (ks[:, None, None] + xq[None, None, :] - xq[None, :, None])
            log_growth = np.log(np.maximum(4.0, 2.0 * kappa * r))
            chopped = farfield._beta_coefficients(kappa, mid, half, r, log_growth, ks)
            b = (mid + half * tau).reshape(-1, 1, 1, 1)
            values = farfield._phi_from_beta(kappa, b, r) * np.exp(-(0.5 + b) * log_growth)
            full = np.tensordot(to_coef, values, axes=1)
            assert full.shape[0] == farfield.BETA_DEGREE + 1
            assert np.array_equal(chopped, full[: chopped.shape[0]])
            terms.append(chopped.shape[0])
            t = rng.uniform(-1.0, 1.0, (50,) + r.shape)
            ref = farfield._clenshaw(full, t)
            err = np.abs(farfield._clenshaw(chopped, t) - ref)
            assert np.all(err <= 1e-13 * np.abs(ref)), (level, ks[0], terms[-1])
    # the chop shortens the series on most grids
    assert np.median(terms) < farfield.BETA_DEGREE + 1, terms


def test_beta_table_order_outside_profile_bounds_raises():
    # bounds narrower than the values the profile takes: a profile that
    # varies, and a constant one, whose grids are evaluated directly
    for x, s in (([-3.0, 3.0], [0.4, 0.7]), ([-4.0, 4.0], [0.7, 0.7])):
        profile = smoothness.SmoothnessProfile(
            "tabulated", 0.5, 0.6, {"x": np.array(x), "s": np.array(s)}
        )
        ctx = KernelContext(2.5, 1.0, profile)
        with pytest.raises(AssemblyError, match="leaves the profile bounds"):
            assemble_stiffness(build_uniform(3, 4, 2), ctx, n=4)


# ------------------------------------------------------------- far cells

FAR_CELL_CASES = [(key, kappa) for key in ("gaussian_bump", "bump_01", "oscillatory_ramp")
                  for kappa in (0.5, 2.5, 10.0)]


def _cell_pair_errors(ctx, mesh, cells, d, c, resolved_only=True):
    """Largest error, relative to the block, of the element-pair blocks of
    the cell pairs (c, c + d) from their interpolants against order-24
    direct blocks: the pairs of the first, middle and last elements of
    each cell. Only the pairs the far field takes, unless told otherwise;
    returns the error and how many cell pairs it covers."""
    g, inverse = cells.grids(ctx, c, np.full(c.size, d))
    if resolved_only:
        resolved = farfield.resolved(g)[inverse]
        c, inverse = c[resolved], inverse[resolved]
    if not c.size:
        return 0.0, 0
    h, size = mesh.h, cells.size
    j = np.array([0, size // 2, size - 1])
    m1 = farfield._moments(size, farfield._chebyshev(cells.t.size)[1])[0][j]
    m0, m2 = m1.sum(axis=1), cells.m2[j]
    g = g[inverse]
    got = h * h * np.stack([
        np.einsum("jabi,pik,lk->pjlab", m2, g, m0),
        -np.einsum("jai,pik,lbk->pjlab", m1, g, m1),
        np.einsum("ji,pik,lbak->pjlab", m0, g, m2),
    ], axis=3)
    first = (c[:, None, None] * size + j[None, :, None]) + 0 * j[None, None, :]
    second = ((c + d)[:, None, None] * size + j[None, None, :]) + 0 * j[None, :, None]
    ref = np.stack(_disjoint_blocks_direct(
        ctx, h, mesh.nodes[first.ravel()], mesh.nodes[second.ravel()], gauss_legendre_01(24)
    ), axis=1).reshape(got.shape)
    err = np.max(np.abs(got - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    return float(np.max(err)), c.size


def _far_cell_sample(cells, regular, d, count=6):
    """Cell pairs (c, c + d) of the far field's kind spread over the mesh."""
    c = np.arange(cells.count - d)
    c = c[regular[c] & regular[c + d] & ~(cells.exterior[c] & cells.exterior[c + d])]
    return c[np.unique(np.linspace(0, c.size - 1, count).astype(int))] if c.size else c


@pytest.mark.parametrize("key, kappa", FAR_CELL_CASES,
                         ids=[f"{key}-{kappa}" for key, kappa in FAR_CELL_CASES])
def test_far_cells_hold_block_tolerance(key, kappa):
    # every cell pair the far field takes, of every cell size it builds at
    # levels 7 to 9, at the closest cell offsets and at farther ones,
    # against order-24 element-pair blocks: six pairs per offset for the
    # cells of CELL_SIZE elements at levels 7 and 8, three for the other cases
    import varmatern.assembly as asm

    ctx = KernelContext(kappa, 1.0, BETA_TABLE_PROFILES[key]())
    gap = farfield.CELL_SEPARATION
    taken = {}
    for level in (7, 8, 9):
        mesh = build_uniform(3, 4, level)
        for size in farfield.cell_sizes(mesh, kappa):
            cells, regular = farfield.far_cells(mesh, ctx.profile, size)
            samples = 6 if size == farfield.CELL_SIZE and level < 9 else 3
            for d in sorted({gap, gap + 1, gap + 2, 2 * gap, cells.count // 2}
                            & set(range(gap, cells.count))):
                sample = _far_cell_sample(cells, regular, d, samples)
                err, count = _cell_pair_errors(ctx, mesh, cells, d, sample)
                assert err <= asm.DISJOINT_BLOCK_RTOL, (level, size, d, err)
                taken[size] = taken.get(size, 0) + count
    # cells of 8 to 128 elements take pairs at every kappa: those of 128 at
    # level 9, where kappa L <= CELL_KAPPA_LENGTH for kappa < 10, and kappa L
    # = CELL_KAPPA_LARGEST for kappa = 10, where they are the largest size
    wanted = {8, 16, 32, 64, 128}
    assert wanted <= {size for size, count in taken.items() if count}, taken


def test_far_cells_fail_one_cell_closer_or_four_orders_fewer(monkeypatch):
    # the negative controls of the constants: each misses the block
    # tolerance on pairs whose interpolants it takes as resolved or not
    import varmatern.assembly as asm

    ctx = KernelContext(2.5, 1.0, BETA_TABLE_PROFILES["gaussian_bump"]())
    mesh = build_uniform(3, 4, 7)
    closer = farfield.CELL_SEPARATION - 1
    cells, regular = farfield.far_cells(mesh, ctx.profile)
    sample = _far_cell_sample(cells, regular, closer)
    err, _ = _cell_pair_errors(ctx, mesh, cells, closer, sample, False)
    assert err > asm.DISJOINT_BLOCK_RTOL
    monkeypatch.setattr(farfield, "CELL_ORDER", farfield.CELL_ORDER - 4)
    cells, regular = farfield.far_cells(mesh, ctx.profile)
    gap = farfield.CELL_SEPARATION
    err, _ = _cell_pair_errors(ctx, mesh, cells, gap, _far_cell_sample(cells, regular, gap), False)
    assert err > asm.DISJOINT_BLOCK_RTOL


def _row_oracle(mesh, ctx, nodes, n):
    """Rows of A at the mesh ``nodes`` over the unknowns, rebuilt from
    single-pair blocks: identical and vertex-sharing pairs at order n,
    disjoint pairs by direct tensor Gauss of order 24."""
    n_el = mesh.n_elements
    ext = ~mesh.element_interior
    pairs = sorted({(min(e, f), max(e, f)) for node in nodes for e in (node - 1, node)
                    if 0 <= e < n_el for f in range(n_el) if not (ext[e] and ext[f])})
    e, f = np.array([pair for pair in pairs if pair[1] - pair[0] >= 2]).T
    # a pair's blocks depend on its offset and on s at its quadrature
    # points only: pairs that agree in these are evaluated once
    rule = gauss_legendre_01(24)
    s_q = smoothness.evaluate(ctx.profile, mesh.nodes[:n_el, None] + mesh.h * rule.nodes)
    _, first, inverse = np.unique(np.column_stack([f - e, s_q[e], s_q[f]]), axis=0,
                                  return_index=True, return_inverse=True)
    sxx, sxy, syy = (part[inverse.ravel()] for part in _disjoint_blocks_direct(
        ctx, mesh.h, mesh.nodes[e[first]], mesh.nodes[f[first]], rule
    ))
    a1 = assemble_weighted_mass(mesh, ctx, gauss_legendre_01(n))
    rows = []
    for node in nodes:
        row = np.zeros(mesh.n_nodes)
        for first, second in pairs:
            if second - first < 2:
                block, on = (pair_block_identical(mesh, ctx, first, n) if first == second
                             else pair_block_adjacent(mesh, ctx, first, second, n))
                if node in on:
                    row[list(on)] += (1.0 if first == second else 2.0) * block[on.index(node)]
        for a in range(2):
            on_e, on_f = e + a == node, f + a == node
            for b in range(2):
                np.add.at(row, e[on_e] + b, 2.0 * sxx[on_e, a, b])
                np.add.at(row, f[on_e] + b, 2.0 * sxy[on_e, a, b])
                np.add.at(row, f[on_f] + b, 2.0 * syy[on_f, a, b])
                np.add.at(row, e[on_f] + b, 2.0 * sxy[on_f, b, a])
        i = node - mesh.first_interior_node
        rows.append(row[mesh.interior_slice] + a1[[i], :].toarray()[0])
    return rows


@pytest.mark.parametrize("key", ["bump", "step", "const05"])
@pytest.mark.parametrize("level", [7, 8])
def test_stiffness_rows_match_single_pair_oracle(key, level):
    # n = 12 leaves every disjoint pair its graded order (n_far(2) = 10),
    # which holds each block to DISJOINT_BLOCK_RTOL; a smaller n would cap
    # the nearest offsets below it
    mesh = build_uniform(3, 4, level)
    ctx = _ctx(key)
    system = assemble_stiffness(mesh, ctx, n=12)
    assert system.quad_meta["far_cells"]["cell_pairs"] > 0
    lo, hi = mesh.first_interior_node, mesh.last_interior_node
    jump = int(np.flatnonzero(mesh.nodes == 0.0)[0])
    # both ends of D (the nodes at -+r_int), their neighbours, the step's jump
    nodes = (lo, lo + 1, jump, hi - 1, hi)
    for node, ref in zip(nodes, _row_oracle(mesh, ctx, nodes, 12)):
        err = np.max(np.abs(system.a[node - lo] - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), (node, err / np.max(np.abs(ref)))


def test_irregular_cells_keep_the_element_path(monkeypatch):
    # D = [-r_int, r_int] ends inside a cell, 4.5 cells from either end of
    # G, and the profile has knots inside cells: those cells keep the
    # element path at every offset, and A agrees with the element path alone
    size = farfield.CELL_SIZE
    r_int = 4 - 4.5 * size / 32
    mesh = build_uniform(r_int, 4, 5)
    profile = smoothness.tabulated([-3.0, -0.3, 0.2, 3.5], [0.45, 0.8, 0.52, 0.61])
    ctx = KernelContext(2.5, 1.0, profile)
    cells, regular = farfield.far_cells(mesh, profile)
    lefts = mesh.nodes[: cells.count * size : size]
    straddle = (lefts < -r_int) & (lefts + size * mesh.h > -r_int)
    knot = (lefts < -0.3) & (lefts + size * mesh.h > -0.3)
    assert np.count_nonzero(straddle) == np.count_nonzero(knot) == 1
    assert not np.any(regular[straddle | knot])
    cellular = assemble_stiffness(mesh, ctx)
    assert cellular.quad_meta["far_cells"]["cell_pairs"] > 0
    monkeypatch.setattr(farfield, "CELL_SEPARATION", mesh.n_elements)
    elementwise = assemble_stiffness(mesh, ctx)
    assert elementwise.quad_meta["far_cells"]["cell_pairs"] == 0
    scale = np.max(np.abs(elementwise.a))
    assert np.max(np.abs(cellular.a - elementwise.a)) <= 1e-14 * scale
    assert np.array_equal(cellular.a, cellular.a.T)


@pytest.mark.parametrize("kappa", [0.5, 2.5, 10.0])
def test_far_cells_match_the_element_path(monkeypatch, kappa):
    # A with the far cells of every size against A from the element cells
    # alone, on profiles whose cells all are regular and on a bump
    by_size = {}
    for key, level in [(key, level) for key in ("step", "bump") for level in (5, 6)]:
        mesh = build_uniform(3, 4, level)
        ctx = _ctx(key, kappa=kappa)
        cellular = assemble_stiffness(mesh, ctx)
        for size, pairs in cellular.quad_meta["far_cells"]["cell_pairs_by_size"].items():
            by_size[int(size)] = by_size.get(int(size), 0) + pairs
        with monkeypatch.context() as m:
            m.setattr(farfield, "CELL_SEPARATION", mesh.n_elements)
            elementwise = assemble_stiffness(mesh, ctx)
        assert elementwise.quad_meta["far_cells"]["cell_pairs"] == 0
        scale = np.max(np.abs(elementwise.a))
        err = np.max(np.abs(cellular.a - elementwise.a))
        assert err <= 1e-12 * scale, (key, level, err / scale)
    # cells of 32 elements or more take part wherever kappa lets them
    assert (max(size for size, pairs in by_size.items() if pairs) >= 32) == (kappa < 10), by_size


def test_far_cells_skip_sizes_too_long_for_kappa(monkeypatch):
    # kappa L <= CELL_KAPPA_LENGTH, L the cell's length, for every size but
    # the largest, which may reach CELL_KAPPA_LARGEST where more than 8 of its
    # cells fit: at level 4 with kappa = 10 (kappa L = 5 for cells of
    # CELL_SIZE = 8 elements) no cell is built and no far-cell grid reaches
    # the kernel
    size = farfield.CELL_SIZE
    mesh = build_uniform(3, 4, 4)
    assert farfield.cell_sizes(mesh, 10.0) == []
    # kappa L = 2.5 for 32 cells of 8 elements at level 5, 32 of 16 at
    # level 6, 8 of 16 at level 4 and 8 of 8 at level 3
    assert farfield.cell_sizes(build_uniform(3, 4, 5), 10.0) == [size]
    assert farfield.cell_sizes(build_uniform(3, 4, 6), 10.0) == [size, 2 * size]
    assert farfield.cell_sizes(mesh, 2.5) == [size]
    assert farfield.cell_sizes(build_uniform(3, 4, 3), 2.5) == []
    assert farfield.cell_sizes(mesh, 1.25) == [size, 2 * size]
    # at small kappa the mesh bounds them: 4 cells of 32 elements fit, and
    # 2 of 64 are fewer than CELL_SEPARATION + 1
    assert farfield.cell_sizes(mesh, 0.1) == [size, 2 * size, 4 * size]
    shapes = []
    real = farfield.kernel_grids

    def kernel_grids(kappa, profile, r, beta, group, ks):
        shapes.append(beta.shape[1:])
        return real(kappa, profile, r, beta, group, ks)

    monkeypatch.setattr(farfield, "kernel_grids", kernel_grids)
    system = assemble_stiffness(mesh, _ctx("const05", kappa=10.0))
    assert shapes and (farfield.CELL_ORDER,) * 2 not in shapes
    assert system.quad_meta["far_cells"]["cell_pairs_by_size"] == {}
    assert system.quad_meta["far_cells"]["cell_pairs"] == 0


@pytest.mark.parametrize("kappa, levels", [(0.5, (3, 4, 5, 6, 6)), (2.5, (6, 3, 4, 5, 6)),
                                           (10.0, (5, 6, 3, 4, 6))])
def test_series_and_bessel_k_assemble_the_same_a(monkeypatch, kappa, levels):
    # with Z_SERIES = 0 every point with r > 0 goes through bessel_k; A must
    # not tell the two routes apart
    profiles = {key: PROFILES[key] for key in ("const05", "step", "bump", "ramp")}
    profiles["tabulated"] = lambda: smoothness.tabulated([-3.0, 0.0, 3.0], [0.3, 0.6, 0.4])
    points = []
    real = kernel.bessel_k

    def counted(nu, z):
        points[-1] += np.size(z)
        return real(nu, z)

    monkeypatch.setattr(kernel, "bessel_k", counted)
    for (key, make), level in zip(profiles.items(), levels):
        mesh = build_uniform(3, 4, level)
        ctx = KernelContext(kappa, 1.0, make())
        points.append(0)
        series = assemble_stiffness(mesh, ctx).a
        with monkeypatch.context() as m:
            m.setattr(kernel, "Z_SERIES", 0.0)
            points.append(0)
            direct = assemble_stiffness(mesh, ctx).a
        assert points[-1] > points[-2], (key, level, points[-2:])
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(series - direct)) <= 1e-13 * scale, (key, level)
        assert np.array_equal(series, series.T) and np.array_equal(direct, direct.T)


@pytest.mark.parametrize("key", ["step", "bump"])
def test_assembly_peak_memory_within_twice_a(key):
    import tracemalloc

    mesh = build_uniform(3, 4, 8)
    ctx = _ctx(key)
    tracemalloc.start()
    try:
        system = assemble_stiffness(mesh, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * system.a.nbytes, peak / system.a.nbytes


def test_needed_offsets_hold_every_pair_left_to_the_element_path():
    # far fields with holes: an offset whose pairs all lie in cell pairs of
    # the far field may be skipped, no other
    import varmatern.assembly as asm

    mesh = build_uniform(3, 4, 5)  # 16 cells
    count = mesh.n_elements // farfield.CELL_SIZE
    rng = np.random.default_rng(3)
    for _ in range(10):
        far = np.triu(rng.random((count + 1,) * 2) < 0.97, farfield.CELL_SEPARATION)
        needed = farfield.needed(mesh, far)
        covered = _covered(mesh, far)
        held = [asm._pairs_left(mesh.n_elements, np.array([k]), covered)[0].size > 0
                for k in range(2, mesh.n_elements)]
        assert np.all(needed[2:] | ~np.array(held))
        assert not np.all(needed)
