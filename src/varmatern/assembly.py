"""Assembly of the dense variable-order stiffness and the tridiagonal mass matrices.

The stiffness splits as A = A1 + A2: A1 is the kappa^{2 s(x)}-weighted mass
over interior elements, A2 the nonlocal pair sum over all element pairs.
Vertex-sharing and identical pairs are integrated with the singularity-
resolving changes of variables (Duffy map plus power substitutions whose
exponent uses the pair-local upper order bound, which coincides with the
global bound for constant-order profiles); disjoint pairs use plain tensor
Gauss in the near band and Chebyshev interpolants on cells in the far
field. The anchor of an identical pair and the shared vertex of a
vertex-sharing pair enter their transformed integrands only through beta,
so each integrand is keyed by its s_up and its beta grids: each run of equal
keys along the mesh is evaluated once, a few hundred rows at a time, and
scattered back to its pairs, which on a piecewise-constant profile leaves a
handful of integrands per level.

Far field (varmatern.farfield): pairs of cells of farfield.CELL_SIZE
elements, farfield.CELL_SEPARATION or more cells apart, take the kernel from
its Chebyshev interpolant on the cell pair; each such pair adds its blocks by
matrix products with moments shared by every cell, the pairs of one cell
offset together, and their blocks are never all held at once. A cell that
straddles +-r_int or holds a breakpoint of s inside, a pair whose
interpolant's Chebyshev tail is not negligible, and every pair closer than
the cell separation keep the element path below.

Element path: disjoint pairs are batched by index offset k: on the uniform
mesh every pair of one offset shares the distance grid r_ab = h (k + x_b -
x_a), and only the pair order beta varies. Their tensor-Gauss order falls
with the offset, min(n, n_far(k)) with n_far from FAR_BREAKS and
FAR_ORDERS, except where kappa h > 1, where every offset keeps n; the
offsets go in bands of one order, and each band, less the offsets the far
field covers, in chunks, each holding only the first elements with a pair
left to it. Tensor Gauss reads s only at the quadrature points of each
element, at the nodes of every order in use, so a pair's kernel grid is set
by its offset and by the runs of equal rows of those values that hold its
two elements: each distinct (offset, run, run) of a chunk is evaluated once,
by farfield.kernel_grids, and each pair reads the block of its key. That
evaluator takes the grids directly where they are few per distance grid (a
piecewise-constant profile: one to three per offset), and otherwise from a
table of the kernel on the chunk's distance grids at the BETA_DEGREE + 1
Chebyshev points of [s_lower, s_upper] in beta, its series chopped after the
degree that the chunk needs and summed by Clenshaw. The table holds the
kernel with its growth in nu, max(4, 2 kappa r)^nu / r^(2 nu), divided out;
a table that does not resolve the rest to BETA_TAIL_RTOL raises
AssemblyError. The far cells and the element path hand their blocks to one
accumulator (_DisjointSums): the element self blocks are summed into one
(n_el, 2, 2) array that reaches the band once, and the cross blocks of
offset k go onto the diagonals k - 1, k and k + 1.

A is summed in place over the N unknowns: entries of exterior nodes are
dropped as they arrive, A2 is accumulated on its upper triangle and then
mirrored, and A1 is added by its three diagonals, both off-diagonals taking
the upper entry of its local blocks, so A is exactly symmetric.

Pair bookkeeping: each unordered pair is computed once and off-diagonal
pairs enter with factor 2 (the ordered double sum visits them twice). Pairs
with both elements exterior are skipped. Note the double sum formally runs
over all pairs while the constrained test space only sees unknown indices;
the two agree except that the skipping also drops the exterior tails of the
two hats sitting exactly on +-r_int - a recorded convention whose effect is
confined to the outermost unknowns.

The polynomial factors of the basis differences inside the transformed
integrands are derived from the affine maps at assembly time (not
hard-coded sign tables), and beta is evaluated at mapped physical points,
never frozen per element.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky_banded

from . import farfield, smoothness
from .farfield import _chebyshev, _distinct_rows, _FarCells
from .kernel import _phi_from_beta
from .kernel import bessel_k  # noqa: F401  (perfbench/spans.py traces this name)
from .linalg import cholesky
from .mesh import adjacent_pair_maps, classify_pair, hat_eval
from .quadrature import gauss_legendre_01, quadrature_order

__all__ = [
    "AssemblyError",
    "AssembledSystem",
    "assemble_plain_mass",
    "assemble_weighted_mass",
    "pair_block_identical",
    "pair_block_adjacent",
    "pair_block_disjoint",
    "assemble_stiffness",
]


# Chebyshev degree in beta of the disjoint-pair kernel table.
BETA_DEGREE = 24

# A table whose last two Chebyshev coefficients at some grid point exceed
# this share of the largest one there does not resolve the kernel in beta,
# and assembly fails. It sits a decade under the 1e-10 relative accuracy the
# blocks are held to, and well above the noise of the tabulated values (K_nu
# loses about z eps, 1.6e-13 at the z = 700 underflow cutoff).
BETA_TAIL_RTOL = 1e-11

# Tensor-Gauss order of the disjoint pairs by offset k: n_far(k) is
# FAR_ORDERS[i] for FAR_BREAKS[i - 1] <= k < FAR_BREAKS[i] (10 for k = 2, 4
# from k = 64 on). A pair at offset k is a scaled copy of the same pair at any
# level, so its tensor-Gauss error does not depend on h and falls
# geometrically in k. Each entry is the smallest order that keeps every block
# at the band's first offset within DISJOINT_BLOCK_RTOL of itself against an
# order-24 reference (gaussian bumps on [0.35, 0.85] and [0.01, 0.99], an
# oscillatory ramp, kappa in {0.5, 2.5, 10}, levels 7 and 8; one order less
# misses it by 3x or more). What the table cannot see is how much
# exp(-kappa r) and s vary across one element: on coarser meshes the far
# blocks lose more of themselves (up to 1e-10 at level 4 with kappa h = 0.16,
# 3e-8 at kappa h = 0.63), but they are then too small to matter: A stayed
# within 6e-15 of its max-norm of A with order n at every offset (five
# profile kinds, levels 3 to 8, kappa from 0.001 to 100). Where kappa h > 1
# every offset keeps the order n.
FAR_BREAKS = (3, 6, 24, 64)
FAR_ORDERS = (10, 8, 6, 5, 4)
DISJOINT_BLOCK_RTOL = 1e-12

# The series of the beta table is summed only up to the lowest degree past
# which its coefficients add up to at most this share of the smallest
# tabulated value, at every point of the chunk's grids (after Aurentz &
# Trefethen, "Chopping a Chebyshev series", ACM TOMS 43(4), 2017), so the
# chopped sum stays within it of the full one. Measured against the share
# of the largest coefficient instead, the chopped sum missed the full one by
# up to 1.4e-12 of itself, where the kernel falls steeply in beta.
BETA_CHOP_RTOL = 1e-13

# Pairs per chunk of disjoint offsets: the chunk's blocks, one per pair,
# stay at about 3 MB.
_CHUNK_PAIRS = 2**15

# Points of the distinct kernel grids per chunk of disjoint offsets, taking
# an offset k to hold n_el - k grids, or two per run of equal s if fewer (one
# offset takes more when it alone has more): their orders, Clenshaw
# temporaries and kernel values take 0.25 MB each.
_CHUNK_POINTS = 2**15

# Rows (elements or vertex-sharing pairs) per pass of the near-field
# integrands: their temporaries stay near 2 MB at order 12, well under the
# bytes of A from level 6 on.
_NEAR_ROWS = 256

# Slack on the profile bounds for pair orders that rounding moved past them.
_BETA_ROUNDING = 1e-14


class AssemblyError(RuntimeError):
    """Numerical failure during assembly (non-finite block, bad pair)."""


class AssembledSystem:
    """Assembled system: dense stiffness A = A1 + A2, with the plain mass M
    and the weighted mass A1 as tridiagonal CSR arrays, all on the N interior
    unknowns (ascending coordinates). The Cholesky factors, dense for A and
    lower-bidiagonal CSR for M, are computed lazily and cached.
    """

    def __init__(self, mesh, ctx, a, m, a1, quad_meta):
        self.mesh = mesh
        self.ctx = ctx
        self.a = a
        self.m = m
        self.a1 = a1
        self.quad_meta = dict(quad_meta)
        self._chol_a = None
        self._chol_m = None

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def stiffness_cholesky(self):
        if self._chol_a is None:
            self._chol_a = cholesky(self.a)
        return self._chol_a

    @property
    def mass_cholesky(self):
        if self._chol_m is None:
            bands = [self.m.diagonal(), np.append(self.m.diagonal(-1), 0.0)]
            c = cholesky_banded(bands, lower=True)
            self._chol_m = sparse.diags_array([c[1, :-1], c[0]], offsets=[-1, 0], format="csr")
        return self._chol_m

    def to_manifest(self):
        return {
            "mesh": self.mesh.to_dict(),
            "kernel": self.ctx.to_dict(),
            "quadrature": self.quad_meta,
        }


def assemble_plain_mass(mesh):
    """Mass matrix over D: tridiagonal P1 Gram matrix, assembled exactly.

    The nodes at +-r_int have only one supporting element inside D, so their
    diagonal entry is h/3 instead of 2h/3.
    """
    n = mesh.interior_node_count
    h = mesh.h
    diag = np.full(n, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    off = np.full(n - 1, h / 6.0)
    return sparse.diags_array([off, diag, off], offsets=[-1, 0, 1], format="csr")


def assemble_weighted_mass(mesh, ctx, rule):
    """A1: kappa^{2 s(x)}-weighted mass over interior elements, per-element Gauss."""
    els = np.flatnonzero(mesh.element_interior)
    lefts = mesh.nodes[els]
    xq, wq = rule.nodes, rule.weights
    pts = lefts[:, None] + mesh.h * xq[None, :]
    weight = ctx.kappa ** (2.0 * smoothness.evaluate(ctx.profile, pts))
    psi = np.stack([1.0 - xq, xq])
    local = mesh.h * np.einsum("eq,q,aq,bq->eab", weight, wq, psi, psi)
    # interior element j joins unknowns j and j + 1; both off-diagonals take
    # the (0, 1) entries, as the einsum's (1, 0) entries differ in the last bit
    diag = np.zeros(els.size + 1)
    diag[:-1] += local[:, 0, 0]
    diag[1:] += local[:, 1, 1]
    off = local[:, 0, 1]
    return sparse.diags_array([off, diag, off], offsets=[-1, 0, 1], format="csr")


def _element_order_max(profile, h, lefts):
    """Maximum of s over each element [left, left + h], sampled densely
    (includes the endpoints); ``lefts`` holds the elements' left endpoints.

    Drives the pair-local upper bound used in the singularity-resolving
    substitutions. The substitution is exact for any admissible exponent;
    the local bound keeps the power of the transformed variable near zero,
    which preserves the fast tensor-Gauss convergence even for profiles
    whose order jumps between elements (local and global bounds coincide
    for constant-order profiles).
    """
    samples = np.linspace(0.0, 1.0, 33)
    s_vals = smoothness.evaluate(profile, lefts[:, None] + h * samples[None, :])
    return np.max(s_vals, axis=1)


def _by_rows(fn, count):
    """fn(rows) for slices of _NEAR_ROWS consecutive rows of range(count),
    concatenated along the leading axis."""
    return np.concatenate([fn(slice(i, i + _NEAR_ROWS)) for i in range(0, count, _NEAR_ROWS)])


def _identical_common(ctx, h, rule, s_up, ends):
    """Transformed identical-pair integrands, summed per element.

    Returns the quadrature value of the scalar part for each element
    [ends[e], ends[e + 1]] (the basis-difference product contributes only
    signs q_a q_b = +-1), and the number of integrands evaluated.
    The refinement is anchored at either endpoint (reference origin at the
    left endpoint, then at the right one); both parameterizations are
    exact, and averaging them keeps the matrices of mirror-symmetric
    profiles mirror-symmetric. beta and the regularized factor are
    symmetric, so the two triangle halves agree bitwise: one half doubled at
    each anchor, averaged, is the sum of the two one-half values. The
    anchors enter only through beta, so the key [s_up, beta at both
    anchors] sets an element's integrand, and each run of equal keys is
    evaluated once. s_up has shape (E,), ends (E + 1,).
    """
    zeta = rule.nodes
    t = rule.nodes
    s_up = s_up[:, None, None]
    xi = zeta[None, :, None] ** (1.0 / (3.0 - 2.0 * s_up))  # (E, n, 1)
    one_m_eta = t[None, None, :] ** (1.0 / (2.0 - 2.0 * s_up))  # (E, 1, n)
    betas = [
        _by_rows(
            lambda e: smoothness.beta(
                ctx.profile,
                anchor[e] + sign * h * xi[e] + 0.0 * one_m_eta[e],
                anchor[e] + sign * h * xi[e] * (1.0 - one_m_eta[e]),
            ),
            s_up.size,
        )
        for anchor, sign in ((ends[:-1, None, None], 1.0), (ends[1:, None, None], -1.0))
    ]
    first, inverse = _distinct_rows(s_up, *betas)
    s_up, xi, one_m_eta = s_up[first], xi[first], one_m_eta[first]
    r = h * xi * one_m_eta  # product form: no cancellation
    log_h = np.log(h)
    log_zeta = np.log(zeta)[None, :, None]
    log_t = np.log(t)[None, None, :]

    def summed(b, e):
        ph = _phi_from_beta(ctx.kappa, b, r[e])
        s = s_up[e]
        common = (
            1.0
            / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
            * np.exp(
                (1.0 - 2.0 * b) * log_h
                + (2.0 * s - 2.0 * b) / (3.0 - 2.0 * s) * log_zeta
                + (2.0 * s - 2.0 * b) / (2.0 - 2.0 * s) * log_t
            )
            * ph
        )
        return np.einsum("i,j,eij->e", rule.weights, rule.weights, common)

    left, right = (_by_rows(lambda e: summed(beta[first[e]], e), first.size) for beta in betas)
    return (left + right)[inverse], first.size


def _identical_q_signs(mesh, e):
    # Slopes of the two supporting hats through the element, from the map.
    tmap = mesh.affine_map(e)
    return np.array(
        [
            hat_eval(mesh, node, tmap(1.0)) - hat_eval(mesh, node, tmap(0.0))
            for node in (e, e + 1)
        ]
    )


def pair_block_identical(mesh, ctx, e, n):
    """Local 2x2 block of an element with itself, both triangle halves.

    One half is evaluated from each element endpoint and doubled; the two
    anchored values are averaged (the anchors parameterize the same
    integral; averaging keeps mirror symmetry exact for even profiles).
    Returns (block, (node, node+1)). Row sums vanish: the basis difference
    of the constant function is zero.
    """
    rule = gauss_legendre_01(n)
    s_up = _element_order_max(ctx.profile, mesh.h, mesh.nodes[e : e + 1])
    vals, _ = _identical_common(ctx, mesh.h, rule, s_up, mesh.nodes[e : e + 2])
    q = _identical_q_signs(mesh, e)
    block = np.outer(q, q) * float(vals[0])
    return block, (e, e + 1)


def _adjacent_delta_coeffs(mesh, e_left):
    """(alpha_a, delta_a) of the affine basis difference for a shared-vertex pair.

    Delta psi_a(xhat, yhat) = alpha_a xhat + delta_a yhat for the three
    shared-support nodes; the constant term vanishes because both maps send
    0 to the shared vertex.
    """
    t_left, t_right = adjacent_pair_maps(mesh, e_left, e_left + 1)
    nodes3 = (e_left, e_left + 1, e_left + 2)
    alpha = np.array(
        [hat_eval(mesh, a, t_left(1.0)) - hat_eval(mesh, a, t_left(0.0)) for a in nodes3]
    )
    delta = np.array(
        [-(hat_eval(mesh, a, t_right(1.0)) - hat_eval(mesh, a, t_right(0.0))) for a in nodes3]
    )
    return alpha, delta


def _adjacent_blocks(ctx, h, rule, s_up, shared_coords, alpha, delta):
    """3x3 blocks of vertex-sharing pairs, and the number of integrands
    evaluated; shared_coords and s_up are (P,).

    The shared vertex enters only through beta, so a pair's integrand is set
    by its key [s_up, beta on both triangle halves], and each run of equal
    keys is evaluated once.
    """
    zeta = rule.nodes
    eta = rule.nodes
    w = rule.weights
    s_up = s_up[:, None, None]
    xi = zeta[None, :, None] ** (1.0 / (3.0 - 2.0 * s_up))  # (P, n, 1)
    p_half1 = alpha[:, None] + delta[:, None] * eta[None, :]  # p_a(eta), half 1
    p_half2 = alpha[:, None] * eta[None, :] + delta[:, None]  # half 2

    def beta_half(p, swap):
        x_scale = xi[p] + 0.0 * eta[None, None, :]
        y_scale = xi[p] * eta[None, None, :]
        if swap:
            x_scale, y_scale = y_scale, x_scale
        shared = shared_coords[p, None, None]
        return smoothness.beta(ctx.profile, shared - h * x_scale, shared + h * y_scale)

    betas = [_by_rows(lambda p: beta_half(p, swap), s_up.size) for swap in (False, True)]
    first, inverse = _distinct_rows(s_up, *betas)
    s_up, xi = s_up[first], xi[first]
    log_h = np.log(h)
    log_zeta = np.log(zeta)[None, :, None]

    def blocks_of(p):
        s = s_up[p]
        r = h * xi[p] * (1.0 + eta[None, None, :])  # same for both halves
        blocks = np.zeros((r.shape[0], 3, 3))
        for b, p_fac in zip((beta[first[p]] for beta in betas), (p_half1, p_half2)):
            ph = _phi_from_beta(ctx.kappa, b, r)
            common = (
                1.0
                / (3.0 - 2.0 * s)
                * np.exp(
                    (1.0 - 2.0 * b) * log_h
                    + (2.0 * (s - b) / (3.0 - 2.0 * s)) * log_zeta
                )
                * (1.0 + eta[None, None, :]) ** (-(1.0 + 2.0 * b))
                * ph
            )
            s_eta = np.einsum("i,pij->pj", w, common)
            blocks += np.einsum("pj,j,aj,bj->pab", s_eta, w, p_fac, p_fac)
        return blocks

    return _by_rows(blocks_of, first.size)[inverse], first.size


def pair_block_adjacent(mesh, ctx, e_left, e_right, n):
    """Local 3x3 block of a vertex-sharing pair over its shared-support nodes.

    Maps are oriented so both send 0 to the shared vertex; violations raise.
    Returns (block, (e_left, e_left+1, e_left+2)) in geometric node indices.
    """
    if classify_pair(mesh, e_left, e_right) != "vertex_sharing":
        raise AssemblyError(f"elements ({e_left}, {e_right}) do not share a vertex")
    rule = gauss_legendre_01(n)
    el_max = _element_order_max(ctx.profile, mesh.h, mesh.nodes[[e_left, e_right]])
    s_up = np.array([0.5 * (el_max[0] + el_max[1])])
    alpha, delta = _adjacent_delta_coeffs(mesh, e_left)
    shared = np.array([mesh.nodes[e_left + 1]])
    blocks, _ = _adjacent_blocks(ctx, mesh.h, rule, s_up, shared, alpha, delta)
    block = blocks[0]
    return block, (e_left, e_left + 1, e_left + 2)


def _blocks_from_kernel(g, h, rule):
    """2x2 blocks (sxx, sxy, syy) along axis 1, shape (P, 3, 2, 2), from
    kernel values g[p, a, b] at (x_a, y_b): one matrix product of the P
    kernel grids with the tensor-Gauss weights of the twelve entries."""
    xq, wq = rule.nodes, rule.weights
    psi = np.stack([1.0 - xq, xq])
    weights = np.stack(
        [
            np.einsum("a,b,ia,ja->abij", wq, wq, psi, psi),
            -np.einsum("a,b,ia,jb->abij", wq, wq, psi, psi),
            np.einsum("a,b,ib,jb->abij", wq, wq, psi, psi),
        ],
        axis=2,
    ).reshape(rule.n * rule.n, 12)
    return (h * h * (g.reshape(-1, rule.n * rule.n) @ weights)).reshape(-1, 3, 2, 2)


def _disjoint_blocks_direct(ctx, h, lefts_x, lefts_y, rule):
    """(sxx, sxy, syy) 2x2 blocks for disjoint pairs, direct tensor Gauss."""
    xq = rule.nodes
    x = lefts_x[:, None] + h * xq[None, :]
    y = lefts_y[:, None] + h * xq[None, :]
    s_x = smoothness.evaluate(ctx.profile, x)
    s_y = smoothness.evaluate(ctx.profile, y)
    b = 0.5 * (s_x[:, :, None] + s_y[:, None, :])
    r = np.abs(x[:, :, None] - y[:, None, :])
    nu = 0.5 + b
    g = _phi_from_beta(ctx.kappa, b, r) * r ** (-2.0 * nu)
    return tuple(_blocks_from_kernel(g, h, rule).transpose(1, 0, 2, 3))


def pair_block_disjoint(mesh, ctx, e1, e2, n):
    """Local symmetric block of a disjoint pair over its four supporting nodes.

    Layout: rows/cols (e1, e1+1, e2, e2+1) in geometric node indices. The
    kernel is evaluated directly; disjoint pairs keep r >= h away from the
    singularity.
    """
    if classify_pair(mesh, e1, e2) != "disjoint":
        raise AssemblyError(f"elements ({e1}, {e2}) are not disjoint")
    rule = gauss_legendre_01(n)
    sxx, sxy, syy = _disjoint_blocks_direct(
        ctx, mesh.h, np.array([mesh.nodes[e1]]), np.array([mesh.nodes[e2]]), rule
    )
    block = np.block([[sxx[0], sxy[0]], [sxy[0].T, syy[0]]])
    return block, (e1, e1 + 1, e2, e2 + 1)


def _band_add(a, first, dr, dc, vec):
    """A[e + dr - first, e + dc - first] += vec[e] for every e that lands in
    A (dc >= dr); ``first`` is the mesh node of A's first row and column."""
    n = a.shape[0]
    e0 = max(first - dr, 0)
    e1 = min(vec.size, n + first - dc)
    if e1 > e0:
        start = (e0 + dr - first) * (n + 1) + dc - dr
        a.ravel()[start : start + (e1 - e0) * (n + 1) : n + 1] += vec[e0:e1]


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise AssemblyError(f"non-finite entries while assembling {what}")


class _BetaTable:
    """Chebyshev nodes of [s_lower, s_upper] in beta and the map from kernel
    values at those nodes to Chebyshev coefficients (first kind)."""

    def __init__(self, profile):
        self.lower = profile.s_lower
        self.upper = profile.s_upper
        self.degree = BETA_DEGREE
        self.mid = 0.5 * (self.lower + self.upper)
        self.half = 0.5 * (self.upper - self.lower)
        tau, self.to_coef = _chebyshev(self.degree + 1)
        self.nodes = self.mid + self.half * tau

    def coefficients(self, kappa, r, log_growth, ks):
        """Coefficients in t of F = phi / max(4, 2 kappa r)^nu on the grids
        r (one per offset in ``ks``, shape (len(ks), m, m)), shape
        (chop + 1,) + r.shape; raises when unresolved.

        ``log_growth`` is log max(4, 2 kappa r). phi grows like 4^nu where
        kappa r is small and like (2 kappa r)^nu where it is large; dividing
        that out leaves no growth in beta that depends on r or kappa, which
        is what lets one fixed degree resolve every r and kappa. Grid points
        where the kernel underflows to 0 count as resolved. The series is
        chopped after the lowest degree past which the coefficients add up
        to at most BETA_CHOP_RTOL of the smallest tabulated value, at every
        grid point."""
        b = self.nodes.reshape((-1,) + (1,) * r.ndim)
        values = _phi_from_beta(kappa, b, r) * np.exp(-(0.5 + b) * log_growth)
        coef = np.tensordot(self.to_coef, values, axes=1)
        largest = np.max(np.abs(coef), axis=0)
        trailing = np.max(np.abs(coef[-2:]), axis=0)
        unresolved = trailing > BETA_TAIL_RTOL * largest
        if np.any(unresolved):
            worst = np.max(trailing[unresolved] / largest[unresolved])
            raise AssemblyError(
                f"beta table of degree {self.degree} does not resolve the kernel "
                f"at disjoint offset {ks[np.argwhere(unresolved)[0][0]]}: trailing "
                f"Chebyshev coefficient {worst:.1e} of the largest"
            )
        # dropped[j]: what the terms past degree j add up to at most
        dropped = np.cumsum(np.abs(coef[:0:-1]), axis=0)[::-1]
        too_much = dropped > BETA_CHOP_RTOL * np.min(np.abs(values), axis=0)
        too_much = np.flatnonzero(np.any(too_much.reshape(self.degree, -1), axis=1))
        return coef[: too_much[-1] + 2 if too_much.size else 1]

    def check(self, b, ks):
        """Raise when a pair order leaves the bounds; b holds the beta grids
        (B, m, m) and ks the disjoint offset of each."""
        outside = np.abs(b - self.mid) > self.half + _BETA_ROUNDING
        if np.any(outside):
            raise AssemblyError(
                f"pair order beta leaves the profile bounds [{self.lower}, "
                f"{self.upper}] at disjoint offset {ks[np.argwhere(outside)[0][0]]}"
            )


def _disjoint_orders(n_el, n, kappa_h):
    """Bands [k_first, k_last, order] of the disjoint offsets 2 ... n_el - 1
    that share one tensor-Gauss order, min(n, n_far(k)); n for every offset
    where kappa h > 1."""
    ks = np.arange(2, n_el)
    orders = np.minimum(n, np.take(FAR_ORDERS, np.searchsorted(FAR_BREAKS, ks, "right")))
    if kappa_h > 1.0:
        orders[:] = n
    first = np.flatnonzero(np.diff(orders, prepend=0))
    last = np.append(first[1:], ks.size) - 1
    return [[int(ks[i]), int(ks[j]), int(orders[i])] for i, j in zip(first, last)]


def _offset_chunks(bands, width, needed):
    """(ks, order) for the chunks each band is cut into: its offsets k with
    ``needed[k]``, ascending, ``width(k0, order)`` of them from offset k0 on."""
    for k_first, k_last, order in bands:
        ks = k_first + np.flatnonzero(needed[k_first : k_last + 1])
        while ks.size:
            step = width(int(ks[0]), order)
            yield ks[:step], order
            ks = ks[step:]


def _kept_pairs(mesh, ks, covered=None):
    """The pairs (e, e + k), k in the ascending ``ks``, left to the element
    path: those that exist, are not both exterior and, where ``covered``
    (first, second) is given, are not in the far field. Returns the first
    elements with such a pair, ``rows``, and which of their pairs are kept,
    shape (len(rows), len(ks))."""
    n_el = mesh.n_elements
    first = np.arange(n_el - int(ks[0]))[:, None]
    second = first + ks
    keep = second < n_el
    second = np.minimum(second, n_el - 1)
    ext = ~mesh.element_interior
    keep &= ~(ext[first] & ext[second])
    if covered is not None:
        keep &= ~covered(first, second)
    rows = np.flatnonzero(np.any(keep, axis=1))
    return rows, keep[rows]


def _pair_sums(mesh, ks, rows, keep, blocks):
    """What _DisjointSums.add takes, from the blocks (len(rows), len(ks), 3,
    2, 2) of the pairs (rows[i], rows[i] + ks[j]): the self-block sums (n_el,
    2, 2), sxx on the first and syy on the second element of each kept pair,
    and the cross blocks (2, 2, n_el - ks[0], len(ks)) by first element,
    zero where a pair is not kept. Raises naming the first kept pair whose
    block is not finite."""
    n_el = mesh.n_elements
    second = rows[:, None] + ks
    blocks = _kept_finite(blocks, keep, "disjoint", rows[:, None], second)
    sxx, sxy, syy = np.moveaxis(blocks, 2, 0)
    self_blocks = np.stack(
        [np.bincount(np.minimum(second, n_el - 1).ravel(), entry, n_el)
         for entry in syy.reshape(-1, 4).T],
        axis=1,
        dtype=float,
    ).reshape(n_el, 2, 2)
    self_blocks[rows] += sxx.sum(axis=1)
    cross = np.zeros((2, 2, n_el - int(ks[0]), ks.size))
    cross[:, :, rows] = sxy.transpose(2, 3, 0, 1)
    return self_blocks, cross


def _disjoint_chunk(ctx, mesh, ks, rule, s_q, runs, table, rows, keep):
    """Blocks for the offsets ``ks`` (ascending); ``s_q`` holds s at the
    nodes of ``rule`` in every element, ``runs`` the index of each element's
    run of equal rows of s at the quadrature points (_distinct_rows), and
    ``rows``, ``keep`` the pairs to add (_kept_pairs).

    A pair's kernel grid is set by its offset and the orders at the nodes of
    its two elements, so the kept pairs (rows[i], rows[i] + ks[j]) are keyed
    by (j, run of the first element, run of the second): the grids of the
    distinct keys come from one kernel_grids call and their blocks from one
    _blocks_from_kernel call, and each kept pair reads the block of its key
    (the others are dropped). Returns what _DisjointSums.add takes.
    """
    h = mesh.h
    xq = rule.nodes
    second = np.minimum(rows[:, None] + ks, mesh.n_elements - 1)
    # offset by offset, the runs of both elements ascend along the mesh, so
    # equal keys are neighbours
    j, i = np.nonzero(keep.T)
    key, inverse = _distinct_rows(j, runs[rows[i]], runs[second[i, j]])
    i, j = i[key], j[key]
    beta = 0.5 * (s_q[rows[i], :, None] + s_q[second[i, j], None, :])
    r = h * (ks[:, None, None] + xq[None, None, :] - xq[None, :, None])
    g = farfield.kernel_grids(ctx.kappa, table, r, beta, j, ks)
    index = np.zeros(keep.shape, dtype=int)
    index.T[keep.T] = inverse
    return _pair_sums(mesh, ks, rows, keep, _blocks_from_kernel(g, h, rule)[index])


class _DisjointSums:
    """Disjoint-pair blocks summed onto the upper triangle of A2, held in A
    over the N unknowns (mesh nodes ``first`` ... ``first`` + N - 1); entries
    of exterior nodes are dropped.

    The self blocks (sxx on the first element of a pair, syy on the second)
    collect in one (n_el, 2, 2) array that reaches the band of A once, in
    finish(); the cross blocks of offset k go onto the diagonals k - 1, k
    and k + 1. Every block enters with factor 2: each unordered pair is
    computed once and the ordered double sum visits it twice.
    """

    def __init__(self, a, mesh):
        self.a = a
        self.first = mesh.first_interior_node
        self.self_blocks = np.zeros((mesh.n_elements, 2, 2))

    def add(self, ks, self_blocks, cross):
        """Add self-block sums (n_el, 2, 2) and the cross blocks
        cross[:, :, i, j] of the pairs (i, i + ks[j])."""
        self.self_blocks += self_blocks
        for j, k in enumerate(ks):
            for da, db in ((0, 0), (0, 1), (1, 0), (1, 1)):
                _band_add(self.a, self.first, da, k + db, 2.0 * cross[da, db, :, j])

    def finish(self):
        for da, db in ((0, 0), (0, 1), (1, 1)):
            _band_add(self.a, self.first, da, db, 2.0 * self.self_blocks[:, da, db])


def _mirror_upper(a):
    """Copy the upper triangle of a onto its lower one, 256 rows at a time."""
    for i0 in range(0, a.shape[0], 256):
        i1 = min(i0 + 256, a.shape[0])
        a[i0:i1, :i0] = a[:i0, i0:i1].T
        block = a[i0:i1, i0:i1]
        block[np.tril_indices(i1 - i0, -1)] = block.T[np.tril_indices(i1 - i0, -1)]


def _kept_finite(blocks, keep, what, first, second):
    """``blocks`` (leading axes those of ``keep``) with the skipped pairs
    zeroed. Raises naming the first kept pair whose block is not finite;
    ``first`` and ``second`` broadcast to the elements of the pairs."""
    blocks = np.where(keep.reshape(keep.shape + (1,) * (blocks.ndim - keep.ndim)), blocks, 0.0)
    finite = np.isfinite(blocks).all(axis=tuple(range(keep.ndim, blocks.ndim)))
    if not np.all(finite):
        at = tuple(np.argwhere(~finite)[0])
        e, f = (np.broadcast_to(x, keep.shape)[at] for x in (first, second))
        raise AssemblyError(f"non-finite {what} block for element pair ({e}, {f})")
    return blocks


def assemble_stiffness(
    mesh,
    ctx,
    n=None,
    *,
    c=1.0,
    target_rate=None,
    n_min=4,
    n_max=64,
):
    """Assemble the full system (stiffness A = A1 + A2, plain mass M).

    ``n`` fixes the tensor-Gauss order for every pair class; when omitted it
    is derived from the log(1/h) rule with constant ``c`` and the target
    rate (defaulting to the expected strong rate of the profile).

    The disjoint pairs split into the far field and the near band. The far
    field (farfield._FarCells) holds the pairs of cells of CELL_SIZE
    elements CELL_SEPARATION or more cells apart, where both cells are all
    interior or all exterior, hold no breakpoint of s inside and the
    kernel's interpolant on CELL_ORDER Chebyshev points per cell resolves
    it; each such cell pair adds its cross block and self blocks by matrix
    products with moments shared by every cell. Every other disjoint pair
    (the near band, and the pairs of cells that fail a condition) takes
    tensor Gauss of order min(n, n_far(k)) at offset k, which holds each
    block to DISJOINT_BLOCK_RTOL of itself where kappa h is small; where
    kappa h > 1 they keep n. Each band of one order goes in chunks of at
    most _CHUNK_PAIRS pairs and about _CHUNK_POINTS points of distinct
    kernel grids, a pair's grid being set by its offset and by the runs of
    equal s, at the quadrature points, that hold its two elements. Each
    chunk and each pass of far cells evaluates its distinct grids in one
    farfield.kernel_grids call: directly where they are few (a
    piecewise-constant profile), else from a Chebyshev table in beta of
    degree BETA_DEGREE, chopped where its tail is negligible.

    ``quad_meta`` records the table degree as "beta_degree", the bands as
    "disjoint_orders", [[k_first, k_last, order], ...], and the far field as
    "far_cells", {"cell_size", "order", "separation", "cell_pairs": the
    cell pairs interpolated, "element_pairs": the disjoint element pairs
    left to the element path}; "n_disjoint" is n, the order of the nearest
    pairs. The identical and vertex-sharing pairs evaluate each run of equal
    integrands once; the run counts are "near_field_keys", {"identical":
    ..., "vertex_sharing": ...}. The blocks are checked after they reach
    every pair, so a failure names the first kept pair. A is summed on its
    upper triangle, over the N unknowns only, mirrored, and A1 added by its
    three diagonals. Raises AssemblyError when a kept pair's block is not
    finite or the beta table does not resolve the kernel.
    """
    profile = ctx.profile
    if n is None:
        n = quadrature_order(mesh.h, profile.s_upper, profile.s_lower, c, target_rate,
                             n_min=n_min, n_max=n_max)
    n = int(n)
    rule = gauss_legendre_01(n)

    n_el = mesh.n_elements
    h = mesh.h
    first = mesh.first_interior_node
    el_max = _element_order_max(profile, h, mesh.nodes[:n_el])
    ext = ~mesh.element_interior
    elements = np.arange(n_el)
    # A2 on its upper triangle and over the unknowns only; mirrored below
    a = np.zeros((mesh.interior_node_count,) * 2)

    # identical pairs: one value per element, both anchors averaged
    vals, identical_keys = _identical_common(ctx, h, rule, el_max, mesh.nodes[: n_el + 1])
    vals = _kept_finite(vals, ~ext, "identical", elements, elements)
    q = _identical_q_signs(mesh, 0)
    for da, db in ((0, 0), (0, 1), (1, 1)):
        _band_add(a, first, da, db, q[da] * q[db] * vals)

    # vertex-sharing pairs
    alpha, delta = _adjacent_delta_coeffs(mesh, 0)
    s_up_adj = 0.5 * (el_max[:-1] + el_max[1:])
    adj, adjacent_keys = _adjacent_blocks(
        ctx, h, rule, s_up_adj, mesh.nodes[1:n_el], alpha, delta
    )
    adj = _kept_finite(adj, ~(ext[:-1] & ext[1:]), "vertex-sharing",
                       elements[:-1], elements[1:])
    for da in range(3):
        for db in range(da, 3):
            _band_add(a, first, da, db, 2.0 * adj[:, da, db])

    # disjoint pairs: the far field on cells, then the element path over the
    # offsets k = 2 ... n_el - 1 in bands of one order, for the pairs the
    # cells leave; tensor Gauss reads s only at the quadrature points of
    # each element, here those of every order in use side by side
    bands = _disjoint_orders(n_el, n, ctx.kappa * h)
    orders = sorted({n, *(order for *_, order in bands)})
    xq = np.concatenate([gauss_legendre_01(order).nodes for order in orders])
    s_q = smoothness.evaluate(profile, mesh.nodes[:n_el, None] + h * xq)
    s_by_order = dict(zip(orders, np.split(s_q, np.cumsum(orders)[:-1], axis=1)))
    runs = _distinct_rows(s_q)[1]
    table = _BetaTable(profile)

    def width(k0, order):
        grids = min(n_el - k0, 2 * (runs[-1] + 1))
        return max(1, min(_CHUNK_PAIRS // n_el, _CHUNK_POINTS // (grids * order * order)))

    sums = _DisjointSums(a, mesh)
    cells = _FarCells(mesh, profile, table)
    cell_pairs = cells.add(ctx, sums)
    element_pairs = 0
    for ks, order in _offset_chunks(bands, width, cells.needed()):
        rows, keep = _kept_pairs(mesh, ks, cells.covered)
        if rows.size:
            sums.add(ks, *_disjoint_chunk(ctx, mesh, ks, gauss_legendre_01(order),
                                          s_by_order[order], runs, table, rows, keep))
            element_pairs += int(np.count_nonzero(keep))
    sums.finish()

    _mirror_upper(a)
    a1 = assemble_weighted_mass(mesh, ctx, rule)
    n_int = a.shape[0]
    diagonals = a.ravel()
    diagonals[:: n_int + 1] += a1.diagonal()
    diagonals[1 :: n_int + 1] += a1.diagonal(1)
    diagonals[n_int :: n_int + 1] += a1.diagonal(-1)
    _check_finite(a, "stiffness")
    m = assemble_plain_mass(mesh)
    quad_meta = {
        "n_identical": n,
        "n_adjacent": n,
        "n_disjoint": n,
        "disjoint_orders": bands,
        "n_weighted_mass": n,
        "c": c,
        "target_rate": target_rate,
        "beta_degree": table.degree,
        "near_field_keys": {"identical": identical_keys, "vertex_sharing": adjacent_keys},
        "far_cells": {
            "cell_size": farfield.CELL_SIZE,
            "order": farfield.CELL_ORDER,
            "separation": farfield.CELL_SEPARATION,
            "cell_pairs": cell_pairs,
            "element_pairs": element_pairs,
        },
    }
    return AssembledSystem(mesh, ctx, a, m, a1, quad_meta)
