"""Assembly of the dense variable-order stiffness and the tridiagonal mass matrices.

The stiffness splits as A = A1 + A2: A1 is the kappa^{2 s(x)}-weighted mass
over interior elements, A2 the nonlocal pair sum over all element pairs.
Vertex-sharing and identical pairs are integrated with the singularity-
resolving changes of variables (Duffy map plus power substitutions whose
exponent uses the pair-local upper order bound, which coincides with the
global bound for constant-order profiles). The anchor of an identical pair
and the shared vertex of a vertex-sharing pair enter their transformed
integrands only through beta, so each integrand is keyed by its s_up and its
beta grids: each run of equal keys along the mesh is evaluated once, a few
hundred rows at a time, and scattered back to its pairs, which on a
piecewise-constant profile leaves a handful of integrands per level.

Disjoint pairs are cell pairs of varmatern.farfield, on two cell sizes. The
far cells of farfield.CELL_SIZE elements take the pairs
farfield.CELL_SEPARATION or more cells apart whose kernel their Chebyshev
interpolant resolves; every pair they leave is a pair of one-element cells
under tensor Gauss, whose order falls with the offset k, min(n, n_far(k))
with n_far from FAR_BREAKS and FAR_ORDERS, except where kappa h > 1, where
every offset keeps n. Both sizes go through one loop (_passes): the cell
offsets in bands of one order, in passes of whole offsets, each pass's pairs
ordered by offset and then by first cell. On the uniform mesh the pairs of
one offset share their distance grid, so a pair's kernel grid is set by its
offset and by the runs of equal s, at its cells' nodes, that hold its two
cells: each distinct (offset, run, run) of a pass is evaluated once, by
farfield.kernel_grids. That evaluator takes the grids directly where they
are few per distance grid (a piecewise-constant profile: one to three per
offset), and otherwise from a table of the kernel on the pass's distance
grids at the BETA_DEGREE + 1 Chebyshev points of [s_lower, s_upper] in beta,
its series chopped after the degree that the pass needs and summed by
Clenshaw. The table holds the kernel with its growth in nu,
max(4, 2 kappa r)^nu / r^(2 nu), divided out; a table that does not resolve
the rest to BETA_TAIL_RTOL raises AssemblyError. The cross blocks of a cell
offset go onto A at once, and the self blocks are summed per element and
reach its band once.

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
from .farfield import _chebyshev, _distinct_rows
from .kernel import _phi_from_beta
from .kernel import bessel_k  # noqa: F401  (perfbench/spans.py traces this name)
from .linalg import _mirror_upper, cholesky
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
# tabulated value, at every point of the pass's grids (after Aurentz &
# Trefethen, "Chopping a Chebyshev series", ACM TOMS 43(4), 2017), so the
# chopped sum stays within it of the full one. Measured against the share
# of the largest coefficient instead, the chopped sum missed the full one by
# up to 1.4e-12 of itself, where the kernel falls steeply in beta.
BETA_CHOP_RTOL = 1e-13

# Cell pairs per pass of disjoint offsets, counting every pair an offset
# may hold: their indices stay at about 1 MB.
_CHUNK_PAIRS = 2**15

# Points of the distinct kernel grids per pass of disjoint offsets, taking
# an offset k to hold count - k grids, or two per run of equal s if fewer
# (one offset takes more when it alone has more): their orders, Clenshaw
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
    lower-bidiagonal CSR for M, are computed lazily and cached. A system holds
    A until it is factored: ``stiffness_cholesky`` factors A in its own
    storage, and ``a`` is gone from then on.
    """

    def __init__(self, mesh, ctx, a, m, a1, quad_meta):
        self.mesh = mesh
        self.ctx = ctx
        self.n = a.shape[0]
        self._a = a
        self.m = m
        self.a1 = a1
        self.quad_meta = dict(quad_meta)
        self._chol_a = None
        self._chol_m = None

    @property
    def a(self):
        if self._a is None:
            raise AttributeError("A is gone: stiffness_cholesky factored it in its own storage")
        return self._a

    @property
    def stiffness_cholesky(self):
        if self._chol_a is None:
            a, self._a = self.a, None
            self._chol_a = cholesky(a, overwrite_a=True)
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


def _pairs_left(count, ks, drop):
    """The pairs (c, c + k) of ``count`` cells, k in the ascending ``ks``,
    that exist and that ``drop`` (first, second) leaves, ordered by k and
    then by c."""
    j, c = np.nonzero(np.arange(count) < count - ks[:, None])
    d = ks[j]
    keep = ~drop(c, c + d)
    return c[keep], d[keep]


def _passes(cells, k_first, k_last, needed, drop):
    """The pairs (c, c + d) of ``cells`` that ``drop`` leaves, pass by pass
    over the cell offsets k_first <= k <= k_last with ``needed[k]``,
    ascending, from _pairs_left. A pass holds at most _CHUNK_PAIRS pairs and
    about _CHUNK_POINTS points of distinct kernel grids, taking an offset to
    hold count - k grids, or two per run of equal s if fewer, and at least
    one offset."""
    points = cells.t.size**2
    ks = k_first + np.flatnonzero(needed[k_first : k_last + 1])
    while ks.size:
        grids = min(cells.count - int(ks[0]), 2 * (cells.runs[-1] + 1))
        step = max(1, min(_CHUNK_PAIRS // cells.count, _CHUNK_POINTS // (grids * points)))
        c, d = _pairs_left(cells.count, ks[:step], drop)
        ks = ks[step:]
        if c.size:
            yield c, d


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

    The disjoint pairs are cell pairs (farfield): first the pairs of far
    cells of CELL_SIZE elements CELL_SEPARATION or more cells apart, where
    both cells are all interior or all exterior, hold no breakpoint of s
    inside and the kernel's interpolant on CELL_ORDER Chebyshev points per
    cell resolves it; then every element pair they leave, as a pair of
    one-element cells under tensor Gauss of order min(n, n_far(k)) at offset
    k, which holds each block to DISJOINT_BLOCK_RTOL of itself where kappa h
    is small (where kappa h > 1 they keep n). Each pass of either takes at
    most _CHUNK_PAIRS pairs and about _CHUNK_POINTS points of distinct
    kernel grids, evaluated in one farfield.kernel_grids call: directly
    where they are few (a piecewise-constant profile), else from a
    Chebyshev table in beta of degree BETA_DEGREE, chopped where its tail
    is negligible.

    ``quad_meta`` records the table degree as "beta_degree", the bands as
    "disjoint_orders", [[k_first, k_last, order], ...], and the far field as
    "far_cells", {"cell_size", "order", "separation", "cell_pairs": the
    cell pairs interpolated, "element_pairs": the disjoint element pairs
    left to the element path}; "n_disjoint" is n, the order of the nearest
    pairs. The identical and vertex-sharing pairs evaluate each run of equal
    integrands once; the run counts are "near_field_keys", {"identical":
    ..., "vertex_sharing": ...}. The blocks and kernel grids are checked
    where they reach the pairs, so a failure names the first kept pair. A is
    summed on its upper triangle, over the N unknowns only, mirrored, and A1
    added by its three diagonals. Raises AssemblyError when a kept pair's
    block is not finite or the beta table does not resolve the kernel.
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

    # disjoint pairs: the far cell pairs, then the element pairs they leave
    # over the offsets k = 2 ... n_el - 1, in bands of one order
    table = _BetaTable(profile)
    cells, regular = farfield.far_cells(mesh, profile, table)
    count, size = cells.count, cells.size
    far = np.zeros((count + 1,) * 2, dtype=bool)

    def irregular(i, j):
        return ~(regular[i] & regular[j]) | (cells.exterior[i] & cells.exterior[j])

    for cell, d in _passes(cells, farfield.CELL_SEPARATION, count - 1, np.ones(count, bool),
                           irregular):
        g, inverse = cells.grids(ctx, cell, d)
        ok = farfield.resolved(g)[inverse]
        cell, d = cell[ok], d[ok]
        far[cell, cell + d] = True
        cells.add(a, cell, d, g, inverse[ok])

    cell_of = np.minimum(elements // size, count)

    def covered(e, f):
        return (ext[e] & ext[f]) | far[cell_of[e], cell_of[f]]

    needed = farfield.needed(cells, far)
    self_blocks = cells.self_blocks()
    element_pairs = 0
    bands = _disjoint_orders(n_el, n, ctx.kappa * h)
    for k_first, k_last, order in bands:
        level = farfield.element_cells(mesh, profile, table, order)
        for e, k in _passes(level, k_first, k_last, needed, covered):
            g, inverse = level.grids(ctx, e, k)
            bad = np.flatnonzero(~np.all(np.isfinite(g), axis=(1, 2))[inverse])
            if bad.size:
                i = bad[0]
                raise AssemblyError("non-finite disjoint block for element pair "
                                    f"({e[i]}, {e[i] + k[i]})")
            level.add(a, e, k, g, inverse)
            element_pairs += e.size
        self_blocks += level.self_blocks()
    for da, db in ((0, 0), (0, 1), (1, 1)):
        _band_add(a, first, da, db, 2.0 * self_blocks[:, da, db])

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
            "cell_pairs": int(np.count_nonzero(far)),
            "element_pairs": element_pairs,
        },
    }
    return AssembledSystem(mesh, ctx, a, m, a1, quad_meta)
