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

Disjoint pairs are cell pairs of varmatern.farfield. The far cells, of
farfield.cell_sizes, take the blocks of the admissible partition whose
kernel their Chebyshev interpolant resolves, from the largest cells down;
every pair they leave is a pair of one-element cells under tensor Gauss,
whose order falls with the offset k, min(n, n_far(k)) with n_far from
FAR_BREAKS and FAR_ORDERS, except where kappa h > 1, where every offset
keeps n. The element cells go over the offsets in bands of one order, in
passes of whole offsets (_passes), the far cells of each size in passes of a
bounded number of distinct grids (_far_passes); each pass's pairs are
ordered by offset and then by first cell. On the uniform mesh the pairs of
one offset share their distance grid, so a pair's kernel grid is set by its
offset and by the runs of equal s, at its cells' nodes, that hold its two
cells: each distinct (offset, run, run) of a pass is evaluated once, by
farfield.kernel_grids, directly or from its beta table. The cross blocks of
a cell offset go onto A in one strided add per farfield._BLOCK_BYTES of
them, and the self blocks are summed per element and reach its band once.

assemble_stiffness runs four phases, each a module function that adds into
one A and returns its part of the manifest: _add_near_field (identical and
vertex-sharing pairs), _add_far_cells, _add_element_pairs (the disjoint
pairs the far cells leave, then every self block) and _add_weighted_mass
(A1). A is summed in place over the N unknowns: entries of exterior nodes
are dropped as they arrive, A2 is accumulated on its upper triangle, and A1
adds its diagonal and superdiagonal. A stays on its upper triangle, which is
all that linalg.cholesky reads, until AssembledSystem.a is first read: that
mirrors it in place, so A read there is exactly symmetric.

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
from numpy.lib.stride_tricks import as_strided
from scipy import sparse
from scipy.linalg import cholesky_banded

from . import farfield, smoothness
from .farfield import AssemblyError, _distinct_rows
from .kernel import _phi_from_beta
from .kernel import bessel_k  # noqa: F401  (perfbench/spans.py traces this name)
from .linalg import _mirror_upper, cholesky
from .mesh import adjacent_pair_maps, hat_eval
from .quadrature import gauss_legendre_01, quadrature_order

__all__ = [
    "AssemblyError",
    "AssembledSystem",
    "assemble_plain_mass",
    "assemble_weighted_mass",
    "assemble_stiffness",
]


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


class AssembledSystem:
    """Assembled system: dense stiffness A = A1 + A2, with the plain mass M
    and the weighted mass A1 as tridiagonal CSR arrays, all on the N interior
    unknowns (ascending coordinates). A is held on the upper triangle of its
    array, and ``a`` mirrors it in place on its first read, so ``a`` is
    exactly symmetric (a full symmetric A passed in reads back bitwise
    unchanged). The Cholesky factors, dense for A and lower-bidiagonal CSR
    for M, are computed lazily and cached; A's factor reads only the upper
    triangle, so factoring never mirrors, and A is checked for finiteness
    there, once (a non-finite entry raises AssemblyError naming the
    stiffness). A's one N x N array lives
    A -> L -> C: ``stiffness_cholesky`` factors A in its own storage, and
    ``a`` is gone from then on; ``analytic_covariance`` takes the factor over
    (``take_stiffness_cholesky``) and overwrites it with the covariance, and
    ``stiffness_cholesky`` is gone from then on.
    """

    def __init__(self, mesh, ctx, a, m, a1, quad_meta):
        self.mesh = mesh
        self.ctx = ctx
        self.n = a.shape[0]
        self._a = a
        self._a_mirrored = False
        self.m = m
        self.a1 = a1
        self.quad_meta = dict(quad_meta)
        self._chol_a = None
        self._chol_m = None

    @property
    def a(self):
        if self._a is None:
            raise AttributeError("A is gone: stiffness_cholesky factored it in its own storage")
        if not self._a_mirrored:
            _mirror_upper(self._a)
            self._a_mirrored = True
        return self._a

    @property
    def stiffness_cholesky(self):
        if self._chol_a is None:
            if self._a is None:
                raise AttributeError("A's factor is gone: analytic_covariance overwrote it with C")
            a, self._a = self._a, None
            try:
                self._chol_a = cholesky(a, overwrite_a=True)
            except ValueError as exc:  # a non-finite entry, the one check of A
                raise AssemblyError(f"stiffness: {exc}") from exc
        return self._chol_a

    def take_stiffness_cholesky(self):
        """A's factor, handed over to be overwritten; the system holds neither
        A nor its factor from then on."""
        lower, self._chol_a = self.stiffness_cholesky, None
        return lower

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


def _phi_both(kappa, betas, r):
    """The two beta grids of a row chunk and phi on each at the distances r
    (both of r's shape), from one _phi_from_beta call on the grids stacked
    along the leading axis: the series costs a fixed time per call."""
    b = np.concatenate(betas)
    ph = _phi_from_beta(kappa, b, np.concatenate((r, r)))
    return np.split(b, 2), np.split(ph, 2)


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

    def anchored(b, ph, s):
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

    def summed(e):
        b, ph = _phi_both(ctx.kappa, [beta[first[e]] for beta in betas], r[e])
        return anchored(b[0], ph[0], s_up[e]) + anchored(b[1], ph[1], s_up[e])

    return _by_rows(summed, first.size)[inverse], first.size


def _identical_q_signs(mesh, e):
    # Slopes of the two supporting hats through the element, from the map.
    tmap = mesh.affine_map(e)
    return np.array(
        [
            hat_eval(mesh, node, tmap(1.0)) - hat_eval(mesh, node, tmap(0.0))
            for node in (e, e + 1)
        ]
    )


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
        b_halves, ph_halves = _phi_both(ctx.kappa, [beta[first[p]] for beta in betas], r)
        for b, ph, p_fac in zip(b_halves, ph_halves, (p_half1, p_half2)):
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


def _add_upper_blocks(a, first, blocks):
    """A[e + i - first, e + j - first] += blocks[e, i, j] for every i <= j and
    e that land in A, entry by entry in row-major order; ``first`` is the
    mesh node of A's first row and column."""
    n = a.shape[0]
    for i in range(blocks.shape[1]):
        for j in range(i, blocks.shape[2]):
            e0, e1 = max(first - i, 0), min(len(blocks), n + first - j)
            if e1 > e0:
                start = (e0 + i - first) * (n + 1) + j - i
                a.ravel()[start : start + (e1 - e0) * (n + 1) : n + 1] += blocks[e0:e1, i, j]


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


def _far_candidates(cells, regular, taken):
    """The pairs (c, c + d) of far ``cells`` CELL_SEPARATION or more cells
    apart that are both ``regular``, not both exterior and not ``taken``
    (count, count) by larger cells, ordered by d and then by c. The
    condition is one mask over the cell pairs, stored with ``count`` zero
    columns after it and read along its diagonals: row d of the skewed view
    holds the pairs (c, c + d), and nothing past the last cell."""
    n = cells.count
    mask = np.zeros((n, 2 * n), dtype=bool)
    pairs = mask[:, :n]
    np.logical_and(regular[:, None], regular[None, :], out=pairs)
    pairs &= ~(cells.exterior[:, None] & cells.exterior[None, :])
    pairs &= ~taken
    diagonals = as_strided(mask, (n, n), (mask.strides[1], mask.strides[0] + mask.strides[1]))
    d, c = np.nonzero(diagonals[farfield.CELL_SEPARATION :])
    return c, d + farfield.CELL_SEPARATION


def _far_passes(cells, c, d):
    """The pairs (c, c + d) of far ``cells``, ordered by d, in passes whose
    distinct kernel grids G hold at most _CHUNK_POINTS points and make at
    most farfield._BLOCK_BYTES of W G, and at least one grid."""
    p = cells.t.size
    grids = max(1, min(_CHUNK_POINTS // p**2, farfield._BLOCK_BYTES // (8 * (cells.size + 1) * p)))
    key = _distinct_rows(d, cells.runs[c], cells.runs[c + d])[1]
    i = 0
    while i < c.size:
        j = int(np.searchsorted(key, key[i] + grids))
        yield c[i:j], d[i:j]
        i = j


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


def _add_near_field(a, mesh, ctx, rule):
    """The identical and vertex-sharing pairs onto A, under tensor Gauss of
    ``rule`` in the transformed variables. Each run of equal integrands is
    evaluated once; returns the run counts, quad_meta's "near_field_keys"."""
    n_el, h, first = mesh.n_elements, mesh.h, mesh.first_interior_node
    el_max = _element_order_max(ctx.profile, h, mesh.nodes[:n_el])
    ext = ~mesh.element_interior
    elements = np.arange(n_el)
    # identical pairs: one value per element, both anchors averaged
    vals, identical = _identical_common(ctx, h, rule, el_max, mesh.nodes[: n_el + 1])
    vals = _kept_finite(vals, ~ext, "identical", elements, elements)
    q = _identical_q_signs(mesh, 0)
    _add_upper_blocks(a, first, vals[:, None, None] * np.outer(q, q))
    # vertex-sharing pairs
    alpha, delta = _adjacent_delta_coeffs(mesh, 0)
    s_up = 0.5 * (el_max[:-1] + el_max[1:])
    adj, vertex_sharing = _adjacent_blocks(ctx, h, rule, s_up, mesh.nodes[1:n_el], alpha, delta)
    adj = _kept_finite(adj, ~(ext[:-1] & ext[1:]), "vertex-sharing", elements[:-1], elements[1:])
    _add_upper_blocks(a, first, 2.0 * adj)
    return {"identical": identical, "vertex_sharing": vertex_sharing}


def _add_far_cells(a, mesh, ctx):
    """The far cell pairs onto A, from the largest cells down. Returns the
    mask ``far`` of the CELL_SIZE cell pairs whose blocks they took (the
    leaves), their self blocks summed per element, (n_el, 2, 2), and
    quad_meta's "far_cells" but for its "element_pairs"."""
    n_el = mesh.n_elements
    sizes = farfield.cell_sizes(mesh, ctx.kappa)
    cell_pairs = dict.fromkeys(map(str, sizes), 0)
    far = np.zeros((n_el // farfield.CELL_SIZE + 1,) * 2, dtype=bool)
    self_blocks = np.zeros((n_el, 2, 2))
    for size in sizes[::-1]:
        cells, regular = farfield.far_cells(mesh, ctx.profile, size)
        scale = size // farfield.CELL_SIZE
        leaves = slice(0, cells.count * scale, scale)
        pairs = _far_candidates(cells, regular, far[leaves, leaves])
        for cell, d in _far_passes(cells, *pairs):
            g, inverse = cells.grids(ctx, cell, d)
            ok = farfield.resolved(g)[inverse]
            if not np.any(ok):
                continue
            cell, d = cell[ok], d[ok]
            leaf = cell[:, None] * scale + np.arange(scale)
            far[leaf[:, :, None], leaf[:, None, :] + (d * scale)[:, None, None]] = True
            cells.add(a, cell, d, g, inverse[ok])
            cell_pairs[str(size)] += cell.size
        self_blocks += cells.self_blocks()
    return far, self_blocks, {
        "cell_size": farfield.CELL_SIZE,
        "order": farfield.CELL_ORDER,
        "separation": farfield.CELL_SEPARATION,
        "cell_pairs": sum(cell_pairs.values()),
        "cell_pairs_by_size": cell_pairs,
    }


def _add_element_pairs(a, mesh, ctx, n, far, self_blocks):
    """The disjoint element pairs that the far cells (``far``) leave onto A,
    as pairs of one-element cells in the order bands of _disjoint_orders;
    then their self blocks, summed into the far cells' ``self_blocks``, all
    onto A's band at once. Returns the bands, quad_meta's
    "disjoint_orders", and the number of element pairs."""
    n_el = mesh.n_elements
    ext = ~mesh.element_interior
    cell_of = np.minimum(np.arange(n_el) // farfield.CELL_SIZE, far.shape[0] - 1)

    def covered(e, f):
        return (ext[e] & ext[f]) | far[cell_of[e], cell_of[f]]

    needed = farfield.needed(mesh, far)
    element_pairs = 0
    bands = _disjoint_orders(n_el, n, ctx.kappa * mesh.h)
    for k_first, k_last, order in bands:
        level = farfield.element_cells(mesh, ctx.profile, order)
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
    _add_upper_blocks(a, mesh.first_interior_node, 2.0 * self_blocks)
    return bands, element_pairs


def _add_weighted_mass(a, mesh, ctx, rule):
    """A1, from assemble_weighted_mass under ``rule``, onto A's diagonal and
    superdiagonal; returns A1."""
    a1 = assemble_weighted_mass(mesh, ctx, rule)
    diagonals = a.ravel()
    diagonals[:: a.shape[0] + 1] += a1.diagonal()
    diagonals[1 :: a.shape[0] + 1] += a1.diagonal(1)
    return a1


def assemble_stiffness(mesh, ctx, n=None):
    """Assemble the full system (stiffness A = A1 + A2, plain mass M).

    ``n`` is the tensor-Gauss order of the near field, of A1 and of the
    nearest disjoint pairs; when omitted it comes from the log(1/h) rule of
    quadrature_order with its defaults. Four phases add into one A, on its
    upper triangle and over the N unknowns only, in turn: the near field,
    the far cells, the element pairs they leave and A1. The system mirrors
    A when ``a`` is first read. quad_meta records n as "n_disjoint",
    farfield.BETA_DEGREE as "beta_degree" and what each phase returns.
    Raises AssemblyError naming the first kept pair whose block is not
    finite, or when the beta table does not resolve the kernel; A itself is
    checked where it is factored (``stiffness_cholesky``).
    """
    profile = ctx.profile
    if n is None:
        n = quadrature_order(mesh.h, profile.s_upper, profile.s_lower)
    n = int(n)
    rule = gauss_legendre_01(n)
    a = np.zeros((mesh.interior_node_count,) * 2)
    near_field_keys = _add_near_field(a, mesh, ctx, rule)
    far, self_blocks, far_cells = _add_far_cells(a, mesh, ctx)
    bands, far_cells["element_pairs"] = _add_element_pairs(a, mesh, ctx, n, far, self_blocks)
    a1 = _add_weighted_mass(a, mesh, ctx, rule)
    quad_meta = {
        "n_disjoint": n,
        "disjoint_orders": bands,
        "beta_degree": farfield.BETA_DEGREE,
        "near_field_keys": near_field_keys,
        "far_cells": far_cells,
    }
    return AssembledSystem(mesh, ctx, a, assemble_plain_mass(mesh), a1, quad_meta)
