"""The far field of the disjoint element pairs: the kernel interpolated on
pairs of cells.

The elements group into cells of CELL_SIZE. Away from x = y the kernel
g = phi r^(-1 - 2 beta) is analytic on a pair of cells wherever s is, so a
cell pair CELL_SEPARATION or more cells apart takes g from its interpolant on
CELL_ORDER x CELL_ORDER Chebyshev points: the degenerate-kernel step of
hierarchical matrices, on one level (Boerm, Grasedyck & Hackbusch,
Hierarchical Matrices, 2003, ch. 2-3; Ainsworth & Glusa use cluster methods
for the integral fractional Laplacian, 2018). On the uniform mesh the
moments of the interpolant's Lagrange functions against the hats are the
same in every cell, so a cell pair adds -h^2 W G W^T to the cross entries of
A2 and its self blocks come from G mu. The element path of the assembly
takes every pair the far field leaves. Both evaluate their kernel grids
through kernel_grids, and the Chebyshev helpers here serve its beta table.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import smoothness
from .kernel import _phi_from_beta
from .quadrature import gauss_legendre_01

# The far field: cells of CELL_SIZE elements, a pair of cells CELL_SEPARATION
# or more cells apart interpolated on CELL_ORDER Chebyshev points per cell.
# Against order-24 direct blocks (gaussian bumps on [0.35, 0.85] and [0.01,
# 0.99], the oscillatory ramp, kappa in {0.5, 2.5, 10}, levels 7 and 8) the
# element-pair blocks of cell pairs 3 and 4 apart stay within 2.9e-13 of
# themselves at order 16; order 14 gives 1.5e-11 and order 12 1.1e-9, and
# cells 2 apart give 2.9e-10 at order 16 and 2.9e-13 only at order 20.
# Where kappa CELL_SIZE h is large, or s changes fast across a cell, a
# fixed order does not suffice: a cell pair whose last two Chebyshev
# coefficients in either variable exceed CELL_TAIL_RTOL of its smallest
# kernel value keeps the element path. That estimate ran 50 to 1500 times
# above the block error over the same profiles, kappa in {0.5, 10, 50}
# and levels 4 to 8 (bumps as narrow as sigma = 0.1 too).
CELL_SIZE = 16
CELL_ORDER = 16
CELL_SEPARATION = 3
CELL_TAIL_RTOL = 1e-11

# Candidate cell pairs per pass of the far field (whole cell offsets, so at
# least the pairs of one): their beta and kernel grids take about 0.25 MB
# each. Passes of 256 pairs split across offsets left 0.4 MB more resident
# after a level-8 assembly, and the covariance that followed peaked higher
# by as much.
_CELL_PAIRS = 128


def _chebyshev(count):
    """The ``count`` Chebyshev points of the first kind on [-1, 1] and the map
    from values there to the coefficients of their interpolant."""
    j = np.arange(count)
    theta = np.pi * (j + 0.5) / count
    to_coef = 2.0 / count * np.cos(np.outer(j, theta))
    to_coef[0] *= 0.5
    return np.cos(theta), to_coef


def _clenshaw(coef, t):
    """sum_j coef[j] T_j(t); coef[j] broadcasts against t."""
    two_t = 2.0 * t
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    tmp = np.empty_like(t)
    for c in coef[:0:-1]:
        np.multiply(two_t, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    return coef[0] + t * b1 - b2


def kernel_grids(kappa, table, r, beta, group, ks):
    """The kernel g = phi r^(-1 - 2 beta) of disjoint pairs on the beta grids
    ``beta`` (B, m, m), grid i at the distances r[group[i]] (r holds one
    grid per offset, ``group`` ascends); ks[j] is the element offset of
    r[j], which errors name.

    The only kernel evaluator of the disjoint pairs, for the element path
    and the far cells alike. Orders outside the bounds of the beta ``table``
    raise first. Grids that number at most the table's degree + 1 nodes per
    distance grid (a piecewise-constant profile) are evaluated directly;
    more than that cost less from the table: its series on the distance
    grids, chopped where its tail is negligible, summed by one Clenshaw pass
    per distance grid.
    """
    table.check(beta, ks[group])
    if beta.shape[0] <= (table.degree + 1) * r.shape[0]:
        r = r[group]
        return _phi_from_beta(kappa, beta, r) * r ** (-1.0 - 2.0 * beta)
    log_growth = np.log(np.maximum(4.0, 2.0 * kappa * r))
    coef = table.coefficients(kappa, r, log_growth, ks)
    g = np.empty_like(beta)
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    for i0, i1 in zip(starts, np.append(starts[1:], group.size)):
        j, b = group[i0], beta[i0:i1]
        f = _clenshaw(coef[:, j], (b - table.mid) / table.half)
        g[i0:i1] = f * np.exp((0.5 + b) * (log_growth[j] - 2.0 * np.log(r[j])))
    return g


def _distinct_rows(*keys):
    """The rows to evaluate, here and in the assembly: the first row of each
    run of equal keys along the leading axis, and for every row the index of
    its run. Equal keys that are not next to each other start a
    run each."""
    rows = len(keys[0])
    new = np.arange(rows) == 0
    for key in keys:
        key = key.reshape(rows, -1)
        new[1:] |= np.any(key[1:] != key[:-1], axis=1)
    return np.flatnonzero(new), np.cumsum(new) - 1


class _FarCells:
    """The far field on cells of CELL_SIZE consecutive elements (the last
    n_el mod CELL_SIZE elements form none).

    A cell pair CELL_SEPARATION or more cells apart takes the kernel from its
    interpolant on the tensor grid of CELL_ORDER Chebyshev points in each
    cell. The interpolant's Lagrange functions have the same moments on the
    k-th element of every cell, so the pair's blocks are matrix products of
    its kernel grid G with moments computed once: the node-by-node cross
    block -h^2 W G W^T, and the self blocks of its first and second cell
    from G mu and G^T mu, mu the cell integrals. The cell pairs of one cell
    offset share one distance grid; each distinct beta grid among them is
    evaluated once, by kernel_grids with the beta ``table``. The candidate
    pairs go in passes of whole offsets, about _CELL_PAIRS at a time. A
    pair joins the far field only if both cells are regular (all interior
    or all exterior, with no breakpoint of s inside), they are not both
    exterior, and the last two Chebyshev coefficients of its grid in either
    variable stay within CELL_TAIL_RTOL of its smallest kernel value; every
    other pair keeps the element path.
    """

    def __init__(self, mesh, profile, table):
        size, p = CELL_SIZE, CELL_ORDER
        self.mesh = mesh
        self.table = table
        self.count = n = mesh.n_elements // size
        tau, self.to_coef = _chebyshev(p)
        self.t = 0.5 * (1.0 + tau)  # the nodes in cell lengths
        lefts = mesh.nodes[: n * size : size]
        rights = mesh.nodes[size : (n + 1) * size : size]
        self.s = smoothness.evaluate(profile, lefts[:, None] + (rights - lefts)[:, None] * self.t)
        ext = ~mesh.element_interior[: n * size].reshape(n, size)
        self.exterior = np.all(ext, axis=1)
        breaks = np.array(smoothness._breakpoints(profile, mesh.nodes[0], mesh.nodes[-1]))
        broken = np.searchsorted(breaks, rights) > np.searchsorted(breaks, lefts, "right")
        self.regular = (self.exterior | ~np.any(ext, axis=1)) & ~broken
        # moments on the elements of one cell: Gauss of this order is exact
        # for psi_a psi_b L_i, of degree p + 1
        rule = gauss_legendre_01(p // 2 + 1)
        u = 2.0 * (np.arange(size)[:, None] + rule.nodes) / size - 1.0
        lagrange = np.cos(np.arccos(u)[..., None] * np.arange(p)) @ self.to_coef
        psi = np.stack([1.0 - rule.nodes, rule.nodes])
        self.m1 = np.einsum("q,aq,jqi->jai", rule.weights, psi, lagrange)
        self.m2 = np.einsum("q,aq,bq,jqi->jabi", rule.weights, psi, psi, lagrange)
        self.mu = self.m1.sum(axis=(0, 1))
        self.w = np.zeros((size + 1, p))
        self.w[:-1] += self.m1[:, 0]
        self.w[1:] += self.m1[:, 1]
        # (cell of the first element, cell of the second) in the far field;
        # the last index stands for the elements past the last cell
        self.far = np.zeros((n + 1, n + 1), dtype=bool)
        self.cell_of = np.minimum(np.arange(mesh.n_elements) // size, n)

    def covered(self, first, second):
        """Whether the element pairs (first, second) are in the far field."""
        return self.far[self.cell_of[first], self.cell_of[second]]

    def needed(self):
        """Per offset k = 0 ... n_el - 1, whether some pair (e, e + k) may
        lie outside the far field: the pairs of offset k lie in cell pairs
        k // CELL_SIZE and k // CELL_SIZE + 1 cells apart."""
        n_el = self.mesh.n_elements
        ext = self.exterior
        if self.count * CELL_SIZE < n_el:
            ext = np.append(ext, np.all(~self.mesh.element_interior[self.count * CELL_SIZE :]))
        m = ext.size
        open_ = np.zeros(m + 1, dtype=bool)
        for d in range(m):
            c = np.arange(m - d)
            open_[d] = np.any(~self.far[c, c + d] & ~(ext[c] & ext[c + d]))
        k = np.arange(n_el)
        q = k // CELL_SIZE
        return open_[q] | ((k % CELL_SIZE > 0) & open_[q + 1])

    def pairs(self):
        """The cell pairs (c, c + d) the far field may take, d at least
        CELL_SEPARATION, ordered by d and then c: both cells regular and not
        both exterior."""
        n = self.count
        d = np.arange(CELL_SEPARATION, max(n, CELL_SEPARATION))[:, None]
        c = np.arange(n)[None, :]
        second = np.minimum(c + d, n - 1)
        ok = (c + d < n) & self.regular[c] & self.regular[second]
        ok &= ~(self.exterior[c] & self.exterior[second])
        d, c = np.nonzero(ok)
        return c, d + CELL_SEPARATION

    def grids(self, ctx, c, d):
        """Kernel grids g[i, j] at (x_i, y_j) of the cell pairs (c, c + d),
        ordered by d, each distinct (d, beta grid) once, and for every pair
        the index of its grid and whether its interpolant resolves the
        kernel."""
        h = self.mesh.h
        beta = 0.5 * (self.s[c, :, None] + self.s[c + d, None, :])
        key, inverse = _distinct_rows(d, beta)
        beta, d = beta[key], d[key]
        first, group = _distinct_rows(d)
        d = d[first]
        r = h * CELL_SIZE * (d[:, None, None] + self.t[None, :] - self.t[:, None])
        g = kernel_grids(ctx.kappa, self.table, r, beta, group, d * CELL_SIZE)
        coef = self.to_coef @ g @ self.to_coef.T
        tail = np.maximum(np.max(np.abs(coef[:, -2:]), axis=(1, 2)),
                          np.max(np.abs(coef[:, :, -2:]), axis=(1, 2)))
        return g, inverse, (tail <= CELL_TAIL_RTOL * np.min(g, axis=(1, 2)))[inverse]

    def add(self, ctx, sums):
        """Add the far field to ``sums`` and mark its cell pairs in ``far``;
        returns the number of cell pairs it holds."""
        size, n = CELL_SIZE, self.count
        h = self.mesh.h
        v = np.zeros((n, CELL_ORDER))
        c_all, d_all = self.pairs()
        # passes of whole cell offsets, at most _CELL_PAIRS pairs unless one
        # offset alone has more
        ends = np.append(np.flatnonzero(np.diff(d_all)) + 1, d_all.size)
        i = 0
        while i < d_all.size:
            later = ends[ends > i]
            fits = later[later <= i + _CELL_PAIRS]
            j = fits[-1] if fits.size else later[0]
            c, d = c_all[i:j], d_all[i:j]
            i = j
            g, inverse, resolved = self.grids(ctx, c, d)
            c, d, inverse = c[resolved], d[resolved], inverse[resolved]
            self.far[c, c + d] = True
            np.add.at(v, c, (g @ self.mu)[inverse])
            np.add.at(v, c + d, (self.mu @ g)[inverse])
            cross = ((-2.0 * h * h) * (self.w @ g @ self.w.T))[inverse]
            starts = np.flatnonzero(np.diff(d, prepend=-1))
            for i0, i1 in zip(starts, np.append(starts[1:], d.size)):
                rows = c[i0:i1] * size - sums.first
                _add_cell_blocks(sums.a, rows, rows + d[i0] * size, size, cross[i0:i1])
        sums.self_blocks[: n * size] += (
            h * h * np.einsum("jabi,ci->cjab", self.m2, v).reshape(-1, 2, 2)
        )
        return int(np.count_nonzero(self.far))


def _add_cell_blocks(a, rows, cols, size, blocks):
    """a[rows[i] + u, cols[i] + w] += blocks[i, u, w] where the index lies in
    a. ``rows`` ascends in multiples of ``size`` and ``cols`` - ``rows`` is
    constant, so blocks ``size`` apart overlap in one row and one column,
    and each half of them, taken in turn, in none."""
    n = a.shape[0]
    inside = (rows >= 0) & (cols + size < n)
    for i in np.flatnonzero(~inside & (rows + size >= 0) & (cols < n)):
        r0, c0 = max(rows[i], 0), max(cols[i], 0)
        r1, c1 = min(rows[i] + size + 1, n), min(cols[i] + size + 1, n)
        a[r0:r1, c0:c1] += blocks[i, r0 - rows[i] : r1 - rows[i], c0 - cols[i] : c1 - cols[i]]
    if np.any(inside):
        rows, cols, blocks = rows[inside], cols[inside], blocks[inside]
        steps = (rows - rows[0]) // size
        if steps[-1] >= steps.size:  # gaps: zero blocks fill them
            dense = np.zeros((steps[-1] + 1,) + blocks.shape[1:])
            dense[steps] = blocks
            blocks = dense
        corner = a[rows[0] :, cols[0] :]
        view = as_strided(
            corner, blocks.shape, (size * (corner.strides[0] + corner.strides[1]),) + corner.strides
        )
        view[0::2] += blocks[0::2]
        view[1::2] += blocks[1::2]
