"""The disjoint element pairs, assembled as pairs of cells.

A cell is a run of consecutive elements with p nodes, at which a pair of
cells (c, c + d) samples the kernel g = phi r^(-1 - 2 beta) as the grid
G[i, j] = g(x_i, y_j). On the uniform mesh the moments of the nodes' weight
functions against the hats are the same in every cell: W[a, i] by mesh node
a of the cell, mu[i] by node, and m2[k, a, b, i] by element k of the cell
and its hats a, b. So a cell pair adds -h^2 W G W^T to the cross entries of
A2, and h^2 m2 . (G mu) and h^2 m2 . (mu G) to the self blocks of its first
and second cell: the degenerate-kernel step of hierarchical matrices (Boerm,
Grasedyck & Hackbusch, Hierarchical Matrices, 2003, ch. 2-3; Ainsworth &
Glusa use cluster methods for the integral fractional Laplacian, 2018).

An element on the n nodes and weights of tensor Gauss is a cell of one
element, with W[a, i] = w_i psi_a(x_i), mu_i = w_i and m2[0, a, b, i] = w_i
psi_a(x_i) psi_b(x_i), and its cell pairs are the element pairs under tensor
Gauss. The far cells hold CELL_SIZE 2^l elements (8, 16, 32, ...) on
CELL_ORDER Chebyshev points, whose Lagrange functions give the moments. They
pair as the blocks of the admissible partition of a hierarchical matrix
(Hackbusch, Hierarchical Matrices, 2015, ch. 5; Zhao, Hu, Cai & Karniadakis,
CMAME 325, 2017, for 1D fractional stiffness): two cells of one size
CELL_SEPARATION or more cells apart that no larger pair holds take g from its
interpolant where that resolves g, else split in four; cell_sizes stops where
cells are too long to resolve exp(-kappa r). Every kernel grid comes from kernel_grids, the one
evaluator of the disjoint pairs.

kernel_grids takes the grids directly where they are few per distance grid
(a piecewise-constant profile: one to three per offset), and otherwise from
a table of the kernel on the distance grids at the BETA_DEGREE + 1
Chebyshev points of [s_lower, s_upper] in beta (_beta_coefficients), its
series chopped after the degree that the grids need and summed by Clenshaw.
The table holds the kernel with its growth in nu, max(4, 2 kappa r)^nu /
r^(2 nu), divided out; a table that does not resolve the rest to
BETA_TAIL_RTOL, or a pair order outside the profile bounds, raises
AssemblyError.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import smoothness
from .kernel import _phi_from_beta
from .quadrature import gauss_legendre_01

# The far field: cells of CELL_SIZE elements, a pair of cells CELL_SEPARATION
# or more cells apart interpolated on CELL_ORDER Chebyshev points per cell.
# Against order-24 direct blocks (gaussian bumps on [0.35, 0.85] and [0.01,
# 0.99], the oscillatory ramp, kappa in {0.5, 2.5, 10}, levels 7 and 8, 12
# regular cell pairs of 8 elements per offset) the element-pair blocks of
# cell pairs 3 and 4 apart stay within 2.5e-14 of themselves at order 16;
# order 14 gives 2.4e-12 and order 12 1.4e-10, and cells 2 apart give
# 7.7e-11 at order 16 and 7.7e-14 only at order 20. Leaves of 8 elements
# pair from 24 elements apart, where leaves of 16 started at 48, and halve
# the element pairs (28 607 against 59 903 at level 8). On the coarsest
# meshes the leaves take pairs that the element path takes at the capped
# order n: at level 3 (n = 4) with kappa = 0.5, A moves 5.4e-14 of max|A|
# from the element path's, and agrees within 2.5e-16 of it with order-24
# element pairs.
# Where kappa CELL_SIZE h is large, or s changes fast across a cell, a
# fixed order does not suffice: a cell pair whose last two Chebyshev
# coefficients in either variable exceed CELL_TAIL_RTOL of its smallest
# kernel value keeps the element pairs. That estimate ran 50 to 1500 times
# above the block error over the same profiles, kappa in {0.5, 10, 50}
# and levels 4 to 8 (bumps as narrow as sigma = 0.1 too). Larger cells pair
# at the same distance in cell lengths; their check passes less often the
# larger kappa L, L the cell's length (bumps, ramp, step and constant order,
# levels 6 to 8): at cell offsets 3 to 5 a third to a half of the regular
# pairs at kappa L = 2 and next to none at 2.5, over all offsets about 90 %
# at 2.5 (those 6 to 8 or more cells apart) and none at 3. A failed pair costs
# its grid on top of its children's. Below the largest size only cells 3 to 5
# apart pair, so those sizes are no longer than CELL_KAPPA_LENGTH / kappa.
# The largest also takes the farther pairs, so it may reach
# CELL_KAPPA_LARGEST / kappa where more than 2 (CELL_SEPARATION + 1) of its
# cells fit: with 8 cells at kappa L = 2.5 (every level at kappa = 2.5) it
# took no pair, with 32 (kappa = 10) it takes about 300, which the smaller
# sizes would take as about 1800 pairs (bump, level 6: 152 against 235 ms).
# So leaves of 8 elements appear where kappa h <= 0.25, and up to 0.31 where
# more than 8 of them fit.
CELL_SIZE = 8
CELL_ORDER = 16
CELL_SEPARATION = 3
CELL_TAIL_RTOL = 1e-11
CELL_KAPPA_LENGTH = 2.0
CELL_KAPPA_LARGEST = 2.5

# Bytes of the cross blocks one _add_cell_blocks call receives (a pair's take
# more from 256 elements per cell on) and of W G over a far pass's distinct
# grids. With 2 MB the level-6 bump assembly kept 0.6 MB more free heap than
# the one-level far field, which raised the peak RSS of the sampling after it.
_BLOCK_BYTES = 2**19

# Chebyshev degree in beta of the disjoint-pair kernel table.
BETA_DEGREE = 24

# A table whose last two Chebyshev coefficients at some grid point exceed
# this share of the largest one there does not resolve the kernel in beta,
# and assembly fails. It sits a decade under the 1e-10 relative accuracy the
# blocks are held to, and well above the noise of the tabulated values (K_nu
# loses about z eps, 1.6e-13 at the z = 700 underflow cutoff).
BETA_TAIL_RTOL = 1e-11

# The series of the beta table is summed only up to the lowest degree past
# which its coefficients add up to at most this share of the smallest
# tabulated value, at every point of the grids (after Aurentz & Trefethen,
# "Chopping a Chebyshev series", ACM TOMS 43(4), 2017), so the chopped sum
# stays within it of the full one. Measured against the share of the
# largest coefficient instead, the chopped sum missed the full one by up to
# 1.4e-12 of itself, where the kernel falls steeply in beta.
BETA_CHOP_RTOL = 1e-13

# Slack on the profile bounds for pair orders that rounding moved past them.
_BETA_ROUNDING = 1e-14


class AssemblyError(RuntimeError):
    """Numerical failure during assembly (non-finite block, bad pair)."""


@cache
def _chebyshev(count):
    """The ``count`` Chebyshev points of the first kind on [-1, 1] and the map
    from values there to the coefficients of their interpolant, read-only
    (cached per count)."""
    j = np.arange(count)
    theta = np.pi * (j + 0.5) / count
    to_coef = 2.0 / count * np.cos(np.outer(j, theta))
    to_coef[0] *= 0.5
    tau = np.cos(theta)
    tau.flags.writeable = to_coef.flags.writeable = False
    return tau, to_coef


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


def _beta_coefficients(kappa, mid, half, r, log_growth, ks):
    """Coefficients in t of F = phi / max(4, 2 kappa r)^nu, nu = 1/2 + beta,
    beta = mid + half t, from its values at the BETA_DEGREE + 1 Chebyshev
    points in t on the grids r (one per offset in ``ks``, shape (len(ks),
    m, m)), shape (chop + 1,) + r.shape; raises AssemblyError when
    unresolved.

    ``log_growth`` is log max(4, 2 kappa r). phi grows like 4^nu where
    kappa r is small and like (2 kappa r)^nu where it is large; dividing
    that out leaves no growth in beta that depends on r or kappa, which is
    what lets one fixed degree resolve every r and kappa. Grid points where
    the kernel underflows to 0 count as resolved. The series is chopped
    after the lowest degree past which the coefficients add up to at most
    BETA_CHOP_RTOL of the smallest tabulated value, at every grid point."""
    tau, to_coef = _chebyshev(BETA_DEGREE + 1)
    b = (mid + half * tau).reshape((-1,) + (1,) * r.ndim)
    values = _phi_from_beta(kappa, b, r) * np.exp(-(0.5 + b) * log_growth)
    coef = np.tensordot(to_coef, values, axes=1)
    largest = np.max(np.abs(coef), axis=0)
    trailing = np.max(np.abs(coef[-2:]), axis=0)
    unresolved = trailing > BETA_TAIL_RTOL * largest
    if np.any(unresolved):
        worst = np.max(trailing[unresolved] / largest[unresolved])
        raise AssemblyError(
            f"beta table of degree {BETA_DEGREE} does not resolve the kernel "
            f"at disjoint offset {ks[np.argwhere(unresolved)[0][0]]}: trailing "
            f"Chebyshev coefficient {worst:.1e} of the largest"
        )
    # dropped[j]: what the terms past degree j add up to at most
    dropped = np.cumsum(np.abs(coef[:0:-1]), axis=0)[::-1]
    too_much = dropped > BETA_CHOP_RTOL * np.min(np.abs(values), axis=0)
    too_much = np.flatnonzero(np.any(too_much.reshape(BETA_DEGREE, -1), axis=1))
    return coef[: too_much[-1] + 2 if too_much.size else 1]


def kernel_grids(kappa, profile, r, beta, group, ks):
    """The kernel g = phi r^(-1 - 2 beta) of disjoint pairs on the beta grids
    ``beta`` (B, m, m), grid i at the distances r[group[i]] (r holds one
    grid per offset, ``group`` ascends); ks[j] is the element offset of
    r[j], which errors name.

    Orders outside the bounds of ``profile`` raise AssemblyError first.
    Grids that number at most BETA_DEGREE + 1 per distance grid (a
    piecewise-constant profile) are evaluated directly; more than that cost
    less from the beta table: its series on the distance grids, chopped
    where its tail is negligible, summed by one Clenshaw pass per distance
    grid.
    """
    lower, upper = profile.s_lower, profile.s_upper
    mid, half = 0.5 * (lower + upper), 0.5 * (upper - lower)
    outside = np.abs(beta - mid) > half + _BETA_ROUNDING
    if np.any(outside):
        raise AssemblyError(f"pair order beta leaves the profile bounds [{lower}, {upper}] at "
                            f"disjoint offset {ks[group][np.argwhere(outside)[0][0]]}")
    if beta.shape[0] <= (BETA_DEGREE + 1) * r.shape[0]:
        r = r[group]
        return _phi_from_beta(kappa, beta, r) * r ** (-1.0 - 2.0 * beta)
    log_growth = np.log(np.maximum(4.0, 2.0 * kappa * r))
    coef = _beta_coefficients(kappa, mid, half, r, log_growth, ks)
    g = np.empty_like(beta)
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    for i0, i1 in zip(starts, np.append(starts[1:], group.size)):
        j, b = group[i0], beta[i0:i1]
        f = _clenshaw(coef[:, j], (b - mid) / half)
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
        new[1:] |= np.any(key[1:] != key[:-1], axis=tuple(range(1, key.ndim)))
    return np.flatnonzero(new), np.cumsum(new) - 1


class _Cells:
    """Cells of ``size`` consecutive elements from the mesh's first (the
    last n_el mod size elements form none), with nodes at ``t`` in cell
    lengths, the orders s (count, p) at the nodes of every cell, and the
    moments w (size + 1, p), mu (p,) and m2 (size, 2, 2, p). Cells in one
    run of equal s (``runs``) share their kernel grids; ``v`` sums G mu
    over the pairs a cell is first in and mu G over those it is second in.
    """

    def __init__(self, mesh, size, t, s, w, mu, m2):
        self.mesh = mesh
        self.size = size
        self.t, self.s, self.w, self.mu, self.m2 = t, s, w, mu, m2
        self.count = n = s.shape[0]
        self.runs = _distinct_rows(s)[1]
        self.exterior = np.all(~mesh.element_interior[: n * size].reshape(n, size), axis=1)
        self.v = np.zeros(s.shape)

    def grids(self, ctx, c, d):
        """Kernel grids g[i, j] at (x_i, y_j) of the cell pairs (c, c + d),
        ordered by d, each (d, run of c, run of c + d) once (both runs ascend
        with c) and all from one kernel_grids call, and for every pair the
        index of its grid."""
        key, inverse = _distinct_rows(d, self.runs[c], self.runs[c + d])
        c, d = c[key], d[key]
        beta = 0.5 * (self.s[c, :, None] + self.s[c + d, None, :])
        first, group = _distinct_rows(d)
        d = d[first]
        r = self.mesh.h * self.size * (d[:, None, None] + self.t[None, :] - self.t[:, None])
        return kernel_grids(ctx.kappa, ctx.profile, r, beta, group, d * self.size), inverse

    def add(self, a, c, d, g, inverse):
        """Add the cell pairs (c, c + d), ordered by d, with the kernel grids
        g[inverse]: their G mu and mu G to ``v``, and their cross blocks,
        twice (the ordered double sum visits each pair twice), to the upper
        triangle ``a`` of A2 over the unknowns."""
        size, p = self.size, self.t.size
        for cells, terms in ((c, g.reshape(-1, p) @ self.mu), (c + d, self.mu @ g)):
            at = (cells[:, None] * p + np.arange(p)).ravel()
            self.v += np.bincount(at, terms.reshape(-1, p)[inverse].ravel(),
                                  self.v.size).reshape(self.v.shape)
        wg = self.w @ g
        rows = c * size - self.mesh.first_interior_node
        step = max(1, _BLOCK_BYTES // (8 * (size + 1) ** 2))
        j0, k0 = 0, -step
        for i1 in np.append(np.flatnonzero(np.diff(d)) + 1, d.size):
            while j0 < i1:  # the cross blocks of ``step`` grids at a time; inverse ascends
                if inverse[j0] >= k0 + step:
                    k0 = inverse[j0] // step * step
                    cross = wg[k0 : k0 + step].reshape(-1, p) @ self.w.T
                    cross *= -2.0 * self.mesh.h**2
                j1 = min(j0 + step, i1, int(np.searchsorted(inverse, k0 + step)))
                _add_cell_blocks(a, rows[j0:j1], rows[j0:j1] + d[j0] * size, size,
                                 cross.reshape(-1, size + 1, size + 1)[inverse[j0:j1] - k0])
                j0 = j1

    def self_blocks(self):
        """The self blocks the cell pairs added, summed per element: sxx of
        the pairs an element is first in and syy of those it is second in,
        shape (n_el, 2, 2)."""
        blocks = np.zeros((self.mesh.n_elements, 2, 2))
        m2 = self.m2.reshape(-1, self.t.size)
        blocks[: self.count * self.size] = self.mesh.h**2 * (self.v @ m2.T).reshape(-1, 2, 2)
        return blocks


def element_cells(mesh, profile, order):
    """The elements as cells of one element, on the nodes of tensor Gauss of
    ``order``."""
    rule = gauss_legendre_01(order)
    x, w = rule.nodes, rule.weights
    psi = np.stack([1.0 - x, x])
    s = smoothness.evaluate(profile, mesh.nodes[: mesh.n_elements, None] + mesh.h * x)
    return _Cells(mesh, 1, x, s, w * psi, w, (w * psi[:, None] * psi)[None])


def _moments(size, to_coef):
    """m1[k, a, i] and m2[k, a, b, i]: the Lagrange functions L_i of the
    interpolant on the Chebyshev points of ``to_coef`` in a cell of ``size``
    elements, integrated against psi_a and psi_a psi_b on its k-th element.
    Gauss of order p // 2 + 1 is exact for psi_a psi_b L_i, of degree p + 1."""
    p = to_coef.shape[0]
    rule = gauss_legendre_01(p // 2 + 1)
    u = 2.0 * (np.arange(size)[:, None] + rule.nodes) / size - 1.0
    lagrange = np.polynomial.chebyshev.chebvander(u, p - 1) @ to_coef
    psi = np.stack([1.0 - rule.nodes, rule.nodes])
    weighted = rule.weights * psi
    m2 = (weighted[:, None] * psi).reshape(4, -1) @ lagrange
    return weighted @ lagrange, m2.reshape(size, 2, 2, p)


def cell_sizes(mesh, kappa):
    """The sizes of the far cells, ascending: CELL_SIZE 2^l elements for l =
    0, 1, ... while more than CELL_SEPARATION cells fit on the mesh and kappa
    times a cell's length stays within CELL_KAPPA_LENGTH; then one more, the
    largest, where kappa times its length stays within CELL_KAPPA_LARGEST
    and more than 2 (CELL_SEPARATION + 1) of its cells fit, so that it has
    pairs 6 to 8 or more cells apart to take."""
    sizes = []
    size, n_el = CELL_SIZE, mesh.n_elements
    while kappa * size * mesh.h <= CELL_KAPPA_LENGTH and n_el // size > CELL_SEPARATION:
        sizes.append(size)
        size *= 2
    if kappa * size * mesh.h <= CELL_KAPPA_LARGEST and n_el // size > 2 * (CELL_SEPARATION + 1):
        sizes.append(size)
    return sizes


def far_cells(mesh, profile, size=CELL_SIZE):
    """The far field's cells of ``size`` elements on CELL_ORDER Chebyshev
    points, and which are regular: all interior or all exterior, with no
    breakpoint of s inside. Only a pair of regular cells, not both
    exterior, may join the far field."""
    n = mesh.n_elements // size
    tau, to_coef = _chebyshev(CELL_ORDER)
    t = 0.5 * (1.0 + tau)
    lefts = mesh.nodes[: n * size : size]
    rights = mesh.nodes[size : (n + 1) * size : size]
    s = smoothness.evaluate(profile, lefts[:, None] + (rights - lefts)[:, None] * t)
    m1, m2 = _moments(size, to_coef)
    w = np.zeros((size + 1, CELL_ORDER))
    w[:-1] += m1[:, 0]
    w[1:] += m1[:, 1]
    cells = _Cells(mesh, size, t, s, w, m1.sum(axis=(0, 1)), m2)
    interior = np.all(mesh.element_interior[: n * size].reshape(n, size), axis=1)
    breaks = np.array(smoothness._breakpoints(profile, mesh.nodes[0], mesh.nodes[-1]))
    broken = np.searchsorted(breaks, rights) > np.searchsorted(breaks, lefts, "right")
    return cells, (cells.exterior | interior) & ~broken


def resolved(g):
    """Whether the interpolant of each kernel grid resolves the kernel: the
    last two Chebyshev coefficients of g in either variable stay within
    CELL_TAIL_RTOL of its smallest value."""
    to_coef = _chebyshev(g.shape[-1])[1]
    coef = to_coef @ g @ to_coef.T
    tail = np.maximum(np.max(np.abs(coef[:, -2:]), axis=(1, 2)),
                      np.max(np.abs(coef[:, :, -2:]), axis=(1, 2)))
    return tail <= CELL_TAIL_RTOL * np.min(g, axis=(1, 2))


def needed(mesh, far):
    """Per element offset k = 0 ... n_el - 1, whether some pair (e, e + k)
    may lie outside the pairs of CELL_SIZE cells marked in ``far``, (count
    + 1) square, its last index standing for the elements past the last
    cell: the pairs of offset k lie in cell pairs k // CELL_SIZE and
    k // CELL_SIZE + 1 cells apart."""
    size, n_el = CELL_SIZE, mesh.n_elements
    ext = np.logical_and.reduceat(~mesh.element_interior, np.arange(0, n_el, size))
    m = ext.size
    open_ = np.zeros(m + 1, dtype=bool)
    c, f = np.nonzero(np.triu(~far[:m, :m] & ~(ext[:, None] & ext[None, :])))
    open_[f - c] = True
    k = np.arange(n_el)
    q = k // size
    return open_[q] | ((k % size > 0) & open_[q + 1])


def _add_cell_blocks(a, rows, cols, size, blocks):
    """a[rows[i] + u, cols[i] + w] += blocks[i, u, w] where the index lies in
    a. ``rows`` ascends in multiples of ``size`` and ``cols`` - ``rows`` is
    constant, so blocks ``size`` apart overlap in one row and one column,
    and the parts of the blocks before their last row and column, in their
    last row, in their last column and in their corner, taken in turn, in
    none. Only the last block to start above row 0 and the first to end
    past the last column are cut; where ``rows`` has gaps, each part goes
    to the blocks' own places."""
    if not rows.size:
        return
    n = a.shape[0]
    shift = int(cols[0] - rows[0])
    i0, i1 = np.searchsorted(rows, (0, n - size - shift)).tolist()
    for i in {i0 - 1, i1}:
        if 0 <= i < rows.size:
            r = int(rows[i])
            c = r + shift
            r0, c0, r1, c1 = max(r, 0), max(c, 0), min(r + size + 1, n), min(c + size + 1, n)
            if r1 > r0 and c1 > c0:
                a[r0:r1, c0:c1] += blocks[i, r0 - r : r1 - r, c0 - c : c1 - c]
    if i1 > i0:
        blocks = blocks[i0:i1]
        steps = (rows[i0:i1] - rows[i0]) // size
        at = slice(None) if steps[-1] < steps.size else steps
        corner = a[rows[i0] :, rows[i0] + shift :]
        view = as_strided(corner, (steps[-1] + 1,) + blocks.shape[1:],
                          (size * (corner.strides[0] + corner.strides[1]),) + corner.strides)
        for part in np.s_[:-1, :-1], np.s_[-1, :-1], np.s_[:-1, -1], np.s_[-1, -1]:
            view[(at,) + part] += blocks[(slice(None),) + part]
