"""Numerical oracles and single-pair blocks used by the test suite.

The oracles take a different route than the production code: the Bessel
oracle integrates the integral representation with composite Gauss panels,
the gamma oracle is a self-contained Lanczos approximation, and the
singular-block oracles integrate the untransformed element-pair triangles
with dyadic refinement toward the singularity plus a Richardson tail
correction with the known exponent. The rate-estimator oracle at the end,
expected_level_errors, gives the exact expected strong errors from its own
injection, Gram matrices and scipy solves; coercivity gives the lowest mode
of (A, M) from scipy's eigh and criterion 8's floor under it.

The single-pair blocks and kernel arrangements after them, which no command
runs, do not. pair_block_identical and pair_block_adjacent run one pair
through the shipped near field (assembly._identical_common and
assembly._adjacent_blocks), so the tests that hold them against the oracles
test what assembly computes. pair_block_disjoint (direct tensor Gauss),
prefactor and phi evaluate the shipped kernel factors pointwise; only
w_tilde takes the kernel's own closed form.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh

from varmatern import assembly, smoothness
from varmatern.kernel import (
    _SQRT_PI,
    _phi_from_beta,
    _prefactor_from_beta,
    abs_gamma_neg,
    bessel_k,
)
from varmatern.mesh import MeshError, adjacent_pair_maps, hat_eval
from varmatern.quadrature import gauss_legendre_01
from varmatern.smoothness import beta as beta_of


def _gamma_exact_r(ctx, x, y, r):
    """Kernel value with the distance supplied in product form.

    Deep dyadic shells would otherwise lose r = |x - y| to cancellation;
    only the singularity treatment is under test here, so the kernel is
    evaluated from (beta, r) directly.
    """
    b = beta_of(ctx.profile, x, y)
    nu = 0.5 + b
    return _phi_from_beta(ctx.kappa, b, r) * r ** (-2.0 * nu)


def bessel_k_integral(nu, z, panel_width=0.5, panel_order=40):
    """K_nu(z) = integral_0^inf exp(-z cosh t) cosh(nu t) dt by composite Gauss.

    Panels extend until the integrand drops below 1e-22 of the running peak.
    """
    nu = float(nu)
    z = float(z)
    x, w = leggauss(panel_order)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    total = 0.0
    peak = 0.0
    t_lo = 0.0
    while True:
        t = t_lo + panel_width * x01
        vals = np.exp(-z * np.cosh(t)) * np.cosh(nu * t)
        contrib = panel_width * float(np.sum(w01 * vals))
        total += contrib
        peak = max(peak, float(vals.max()))
        t_lo += panel_width
        if float(vals.max()) < 1e-22 * max(peak, 1e-300) or t_lo > 120.0:
            return total


def bessel_k_asymptotic(nu, z):
    """Optimally truncated large-argument expansion of K_nu (z >> 1)."""
    import math

    mu4 = 4.0 * float(nu) ** 2
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        factor = (mu4 - (2 * k - 1) ** 2) / (8.0 * float(z) * k)
        new_term = term * factor
        if abs(new_term) >= abs(term):
            break  # past the optimal truncation point
        term = new_term
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * total


_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def lanczos_gamma(x):
    """Gamma(x) for x > 0 via the Lanczos approximation (g = 7, 9 terms)."""
    x = float(x)
    if x < 0.5:
        # reflection keeps the series in its accurate range
        return np.pi / (np.sin(np.pi * x) * lanczos_gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return float(np.sqrt(2.0 * np.pi) * t ** (x + 0.5) * np.exp(-t) * acc)


def _gauss01(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _safe_depth(h, anchor):
    """Deepest dyadic shell whose basis differences stay well resolved."""
    import math

    return max(8, int(math.floor(math.log2(h / (1e-9 * max(1.0, abs(anchor)))))))


def adjacent_block_oracle(mesh, ctx, e_left, n_shells=50, n_gauss=24):
    """3x3 vertex-sharing block by dyadic corner refinement on the raw triangles.

    Uses the oriented maps directly and evaluates the basis differences via
    hat functions (no derived polynomial factors) and the kernel via
    gamma_kernel (no analytic singularity split). The excluded corner's
    contribution decays like (2^-K)^(3 - 2 beta); a one-step Richardson
    correction with that exact ratio removes the leading tail term.
    """
    t_left, t_right = adjacent_pair_maps(mesh, e_left, e_left + 1)
    nodes3 = (e_left, e_left + 1, e_left + 2)
    h = mesh.h
    xg, wg = _gauss01(n_gauss)
    corner_b = float(beta_of(ctx.profile, t_left(1e-30), t_right(1e-30)))
    lam = 2.0 ** (-(3.0 - 2.0 * corner_b))
    # beyond this depth the hat differences cancel in floating point; the
    # Richardson tail correction covers the excluded corner
    n_shells = min(n_shells, _safe_depth(h, t_left(0.0)))

    def shell_block(k):
        hi = 2.0**-k
        lo = hi / 2.0
        out = lo + (hi - lo) * xg  # (n,)
        inner = out[:, None] * xg[None, :]  # (n, n)
        blk = np.zeros((3, 3))
        for outer_is_x in (True, False):
            if outer_is_x:
                xh = np.broadcast_to(out[:, None], inner.shape)
                yh = inner
            else:
                xh = inner
                yh = np.broadcast_to(out[:, None], inner.shape)
            x = t_left(xh)
            y = t_right(yh)
            dpsi = np.stack(
                [hat_eval(mesh, a, x) - hat_eval(mesh, a, y) for a in nodes3]
            )
            g = _gamma_exact_r(ctx, x, y, h * (xh + yh))
            wfull = (hi - lo) * wg[:, None] * out[:, None] * wg[None, :]
            blk += np.einsum("pq,apq,bpq->ab", g * wfull, dpsi, dpsi)
        return h * h * blk

    total = np.zeros((3, 3))
    for k in range(n_shells - 1):
        total += shell_block(k)
    last = shell_block(n_shells - 1)
    return total + last + last * lam / (1.0 - lam)


def identical_block_oracle(mesh, ctx, e, n_shells=50, n_gauss=24):
    """2x2 identical-pair block via dyadic refinement toward the diagonal.

    Integrates over the separation w = |xhat - yhat| with dyadic shells
    toward w = 0; the excluded band decays like (2^-K)^(2 - 2 beta), which
    the explicit-ratio Richardson step removes.
    """
    tmap = mesh.affine_map(e)
    nodes2 = (e, e + 1)
    h = mesh.h
    xg, wg = _gauss01(n_gauss)
    corner_b = float(beta_of(ctx.profile, tmap(0.5), tmap(0.5)))
    lam = 2.0 ** (-(2.0 - 2.0 * corner_b))
    n_shells = min(n_shells, _safe_depth(h, tmap(0.5)))

    def shell_block(k):
        hi = 2.0**-k
        lo = hi / 2.0
        ws = lo + (hi - lo) * xg  # separations (n,)
        xh = ws[:, None] + (1.0 - ws[:, None]) * xg[None, :]  # (n, n)
        yh = xh - ws[:, None]
        x = tmap(xh)
        y = tmap(yh)
        dpsi = np.stack(
            [hat_eval(mesh, a, x) - hat_eval(mesh, a, y) for a in nodes2]
        )
        g = _gamma_exact_r(ctx, x, y, h * np.broadcast_to(ws[:, None], xh.shape))
        wfull = (hi - lo) * wg[:, None] * (1.0 - ws[:, None]) * wg[None, :]
        # factor 2: the yhat > xhat triangle contributes identically
        return 2.0 * h * h * np.einsum("pq,apq,bpq->ab", g * wfull, dpsi, dpsi)

    total = np.zeros((2, 2))
    for k in range(n_shells - 1):
        total += shell_block(k)
    last = shell_block(n_shells - 1)
    return total + last + last * lam / (1.0 - lam)


# ------------------------------------------------------- single-pair blocks


def classify_pair(mesh, e1, e2):
    """'identical', 'vertex_sharing', or 'disjoint' for an element pair."""
    for e in (e1, e2):
        if not 0 <= e < mesh.n_elements:
            raise MeshError(f"element index {e} out of range")
    if e1 == e2:
        return "identical"
    if abs(e1 - e2) == 1:
        return "vertex_sharing"
    return "disjoint"


def pair_block_identical(mesh, ctx, e, n):
    """Local 2x2 block of an element with itself, both triangle halves.

    One half is evaluated from each element endpoint and doubled; the two
    anchored values are averaged (the anchors parameterize the same
    integral; averaging keeps mirror symmetry exact for even profiles).
    Returns (block, (node, node+1)). Row sums vanish: the basis difference
    of the constant function is zero.
    """
    rule = gauss_legendre_01(n)
    s_up = assembly._element_order_max(ctx.profile, mesh.h, mesh.nodes[e : e + 1])
    vals, _ = assembly._identical_common(ctx, mesh.h, rule, s_up, mesh.nodes[e : e + 2])
    q = assembly._identical_q_signs(mesh, e)
    block = np.outer(q, q) * float(vals[0])
    return block, (e, e + 1)


def pair_block_adjacent(mesh, ctx, e_left, e_right, n):
    """Local 3x3 block of a vertex-sharing pair over its shared-support nodes.

    Maps are oriented so both send 0 to the shared vertex; violations raise.
    Returns (block, (e_left, e_left+1, e_left+2)) in geometric node indices.
    """
    if classify_pair(mesh, e_left, e_right) != "vertex_sharing":
        raise assembly.AssemblyError(f"elements ({e_left}, {e_right}) do not share a vertex")
    rule = gauss_legendre_01(n)
    el_max = assembly._element_order_max(ctx.profile, mesh.h, mesh.nodes[[e_left, e_right]])
    s_up = np.array([0.5 * (el_max[0] + el_max[1])])
    alpha, delta = assembly._adjacent_delta_coeffs(mesh, e_left)
    shared = np.array([mesh.nodes[e_left + 1]])
    blocks, _ = assembly._adjacent_blocks(ctx, mesh.h, rule, s_up, shared, alpha, delta)
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


def pair_block_disjoint(mesh, ctx, e1, e2, n=64):
    """Local symmetric block of a disjoint pair over its four supporting nodes;
    at the default n = 64 it is the reference disjoint block.

    Layout: rows/cols (e1, e1+1, e2, e2+1) in geometric node indices. The
    kernel is evaluated directly; disjoint pairs keep r >= h away from the
    singularity.
    """
    if classify_pair(mesh, e1, e2) != "disjoint":
        raise assembly.AssemblyError(f"elements ({e1}, {e2}) are not disjoint")
    rule = gauss_legendre_01(n)
    sxx, sxy, syy = _disjoint_blocks_direct(
        ctx, mesh.h, np.array([mesh.nodes[e1]]), np.array([mesh.nodes[e2]]), rule
    )
    block = np.block([[sxx[0], sxy[0]], [sxy[0].T, syy[0]]])
    return block, (e1, e1 + 1, e2, e2 + 1)


# ------------------------------------------------------ kernel arrangements

def prefactor(ctx, x, y):
    """Smooth positive prefactor of the kernel (symmetric, singularity-free)."""
    b = ctx.beta(x, y)
    out = _prefactor_from_beta(ctx.kappa, np.asarray(b, dtype=float))
    if np.ndim(b) == 0:
        return float(out)
    return out


def phi(ctx, x, y, r=None):
    """Regularized kernel factor, smooth up to the diagonal.

    Equal to prefactor * K_nu(kappa r) * r**nu for r > 0 and to its finite
    limit prefactor * 2**(nu-1) Gamma(nu) kappa**(-nu) at r = 0: Temme's
    series up to kappa*r = kernel.Z_SERIES (within 1.1e-14 relative of 30-digit
    values, the limit included), bessel_k above it.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    b = ctx.beta(x_arr, y_arr)
    if r is None:
        r = np.abs(x_arr - y_arr)
    out = _phi_from_beta(ctx.kappa, b, r)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


def w_tilde(ctx, x, y):
    """Bessel weight of the kernel, evaluated from its own closed form.

    Independent arrangement used by the consistency check
    2 * gamma_kernel * r**(1 + 2 beta) == w_tilde.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    r = np.abs(x_arr - y_arr)
    b = ctx.beta(x_arr, y_arr)
    nu = 0.5 + b
    out = (
        2.0 ** (0.5 + b)
        / (_SQRT_PI * abs_gamma_neg(b))
        * ctx.kappa**nu
        * r**nu
        * bessel_k(nu, ctx.kappa * r)
    )
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


def _p1_gram(x):
    """Exact Gram matrix of the P1 hats at the ascending nodes x over
    [x[0], x[-1]], dense: (h_left + h_right) / 3 on the diagonal, h / 6 off."""
    dx = np.diff(x)
    gram = np.diag((np.append(0.0, dx) + np.append(dx, 0.0)) / 3.0)
    idx = np.arange(dx.size)
    gram[idx, idx + 1] = gram[idx + 1, idx] = dx / 6.0
    return gram


def _hat_injection(coarse_x, fine_x):
    """Coarse P1 hats evaluated at the fine nodes, dense (fine x coarse)."""
    spacing = coarse_x[1] - coarse_x[0]
    return np.maximum(0.0, 1.0 - np.abs(fine_x[:, None] - coarse_x[None, :]) / spacing)


def expected_level_errors(systems):
    """Exact E||e_l||_M^2 of the coupled-noise rate estimator, keyed by the
    two finer levels of ``systems`` (three systems of consecutive levels,
    fine to coarse, each still holding A).

    The fine load is b_0 = L z with L L^T = M_0, the coarser ones
    b_{l+1} = P^T b_l, so e_l = (A_l^{-1} - P A_{l+1}^{-1} P^T) b_l / mu and
    E||e_l||_M^2 = ||M_l^{1/2} D_l||_F^2 / mu^2 with
    D_l = A_l^{-1} L_l - P A_{l+1}^{-1} P^T L_l, where L_0 = L and
    L_{l+1} = P^T L_l. Nothing is shared with varmatern.convergence: P is
    the coarse hats at the fine node coordinates, M_l the exact P1 Gram
    matrix over D, and the solves are scipy's cho_solve on cho_factor(A).
    """
    coords = [s.mesh.interior_coords for s in systems]
    mu = systems[0].ctx.mu
    factors = [cho_factor(s.a, lower=True) for s in systems]
    load = cholesky(_p1_gram(coords[0]), lower=True)
    expected = {}
    for l in (0, 1):
        p = _hat_injection(coords[l + 1], coords[l])
        d = cho_solve(factors[l], load) - p @ cho_solve(factors[l + 1], p.T @ load)
        expected[systems[l].mesh.level] = float(np.sum(d * (_p1_gram(coords[l]) @ d))) / mu**2
        load = p.T @ load
    return expected


def coercivity(system):
    """The lowest eigenvalue of (A, M), by scipy's eigh, and criterion 8's
    floor under it, min(kappa^(2 s_lower), kappa^(2 s_upper)) less 1e-9 of
    itself for the rounding of s. A1 is Gauss of order n >= 2, exact on
    psi_a psi_b, applied to the weight kappa^(2 s(x)), which never falls
    below that minimum; so A1 >= floor M, and A2 >= 0 adds to it."""
    lowest = eigh(system.a, system.m.toarray(), subset_by_index=[0, 0], eigvals_only=True)
    kappa, profile = system.ctx.kappa, system.ctx.profile
    floor = min(kappa ** (2 * profile.s_lower), kappa ** (2 * profile.s_upper))
    return float(lowest[0]), (1.0 - 1e-9) * floor
