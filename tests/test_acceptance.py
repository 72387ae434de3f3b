"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a `[criterion N] PASS ...` line (visible with -s / -rA;
the per-criterion verdicts also appear as the test outcomes under -v) and
asserts the criterion at its stated tolerance, the full-scale convergence
reproduction (levels 9/8/7, m = 1000) included.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from varmatern import checks, smoothness
from varmatern.assembly import assemble_stiffness
from varmatern.convergence import rate_from_systems
from varmatern.kernel import KernelContext, bessel_k
from varmatern.linalg import cholesky
from varmatern.mesh import build_uniform
from varmatern.sampler import analytic_covariance, draw_noise

from conftest import PROFILES
from oracles import (
    adjacent_block_oracle,
    bessel_k_integral,
    coercivity,
    identical_block_oracle,
    pair_block_adjacent,
    pair_block_identical,
)

SECTION51_PROFILES = ("const05", "step", "bump", "ramp")


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
def test_criterion_01_bessel_correctness():
    worst = 0.0
    for nu in np.linspace(0.0, 2.0, 20):
        for z in np.geomspace(1e-6, 50.0, 20):
            ref = bessel_k_integral(nu, z)
            worst = max(worst, abs(bessel_k(nu, z) - ref) / abs(ref))
    closed = 0.0
    for z in np.geomspace(1e-6, 50.0, 20):
        k_half = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        closed = max(closed, abs(bessel_k(0.5, z) - k_half) / k_half)
        k_3half = k_half * (1 + 1 / z)
        closed = max(closed, abs(bessel_k(1.5, z) - k_3half) / k_3half)
    _report(
        1,
        worst <= 1e-10 and closed <= 1e-12,
        f"integral-oracle max rel {worst:.2e} (<=1e-10), "
        f"closed-form max rel {closed:.2e} (<=1e-12)",
    )


# ---------------------------------------------------------------------------
def test_criterion_02_two_regime_kernel_property():
    details = []
    ok = True
    for key in SECTION51_PROFILES:
        ctx = KernelContext(2.5, 1.0, PROFILES[key]())
        res = checks.two_regime_summary(ctx, (-4.0, 4.0), n_pairs=10_000, seed=2024)
        near_ok = res["near"]["min"] > 0 and np.isfinite(res["near"]["ratio"])
        far_ok = res["far"]["min"] > 0 and np.isfinite(res["far"]["ratio"])
        lim_ok = res["near_limit_max_rel_dev"] < 0.01
        ok = ok and near_ok and far_ok and lim_ok
        details.append(
            f"{key}: near ratio {res['near']['ratio']:.3g}, far ratio "
            f"{res['far']['ratio']:.3g}, limit dev {res['near_limit_max_rel_dev']:.2e}"
        )
    _report(2, ok, "; ".join(details))


# ---------------------------------------------------------------------------
def _fitted_base(mesh, ctx, block_fn):
    ref = block_fn(64)
    scale = np.max(np.abs(ref))
    ns, errs = [], []
    for n in range(4, 25):
        diff = np.max(np.abs(block_fn(n) - ref))
        if diff > 1e-14 * scale:
            ns.append(n)
            errs.append(diff)
    slope = np.polyfit(ns, np.log(errs), 1)[0]
    return math.exp(slope), len(ns)


def test_criterion_03_quadrature_decay():
    mesh = build_uniform(3, 4, 4)  # h = 2^-4
    ctx = KernelContext(2.5, 1.0, PROFILES["const085"]())
    e = mesh.n_elements // 2
    base_adj, pts_a = _fitted_base(
        mesh, ctx, lambda n: pair_block_adjacent(mesh, ctx, e, e + 1, n)[0]
    )
    base_idn, pts_i = _fitted_base(
        mesh, ctx, lambda n: pair_block_identical(mesh, ctx, e, n)[0]
    )
    ok = base_adj < 0.75 and base_idn < 0.75
    _report(
        3,
        ok,
        f"adjacent fitted base {base_adj:.3f} ({pts_a} pts), "
        f"identical fitted base {base_idn:.3f} ({pts_i} pts), both < 0.75",
    )


# ---------------------------------------------------------------------------
def test_criterion_04_singular_block_oracle_equivalence():
    mesh = build_uniform(3, 4, 4)
    mid = mesh.n_elements // 2
    worst = 0.0
    worst_case = ""
    cases = [("const035", [mid - 1, 8]), ("const05", [mid - 1, 8]),
             ("const085", [mid - 1, 8]), ("step", [mid - 1, 8, mid])]
    for key, adj_lefts in cases:
        ctx = KernelContext(2.5, 1.0, PROFILES[key]())
        for e in adj_lefts:
            block, _ = pair_block_adjacent(mesh, ctx, e, e + 1, 64)
            oracle = adjacent_block_oracle(mesh, ctx, e)
            rel = np.max(np.abs(block - oracle)) / np.max(np.abs(oracle))
            if rel > worst:
                worst, worst_case = rel, f"{key} adjacent@{e}"
        for e in (mid, mid - 1, 8):
            block, _ = pair_block_identical(mesh, ctx, e, 64)
            oracle = identical_block_oracle(mesh, ctx, e)
            rel = np.max(np.abs(block - oracle)) / np.max(np.abs(oracle))
            if rel > worst:
                worst, worst_case = rel, f"{key} identical@{e}"
    _report(4, worst <= 1e-7, f"worst rel dev {worst:.2e} ({worst_case}) <= 1e-7")


# ---------------------------------------------------------------------------
def test_criterion_05_constant_order_covariance(build_system):
    system = build_system("const05", 2.5, 6)
    cov = analytic_covariance(system)
    coords = system.mesh.interior_coords
    i0 = int(np.argmin(np.abs(coords)))
    ref = 0.2 * np.exp(-2.5 * np.abs(coords))
    band = np.abs(coords) <= 1.5
    dev = float(np.max(np.abs(cov[i0] - ref)[band]))
    _report(5, dev <= 0.02,
            f"max |C(0,y) - 0.2 e^(-2.5|y|)| = {dev:.3e} <= 0.02 on |y| <= 1.5")


# ---------------------------------------------------------------------------
def test_criterion_06_case1_covariance_sandwich(build_system):
    c_mid = analytic_covariance(build_system("step", 2.0, 6))
    c_lo = analytic_covariance(build_system("const035", 1.5, 6))
    c_hi = analytic_covariance(build_system("const085", 2.5, 6))
    coords = build_system("step", 2.0, 6).mesh.interior_coords
    worst = -np.inf
    for x0 in (-1.5, 0.0, 1.5):
        i = int(np.argmin(np.abs(coords - x0)))
        worst = max(worst, float(np.max(c_hi[i] - c_mid[i])))
        worst = max(worst, float(np.max(c_mid[i] - c_lo[i])))
    _report(
        6,
        worst <= 1e-3,
        f"worst sandwich violation {worst:.3e} <= 1e-3 at x in {{-1.5, 0, 1.5}}",
    )


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def rate_systems(build_system):
    levels = (7, 6, 5)
    return {
        key: [build_system(key, 2.5, lev) for lev in levels]
        for key in ("const05", "const03", "step_high")
    }


def test_criterion_07_convergence_rates_desk_scale(rate_systems):
    windows = {
        "const05": (0.36, 0.66),
        "const03": (0.0, 0.25),
        "step_high": (0.68, 0.98),
    }
    ok = True
    details = []
    floors = {}
    for key, systems in rate_systems.items():
        errors, r_hat, _ = rate_from_systems(systems, 500, seed=814)
        lo, hi = windows[key]
        inside = lo <= r_hat <= hi
        # coupled-noise sanity: the error shrinks level over level
        shrinks = errors[7] < errors[6]
        # theoretical floor 2 s_lower - 1/2 - 0.15
        s_lo = systems[0].ctx.profile.s_lower
        floors[key] = r_hat >= 2 * s_lo - 0.5 - 0.15
        ok = ok and inside and shrinks and floors[key]
        details.append(f"{key}: r_hat={r_hat:.3f} in [{lo}, {hi}]")
    # seed invariance of the estimator on the constant-order systems
    r_a = rate_from_systems(rate_systems["const05"], 500, seed=101)[1]
    r_b = rate_from_systems(rate_systems["const05"], 500, seed=202)[1]
    seed_ok = abs(r_a - r_b) < 0.1
    ok = ok and seed_ok
    details.append(f"seed groups differ by {abs(r_a - r_b):.3f} < 0.1")
    _report(7, ok, "; ".join(details))


def test_criterion_07_full_scale_reproduction():
    # assembled here, level by level as the rate asks for them, rather than in
    # the session cache, so that one fine A lives at a time
    targets = {"const05": 0.51, "const03": 0.10, "step_high": 0.83}
    # r_hat at seed 814 as recorded on one BLAS thread; a change that moves
    # one past 1e-8 relative (scaling A1 by 1 + 1e-6 moves the step's by
    # 6.7e-8) says why and records it anew
    recorded = {"const05": 0.5090459400986269, "const03": 0.10166869266789459,
                "step_high": 0.8440936760596098}
    ok = True
    details = []
    for key, target in targets.items():
        ctx = KernelContext(2.5, 1.0, PROFILES[key]())
        systems = (assemble_stiffness(build_uniform(3.0, 4.0, lev), ctx) for lev in (9, 8, 7))
        r_hat = rate_from_systems(systems, 1000, seed=814)[1]
        good = abs(r_hat - target) <= 0.1
        ok = ok and good
        details.append(f"{key}: r_hat={r_hat:.3f} vs {target} +- 0.1")
        assert r_hat == pytest.approx(recorded[key], rel=1e-8, abs=0), key
    _report("7-full", ok, "; ".join(details))


# ---------------------------------------------------------------------------
def test_criterion_08_spd_and_coercivity(build_system):
    ok = True
    details = []
    for key in SECTION51_PROFILES:
        for kappa in (0.25, 2.5):
            system = build_system(key, kappa, 5)
            sym = np.max(np.abs(system.a - system.a.T)) <= 1e-12 * np.max(
                np.abs(system.a)
            )
            try:
                cholesky(system.a)
                cholesky(system.m.toarray())
                spd = True
            except Exception:
                spd = False
            lowest, floor = coercivity(system)
            ok = ok and sym and spd and lowest >= floor
            details.append(f"{key},k={kappa}: lambda_min {lowest:.4f} >= {floor:.4f}")
    _report(8, ok, "; ".join(details))


# ---------------------------------------------------------------------------
def test_criterion_09_white_noise_statistics(build_system):
    system = build_system("const05", 2.5, 3)
    m = 100_000
    b = draw_noise(system.mass_cholesky, m, seed=909)
    emp = b @ b.T / m
    ref = system.m.toarray()
    stderr = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / m)
    worst = float(np.max(np.abs(emp - ref) / stderr))
    _report(9, worst <= 5.0, f"max |emp - M| = {worst:.2f} standard errors <= 5")


# ---------------------------------------------------------------------------
def test_criterion_10_eigenvalue_growth_trend(build_system):
    system = build_system("const05", 2.5, 6)
    lam = scipy.linalg.eigh(system.a, system.m.toarray(), eigvals_only=True)
    n = lam.size
    j = np.arange(1, n + 1)
    mid = slice(n // 4, 3 * n // 4)
    slope = np.polyfit(np.log(j[mid]), np.log(lam[mid]), 1)[0]
    _report(
        10,
        0.7 <= slope <= 1.3,
        f"log-log eigenvalue slope {slope:.3f} in [0.7, 1.3] (theory: 2s/d = 1)",
    )
