import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varmatern import checks, smoothness
from varmatern.kernel import (
    Z_SERIES,
    KernelContext,
    _phi_from_beta,
    abs_gamma_neg,
    bessel_k,
    gamma_kernel,
)

from conftest import RAMP_PARAMS
from oracles import (
    bessel_k_asymptotic,
    bessel_k_integral,
    lanczos_gamma,
    phi,
    prefactor,
    w_tilde,
)


def _k_half(z):
    return math.sqrt(math.pi / (2 * z)) * math.exp(-z)


def _k_three_half(z):
    return _k_half(z) * (1 + 1 / z)


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 2.5, 10.0, 40.0])
def test_bessel_half_integer_closed_forms(z):
    assert bessel_k(0.5, z) == pytest.approx(_k_half(z), rel=1e-12)
    assert bessel_k(1.5, z) == pytest.approx(_k_three_half(z), rel=1e-12)


def test_bessel_spot_values():
    assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789454, rel=1e-12)
    assert bessel_k(0.5, 2.5) == pytest.approx(0.06506594315400999, rel=1e-12)
    assert bessel_k(1.5, 1.0) == pytest.approx(0.9221370088957891, rel=1e-12)
    # frozen from the integral-representation oracle
    assert bessel_k(1.0, 1.0) == pytest.approx(0.6019072301972346, rel=1e-10)


def test_bessel_matches_integral_oracle_grid():
    for nu in np.linspace(0.0, 2.0, 6):
        for z in np.geomspace(1e-6, 50.0, 6):
            ref = bessel_k_integral(nu, z)
            assert bessel_k(nu, z) == pytest.approx(ref, rel=1e-10), (nu, z)


@pytest.mark.parametrize("nu", [1 - 1e-4, 1 - 3e-5, 1 + 1e-4])
@pytest.mark.parametrize("z", [1.5, 1.9, 2.0])
def test_bessel_matches_integral_oracle_near_order_one(nu, z):
    assert bessel_k(nu, z) == pytest.approx(bessel_k_integral(nu, z), rel=1e-12)


def test_bessel_underflow_and_errors():
    assert bessel_k(1.0, 701.0) == 0.0
    assert bessel_k(1.0, 650.0) > 0.0
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -2.0)
    with pytest.raises(ValueError):
        bessel_k(2.5, 1.0)
    with pytest.raises(ValueError):
        bessel_k(-0.1, 1.0)
    with pytest.raises(ValueError):
        bessel_k(np.nan, 1.0)


def test_bessel_vectorized_matches_scalar(rng):
    nus = rng.uniform(0, 2, 200)
    zs = np.exp(rng.uniform(np.log(1e-8), np.log(600), 200))
    vec = bessel_k(nus, zs)
    for i in range(0, 200, 17):
        assert vec[i] == bessel_k(nus[i], zs[i])


def test_abs_gamma_neg_examples():
    assert abs_gamma_neg(0.5) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-14)
    rng = np.random.default_rng(3)
    b = rng.uniform(0.01, 0.99, 100)
    assert np.allclose(abs_gamma_neg(b) * b / np.vectorize(math.gamma)(1 - b), 1.0,
                       rtol=1e-13)


def test_abs_gamma_neg_against_lanczos_oracle():
    for b in (0.35, 0.5, 0.6, 0.85, 0.99):
        ref = lanczos_gamma(1.0 - b) / b
        assert abs_gamma_neg(b) == pytest.approx(ref, rel=1e-12)
        # independent cross-check through the reflection identity
        refl = math.pi / (math.sin(math.pi * b) * lanczos_gamma(b)) / b
        assert abs_gamma_neg(b) == pytest.approx(refl, rel=1e-12)


def test_abs_gamma_neg_domain():
    with pytest.raises(ValueError):
        abs_gamma_neg(0.0)
    with pytest.raises(ValueError):
        abs_gamma_neg(1.0)


@pytest.fixture(scope="module")
def ctx_const():
    return KernelContext(1.0, 1.0, smoothness.constant(0.5))


@pytest.fixture(scope="module")
def ctx_step():
    return KernelContext(2.5, 1.0, smoothness.step(0.35, 0.85))


def test_prefactor_constant_half(ctx_const):
    assert prefactor(ctx_const, 0.3, 0.7) == pytest.approx(1 / (2 * math.pi), rel=1e-14)


def test_prefactor_positive_symmetric(ctx_step, rng):
    x = rng.uniform(-4, 4, 500)
    y = rng.uniform(-4, 4, 500)
    c_xy = prefactor(ctx_step, x, y)
    assert np.all(c_xy > 0)
    assert np.array_equal(c_xy, prefactor(ctx_step, y, x))


def test_prefactor_step_spot(ctx_step):
    # beta = 0.6, nu = 1.1 at (-1, 1) with kappa = 2.5
    ref = (1 / (2 * math.sqrt(math.pi))) * 2**1.1 / (lanczos_gamma(0.4) / 0.6) * 2.5**1.1
    assert prefactor(ctx_step, -1.0, 1.0) == pytest.approx(ref, rel=1e-12)


def test_phi_diagonal_limit(ctx_const):
    # constant s = 0.5, kappa = 1: the r -> 0 limit is 1 / (2 pi)
    assert phi(ctx_const, 0.2, 0.2) == pytest.approx(1 / (2 * math.pi), rel=1e-13)
    # just off the diagonal the series meets the limit
    assert phi(ctx_const, 0.2, 0.2 + 1e-9) == pytest.approx(1 / (2 * math.pi), rel=1e-8)


def _prefactor_oracle(kappa, b):
    nu = 0.5 + b
    return 2.0**nu / (2.0 * math.sqrt(math.pi)) * b / math.gamma(1.0 - b) * kappa**nu


def _phi_oracle(kappa, b, r):
    """prefactor * K_nu(kappa r) * r**nu with K_nu from the integral oracle
    and the prefactor from math.gamma."""
    nu = 0.5 + b
    return _prefactor_oracle(kappa, b) * bessel_k_integral(nu, kappa * r) * r**nu


@pytest.mark.parametrize("b", [0.01, 0.35, 0.5, 0.99])
@pytest.mark.parametrize("z", [1e-8, 1e-7, 9.9e-7, 1.01e-6])
def test_phi_small_argument_matches_integral_oracle(b, z):
    # phi holds the O(z^(2 nu)) terms down to z = 1e-8, not only its limit
    kappa = 2.5
    r = z / kappa
    assert _phi_from_beta(kappa, b, r) == pytest.approx(_phi_oracle(kappa, b, r), rel=1e-13)


@pytest.mark.parametrize("b", [0.01, 0.35, 0.5, 0.99])
def test_phi_at_zero_is_its_limit(b):
    kappa, nu = 2.5, 0.5 + b
    limit = _prefactor_oracle(kappa, b) * 2.0 ** (nu - 1.0) * math.gamma(nu) * kappa**-nu
    assert _phi_from_beta(kappa, b, 0.0) == pytest.approx(limit, rel=1e-14)


# orders at nu = 1 and 1 +- 10^-k, k = 1 ... 12, where the series pairs the
# terms whose poles cancel
_NEAR_ORDER_ONE = [0.5] + [0.5 + sign * 10.0**-k for k in range(1, 13) for sign in (-1, 1)]
_SEAM = [Z_SERIES * (1.0 - 1e-12), Z_SERIES, Z_SERIES * (1.0 + 1e-12)]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.floats(0.01, 0.99), st.sampled_from(_NEAR_ORDER_ONE)),
    st.one_of(st.floats(math.log(1e-8), math.log(Z_SERIES)).map(math.exp), st.sampled_from(_SEAM)),
    st.sampled_from([0.5, 2.5, 10.0]),
)
@example(0.5, Z_SERIES, 2.5)
@example(0.5 + 1e-12, Z_SERIES * (1.0 - 1e-12), 2.5)
@example(0.5 - 1e-12, Z_SERIES * (1.0 + 1e-12), 2.5)
@example(0.01, 1e-8, 10.0)
@example(0.99, 1e-8, 0.5)
def test_phi_matches_integral_oracle_on_both_sides_of_the_seam(b, z, kappa):
    r = z / kappa
    assert _phi_from_beta(kappa, b, r) == pytest.approx(_phi_oracle(kappa, b, r), rel=1e-13)


def test_phi_symmetric(ctx_step, rng):
    x = rng.uniform(-4, 4, 500)
    y = rng.uniform(-4, 4, 500)
    assert np.array_equal(phi(ctx_step, x, y), phi(ctx_step, y, x))


def test_phi_large_argument_asymptotics(ctx_step):
    # kappa r >= 20: compare against the optimally truncated asymptotic series
    for x, y in ((-4.0, 4.0), (-2.0, 51.0 / 8.0)):
        r = abs(x - y)
        b = smoothness.beta(ctx_step.profile, x, y)
        nu = 0.5 + b
        ref = prefactor(ctx_step, x, y) * bessel_k_asymptotic(nu, ctx_step.kappa * r) * r**nu
        assert phi(ctx_step, x, y) == pytest.approx(ref, rel=1e-8)


def test_gamma_near_field_limit(ctx_const):
    # gamma * r^2 -> 1 / (2 pi) as r -> 0 for s = 0.5, kappa = 1
    for r in (1e-7, 1e-5):
        val = gamma_kernel(ctx_const, 0.0, r) * r**2
        assert val == pytest.approx(1 / (2 * math.pi), rel=1e-8)


def test_gamma_symmetric_exact(ctx_step, rng):
    x = rng.uniform(-4, 4, 1000)
    y = rng.uniform(-4, 4, 1000)
    y = np.where(y == x, y + 1e-3, y)
    assert np.array_equal(gamma_kernel(ctx_step, x, y), gamma_kernel(ctx_step, y, x))


def test_gamma_coincident_is_error(ctx_step):
    with pytest.raises(ValueError):
        gamma_kernel(ctx_step, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_kernel(ctx_step, np.array([0.0, 1.0]), np.array([0.5, 1.0]))


def test_gamma_far_field_bound(ctx_step):
    # gamma <= C' r^{-1/2} e^{-kappa r} with C' from the empirical Bessel
    # bound constants and the prefactor range
    bounds = checks.bessel_bound_summary(nu_lo=0.85, nu_hi=1.35)
    rng = np.random.default_rng(5)
    b_grid = rng.uniform(0.35, 0.85, 256)
    pref_max = float(np.max(
        (1 / (2 * math.sqrt(math.pi))) * 2 ** (0.5 + b_grid)
        / (np.vectorize(math.gamma)(1 - b_grid) / b_grid) * 2.5 ** (0.5 + b_grid)
    ))
    kap = ctx_step.kappa
    for r in (0.8, 2.0, 5.0):
        c_prime = pref_max * bounds["c2_global"] * kap**-0.5 * r ** -(0.5 + 0.35)
        x = rng.uniform(-4, 4 - r, 64)
        vals = gamma_kernel(ctx_step, x, x + r)
        assert np.all(vals <= c_prime * r**-0.5 * np.exp(-kap * r) * (1 + 1e-12))


def test_consistency_gamma_vs_w_tilde(rng):
    # 2 gamma r^{1+2 beta} must reproduce the Bessel weight evaluated from
    # its own closed form
    for key, prof in (
        ("step", smoothness.step(0.35, 0.85)),
        ("bump", smoothness.gaussian_bump(0.35, 0.85, 0.9, 3.0)),
        ("ramp", smoothness.oscillatory_ramp(**RAMP_PARAMS)),
    ):
        ctx = KernelContext(2.5, 1.0, prof)
        x = rng.uniform(-4, 4, 1000)
        r = np.exp(rng.uniform(np.log(1e-5), np.log(4), 1000))
        y = np.clip(x + r, -4, 4)
        x = y - r
        b = smoothness.beta(ctx.profile, x, y)
        lhs = 2.0 * gamma_kernel(ctx, x, y) * r ** (1.0 + 2.0 * b)
        rhs = w_tilde(ctx, x, y)
        assert np.allclose(lhs, rhs, rtol=1e-12), key


def test_two_regime_intervals_and_limit():
    for prof in (
        smoothness.step(0.35, 0.85),
        smoothness.gaussian_bump(0.35, 0.85, 0.9, 3.0),
        smoothness.oscillatory_ramp(**RAMP_PARAMS),
        smoothness.constant(0.5),
    ):
        ctx = KernelContext(2.5, 1.0, prof)
        res = checks.two_regime_summary(ctx, (-4, 4), n_pairs=2000, seed=9)
        assert res["near"]["min"] > 0 and np.isfinite(res["near"]["ratio"])
        assert res["far"]["min"] > 0 and np.isfinite(res["far"]["ratio"])
        assert res["near_limit_max_rel_dev"] < 0.01


def test_uniform_bessel_bounds_stable_across_nu():
    res = checks.bessel_bound_summary(nu_lo=0.85, nu_hi=1.35, n_nu=11)
    assert res["c0_global"] > 0
    assert res["c1_global"] / res["c0_global"] < 10.0
    c2 = np.array([p["c2"] for p in res["per_nu"]])
    assert np.all(np.isfinite(c2)) and c2.max() / c2.min() < 3.0


def test_kernel_context_validation():
    prof = smoothness.constant(0.5)
    with pytest.raises(ValueError):
        KernelContext(0.0, 1.0, prof)
    with pytest.raises(ValueError):
        KernelContext(1.0, -1.0, prof)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            KernelContext(bad, 1.0, prof)
        with pytest.raises(ValueError, match="finite and positive"):
            KernelContext(1.0, bad, prof)
    ctx = KernelContext(1.5, 2.0, prof)
    with pytest.raises(AttributeError):
        ctx.kappa = 3.0
