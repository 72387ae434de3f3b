import math

import numpy as np
import pytest

from varmatern.reference import (
    MaternParams,
    matern_cov,
    params_from_profile,
    whittle_variance,
)
from varmatern import smoothness

from oracles import bessel_k_integral, lanczos_gamma


def test_variance_exponential_case():
    # s = 0.5, kappa = 2.5, mu = 1: nu = 1/2 and sigma^2 = 1/5
    assert whittle_variance(0.5, 2.5, 1.0) == pytest.approx(0.2, rel=1e-14)


def test_variance_mu_scaling():
    base = whittle_variance(0.6, 2.0, 1.0)
    assert whittle_variance(0.6, 2.0, 2.0) == pytest.approx(base / 4.0, rel=1e-14)


def test_variance_gamma_oracle():
    s, kappa, mu = 0.7, 2.5, 1.0
    nu = 2 * s - 0.5
    ref = lanczos_gamma(nu) / (
        math.sqrt(4 * math.pi) * kappa ** (2 * nu) * lanczos_gamma(nu + 0.5) * mu**2
    )
    assert whittle_variance(s, kappa, mu) == pytest.approx(ref, rel=1e-12)


def test_variance_domain_error():
    with pytest.raises(ValueError, match="s > d/4"):
        whittle_variance(0.25, 1.0, 1.0)


def test_matern_exponential_closed_form():
    params = MaternParams(0.5, 2.5, 0.2)
    assert matern_cov(0.5, params) == pytest.approx(0.2 * math.exp(-1.25), rel=1e-12)
    assert matern_cov(0.0, params) == 0.2


def test_matern_against_bessel_oracle():
    params = MaternParams(1.2, 2.5, 0.37)
    for r in (0.1, 0.7, 2.3):
        z = params.kappa * r
        ref = (
            2 ** (1 - params.nu)
            * params.sigma2
            / lanczos_gamma(params.nu)
            * z**params.nu
            * bessel_k_integral(params.nu, z)
        )
        assert matern_cov(r, params) == pytest.approx(ref, rel=1e-10)


def test_matern_monotone_decay():
    rs = np.linspace(0.0, 4.0, 200)
    for nu in (0.2, 0.5, 1.0, 1.5):
        params = MaternParams(nu, 2.5, 1.0)
        vals = matern_cov(rs, params)
        assert np.all(np.diff(vals) < 0)


def test_matern_continuity_at_zero():
    for nu in (0.2, 0.7, 1.2):
        params = MaternParams(nu, 2.5, 0.8)
        assert abs(matern_cov(1e-10, params) - params.sigma2) <= 1e-6 * params.sigma2


def test_matern_rejects_negative_distance():
    params = MaternParams(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        matern_cov(-0.1, params)


def test_params_from_profile_uses_domain_average():
    prof = smoothness.step(0.65, 0.85)
    params = params_from_profile(prof, 2.5, 1.0, (-4, 4))
    assert params.nu == pytest.approx(1.0, abs=1e-12)  # 2 <s> - 1/2
    assert params.metadata["s_average"] == pytest.approx(0.75, abs=1e-12)
    assert params.sigma2 == pytest.approx(whittle_variance(0.75, 2.5, 1.0), rel=1e-13)


def test_params_validation():
    with pytest.raises(ValueError):
        MaternParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MaternParams(0.5, 1.0, -1.0)
