"""Closed-form Matern covariance and Whittle variance comparison baselines."""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as _gamma_fn

from .kernel import bessel_k
from .smoothness import average_s

__all__ = ["MaternParams", "whittle_variance", "matern_cov", "params_from_profile"]

# Below this z = kappa*r the covariance is flat to working precision and
# the r -> 0 limit sigma^2 is returned directly.
_SMALL_Z = 1e-8


class MaternParams:
    """Matern parameters (nu, kappa, sigma2) plus derivation metadata."""

    __slots__ = ("nu", "kappa", "sigma2", "metadata")

    def __init__(self, nu, kappa, sigma2, metadata=None):
        nu = float(nu)
        kappa = float(kappa)
        sigma2 = float(sigma2)
        if nu <= 0 or kappa <= 0 or sigma2 <= 0:
            raise ValueError("MaternParams needs nu, kappa, sigma2 > 0")
        self.nu = nu
        self.kappa = kappa
        self.sigma2 = sigma2
        self.metadata = dict(metadata or {})

    def __repr__(self):
        return f"MaternParams(nu={self.nu}, kappa={self.kappa}, sigma2={self.sigma2})"

    def to_dict(self):
        return {
            "nu": self.nu,
            "kappa": self.kappa,
            "sigma2": self.sigma2,
            **self.metadata,
        }


def whittle_variance(s_or_avg, kappa, mu):
    """Stationary variance of the Whittle field for order s (d = 1).

    sigma^2 = Gamma(nu) / ((4 pi)^{1/2} kappa^{2 nu} Gamma(nu + 1/2) mu^2)
    with nu = 2 s - 1/2; requires s > 1/4 so that nu > 0.
    """
    s = float(s_or_avg)
    nu = 2.0 * s - 0.5
    if nu <= 0:
        raise ValueError(f"smoothness nonpositive; need s > d/4, got s={s}")
    return float(
        _gamma_fn(nu)
        / ((4.0 * np.pi) ** 0.5 * float(kappa) ** (2.0 * nu) * _gamma_fn(nu + 0.5) * float(mu) ** 2)
    )


def matern_cov(r, params):
    """Matern covariance 2^{1-nu} sigma^2 / Gamma(nu) (kappa r)^nu K_nu(kappa r).

    Continuous at r = 0 with value sigma^2; the limit branch engages for
    kappa*r below 1e-8.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("matern_cov: distance must be nonnegative")
    nu, sig2 = params.nu, params.sigma2
    z = params.kappa * r_arr
    tiny = z < _SMALL_Z
    z_safe = np.where(tiny, 1.0, z)
    direct = 2.0 ** (1.0 - nu) * sig2 / _gamma_fn(nu) * z_safe**nu * bessel_k(nu, z_safe)
    out = np.where(tiny, sig2, direct)
    if np.ndim(r) == 0:
        return float(out)
    return out


def params_from_profile(profile, kappa, mu, domain):
    """Comparison baseline for a variable profile: nu = 2 <s> - 1/2 with the
    domain average <s> over G."""
    s_avg = average_s(profile, domain)
    sig2 = whittle_variance(s_avg, kappa, mu)
    return MaternParams(
        2.0 * s_avg - 0.5,
        kappa,
        sig2,
        {"s_average": s_avg, "mu": mu, "d": 1, "domain": list(domain)},
    )
