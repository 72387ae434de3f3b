"""Modified Bessel function of the second kind and the heterogeneous kernel.

Everything here is specialized to one space dimension: with r = |x - y|,
beta(x, y) the symmetric order average and nu = 1/2 + beta,

    prefactor(x, y) = (1 / (2 sqrt(pi))) * 2**nu / |Gamma(-beta)| * kappa**nu
    phi(x, y)       = prefactor * K_nu(kappa r) * r**nu      (smooth up to r=0)
    gamma_kernel    = phi / r**(2 nu)                         (singular at r=0)

K_nu itself comes from scipy.special.kv (the AMOS routines, Amos, ACM TOMS
Alg. 644); bessel_k adds the order window, argument checks and the
underflow rule.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as _gamma_fn
from scipy.special import kv as _kv

__all__ = [
    "NU_SUPPORT",
    "PHI_SMALL_Z",
    "KernelContext",
    "bessel_k",
    "abs_gamma_neg",
    "gamma_kernel",
]

# Supported order window for bessel_k: covers nu(x, y) in (1/2, 3/2) with
# margin plus the Matern reference orders.
NU_SUPPORT = (0.0, 2.0)

# Below this value of z = kappa*r, phi switches to its analytic r -> 0
# limit: the residual terms of K_nu(z) z^nu are O(z^{2 nu}) and already
# exceed the cancellation noise of the direct product there.
PHI_SMALL_Z = 1e-6

# Arguments beyond this underflow exp(-z) past double range; K is 0 there.
_Z_UNDERFLOW = 700.0

_SQRT_PI = float(np.sqrt(np.pi))


def bessel_k(nu, z):
    """Modified Bessel function of the second kind K_nu(z).

    Thin wrapper over ``scipy.special.kv`` (AMOS), vectorized over both the
    (real) order and the argument; supported window nu in [0, 2], z > 0.
    Relative accuracy is ~1e-14 across z in [1e-6, 50] against the integral
    representation; for z > 700 the value underflows and 0 is returned.

    Raises ValueError for non-finite input, z <= 0 or an order outside the
    support window.
    """
    nu_in = np.asarray(nu, dtype=float)
    z_in = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(nu_in)) or np.any(~np.isfinite(z_in)):
        raise ValueError("bessel_k: arguments must be finite")
    if np.any(z_in <= 0.0):
        raise ValueError("bessel_k: argument z must be positive")
    if np.any(nu_in < NU_SUPPORT[0]) or np.any(nu_in > NU_SUPPORT[1]):
        raise ValueError(f"bessel_k: order must lie in {list(NU_SUPPORT)}")
    out = np.where(z_in <= _Z_UNDERFLOW, _kv(nu_in, z_in), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def abs_gamma_neg(beta):
    """|Gamma(-beta)| = Gamma(1 - beta) / beta for beta in (0, 1)."""
    b = np.asarray(beta, dtype=float)
    if np.any(b <= 0.0) or np.any(b >= 1.0):
        raise ValueError("abs_gamma_neg: beta must lie in (0, 1)")
    out = _gamma_fn(1.0 - b) / b
    if np.ndim(beta) == 0:
        return float(out)
    return out


class KernelContext:
    """Fixed kernel parameters: inverse range kappa, noise scale mu, profile.

    Immutable; every evaluation below is pure, so a context can be shared
    freely across threads.
    """

    __slots__ = ("kappa", "mu", "profile", "dim")

    def __init__(self, kappa, mu, profile, dim=1):
        if dim != 1:
            raise ValueError("only the one-dimensional kernel is implemented")
        kappa = float(kappa)
        mu = float(mu)
        if not (0 < kappa < np.inf and 0 < mu < np.inf):
            raise ValueError(f"kappa and mu must be finite and positive, got {kappa}, {mu}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "dim", 1)

    def __setattr__(self, name, value):
        raise AttributeError("KernelContext is immutable")

    def __repr__(self):
        return (
            f"KernelContext(kappa={self.kappa}, mu={self.mu}, "
            f"profile={self.profile.kind})"
        )

    def beta(self, x, y):
        from . import smoothness

        return smoothness.beta(self.profile, x, y)

    def to_dict(self):
        return {
            "kappa": self.kappa,
            "mu": self.mu,
            "dim": self.dim,
            "profile": self.profile.to_dict(),
        }


def _prefactor_from_beta(kappa, b):
    nu = 0.5 + b
    return (1.0 / (2.0 * _SQRT_PI)) * 2.0**nu / (_gamma_fn(1.0 - b) / b) * kappa**nu


def _phi_from_beta(kappa, b, r):
    """phi from precomputed beta and r arrays: the direct product for r > 0,
    its finite limit prefactor * 2**(nu-1) Gamma(nu) kappa**(-nu) below
    kappa*r < PHI_SMALL_Z. Passing r directly avoids the cancellation in
    |x - y| when transformed quadrature already knows r in product form.
    """
    b = np.asarray(b, dtype=float)
    r = np.asarray(r, dtype=float)
    nu = 0.5 + b
    pref = _prefactor_from_beta(kappa, b)
    z = kappa * r
    limit = pref * 2.0 ** (nu - 1.0) * _gamma_fn(nu) * kappa ** (-nu)
    tiny = z < PHI_SMALL_Z
    if np.all(tiny):
        return limit if np.ndim(limit) else np.full(np.shape(r), limit)
    z_safe = np.where(tiny, 1.0, z)
    direct = pref * bessel_k(nu, z_safe) * r**nu
    return np.where(tiny, limit, direct)


def gamma_kernel(ctx, x, y):
    """Nonlocal kernel value; strictly positive, symmetric, singular at x=y.

    Coincident points are a hard error: assembly guarantees r > 0 at every
    quadrature point, and any sentinel value here would silently corrupt
    the integrals.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    r = np.abs(x_arr - y_arr)
    if np.any(r == 0.0):
        raise ValueError("gamma_kernel: x == y is singular")
    b = ctx.beta(x_arr, y_arr)
    nu = 0.5 + b
    out = _phi_from_beta(ctx.kappa, b, r) * r ** (-2.0 * nu)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out
