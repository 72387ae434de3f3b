"""Modified Bessel function of the second kind and the heterogeneous kernel.

Everything here is specialized to one space dimension: with r = |x - y|,
beta(x, y) the symmetric order average and nu = 1/2 + beta,

    prefactor(x, y) = (1 / (2 sqrt(pi))) * 2**nu / |Gamma(-beta)| * kappa**nu
    phi(x, y)       = prefactor * K_nu(kappa r) * r**nu      (smooth up to r=0)
    gamma_kernel    = phi / r**(2 nu)                         (singular at r=0)

Up to z = kappa r = Z_SERIES, phi comes from Temme's series for K_nu(z)
(Temme, "On the numerical evaluation of the modified Bessel function of the
third kind", J. Comput. Phys. 19, 1975), which holds the r -> 0 limit and
the order nu = 1 without cancellation; against 30-digit values it is within
1.1e-14 relative over beta in (0, 1). Above it, K_nu comes from
scipy.special.kv (the AMOS routines, Amos, ACM TOMS Alg. 644), within 6e-16
relative there; bessel_k adds the order window, argument checks and the
underflow rule.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as _gamma_fn
from scipy.special import kv as _kv
from scipy.special import rgamma as _rgamma

from . import smoothness

__all__ = [
    "NU_SUPPORT",
    "Z_SERIES",
    "KernelContext",
    "bessel_k",
    "abs_gamma_neg",
    "gamma_kernel",
]

# Supported order window for bessel_k: covers nu(x, y) in (1/2, 3/2) with
# margin plus the Matern reference orders.
NU_SUPPORT = (0.0, 2.0)

# Up to this value of z = kappa*r, phi comes from Temme's series; above it
# from bessel_k, which is within 1e-13 relative below it and 6e-16 above.
Z_SERIES = 2.0

# Taylor coefficients of 1/Gamma(1 + x) at x = 0, degrees 0 to 20. For
# |x| <= 1/2 the terms past degree 20 add less than 1e-18.
_RGAMMA_TAYLOR = (
    1.0, 0.57721566490153286061, -0.65587807152025388108, -0.042002635034095235529,
    0.1665386113822914895, -0.042197734555544336748, -0.0096219715278769735621,
    0.0072189432466630995424, -0.0011651675918590651121, -0.00021524167411495097282,
    0.00012805028238811618615, -0.000020134854780788238656, -1.2504934821426706573e-6,
    1.1330272319816958824e-6, -2.0563384169776071035e-7, 6.1160951044814158179e-9,
    5.0020076444692229301e-9, -1.1812745704870201446e-9, 1.0434267116911005105e-10,
    7.782263439905071254e-12, -3.6968056186422057082e-12,
)
# Highest degree first, as polynomials in x^2: the even part, and minus the
# odd part over x.
_RGAMMA_EVEN = _RGAMMA_TAYLOR[::-2]
_RGAMMA_ODD = tuple(-c for c in _RGAMMA_TAYLOR[-2::-2])

# Temme's series stops before its first term whose bound (_series_terms)
# falls below this, at the largest z and smallest mu of a call. The terms it
# drops then fall below half an ulp of the sum, so the bits of a point do not
# depend on the other points of its call: against 10 more terms, no bit moved
# over 4.8 M points with beta in (0, 1) and z up to 2.
_SERIES_TAIL = 1e-20

# The series takes z below this as this: the terms past its r -> 0 limit
# are below (z/2)^min(2, 2 nu) < 1e-30 of it there, so r = 0 gives the limit.
_Z_FLOOR = 1e-30

# Points per pass of the series, so that its temporaries stay in cache.
_SERIES_POINTS = 16384

# Arguments beyond this underflow exp(-z) past double range; K is 0 there.
_Z_UNDERFLOW = 700.0

_SQRT_PI = float(np.sqrt(np.pi))


def bessel_k(nu, z):
    """Modified Bessel function of the second kind K_nu(z).

    Thin wrapper over ``scipy.special.kv`` (AMOS), vectorized over both the
    (real) order and the argument; supported window nu in [0, 2], z > 0.
    Relative accuracy against 30-digit values is within 1e-13 for z in
    [1e-6, 2] (9.5e-14 seen just below z = 2) and 6e-16 for z in (2, 50];
    for z > 700 the value underflows and 0 is returned.

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

    __slots__ = ("kappa", "mu", "profile")

    def __init__(self, kappa, mu, profile):
        kappa = float(kappa)
        mu = float(mu)
        if not (0 < kappa < np.inf and 0 < mu < np.inf):
            raise ValueError(f"kappa and mu must be finite and positive, got {kappa}, {mu}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "profile", profile)

    def __setattr__(self, name, value):
        raise AttributeError("KernelContext is immutable")

    def __repr__(self):
        return (
            f"KernelContext(kappa={self.kappa}, mu={self.mu}, "
            f"profile={self.profile.kind})"
        )

    def to_dict(self):
        return {
            "kappa": self.kappa,
            "mu": self.mu,
            "dim": 1,  # the kernel is one-dimensional; manifests keep the key
            "profile": self.profile.to_dict(),
        }


def _prefactor_from_beta(kappa, b):
    nu = 0.5 + b
    return np.exp2(b - 0.5) * b * _rgamma(1.0 - b) / _SQRT_PI * kappa**nu


def _horner(coef, x):
    """The polynomial with coefficients coef, highest degree first, at x."""
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _series_factors(b):
    """The factors of Temme's series that depend on the order alone, on b's
    shape: mu = b - 1/2 = nu - 1, the weights a and c of f_0,
    p_0 = Gamma(1 + mu) / 2, q_0 = Gamma(1 - mu) / 2 and the scale of phi."""
    mu = b - 0.5
    u = mu * mu
    gam1 = _horner(_RGAMMA_ODD, u)
    gam2 = _horner(_RGAMMA_EVEN, u)  # 1/Gamma(1 -+ mu) = gam2 +- mu gam1
    mu_gam1 = mu * gam1
    p = 0.5 / (gam2 - mu_gam1)
    q = 0.5 / (gam2 + mu_gam1)
    fact = 4.0 * p * q  # Gamma(1+mu) Gamma(1-mu) = pi mu / sin(pi mu)
    a = 0.5 * fact * gam1
    c = fact * gam2
    two_mu = np.exp2(mu)
    scale = (2.0 / _SQRT_PI) * two_mu * two_mu * b * _rgamma(1.0 - b)
    return mu, a, c, p, q, scale


def _series_terms(z_max, mu_min):
    """The terms past k = 0 that Temme's series needs for z <= z_max and
    mu >= mu_min: the first term it drops, k + 1, is at most
    (z/2)^(2k + 2 + 2 min(mu, 0)) / ((k+1)!)^2 of the sum."""
    half = 0.5 * z_max
    k, tail = 0, half ** (2.0 + 2.0 * min(mu_min, 0.0))
    while tail >= _SERIES_TAIL:
        k += 1
        tail *= half * half / ((k + 1) * (k + 1))
    return k


def _temme(factors, z):
    """phi = scale * sum_k c_k (p_k - k f_k), where z^nu K_nu(z) = 2^(1+mu)
    times the sum: Temme's series for K_{1+mu}(z) with every term scaled by
    (z/2)^mu, c_k = (z^2/4)^k / k!. f_0 pairs the two terms whose poles at
    mu = 0 cancel through ((z/2)^(2 mu) - 1) / (2 mu)
    = log(z/2) exprel(2 mu log(z/2))."""
    mu, a, c, p, q, scale = factors
    z = np.maximum(z, _Z_FLOOR)
    log_half = np.log(0.5 * z)
    t = (2.0 * mu) * log_half
    em1 = np.expm1(t)  # (z/2)^(2 mu) - 1
    c_log_exprel = np.divide(em1, t, out=np.ones(t.shape), where=t != 0.0)
    c_log_exprel *= log_half
    c_log_exprel *= c
    f = em1 + 2.0
    f *= a
    f -= c_log_exprel  # f_0 (z/2)^mu
    em1 += 1.0
    em1 *= q
    q_k = em1  # q_0 (z/2)^mu
    p_k = np.empty(f.shape)
    p_k[...] = p
    total = p_k.copy()
    ck = np.ones(z.shape)
    quarter_z2 = 0.25 * z * z
    tmp = np.empty(f.shape)
    for k in range(1, _series_terms(float(z.max()), float(mu.min())) + 1):
        f *= k
        f += p_k
        f += q_k
        k_minus_mu = k - mu
        k_plus_mu = k + mu
        f /= k_minus_mu
        f /= k_plus_mu
        p_k /= k_minus_mu
        q_k /= k_plus_mu
        ck *= quarter_z2
        ck *= 1.0 / k
        np.multiply(f, k, out=tmp)
        np.subtract(p_k, tmp, out=tmp)
        tmp *= ck
        total += tmp
    total *= scale
    return total


def _phi_from_beta(kappa, b, r):
    """phi from beta and r arrays (broadcast against each other).

    Up to z = kappa*r = Z_SERIES, phi comes from Temme's series in
    nu = 1 + mu, |mu| < 1/2, in passes of _SERIES_POINTS points along the
    leading axis, with the factors that depend on the order alone computed
    on the shape of b's slice (once per node for the beta table). It gives
    the limit prefactor * 2**(nu-1) Gamma(nu) kappa**(-nu) at r = 0 and is
    within 1.1e-14 relative of 30-digit values for z in (0, Z_SERIES], nu = 1
    included. Above Z_SERIES, phi is the direct product
    prefactor * bessel_k * r**nu. Passing r directly avoids the
    cancellation in |x - y| when transformed quadrature already knows r in
    product form.
    """
    b = np.asarray(b, dtype=float)
    r = np.asarray(r, dtype=float)
    if b.ndim == r.ndim == 0:
        return _phi_from_beta(kappa, b.reshape(1), r.reshape(1)).reshape(())
    z = kappa * r
    near = z <= Z_SERIES
    out = np.empty(np.broadcast(b, z).shape)
    if not near.all():
        far = np.broadcast_to(~near, out.shape)
        b_far = np.broadcast_to(b, out.shape)[far]
        r_far = np.broadcast_to(r, out.shape)[far]
        nu = 0.5 + b_far
        out[far] = _prefactor_from_beta(kappa, b_far) * bessel_k(nu, kappa * r_far) * r_far**nu
        if not near.any():
            return out
    rows = max(1, _SERIES_POINTS * len(out) // max(out.size, 1))
    for i in range(0, len(out), rows):
        # an array that broadcasts along out's leading axis is not sliced
        b_s, z_s, near_s = (
            arr[i : i + rows] if arr.ndim == out.ndim and len(arr) > 1 else arr for arr in (b, z, near)
        )
        out_s = out[i : i + rows]
        if near_s.all():
            out_s[...] = _temme(_series_factors(b_s), z_s)
        elif near_s.any():
            # the factors from b's shape or from the picked points, whichever is fewer
            pick = np.broadcast_to(near_s, out_s.shape)
            z_s = np.broadcast_to(z_s, out_s.shape)[pick]
            if b_s.size > z_s.size:
                factors = _series_factors(np.broadcast_to(b_s, out_s.shape)[pick])
            else:
                factors = [np.broadcast_to(f, out_s.shape)[pick] for f in _series_factors(b_s)]
            out_s[pick] = _temme(factors, z_s)
    return out


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
    b = smoothness.beta(ctx.profile, x_arr, y_arr)
    nu = 0.5 + b
    out = _phi_from_beta(ctx.kappa, b, r) * r ** (-2.0 * nu)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out
