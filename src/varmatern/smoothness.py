"""Spatially varying fractional order s(x) and its symmetric pair average.

A profile carries certified bounds ``s_lower <= s(x) <= s_upper`` with
``0 < s_lower`` and ``s_upper < 1``; every kernel exponent downstream is
driven by the pair average ``beta(x, y) = (s(x) + s(y)) / 2``, so the
bounds double as bounds for beta.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ProfileError",
    "SmoothnessProfile",
    "constant",
    "step",
    "gaussian_bump",
    "oscillatory_ramp",
    "tabulated",
    "tabulated_from_csv",
    "from_dict",
    "evaluate",
    "beta",
    "average_s",
]

_KINDS = ("constant", "step", "gaussian_bump", "oscillatory_ramp", "tabulated")

# Padding applied to numerically scanned bounds so that the certified
# interval always contains every pointwise value of the profile; dominates
# the curvature error of the 40001-point scan for the shipped oscillation
# scales.
_BOUND_PAD = 1e-6


class ProfileError(ValueError):
    """Raised for invalid profile parameters at construction time."""


class SmoothnessProfile:
    """Immutable fractional-order field s(x) with certified bounds.

    Instances are created through the module factories (:func:`constant`,
    :func:`step`, ...). Evaluation is pure and vectorized; profiles are
    safe to share between any number of concurrent workers.
    """

    __slots__ = ("kind", "s_lower", "s_upper", "params")

    def __init__(self, kind, s_lower, s_upper, params):
        if kind not in _KINDS:
            raise ProfileError(f"unknown profile kind {kind!r}")
        s_lower = float(s_lower)
        s_upper = float(s_upper)
        if not (0.0 < s_lower <= s_upper < 1.0):
            raise ProfileError(
                f"profile bounds must satisfy 0 < s_lower <= s_upper < 1, "
                f"got s_lower={s_lower}, s_upper={s_upper}"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s_lower", s_lower)
        object.__setattr__(self, "s_upper", s_upper)
        object.__setattr__(self, "params", dict(params))

    def __setattr__(self, name, value):
        raise AttributeError("SmoothnessProfile is immutable")

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return (
            f"SmoothnessProfile({self.kind}, s_lower={self.s_lower}, "
            f"s_upper={self.s_upper}, {inner})"
        )

    def __call__(self, x):
        return evaluate(self, x)

    def to_dict(self):
        out = {"kind": self.kind, "s_lower": self.s_lower, "s_upper": self.s_upper}
        for key, val in self.params.items():
            if isinstance(val, np.ndarray):
                out[key] = val.tolist()
            else:
                out[key] = val
        return out


def constant(s):
    """Profile with s(x) = s everywhere."""
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ProfileError(f"constant order must lie in (0, 1), got s={s}")
    return SmoothnessProfile("constant", s, s, {"s": s})


def step(s_lower, s_upper):
    """Step profile: s_lower for x <= 0, s_upper for x > 0."""
    if not float(s_lower) < float(s_upper):
        raise ProfileError(
            f"step profile needs s_lower < s_upper, got {s_lower} >= {s_upper}"
        )
    return SmoothnessProfile("step", s_lower, s_upper, {})


def gaussian_bump(s_lower, s_upper, sigma, r_int):
    """Gaussian bump reaching s_upper at x=0 and s_lower at |x| >= r_int."""
    if not float(s_lower) < float(s_upper):
        raise ProfileError(
            f"gaussian bump needs s_lower < s_upper, got {s_lower} >= {s_upper}"
        )
    if not float(sigma) > 0 or not float(r_int) > 0:
        raise ProfileError(
            f"gaussian bump needs sigma > 0 and r_int > 0, got "
            f"sigma={sigma}, r_int={r_int}"
        )
    ratio = float(r_int) / float(sigma)
    if not np.isfinite(ratio * ratio):  # evaluate takes exp(-(r_int / sigma)**2)
        raise ProfileError(
            f"gaussian bump needs (r_int / sigma)**2 finite, got sigma={sigma}, r_int={r_int}"
        )
    return SmoothnessProfile(
        "gaussian_bump",
        s_lower,
        s_upper,
        {"sigma": float(sigma), "r_int": float(r_int)},
    )


def oscillatory_ramp(a, b, omega, r_int):
    """Linear ramp from a to b across [-r_int, r_int] with a sine overlay.

    The parameters (a, b, omega) define the profile; the certified bounds
    are scanned numerically from the closed form rather than taken from
    the nominal endpoints, since the oscillation can overshoot them.
    """
    a = float(a)
    b = float(b)
    omega = float(omega)
    r = float(r_int)
    if not r > 0:
        raise ProfileError(f"oscillatory ramp needs r_int > 0, got {r_int}")
    xs = np.linspace(-r, r, 40001)
    vals = a + (b - a) / (2 * r) * (xs + r) + omega * np.sin(4 * np.pi * (xs + r) / r)
    lo = min(vals.min(), a, b) - _BOUND_PAD
    hi = max(vals.max(), a, b) + _BOUND_PAD
    if not (0.0 < lo and hi < 1.0):
        raise ProfileError(
            f"oscillatory ramp leaves (0, 1): scanned range [{lo:.6g}, {hi:.6g}]"
        )
    return SmoothnessProfile(
        "oscillatory_ramp", lo, hi, {"a": a, "b": b, "omega": omega, "r_int": r}
    )


def tabulated(x, s):
    """Piecewise-linear profile through sorted (x, s) pairs.

    Constant extrapolation beyond the table; bounds are the table min/max,
    which the interpolant cannot exceed.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if x.ndim != 1 or x.shape != s.shape or x.size < 2:
        raise ProfileError("tabulated profile needs two 1-d columns with >= 2 rows")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise ProfileError("tabulated profile abscissae must be finite and strictly increasing")
    if np.any(~np.isfinite(s)) or np.any(s <= 0) or np.any(s >= 1):
        raise ProfileError("tabulated profile values must lie in (0, 1)")
    return SmoothnessProfile(
        "tabulated", s.min(), s.max(), {"x": x.copy(), "s": s.copy()}
    )


def tabulated_from_csv(path):
    """Load a tabulated profile from a two-column CSV (x, s) with a header row."""
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    except (OSError, TypeError, ValueError) as exc:
        raise ProfileError(f"tabulated profile file {path!r}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] < 2:
        raise ProfileError(f"{path}: expected two columns (x, s) with a header row")
    return tabulated(data[:, 0], data[:, 1])


# Keys a config block of each kind may hold besides "kind": the ones
# from_dict reads, plus the bounds to_dict() writes where they are derived
# (accepted and not read, so that a config echo loads back).
_BLOCK_KEYS = {
    "constant": {"s", "s_lower", "s_upper"},
    "step": {"s_lower", "s_upper"},
    "gaussian_bump": {"s_lower", "s_upper", "sigma", "r_int"},
    "oscillatory_ramp": {"a", "b", "omega", "r_int", "s_lower", "s_upper"},
    "tabulated": {"path", "x", "s", "s_lower", "s_upper"},
}


def _floats(val):
    return np.asarray(val, dtype=float)


def from_dict(block, default_r_int=None):
    """Build a profile from its JSON config block.

    Errors name the key, as ``profile.<key>``, that the kind needs and the
    block lacks, that the kind does not take, or whose value is not a finite
    number (a list of them for ``x`` and ``s`` of ``tabulated``).
    """
    kind = block.get("kind") if isinstance(block, dict) else None
    if kind not in _KINDS:
        raise ProfileError(f"'profile.kind' must be one of {list(_KINDS)}, got {kind!r}")
    unknown = sorted(set(block) - {"kind"} - _BLOCK_KEYS[kind])
    if unknown:
        raise ProfileError(f"key 'profile.{unknown[0]}' is not read by a {kind} profile")

    def read(key, convert=float, default=None):
        val = block.get(key, default)
        if val is None:
            raise ProfileError(f"missing key 'profile.{key}' for a {kind} profile")
        items = val if isinstance(val, list) else [val]
        try:
            # JSON true / false would pass as 1 / 0
            out = np.nan if any(isinstance(v, bool) for v in items) else convert(val)
        except (TypeError, ValueError):
            out = np.nan
        if not np.all(np.isfinite(out)):
            raise ProfileError(f"profile key 'profile.{key}' has an invalid value {val!r}")
        return out

    if kind == "constant":
        return constant(read("s"))
    if kind == "step":
        return step(read("s_lower"), read("s_upper"))
    if kind == "tabulated":
        if "path" in block:
            path = block["path"]
            if not isinstance(path, str):
                raise ProfileError(
                    f"tabulated profile file {path!r}: key 'profile.path' must be a string"
                )
            return tabulated_from_csv(path)
        return tabulated(read("x", _floats), read("s", _floats))
    r_int = read("r_int", default=default_r_int)
    if kind == "gaussian_bump":
        sigma = read("sigma", default=0.3 * r_int)
        return gaussian_bump(read("s_lower"), read("s_upper"), sigma, r_int)
    return oscillatory_ramp(read("a"), read("b"), read("omega"), r_int)


def evaluate(profile, x):
    """Evaluate s(x); scalar in, scalar out, arrays broadcast."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x_arr)):
        raise ValueError("profile evaluation needs finite coordinates")
    kind = profile.kind
    p = profile.params
    if kind == "constant":
        out = np.full_like(x_arr, p["s"], dtype=float)
    elif kind == "step":
        out = np.where(x_arr <= 0.0, profile.s_lower, profile.s_upper)
    elif kind == "gaussian_bump":
        sig, r = p["sigma"], p["r_int"]
        edge = np.exp(-((r / sig) ** 2))
        hump = (np.exp(-((x_arr / sig) ** 2)) - edge) / (1.0 - edge)
        out = np.where(
            np.abs(x_arr) <= r,
            profile.s_lower + (profile.s_upper - profile.s_lower) * hump,
            profile.s_lower,
        )
    elif kind == "oscillatory_ramp":
        a, b, om, r = p["a"], p["b"], p["omega"], p["r_int"]
        ramp = a + (b - a) / (2 * r) * (x_arr + r) + om * np.sin(
            4 * np.pi * (x_arr + r) / r
        )
        out = np.where(x_arr <= -r, a, np.where(x_arr >= r, b, ramp))
    else:  # tabulated
        out = np.interp(x_arr, p["x"], p["s"])
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def beta(profile, x, y):
    """Symmetric pair average (s(x) + s(y)) / 2, the local kernel exponent."""
    return 0.5 * (evaluate(profile, x) + evaluate(profile, y))


def _breakpoints(profile, a, b):
    pts = [a, b]
    if profile.kind == "step":
        pts.append(0.0)
    elif profile.kind in ("gaussian_bump", "oscillatory_ramp"):
        r = profile.params["r_int"]
        pts.extend([-r, r])
    elif profile.kind == "tabulated":
        pts.extend(profile.params["x"].tolist())
    pts = sorted(p for p in set(pts) if a <= p <= b)
    return pts


def average_s(profile, domain):
    """Mean of s over an interval: (1/|G|) * integral of s.

    Composite Gauss quadrature on each smooth piece (splitting at profile
    breakpoints); relative accuracy far below 1e-10 for the closed-form
    profiles.
    """
    a, b = (float(domain[0]), float(domain[1]))
    if not b > a:
        raise ValueError(f"domain [{a}, {b}] must have positive length")
    from .quadrature import gauss_legendre_01

    rule = gauss_legendre_01(16)
    pts = _breakpoints(profile, a, b)
    total = 0.0
    panels_per_piece = 64
    for lo, hi in zip(pts[:-1], pts[1:]):
        edges = np.linspace(lo, hi, panels_per_piece + 1)
        widths = np.diff(edges)
        xq = edges[:-1, None] + widths[:, None] * rule.nodes[None, :]
        vals = evaluate(profile, xq)
        total += float(np.sum(widths[:, None] * rule.weights[None, :] * vals))
    return total / (b - a)
