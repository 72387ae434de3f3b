"""Gauss-Legendre rules on [0, 1] and the log(1/h) quadrature-order rule."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureRule1D", "gauss_legendre_01", "quadrature_order"]

MAX_ORDER = 64


class QuadratureRule1D:
    """Immutable Gauss-Legendre rule on [0, 1]."""

    __slots__ = ("n", "nodes", "weights")

    def __init__(self, n, nodes, weights):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("QuadratureRule1D is immutable")

    def integrate(self, f):
        return float(np.sum(self.weights * f(self.nodes)))

    def __repr__(self):
        return f"QuadratureRule1D(n={self.n})"


@lru_cache(maxsize=None)
def gauss_legendre_01(n):
    """n-point Gauss-Legendre rule mapped from [-1, 1] to [0, 1].

    Exact for polynomials of degree <= 2n - 1; weights sum to 1.
    """
    n = int(n)
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"quadrature order must lie in [1, {MAX_ORDER}], got {n}")
    x, w = leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(n, nodes, weights)


def quadrature_order(h, s_upper, s_lower=None, c=1.0, target_rate=None,
                     n_min=4, n_max=MAX_ORDER):
    """Tensor-Gauss order keeping the quadrature error below the FE error.

    n = ceil(c * log(1/h) * (r + 2 s_upper)), clamped to [n_min, n_max]
    (n_min at h = 1, level 0). When no target rate r is given it defaults to
    the expected strong rate max(2 s_lower - 1/2, 0) (requires s_lower).
    """
    h = float(h)
    if not 0.0 < h <= 1.0:
        raise ValueError(f"mesh size must lie in (0, 1], got h={h}")
    if target_rate is None:
        if s_lower is None:
            raise ValueError("quadrature_order needs target_rate or s_lower")
        target_rate = max(2.0 * float(s_lower) - 0.5, 0.0)
    raw = c * math.log(1.0 / h) * (float(target_rate) + 2.0 * float(s_upper))
    return int(min(max(math.ceil(raw), n_min), n_max))
