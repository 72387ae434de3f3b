"""Spans around varmatern's public functions, installed from outside the package.

A ``Tracer`` replaces module attributes with wrappers that record one span
per call: name, start, end, parent span and optional work counts. Several
functions are imported by name into other modules, so each lookup site is
wrapped separately (``TARGETS``). Spans stay in memory until the traced
process writes them out at exit; ``layer_metrics`` turns one process's spans
into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

import numpy as np

__all__ = [
    "Tracer", "TARGETS", "install", "pair_counts", "layer_metrics", "coverage", "orders_per_level",
]


class Tracer:
    """Collects spans ``[name, start, end, parent_index, counts]`` in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, func, name, count=None):
        def wrapper(*args, **kwargs):
            # A layer calling itself (e.g. through a second lookup site) is one span.
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return func(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper


# ---- computed work counts ------------------------------------------------


def _evaluate_points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _bessel_points(args, kwargs, result):
    shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
    return {"points": int(np.prod(shape, dtype=np.int64))}


def _gap_pairs(idx, min_gap):
    """Pairs (i < j) of sorted element indices with idx[j] - idx[i] >= min_gap."""
    return int(np.sum(idx.size - np.searchsorted(idx, idx + min_gap)))


def pair_counts(mesh):
    """Element pairs per class that enter the bilinear form (not both exterior)."""
    n_el = mesh.n_elements
    ext = np.flatnonzero(~np.asarray(mesh.element_interior))
    return {
        "identical": n_el - ext.size,
        "vertex_sharing": (n_el - 1) - _gap_pairs(ext, 1) + _gap_pairs(ext, 2),
        "disjoint": (n_el - 1) * (n_el - 2) // 2 - _gap_pairs(ext, 2),
    }


def _system_counts(args, kwargs, system):
    n = int(system.quad_meta["n_disjoint"])
    pairs = pair_counts(system.mesh)
    return {
        "level": int(system.mesh.level),
        "order": n,
        "pairs_identical": pairs["identical"],
        "pairs_vertex_sharing": pairs["vertex_sharing"],
        "pairs_disjoint": pairs["disjoint"],
        "disjoint_quad_points": pairs["disjoint"] * n * n,
    }


def _cholesky_flops(args, kwargs, lower):
    n = lower.shape[0]
    return {"flops": n**3 / 3.0}


def _solve_flops(args, kwargs, result):
    n = args[0].shape[0]
    rhs = 1 if np.ndim(args[1]) == 1 else np.shape(args[1])[1]
    return {"flops": 2.0 * n * n * rhs}


def _triple_product_flops(args, kwargs, result):
    # two Cholesky solve sweeps with N right-hand sides; the factor is its own span
    n = np.shape(args[0])[0]
    return {"flops": 4.0 * n**3}


def _error_norm_bytes(args, kwargs, result):
    fine, mass = args[0], args[3]
    return {"bytes": mass.shape[0] ** 2 * 8 * fine.shape[1]}


def _written_bytes(args, kwargs, path):
    path = Path(path)
    size = path.stat().st_size
    sidecar = path.with_name(path.name + ".json")
    if path.suffix == ".vwm1" and sidecar.exists():
        size += sidecar.stat().st_size
    return {"bytes": size}


# (module, attribute callers look up, span name, work counter)
TARGETS = [
    ("varmatern.cli", "load_config", "config.load", None),
    ("varmatern.smoothness", "evaluate", "smoothness.evaluate", _evaluate_points),
    ("varmatern.kernel", "bessel_k", "kernel.bessel", _bessel_points),
    ("varmatern.assembly", "bessel_k", "kernel.bessel", _bessel_points),
    ("varmatern.cli", "assemble_stiffness", "assembly.stiffness", _system_counts),
    ("varmatern.convergence", "assemble_stiffness", "assembly.stiffness", _system_counts),
    ("varmatern.assembly", "assemble_weighted_mass", "assembly.weighted_mass", None),
    ("varmatern.assembly", "cholesky", "linalg.cholesky", _cholesky_flops),
    ("varmatern.linalg", "cholesky", "linalg.cholesky", _cholesky_flops),
    ("varmatern.sampler", "solve_with_factor", "linalg.solve", _solve_flops),
    ("varmatern.convergence", "solve_with_factor", "linalg.solve", _solve_flops),
    ("varmatern.sampler", "inv_triple_product", "linalg.triple_product", _triple_product_flops),
    ("varmatern.sampler", "draw_noise", "sampler.noise", None),
    ("varmatern.convergence", "draw_noise", "sampler.noise", None),
    ("varmatern.convergence", "coupled_loads", "convergence.loads", None),
    ("varmatern.convergence", "injection", "convergence.injection", None),
    ("varmatern.convergence", "level_error_samples", "convergence.error_norm", _error_norm_bytes),
    ("varmatern.cli", "write_csv", "fileio.write", _written_bytes),
    ("varmatern.cli", "write_matrix", "fileio.write", _written_bytes),
    ("varmatern.cli", "write_json", "fileio.write", _written_bytes),
]


def install(tracer):
    """Wrap every target attribute; returns the ``module.attribute`` names not found."""
    missing = []
    for module_name, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        func = getattr(module, attr, None)
        if func is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(func, name, count))
    return missing


# ---- aggregation -----------------------------------------------------------


def coverage(spans, start, end):
    """Share of [start, end] covered by top-level spans."""
    covered = sum(
        max(0.0, min(s_end, end) - max(s_start, start))
        for _, s_start, s_end, parent, _ in spans
        if parent is None
    )
    return covered / (end - start)


def layer_metrics(spans):
    """Per-layer times and work counts from the spans of one process."""
    total = {}
    calls = {}
    counts = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, cnt in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] += end - start
        for key, val in (cnt or {}).items():
            counts.setdefault(name, {}).setdefault(key, []).append(val)
    stiffness_self = sum(
        (end - start) - child_time[i]
        for i, (name, start, end, _, _) in enumerate(spans)
        if name == "assembly.stiffness"
    )

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return sum(counts.get(name, {}).get(key, []))

    bessel_points = c("kernel.bessel", "points")
    pairs = sum(
        c("assembly.stiffness", key)
        for key in ("pairs_identical", "pairs_vertex_sharing", "pairs_disjoint")
    )
    orders = counts.get("assembly.stiffness", {}).get("order", [0])
    quad_points = c("assembly.stiffness", "disjoint_quad_points")
    return {
        "config.load_s": t("config.load"),
        "smoothness.evaluate_s": t("smoothness.evaluate"),
        "smoothness.points": c("smoothness.evaluate", "points"),
        "kernel.bessel_s": t("kernel.bessel"),
        "kernel.bessel_calls": calls.get("kernel.bessel", 0),
        "kernel.bessel_points": bessel_points,
        "kernel.bessel_ns_per_point": 1e9 * t("kernel.bessel") / max(bessel_points, 1),
        "kernel.bessel_points_per_quad_point": bessel_points / max(quad_points, 1),
        "assembly.stiffness_s": t("assembly.stiffness"),
        "assembly.self_s": stiffness_self,
        "assembly.weighted_mass_s": t("assembly.weighted_mass"),
        "assembly.pairs": pairs,
        "assembly.pairs_identical": c("assembly.stiffness", "pairs_identical"),
        "assembly.pairs_vertex_sharing": c("assembly.stiffness", "pairs_vertex_sharing"),
        "assembly.pairs_disjoint": c("assembly.stiffness", "pairs_disjoint"),
        "assembly.pairs_per_s": pairs / t("assembly.stiffness") if pairs else 0.0,
        "quadrature.order": max(orders),
        "linalg.cholesky_s": t("linalg.cholesky"),
        "linalg.solve_s": t("linalg.solve"),
        "linalg.triple_product_s": t("linalg.triple_product"),
        "linalg.flops": c("linalg.cholesky", "flops")
        + c("linalg.solve", "flops")
        + c("linalg.triple_product", "flops"),
        "sampler.noise_s": t("sampler.noise"),
        "convergence.loads_s": t("convergence.loads"),
        "convergence.injection_s": t("convergence.injection"),
        "convergence.error_norm_s": t("convergence.error_norm"),
        "convergence.error_norm_bytes": c("convergence.error_norm", "bytes"),
        "fileio.write_s": t("fileio.write"),
        "fileio.bytes": c("fileio.write", "bytes"),
    }


def orders_per_level(spans):
    """Quadrature order of every assembled system, keyed by mesh level."""
    return {
        cnt["level"]: cnt["order"]
        for name, _, _, _, cnt in spans
        if name == "assembly.stiffness" and cnt
    }
