"""Command-line front end: config resolution, pipeline runs, file emission.

Commands: assemble | sample | covariance | matern | converge | kernel-check.
Exit codes: 0 success, 1 configuration error, 2 numerical failure. Any
config key can be overridden with a dotted flag (e.g. ``--kernel.kappa 2.5``);
a few common ones have shorthands. Every output directory receives a
manifest echoing the resolved configuration and the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .assembly import AssemblyError, assemble_stiffness
from .checks import bessel_bound_summary, two_regime_summary
from .config import ConfigError, load_config
from .convergence import estimate_rate
from .fileio import write_csv, write_json, write_matrix
from .linalg import NotPositiveDefiniteError
from .mesh import MeshError
from .reference import MaternParams, matern_cov, params_from_profile, whittle_variance
from .sampler import analytic_covariance, covariance_slice, sample_fields
from .smoothness import ProfileError

COMMANDS = ("assemble", "sample", "covariance", "matern", "converge", "kernel-check")

_SHORTHANDS = {
    "level": "domain.level",
    "kappa": "kernel.kappa",
    "mu": "kernel.mu",
    "m": "sampling.m",
    "seed": "sampling.seed",
    "out": "outputs.directory",
    "s": "profile.s",
    "s_lower": "profile.s_lower",
    "s_upper": "profile.s_upper",
    "n": "quadrature.n_override",
}


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="varmatern",
        description="Sample Whittle-Matern fields with spatially varying order (1D).",
        allow_abbrev=False,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--profile", help="profile kind shorthand", default=None)
    parser.add_argument("--slices", help="comma list of slice locations", default=None)
    parser.add_argument("--levels", help="comma list of levels (fine first)", default=None)
    for short in _SHORTHANDS:
        parser.add_argument(f"--{short.replace('_', '-')}", default=None)
    # merge values that look like options (e.g. "--slices -1.5,0,1.5")
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--slices", "--levels") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    args, rest = parser.parse_known_args(merged)

    overrides = {}
    for short, dotted in _SHORTHANDS.items():
        val = getattr(args, short)
        if val is not None:
            overrides[dotted] = _parse_value(val)
    if args.profile is not None:
        overrides["profile.kind"] = args.profile
    if args.slices is not None:
        overrides["slices.x0"] = [float(t) for t in str(args.slices).split(",") if t]
    if args.levels is not None:
        overrides["convergence.levels"] = [int(t) for t in str(args.levels).split(",") if t]
    it = iter(rest)
    for tok in it:
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, text = key.split("=", 1)
        else:
            try:
                text = next(it)
            except StopIteration:
                raise ConfigError(f"flag --{key} needs a value")
        overrides[key] = _parse_value(text)
    return args.command, args.config, overrides


def _resolve_profile_overrides(overrides):
    """Collect profile.* overrides into a replacement profile block."""
    keys = [k for k in overrides if k.startswith("profile.")]
    if not keys:
        return overrides
    block = {}
    for k in keys:
        block[k.split(".", 1)[1]] = overrides.pop(k)
    overrides["profile"] = block
    return overrides


def _build_system(cfg):
    return assemble_stiffness(cfg.mesh, cfg.ctx, **cfg.assemble_kwargs())


def _manifest(cfg, command, outputs, timings, extra=None):
    man = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "outputs": [str(p) for p in outputs],
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
    }
    if extra:
        man.update(extra)
    return man


def _cmd_assemble(cfg):
    outputs = []
    timings = {}
    t0 = time.perf_counter()
    system = _build_system(cfg)
    timings["assemble"] = time.perf_counter() - t0
    side = {"config": cfg.echo(), **system.to_manifest()}
    out = cfg.out_dir
    outputs.append(write_matrix(out / "stiffness.vwm1", system.a, side))
    outputs.append(write_matrix(out / "mass.vwm1", system.m, side))
    outputs.append(write_matrix(out / "weighted_mass.vwm1", system.a1, side))
    man = _manifest(cfg, "assemble", outputs, timings, {"system": system.to_manifest()})
    write_json(out / "manifest.json", man)
    return 0


def _cmd_sample(cfg):
    outputs = []
    timings = {}
    t0 = time.perf_counter()
    system = _build_system(cfg)
    timings["assemble"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch = sample_fields(system, cfg.m, cfg.seed)
    timings["sample"] = time.perf_counter() - t0
    names = ["node_x"] + [f"u_{k + 1}" for k in range(batch.m)]
    cols = [batch.coords] + [batch.samples[:, k] for k in range(batch.m)]
    outputs.append(write_csv(cfg.out_dir / "samples.csv", names, cols))
    man = _manifest(cfg, "sample", outputs, timings, {"system": system.to_manifest()})
    write_json(cfg.out_dir / "manifest.json", man)
    return 0


def _slice_tag(x0):
    return format(x0, "g").replace("-", "m").replace(".", "p")


def _cmd_covariance(cfg):
    outputs = []
    timings = {}
    t0 = time.perf_counter()
    system = _build_system(cfg)
    timings["assemble"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cov = analytic_covariance(system)
    timings["covariance"] = time.perf_counter() - t0
    for x0 in cfg.slices:
        ys, vals = covariance_slice(cov, x0)
        path = cfg.out_dir / f"covariance_x{_slice_tag(x0)}.csv"
        outputs.append(write_csv(path, ["y", "C_x0_y"], [ys, vals]))
    if "vwm1" in cfg.formats:
        side = {"config": cfg.echo(), **system.to_manifest()}
        outputs.append(write_matrix(cfg.out_dir / "covariance.vwm1", cov.matrix, side))
    man = _manifest(cfg, "covariance", outputs, timings, {"system": system.to_manifest()})
    write_json(cfg.out_dir / "manifest.json", man)
    return 0


def _cmd_matern(cfg):
    timings = {}
    t0 = time.perf_counter()
    if cfg.profile.kind == "constant":
        s = cfg.profile.params["s"]
        params = MaternParams(
            2.0 * s - 0.5,
            cfg.ctx.kappa,
            whittle_variance(s, cfg.ctx.kappa, cfg.ctx.mu),
            {"s": s, "mu": cfg.ctx.mu, "d": 1},
        )
    else:
        params = params_from_profile(
            cfg.profile, cfg.ctx.kappa, cfg.ctx.mu, (-cfg.r_ext, cfg.r_ext)
        )
    rs = np.arange(0.0, 2.0 * cfg.r_int + cfg.mesh.h / 2, cfg.mesh.h)
    vals = matern_cov(rs, params)
    timings["matern"] = time.perf_counter() - t0
    path = write_csv(cfg.out_dir / "matern.csv", ["r", "matern_cov"], [rs, vals])
    man = _manifest(cfg, "matern", [path], timings, {"matern_params": params.to_dict()})
    write_json(cfg.out_dir / "manifest.json", man)
    return 0


def _cmd_converge(cfg):
    timings = {}
    t0 = time.perf_counter()
    report = estimate_rate(
        cfg.profile,
        cfg.ctx.kappa,
        cfg.ctx.mu,
        cfg.r_int,
        cfg.r_ext,
        cfg.levels,
        cfg.m,
        cfg.seed,
        quad_c=cfg.quad_c,
        target_rate=cfg.quad_target_rate,
        n_override=cfg.quad_n_override,
        n_min=cfg.quad_n_min,
        n_max=cfg.quad_n_max,
        norm_kind=cfg.norm_kind,
    )
    timings["converge"] = time.perf_counter() - t0
    payload = report.to_dict()
    payload["config_echo"] = cfg.echo()
    path = write_json(cfg.out_dir / "rate_report.json", payload)
    outputs = [path]
    if report.per_sample:
        levels = sorted(report.per_sample, reverse=True)
        cols = [np.arange(1, report.m + 1)] + [report.per_sample[l] for l in levels]
        names = ["sample"] + [f"err_level_{l}" for l in levels]
        outputs.append(write_csv(cfg.out_dir / "per_sample_errors.csv", names, cols))
    man = _manifest(cfg, "converge", outputs, timings, {"r_hat": report.r_hat})
    write_json(cfg.out_dir / "manifest.json", man)
    return 0


def _cmd_kernel_check(cfg):
    timings = {}
    t0 = time.perf_counter()
    two_regime = two_regime_summary(
        cfg.ctx, (-cfg.r_ext, cfg.r_ext), n_pairs=10_000, seed=cfg.seed
    )
    bounds = bessel_bound_summary(
        nu_lo=0.5 + cfg.profile.s_lower, nu_hi=0.5 + cfg.profile.s_upper
    )
    timings["kernel_check"] = time.perf_counter() - t0
    ok = (
        two_regime["near"]["min"] > 0
        and np.isfinite(two_regime["near"]["ratio"])
        and two_regime["near_limit_max_rel_dev"] < 0.01
        and ("far" not in two_regime or two_regime["far"]["min"] > 0)
        and bounds["c0_global"] > 0
    )
    payload = {
        "passed": bool(ok),
        "two_regime": two_regime,
        "bessel_bounds": bounds,
        "config_echo": cfg.echo(),
    }
    path = write_json(cfg.out_dir / "kernel_check.json", payload)
    man = _manifest(cfg, "kernel-check", [path], timings, {"passed": bool(ok)})
    write_json(cfg.out_dir / "manifest.json", man)
    return 0 if ok else 2


_RUNNERS = {
    "assemble": _cmd_assemble,
    "sample": _cmd_sample,
    "covariance": _cmd_covariance,
    "matern": _cmd_matern,
    "converge": _cmd_converge,
    "kernel-check": _cmd_kernel_check,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command, config_path, overrides = _parse_args(argv)
        overrides = _resolve_profile_overrides(overrides)
        cfg = load_config(config_path, overrides)
        cfg.check_command(command)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ProfileError, MeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _RUNNERS[command](cfg)
    except (ConfigError, ProfileError, MeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (AssemblyError, NotPositiveDefiniteError, np.linalg.LinAlgError,
            FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
