"""Command-line front end: argv -> dotted overrides -> one config merge ->
RunConfig -> command runner -> output files and manifest.json (see _USAGE)."""

from __future__ import annotations

import json
import sys
import textwrap
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .assembly import AssemblyError, assemble_stiffness
from .checks import bessel_bound_summary, two_regime_summary
from .config import ConfigError, load_config, slice_file
from .convergence import rate_from_systems, rate_standard_errors
from .fileio import write_csv, write_json, write_matrix
from .linalg import NotPositiveDefiniteError
from .mesh import MeshError
from .reference import MaternParams, matern_cov, params_from_profile, whittle_variance
from .sampler import analytic_covariance, sample_fields
from .smoothness import ProfileError

COMMANDS = ("assemble", "sample", "covariance", "matern", "converge", "kernel-check")

_ALIASES = {
    "level": "domain.level", "kappa": "kernel.kappa", "mu": "kernel.mu",
    "m": "sampling.m", "seed": "sampling.seed", "out": "outputs.directory",
    "s": "profile.s", "s-lower": "profile.s_lower", "s-upper": "profile.s_upper",
    "n": "quadrature.n_override", "profile": "profile.kind", "slices": "slices.x0",
    "levels": "convergence.levels",
}

# Keys whose flag value is a comma list ("-1.5,0,1.5"), with the item type.
_COMMA_LISTS = {"slices.x0": float, "convergence.levels": int}

_USAGE = "usage: varmatern COMMAND [--KEY VALUE | --KEY=VALUE ...]\n\n" + textwrap.fill(
    f"COMMAND, before or after the flags, is one of: {' | '.join(COMMANDS)}. A flag's "
    'value is the text after "=", else the next token, even one that starts with "-". '
    "--config FILE merges a JSON config file onto the defaults; --SECTION.KEY VALUE then "
    "sets any config key, VALUE read as JSON or else kept as a string (--slices and "
    "--levels take comma lists). A profile block, from the file or the profile.* flags, "
    "replaces the current one when its kind differs and merges onto it otherwise. "
    "Shorthands: " + ", ".join(f"--{short} ({key})" for short, key in _ALIASES.items())
    + ". Exit codes: 0 success, 1 configuration error, 2 numerical failure.",
    78, break_on_hyphens=False)


def _parse_args(argv):
    """argv -> (command, config file, {dotted key: value}); command None for --help."""
    command, config_path, overrides = None, None, {}
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return None, None, {}
        if not tok.startswith("--"):
            if command is not None or tok not in COMMANDS:
                raise ConfigError(f"unexpected argument {tok!r}: give one command of {COMMANDS}")
            command = tok
            continue
        flag, eq, text = tok[2:].partition("=")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ConfigError(f"flag --{flag} needs a value")
        key = _ALIASES.get(flag, flag)
        if key == "config":
            config_path = text
        elif key in _COMMA_LISTS:
            kind = _COMMA_LISTS[key]
            try:
                overrides[key] = [kind(t) for t in text.split(",") if t]
            except ValueError:
                raise ConfigError(f"config key '{key}' takes a comma list of "
                                  f"{kind.__name__}, got {text!r}") from None
        else:
            try:
                overrides[key] = json.loads(text)
            except json.JSONDecodeError:
                overrides[key] = text
    if command is None:
        raise ConfigError(f"no command given: choose one of {COMMANDS}")
    return command, config_path, overrides


@contextmanager
def _timed(timings, stage):
    """Add the wall time of the block to ``timings[stage]``."""
    t0 = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0


def _assembled(cfg, timings, mesh):
    """The system of ``mesh``, one of ``cfg.meshes``, timed under "assemble"."""
    with _timed(timings, "assemble"):
        try:
            return assemble_stiffness(mesh, cfg.ctx, cfg.quad_order(mesh))
        except AssemblyError as exc:
            raise AssemblyError(f"assembly failed at level {mesh.level}: {exc}") from exc


def _write_manifest(cfg, command, outputs, timings, **extra):
    """Write manifest.json, the last file of every run."""
    man = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "outputs": [str(p) for p in outputs],
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        **extra,
    }
    write_json(cfg.out_dir / "manifest.json", man)


def _cmd_assemble(cfg):
    timings = {}
    system = _assembled(cfg, timings, cfg.meshes[0])
    if not np.isfinite(system.a).all():  # the other commands check A where it is factored
        raise AssemblyError("stiffness: matrix has non-finite entries")
    side = {"config": cfg.echo(), **system.to_manifest()}
    out = cfg.out_dir
    with _timed(timings, "write"):
        outputs = [
            write_matrix(out / "stiffness.vwm1", system.a, side),
            write_matrix(out / "mass.vwm1", system.m.toarray(), side),
            write_matrix(out / "weighted_mass.vwm1", system.a1.toarray(), side),
        ]
    _write_manifest(cfg, "assemble", outputs, timings, system=system.to_manifest())
    return 0


def _cmd_sample(cfg):
    timings = {}
    system = _assembled(cfg, timings, cfg.meshes[0])
    with _timed(timings, "sample"):
        u = sample_fields(system, cfg.m, cfg.seed)
    names = ["node_x"] + [f"u_{k + 1}" for k in range(u.shape[1])]
    with _timed(timings, "write"):
        path = write_csv(cfg.out_dir / "samples.csv", names, [system.mesh.interior_coords, u])
    _write_manifest(cfg, "sample", [path], timings, system=system.to_manifest())
    return 0


def _cmd_covariance(cfg):
    timings = {}
    system = _assembled(cfg, timings, cfg.meshes[0])
    with _timed(timings, "covariance"):
        c = analytic_covariance(system)
    coords = system.mesh.interior_coords
    outputs, snapped = [], []
    with _timed(timings, "write"):
        for x0 in cfg.slices:  # config checks put each x0 in D, in a file of its own
            i = int(np.argmin(np.abs(coords - x0)))
            node = float(coords[i])
            if node != x0:
                print(f"note: slice location {x0} is not a node; using the node at {node}",
                      file=sys.stderr)
                snapped.append({"requested": x0, "node": node})
            path = cfg.out_dir / slice_file(x0)
            outputs.append(write_csv(path, ["y", "C_x0_y"], [coords, c[i]]))
        if "vwm1" in cfg.formats:
            side = {"config": cfg.echo(), **system.to_manifest()}
            outputs.append(write_matrix(cfg.out_dir / "covariance.vwm1", c, side))
    # recorded only where a slice moved, so on-node runs keep their manifest
    extra = {"snapped_slices": snapped} if snapped else {}
    _write_manifest(cfg, "covariance", outputs, timings, system=system.to_manifest(), **extra)
    return 0


def _cmd_matern(cfg):
    timings = {}
    with _timed(timings, "matern"):
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
        h = cfg.meshes[0].h
        rs = np.arange(0.0, 2.0 * cfg.r_int + h / 2, h)
        vals = matern_cov(rs, params)
    with _timed(timings, "write"):
        path = write_csv(cfg.out_dir / "matern.csv", ["r", "matern_cov"], [rs, vals])
    _write_manifest(cfg, "matern", [path], timings, matern_params=params.to_dict())
    return 0


def _cmd_converge(cfg):
    # Each level is assembled when rate_from_systems asks for it, after the
    # level before it is solved and dropped: one N x N array lives at a time.
    timings = {"assemble": 0.0}
    with _timed(timings, "converge"):
        errors, r_hat, per_sample = rate_from_systems(
            (_assembled(cfg, timings, mesh) for mesh in cfg.meshes), cfg.m, cfg.seed, cfg.norm_kind)
    timings["converge"] -= timings["assemble"]
    errors_se, r_hat_se = rate_standard_errors(per_sample)
    payload = {
        "levels": [mesh.level for mesh in cfg.meshes],
        "m": cfg.m,
        "errors": {str(level): e for level, e in errors.items()},
        "errors_se": {str(level): se for level, se in errors_se.items()},
        "r_hat": r_hat,
        "r_hat_se": r_hat_se,
        "norm_kind": cfg.norm_kind,
        "config": {
            "kernel": cfg.ctx.to_dict(),
            "mesh": cfg.meshes[0].to_dict(),
            "seed": cfg.seed,
            "quad_n_per_level": {str(mesh.level): cfg.quad_order(mesh) for mesh in cfg.meshes},
        },
        "config_echo": cfg.echo(),
    }
    cols = [np.arange(1, cfg.m + 1), *per_sample.values()]
    names = ["sample"] + [f"err_level_{level}" for level in per_sample]
    with _timed(timings, "write"):
        outputs = [
            write_json(cfg.out_dir / "rate_report.json", payload),
            write_csv(cfg.out_dir / "per_sample_errors.csv", names, cols),
        ]
    _write_manifest(cfg, "converge", outputs, timings, r_hat=r_hat)
    return 0


def _cmd_kernel_check(cfg):
    timings = {}
    with _timed(timings, "kernel_check"):
        two_regime = two_regime_summary(
            cfg.ctx, (-cfg.r_ext, cfg.r_ext), n_pairs=10_000, seed=cfg.seed
        )
        bounds = bessel_bound_summary(
            nu_lo=0.5 + cfg.profile.s_lower, nu_hi=0.5 + cfg.profile.s_upper
        )
    ok = bool(
        two_regime["near"]["min"] > 0
        and np.isfinite(two_regime["near"]["ratio"])
        and two_regime["near_limit_max_rel_dev"] < 0.01
        and ("far" not in two_regime or two_regime["far"]["min"] > 0)
        and bounds["c0_global"] > 0
    )
    payload = {
        "passed": ok,
        "two_regime": two_regime,
        "bessel_bounds": bounds,
        "config_echo": cfg.echo(),
    }
    with _timed(timings, "write"):
        path = write_json(cfg.out_dir / "kernel_check.json", payload)
    _write_manifest(cfg, "kernel-check", [path], timings, passed=ok)
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
        if command is None:
            print(_USAGE)
            return 0
        cfg = load_config(config_path, overrides)
        cfg.check_command(command)
        try:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"config key 'outputs.directory': {exc}") from exc
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
