"""Run configuration: JSON schema, validation, dotted-path overrides.

The shipped defaults mirror the reference experiment setup: G = [-4, 4]
with D = [-3, 3], kappa = 2.5, mu = 1, m = 1000 samples. Every output file
carries the resolved config echo so runs are reproducible from their
manifests alone.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from . import smoothness
from .convergence import NORM_KINDS
from .kernel import KernelContext
from .mesh import MeshError, build_uniform
from .quadrature import MAX_ORDER

__all__ = ["ConfigError", "RunConfig", "default_config_dict", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def default_config_dict():
    return {
        "domain": {"r_int": 3.0, "r_ext": 4.0, "level": 6},
        "kernel": {"kappa": 2.5, "mu": 1.0},
        "profile": {"kind": "constant", "s": 0.5},
        "quadrature": {
            "c": 1.0,
            "n_min": 4,
            "n_max": 64,
            "n_override": None,
            "target_rate": None,
        },
        "sampling": {"m": 1000, "seed": 20240901},
        "outputs": {"directory": "out", "formats": ["csv"]},
        "slices": {"x0": [-1.5, 0.0, 1.5]},
        "convergence": {"levels": [7, 6, 5], "norm": "mass_matrix"},
    }

OUTPUT_FORMATS = ("csv", "vwm1")


def _deep_update(base, extra, prefix=""):
    for key, val in extra.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key '{path}'")
        if isinstance(base[key], dict) and isinstance(val, dict):
            _deep_update(base[key], val, prefix=f"{path}.")
        else:
            base[key] = val
    return base


def _set_dotted(cfg, dotted, value):
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key '{dotted}'")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or (leaf not in node and parts[0] != "profile"):
        raise ConfigError(f"unknown config key '{dotted}'")
    node[leaf] = value


def _require(block, key, kind, path):
    if key not in block or block[key] is None:
        raise ConfigError(f"missing config key '{path}.{key}'")
    val = block[key]
    try:
        if kind is float:
            return float(val)
        if kind is int:
            ival = int(val)
            if ival != float(val):
                raise ValueError
            return ival
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{path}.{key}' must be {kind.__name__}, got {val!r}")
    return val


def _order(block, key):
    """Gauss order under quadrature.<key>, within [1, MAX_ORDER]."""
    n = _require(block, key, int, "quadrature")
    if not 1 <= n <= MAX_ORDER:
        raise ConfigError(
            f"config key 'quadrature.{key}' must lie in [1, {MAX_ORDER}], got {n}"
        )
    return n


def _list(block, key, kind, path):
    """List under <path>.<key> whose items convert to ``kind``."""
    vals = block.get(key)
    if not isinstance(vals, list):
        raise ConfigError(f"config key '{path}.{key}' must be a list, got {vals!r}")
    return [_require({key: v}, key, kind, path) for v in vals]


class RunConfig:
    """Validated configuration with resolved objects attached."""

    def __init__(self, raw):
        self.raw = raw
        dom = raw["domain"]
        self.r_int = _require(dom, "r_int", float, "domain")
        self.r_ext = _require(dom, "r_ext", float, "domain")
        self.level = _require(dom, "level", int, "domain")
        ker = raw["kernel"]
        kappa = _require(ker, "kappa", float, "kernel")
        mu = _require(ker, "mu", float, "kernel")
        if kappa <= 0:
            raise ConfigError(f"config key 'kernel.kappa' must be positive, got {kappa}")
        if mu <= 0:
            raise ConfigError(f"config key 'kernel.mu' must be positive, got {mu}")
        try:
            self.profile = smoothness.from_dict(raw["profile"], default_r_int=self.r_int)
        except (smoothness.ProfileError, KeyError) as exc:
            raise ConfigError(f"invalid 'profile' block: {exc}") from exc
        try:
            self.mesh = build_uniform(self.r_int, self.r_ext, self.level)
        except MeshError as exc:
            raise ConfigError(f"invalid 'domain' block: {exc}") from exc
        self.ctx = KernelContext(kappa, mu, self.profile)
        quad = raw["quadrature"]
        self.quad_c = _require(quad, "c", float, "quadrature")
        self.quad_n_min = _order(quad, "n_min")
        self.quad_n_max = _order(quad, "n_max")
        if self.quad_n_min > self.quad_n_max:
            raise ConfigError(
                f"config key 'quadrature.n_min' ({self.quad_n_min}) exceeds "
                f"'quadrature.n_max' ({self.quad_n_max})"
            )
        self.quad_n_override = None
        if quad.get("n_override") is not None:
            self.quad_n_override = _order(quad, "n_override")
        self.quad_target_rate = quad.get("target_rate")
        if self.quad_target_rate is not None:
            self.quad_target_rate = _require(quad, "target_rate", float, "quadrature")
        samp = raw["sampling"]
        self.m = _require(samp, "m", int, "sampling")
        if self.m < 0:
            raise ConfigError(f"config key 'sampling.m' must be >= 0, got {self.m}")
        self.seed = _require(samp, "seed", int, "sampling")
        out = raw["outputs"]
        self.out_dir = Path(out.get("directory", "out"))
        self.formats = _list(out, "formats", str, "outputs")
        unknown = sorted(set(self.formats) - set(OUTPUT_FORMATS))
        if unknown:
            raise ConfigError(
                f"config key 'outputs.formats' holds unknown formats {unknown}; "
                f"choose from {list(OUTPUT_FORMATS)}"
            )
        self.slices = _list(raw["slices"], "x0", float, "slices")
        conv = raw["convergence"]
        self.levels = _list(conv, "levels", int, "convergence")
        finest = max(self.levels, default=0)
        if sorted(set(self.levels)) != [finest - 2, finest - 1, finest]:
            raise ConfigError(
                f"config key 'convergence.levels' must hold three consecutive "
                f"levels, got {self.levels}"
            )
        self.norm_kind = conv.get("norm", "mass_matrix")
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(
                f"config key 'convergence.norm' must be one of {list(NORM_KINDS)}, "
                f"got {self.norm_kind!r}"
            )

    def check_command(self, command):
        """Checks of the keys whose valid values depend on the domain, made
        only for the command that reads them, so that the defaults of a key
        a command ignores cannot fail it."""
        if command == "covariance":
            outside = [x for x in self.slices if not -self.r_int <= x <= self.r_int]
            if outside:
                raise ConfigError(
                    f"config key 'slices.x0' holds locations {outside} outside "
                    f"D = [{-self.r_int}, {self.r_int}]"
                )
        if command == "converge":
            for lev in self.levels:
                try:
                    build_uniform(self.r_int, self.r_ext, lev)
                except MeshError as exc:
                    raise ConfigError(f"invalid 'convergence.levels': {exc}") from exc

    def echo(self):
        """Resolved config dict written into every output file."""
        out = copy.deepcopy(self.raw)
        out["profile"] = self.profile.to_dict()
        return out

    def assemble_kwargs(self):
        return {
            "n": self.quad_n_override,
            "c": self.quad_c,
            "target_rate": self.quad_target_rate,
            "n_min": self.quad_n_min,
            "n_max": self.quad_n_max,
        }


def load_config(path=None, overrides=None):
    """Merge defaults, an optional JSON file, and dotted-path overrides."""
    cfg = default_config_dict()
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if "profile" in data:
            cfg["profile"] = data.pop("profile")  # profile blocks replace wholesale
        _deep_update(cfg, data)
    for dotted, value in (overrides or {}).items():
        if dotted == "profile":
            # A block with a new kind replaces wholesale; otherwise the
            # fields merge onto the current profile block.
            if isinstance(value, dict) and value.get("kind", cfg["profile"]["kind"]) != cfg["profile"]["kind"]:
                cfg["profile"] = value
            elif isinstance(value, dict):
                cfg["profile"].update(value)
            else:
                raise ConfigError("'profile' override must be a mapping")
        else:
            _set_dotted(cfg, dotted, value)
    return RunConfig(cfg)
