"""Run configuration: JSON schema, validation, dotted-path overrides.

The shipped defaults mirror the reference experiment setup: G = [-4, 4]
with D = [-3, 3], kappa = 2.5, mu = 1, m = 1000 samples. Every output file
carries the resolved config echo so runs are reproducible from their
manifests alone.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from . import smoothness
from .convergence import NORM_KINDS
from .kernel import KernelContext
from .mesh import MeshError, build_uniform
from .quadrature import MAX_ORDER, quadrature_order

__all__ = ["ConfigError", "RunConfig", "default_config_dict", "load_config", "slice_file"]


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


def slice_file(x0):
    """The file name of the covariance slice at x0: covariance_x<tag>.csv,
    the tag x0 in "%g" with "-" as "m" and "." as "p" (-1.5 -> xm1p5)."""
    return "covariance_x" + format(x0, "g").replace("-", "m").replace(".", "p") + ".csv"


def _deep_update(base, extra, prefix=""):
    """Merge ``extra`` (a config file or the nested flags) onto ``base``.

    Blocks merge key by key. The profile block follows one rule for files
    and flags: a block whose ``kind`` differs from the current one replaces
    it, since kinds take different keys; otherwise its keys merge onto it,
    and ``smoothness.from_dict`` checks them.
    """
    for key, val in extra.items():
        path = f"{prefix}{key}"
        if key not in base:
            while isinstance(val, dict) and val:  # name the dotted key as typed
                sub, val = next(iter(val.items()))
                path = f"{path}.{sub}"
            raise ConfigError(f"unknown config key '{path}'")
        if path == "profile" and isinstance(val, dict):
            kind = base[key]["kind"]
            base[key] = {**base[key], **val} if val.get("kind", kind) == kind else dict(val)
        elif isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key '{path}' must be a block of keys, got {val!r}")
            _deep_update(base[key], val, prefix=f"{path}.")
        else:
            base[key] = val


def _nest(overrides):
    """Dotted overrides as nested blocks: {"kernel.kappa": 2} -> {"kernel": {"kappa": 2}}."""
    tree = {}
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        node = tree
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config key '{dotted}' lies inside a value that is not a block")
        node[leaf] = copy.deepcopy(value)
    return tree


def _require(block, key, kind, path):
    if key not in block or block[key] is None:
        raise ConfigError(f"missing config key '{path}.{key}'")
    val = block[key]
    number = not isinstance(val, bool)  # JSON true / false pass float() and int()
    try:
        if kind is str and isinstance(val, str):
            return val
        if kind is float and number and math.isfinite(float(val)):
            return float(val)
        if kind is int and number and float(val).is_integer():
            return int(val)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config key '{path}.{key}' must be {kind.__name__}, got {val!r}")


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
        except smoothness.ProfileError as exc:
            raise ConfigError(f"invalid 'profile' block: {exc}") from exc
        self.ctx = KernelContext(kappa, mu, self.profile)
        quad = raw["quadrature"]
        self.quad_c = _require(quad, "c", float, "quadrature")
        if self.quad_c <= 0:  # else every level gets n_min
            raise ConfigError(f"config key 'quadrature.c' must be positive, got {self.quad_c}")
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
            if self.quad_target_rate < 0:
                raise ConfigError(f"config key 'quadrature.target_rate' must be >= 0, "
                                  f"got {self.quad_target_rate}")
        samp = raw["sampling"]
        self.m = _require(samp, "m", int, "sampling")
        if self.m < 0:
            raise ConfigError(f"config key 'sampling.m' must be >= 0, got {self.m}")
        self.seed = _require(samp, "seed", int, "sampling")
        if not 0 <= self.seed < 2**128:  # the keys Philox takes
            raise ConfigError(
                f"config key 'sampling.seed' must lie in [0, 2**128), got {self.seed}"
            )
        out = raw["outputs"]
        self.out_dir = Path(_require(out, "directory", str, "outputs"))
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
        self.norm_kind = _require(conv, "norm", str, "convergence")
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(
                f"config key 'convergence.norm' must be one of {list(NORM_KINDS)}, "
                f"got {self.norm_kind!r}"
            )

    def check_command(self, command):
        """Checks of the keys whose valid values depend on the domain, made
        only for the command that reads them, so that the defaults of a key
        a command ignores cannot fail it. Keeps the meshes the command reads
        as ``meshes``: the three of convergence.levels, finest first, for
        converge, else the one of domain.level."""
        if command == "converge":
            levels, key = sorted(set(self.levels), reverse=True), "'convergence.levels'"
        else:
            levels, key = [self.level], "'domain' block"
        try:
            self.meshes = [build_uniform(self.r_int, self.r_ext, lev) for lev in levels]
        except MeshError as exc:
            raise ConfigError(f"invalid {key}: {exc}") from exc
        if command in ("sample", "converge") and set(self.formats) != {"csv"}:
            raise ConfigError(f"config key 'outputs.formats' must list only 'csv' for "
                              f"{command}, which writes no other format, got {self.formats}")
        if command == "covariance":
            if not self.slices and "vwm1" not in self.formats:
                raise ConfigError("config key 'slices.x0' is empty and 'outputs.formats' "
                                  "holds no 'vwm1', so covariance would write nothing")
            outside = [x for x in self.slices if not -self.r_int <= x <= self.r_int]
            if outside:
                raise ConfigError(
                    f"config key 'slices.x0' holds locations {outside} outside "
                    f"D = [{-self.r_int}, {self.r_int}]"
                )
            files = [slice_file(x) for x in self.slices]
            shared = sorted({name for name in files if files.count(name) > 1})
            if shared:
                raise ConfigError(f"config key 'slices.x0' holds locations {self.slices} that "
                                  f"share slice files: {', '.join(shared)}")
        if command == "matern":  # the Whittle variance needs nu = 2 s - 1/2 > 0
            if self.profile.kind == "constant":
                if self.profile.params["s"] <= 0.25:
                    raise ConfigError(f"config key 'profile.s' must exceed 1/4 for matern, "
                                      f"got {self.profile.params['s']}")
            else:
                s = smoothness.average_s(self.profile, (-self.r_ext, self.r_ext))
                if s <= 0.25:
                    raise ConfigError(f"invalid 'profile' block: its mean order over G must "
                                      f"exceed 1/4 for matern, got {s}")
        if command == "converge" and self.m < 1:
            raise ConfigError(
                f"config key 'sampling.m' must be >= 1 for converge, got {self.m}"
            )

    def echo(self):
        """Resolved config dict written into every output file."""
        out = copy.deepcopy(self.raw)
        out["profile"] = self.profile.to_dict()
        return out

    def quad_order(self, mesh):
        """The tensor-Gauss order n of ``mesh``: quadrature.n_override, else
        the log(1/h) rule with the block's c, target_rate, n_min and n_max."""
        if self.quad_n_override is not None:
            return self.quad_n_override
        return quadrature_order(mesh.h, self.profile.s_upper, self.profile.s_lower,
                                self.quad_c, self.quad_target_rate,
                                self.quad_n_min, self.quad_n_max)


def load_config(path=None, overrides=None):
    """Merge defaults, an optional JSON file, and dotted-path overrides, the
    file and then the overrides through the same merge."""
    cfg = default_config_dict()
    if path is not None:
        try:
            data = json.loads(Path(path).read_bytes())
        except OSError as exc:
            raise ConfigError(f"config file not found or unreadable: {path} ({exc.strerror})")
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _deep_update(cfg, data)
    _deep_update(cfg, _nest(overrides or {}))
    return RunConfig(cfg)
