import numpy as np
import pytest

from varmatern import assembly, kernel, smoothness
from varmatern.mesh import build_uniform

RAMP_PARAMS = dict(a=0.44075, b=0.7594, omega=0.15, r_int=3.0)

PROFILES = {
    "const03": lambda: smoothness.constant(0.3),
    "const035": lambda: smoothness.constant(0.35),
    "const05": lambda: smoothness.constant(0.5),
    "const085": lambda: smoothness.constant(0.85),
    "step": lambda: smoothness.step(0.35, 0.85),
    "step_high": lambda: smoothness.step(0.65, 0.85),
    "bump": lambda: smoothness.gaussian_bump(0.35, 0.85, 0.9, 3.0),
    "ramp": lambda: smoothness.oscillatory_ramp(**RAMP_PARAMS),
}


@pytest.fixture(scope="session")
def build_system():
    """Assembled systems keyed by their full configuration. The assembly is
    session-cached; each call gets a system of its own with a copy of A, as
    factoring a system overwrites its A."""
    cache = {}

    def build(profile_key, kappa, level, mu=1.0, r_int=3.0, r_ext=4.0, **kw):
        key = (profile_key, kappa, level, mu, r_int, r_ext,
               tuple(sorted(kw.items())))
        if key not in cache:
            ctx = kernel.KernelContext(kappa, mu, PROFILES[profile_key]())
            msh = build_uniform(r_int, r_ext, level)
            cache[key] = assembly.assemble_stiffness(msh, ctx, **kw)
        s = cache[key]
        return assembly.AssembledSystem(s.mesh, s.ctx, s.a.copy(), s.m, s.a1, s.quad_meta)

    return build


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
