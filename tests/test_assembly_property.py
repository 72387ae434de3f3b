"""Property test of the assembled system: for every profile kind, kappa
log-uniform in [1e-3, 1e2] and levels 3-5, the stiffness A is exactly
symmetric, finite and positive definite, and the lowest mode of (A, M)
meets criterion 8's coercivity floor min(kappa^(2 s_lower),
kappa^(2 s_upper)). A mirror-symmetric profile (constant, or the gaussian
bump, which is centred at 0) gives A equal to its mirror image. Levels 4
and 5 reach the far cells for small enough kappa; the explicit examples make
sure that some run takes them, and cells of 32 elements. Two more pin the
floor: a step of tiny orders at kappa = 0.01, whose lowest mode lies below
min(1, kappa^(2 s_lower)), and a constant order at kappa = 10, whose lowest
mode sits 0.1 % above kappa^(2 s)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varmatern import smoothness
from varmatern.assembly import assemble_stiffness
from varmatern.kernel import KernelContext
from varmatern.linalg import cholesky
from varmatern.mesh import build_uniform

from oracles import coercivity

R_INT, R_EXT = 3.0, 4.0

_ORDER = st.floats(0.001, 0.999)
_BOUNDS = st.lists(_ORDER, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def _profiles(draw):
    kind = draw(st.sampled_from(
        ["constant", "step", "gaussian_bump", "oscillatory_ramp", "tabulated"]
    ))
    if kind == "constant":
        return smoothness.constant(draw(_ORDER))
    if kind == "step":
        return smoothness.step(*draw(_BOUNDS))
    if kind == "gaussian_bump":
        return smoothness.gaussian_bump(*draw(_BOUNDS), draw(st.floats(0.1, 5.0)), R_INT)
    if kind == "oscillatory_ramp":
        # a, b in [0.3, 0.7] and |omega| <= 0.25 keep the ramp inside (0, 1)
        a, b = draw(st.floats(0.3, 0.7)), draw(st.floats(0.3, 0.7))
        return smoothness.oscillatory_ramp(a, b, draw(st.floats(-0.25, 0.25)), R_INT)
    x = draw(st.lists(st.floats(-R_EXT, R_EXT), min_size=2, max_size=6, unique=True))
    s = draw(st.lists(_ORDER, min_size=len(x), max_size=len(x)))
    return smoothness.tabulated(sorted(x), s)


# profiles of the explicit examples, which take the far cells at level 5;
# all but the first take cells of 32 elements too
_FAR_EXAMPLES = (
    smoothness.gaussian_bump(0.35, 0.85, 0.9, R_INT),
    smoothness.step(0.2, 0.9),
    smoothness.gaussian_bump(0.35, 0.85, 0.9, R_INT),
    smoothness.tabulated([-3.0, 0.0, 3.0], [0.3, 0.6, 0.4]),
)


@settings(max_examples=30, deadline=None)
@given(_profiles(), st.floats(-3.0, 2.0), st.integers(3, 5))
@example(_FAR_EXAMPLES[0], 0.4, 5)
@example(_FAR_EXAMPLES[1], -1.0, 5)
@example(_FAR_EXAMPLES[2], -0.5, 5)
@example(_FAR_EXAMPLES[3], -1.0, 5)
@example(smoothness.step(0.00390625, 0.0625), -2.0, 3)
@example(smoothness.constant(0.5), 1.0, 3)
def test_assembled_system_invariants(profile, log_kappa, level):
    kappa = 10.0**log_kappa
    system = assemble_stiffness(
        build_uniform(R_INT, R_EXT, level), KernelContext(kappa, 1.0, profile)
    )
    far = system.quad_meta["far_cells"]
    if any(profile is p for p in _FAR_EXAMPLES):
        assert far["cell_pairs"] > 0
    if any(profile is p for p in _FAR_EXAMPLES[1:]):
        assert sum(pairs for size, pairs in far["cell_pairs_by_size"].items() if int(size) >= 32)
    a = system.a
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, a.T)
    cholesky(a)  # raises unless positive definite
    lowest, floor = coercivity(system)
    assert lowest >= floor
    if profile.kind in ("constant", "gaussian_bump"):
        assert np.max(np.abs(a - a[::-1, ::-1])) <= 1e-14 * np.max(np.abs(a))
