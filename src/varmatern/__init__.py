"""varmatern: finite element sampler for Gaussian Whittle-Matern fields
with spatially varying fractional order on a truncated 1D domain.

The pipeline: a smoothness profile s(x) defines the heterogeneous Bessel
kernel; the nonlocal bilinear form is assembled into a dense stiffness
matrix with singularity-resolving quadrature; white-noise loads b = L z
drive the solves A u = b / mu; covariances and nested-mesh convergence
rates reproduce the reference comparisons at desk scale.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    assembly,
    checks,
    config,
    convergence,
    farfield,
    fileio,
    kernel,
    linalg,
    mesh,
    quadrature,
    reference,
    sampler,
    smoothness,
)
from .assembly import AssembledSystem, assemble_stiffness  # noqa: F401
from .kernel import KernelContext, bessel_k, gamma_kernel  # noqa: F401
from .mesh import Mesh1D, build_uniform  # noqa: F401
from .sampler import analytic_covariance, sample_fields  # noqa: F401
from .smoothness import SmoothnessProfile  # noqa: F401
