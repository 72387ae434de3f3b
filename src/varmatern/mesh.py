"""Uniform 1D mesh over the truncated domain G = D union D_t^c.

D = [-r_int, r_int] carries the unknowns (closed-interval convention: the
nodes at +-r_int are unknowns), the exterior band carries the volume
constraint u = 0. The unknowns are numbered 0..N-1 in ascending order.

Node coordinates are exact binary floats (integer multiples of h = 2^-level),
so comparisons against 0 and +-r_int are exact.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MeshError",
    "AffineMap",
    "Mesh1D",
    "build_uniform",
    "hat_eval",
    "adjacent_pair_maps",
]


# Cap on the dense stiffness, counted as an n_nodes x n_nodes float64 array.
# Assembly holds A over the N < n_nodes unknowns only (N^2 is 56 % of
# n_nodes^2 at r_int = 3, r_ext = 4), so the count is conservative. 4 GiB
# admits level 11 at r_ext = 4.
MAX_ASSEMBLY_BYTES = 4 * 2**30


class MeshError(ValueError):
    """Invalid mesh configuration."""


class AffineMap:
    """Affine map from the reference interval [0, 1] onto a mesh element."""

    __slots__ = ("offset", "jacobian")

    def __init__(self, offset, jacobian):
        object.__setattr__(self, "offset", float(offset))
        object.__setattr__(self, "jacobian", float(jacobian))

    def __setattr__(self, name, value):
        raise AttributeError("AffineMap is immutable")

    def __call__(self, xhat):
        return self.offset + self.jacobian * np.asarray(xhat, dtype=float)

    def __repr__(self):
        return f"AffineMap(offset={self.offset}, jacobian={self.jacobian})"


class Mesh1D:
    """Uniform partition of [-r_ext, r_ext] with interior/exterior tags."""

    __slots__ = (
        "r_int",
        "r_ext",
        "level",
        "h",
        "nodes",
        "n_elements",
        "element_interior",
        "first_interior_node",
        "last_interior_node",
    )

    def __init__(self, r_int, r_ext, level, h, nodes, element_interior, lo, hi):
        object.__setattr__(self, "r_int", r_int)
        object.__setattr__(self, "r_ext", r_ext)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "n_elements", len(nodes) - 1)
        object.__setattr__(self, "element_interior", element_interior)
        object.__setattr__(self, "first_interior_node", lo)
        object.__setattr__(self, "last_interior_node", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Mesh1D is immutable")

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def interior_node_count(self):
        """Number of unknowns N (nodes in the closed interval [-r_int, r_int])."""
        return self.last_interior_node - self.first_interior_node + 1

    @property
    def interior_slice(self):
        """Slice of the ascending node array holding the N unknowns."""
        return slice(self.first_interior_node, self.last_interior_node + 1)

    @property
    def interior_coords(self):
        return self.nodes[self.interior_slice]

    def affine_map(self, e, reverse=False):
        """Map of element e; ``reverse=True`` puts the right endpoint at 0."""
        if not 0 <= e < self.n_elements:
            raise MeshError(f"element index {e} out of range")
        if reverse:
            return AffineMap(self.nodes[e + 1], -self.h)
        return AffineMap(self.nodes[e], self.h)

    def to_dict(self):
        return {
            "r_int": self.r_int,
            "r_ext": self.r_ext,
            "level": self.level,
            "n_interior": int(self.interior_node_count),
            "n_nodes": int(self.n_nodes),
        }


def build_uniform(r_int, r_ext, level):
    """Uniform mesh with h = 2^-level; radii must be integer multiples of h,
    and an n_nodes x n_nodes float64 array, which bounds the N x N stiffness
    assembly holds, must fit in MAX_ASSEMBLY_BYTES."""
    r_int = float(r_int)
    r_ext = float(r_ext)
    level = int(level)
    if not (r_ext > r_int > 0):
        raise MeshError(f"need r_ext > r_int > 0, got r_int={r_int}, r_ext={r_ext}")
    if level < 0:
        raise MeshError(f"level must be nonnegative, got {level}")
    try:
        n_nodes = 2.0 * math.ldexp(r_ext, level) + 1.0
    except OverflowError:
        n_nodes = math.inf
    if 8.0 * n_nodes * n_nodes > MAX_ASSEMBLY_BYTES:
        raise MeshError(
            f"level={level} is too fine for r_ext={r_ext}: an n_nodes x n_nodes "
            f"float64 array, the cap on the dense stiffness, would exceed "
            f"{MAX_ASSEMBLY_BYTES / 2**30:g} GiB"
        )
    h = 2.0 ** (-level)
    for name, val in (("r_int", r_int), ("r_ext", r_ext)):
        ratio = val / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise MeshError(
                f"{name}={val} is not an integer multiple of h=2^-{level}={h}"
            )
    n_half = int(round(r_ext / h))
    k = np.arange(-n_half, n_half + 1, dtype=np.int64)
    nodes = k * h  # exact binary coordinates
    nodes.setflags(write=False)
    element_interior = (nodes[:-1] >= -r_int) & (nodes[1:] <= r_int)
    element_interior.setflags(write=False)
    interior_nodes = np.abs(nodes) <= r_int
    lo = int(np.argmax(interior_nodes))
    hi = int(len(nodes) - 1 - np.argmax(interior_nodes[::-1]))
    return Mesh1D(r_int, r_ext, level, h, nodes, element_interior, lo, hi)


def hat_eval(mesh, node, x):
    """Piecewise-linear hat of a node: 1 there, 0 at neighbours, linear between."""
    if not 0 <= node < mesh.n_nodes:
        raise MeshError(f"node index {node} out of range")
    x_arr = np.asarray(x, dtype=float)
    xi = mesh.nodes[node]
    out = np.clip(1.0 - np.abs(x_arr - xi) / mesh.h, 0.0, 1.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def adjacent_pair_maps(mesh, e_left, e_right):
    """Oriented maps for a vertex-sharing pair: both send 0 to the shared vertex.

    The left element uses the reversed map, exactly the orientation the
    Duffy transformation needs to align the singularity with xi = 0.
    """
    if e_right != e_left + 1:
        raise MeshError(
            f"elements {e_left}, {e_right} are not an adjacent (left, right) pair"
        )
    t_left = mesh.affine_map(e_left, reverse=True)
    t_right = mesh.affine_map(e_right)
    if t_left(0.0) != t_right(0.0):
        raise MeshError("orientation violation: maps do not share the image of 0")
    return t_left, t_right
