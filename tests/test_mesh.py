import numpy as np
import pytest

from varmatern import mesh as mesh_module
from varmatern.mesh import (
    MeshError,
    adjacent_pair_maps,
    build_uniform,
    hat_eval,
)

from oracles import classify_pair


def test_coarse_mesh_counts():
    mesh = build_uniform(3, 4, 0)
    assert mesh.n_elements == 8
    assert mesh.n_nodes == 9
    assert mesh.h == 1.0
    assert mesh.interior_node_count == 7  # nodes -3..3 are unknowns
    assert np.array_equal(mesh.interior_coords, np.arange(-3.0, 4.0))
    assert mesh.interior_slice == slice(1, 9 - 1)


def test_paper_scale_mesh_counts():
    mesh = build_uniform(3, 4, 8)
    assert mesh.n_elements == 2048
    assert mesh.n_nodes == 2049


def test_nodes_are_exact_binary_multiples():
    mesh = build_uniform(3, 4, 5)
    assert 0.0 in mesh.nodes
    assert 3.0 in mesh.nodes and -3.0 in mesh.nodes
    assert np.all(np.diff(mesh.nodes) == mesh.h)


def test_element_tags_do_not_straddle():
    mesh = build_uniform(3, 4, 2)
    left = mesh.nodes[:-1]
    right = mesh.nodes[1:]
    inside = (left >= -3.0) & (right <= 3.0)
    assert np.array_equal(mesh.element_interior, inside)


def test_build_validation_messages():
    with pytest.raises(MeshError, match="r_int=2.7"):
        build_uniform(2.7, 4, 1)
    with pytest.raises(MeshError, match="r_ext=4.3"):
        build_uniform(3, 4.3, 1)
    with pytest.raises(MeshError):
        build_uniform(4, 3, 1)
    with pytest.raises(MeshError):
        build_uniform(-1, 4, 1)


def test_level_cap():
    for level in (64, 2000):
        with pytest.raises(MeshError, match=f"level={level} is too fine"):
            build_uniform(3, 4, level)


def test_level_cap_from_node_count(monkeypatch):
    # r_ext = 4 gives 2 * 4 * 2^level + 1 nodes: 129 at level 4, 257 at level 5
    monkeypatch.setattr(mesh_module, "MAX_ASSEMBLY_BYTES", 8 * 129**2)
    assert build_uniform(3, 4, 4).n_nodes == 129
    with pytest.raises(MeshError, match="level=5"):
        build_uniform(3, 4, 5)


def test_classify_pair():
    mesh = build_uniform(3, 4, 1)
    assert classify_pair(mesh, 3, 3) == "identical"
    assert classify_pair(mesh, 3, 4) == "vertex_sharing"
    assert classify_pair(mesh, 4, 3) == "vertex_sharing"
    assert classify_pair(mesh, 0, 5) == "disjoint"
    with pytest.raises(MeshError):
        classify_pair(mesh, 0, 99)


def test_hat_values():
    mesh = build_uniform(3, 4, 1)
    node = 4
    assert hat_eval(mesh, node, mesh.nodes[node]) == 1.0
    assert hat_eval(mesh, node, mesh.nodes[node + 1]) == 0.0
    assert hat_eval(mesh, node, mesh.nodes[node - 1]) == 0.0
    mid = 0.5 * (mesh.nodes[node] + mesh.nodes[node + 1])
    assert hat_eval(mesh, node, mid) == pytest.approx(0.5, abs=1e-15)


def test_partition_of_unity(rng):
    mesh = build_uniform(3, 4, 3)
    xs = rng.uniform(-4, 4, 1000)
    total = sum(hat_eval(mesh, i, xs) for i in range(mesh.n_nodes))
    assert np.allclose(total, 1.0, atol=1e-12)


def test_affine_map_endpoints():
    mesh = build_uniform(3, 4, 2)
    for e in (0, 7, mesh.n_elements - 1):
        amap = mesh.affine_map(e)
        assert amap(0.0) == mesh.nodes[e]
        assert amap(1.0) == mesh.nodes[e + 1]
        rev = mesh.affine_map(e, reverse=True)
        assert rev(0.0) == mesh.nodes[e + 1]
        assert rev(1.0) == mesh.nodes[e]
        assert abs(amap.jacobian) == mesh.h


def test_adjacent_pair_orientation():
    mesh = build_uniform(3, 4, 2)
    t_left, t_right = adjacent_pair_maps(mesh, 5, 6)
    shared = mesh.nodes[6]
    assert t_left(0.0) == shared == t_right(0.0)
    with pytest.raises(MeshError):
        adjacent_pair_maps(mesh, 5, 7)


def test_mesh_immutable_and_serializable():
    mesh = build_uniform(3, 4, 1)
    with pytest.raises(AttributeError):
        mesh.h = 0.1
    d = mesh.to_dict()
    assert d == {"r_int": 3.0, "r_ext": 4.0, "level": 1,
                 "n_interior": 13, "n_nodes": 17}
