"""Structured prism mesh: tiling, flags, deterministic construction, locate."""

import numpy as np
import pytest

from nullctrl.mesh import build_mesh, locate, locate_time
from nullctrl.fem import build_space


def tri_areas(mesh):
    v = mesh.vertices
    t = mesh.triangles
    e1 = v[t[:, 1]] - v[t[:, 0]]
    e2 = v[t[:, 2]] - v[t[:, 0]]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def test_single_cell_full_control_region():
    mesh = build_mesh(1, 1, 1, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    assert mesh.ntri == 2
    assert mesh.omega_flag.all()


def test_counts_8x8x16():
    mesh = build_mesh(8, 8, 16, 1.0, 1.0, 1.0, (0.25, 0.75, 0.25, 0.75))
    assert mesh.ntri == 128


def test_sec26_control_region_cover():
    mesh = build_mesh(10, 10, 4, 1.0, 1.0, 1.0, (0.2, 0.6, 0.2, 0.6))
    assert int(mesh.omega_flag.sum()) == 32


def test_areas_tile_domain():
    mesh = build_mesh(7, 5, 3, 2.0, 1.5, 1.0, (2 / 7, 6 / 7, 0.3, 0.9))
    assert tri_areas(mesh).sum() == pytest.approx(2.0 * 1.5, rel=1e-12)


def test_control_region_tiles_exactly():
    mesh = build_mesh(10, 10, 2, 1.0, 1.0, 1.0, (0.2, 0.6, 0.2, 0.6))
    area = tri_areas(mesh)[mesh.omega_flag].sum()
    assert area == pytest.approx(0.4 * 0.4, rel=1e-12)


def test_rejects_misaligned_control_region():
    with pytest.raises(ValueError):
        build_mesh(8, 8, 2, 1.0, 1.0, 1.0, (0.2, 0.6, 0.2, 0.6))


def test_rejects_empty_or_outside_box():
    with pytest.raises(ValueError):
        build_mesh(4, 4, 2, 1.0, 1.0, 1.0, (0.5, 0.5, 0.25, 0.75))
    with pytest.raises(ValueError):
        build_mesh(4, 4, 2, 1.0, 1.0, 1.0, (0.0, 1.25, 0.0, 0.5))


def test_deterministic_rebuild():
    a = build_mesh(6, 4, 5, 1.0, 2.0, 3.0, (1 / 6, 0.5, 0.5, 1.0))
    b = build_mesh(6, 4, 5, 1.0, 2.0, 3.0, (1 / 6, 0.5, 0.5, 1.0))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.time_nodes, b.time_nodes)
    assert np.array_equal(a.omega_flag, b.omega_flag)
    assert a.omega == b.omega


def test_locate_centroid_maps_to_own_cell():
    for diagonal in ("same", "alternate"):
        mesh = build_mesh(5, 4, 3, 1.0, 1.0, 1.0, (0.2, 0.6, 0.25, 0.75),
                          diagonal=diagonal)
        tri, bary = locate(mesh, mesh.vertices[mesh.triangles].mean(axis=1))
        assert np.array_equal(tri, np.arange(mesh.ntri))
        assert np.allclose(bary, 1.0 / 3.0, rtol=0, atol=1e-12)


def test_locate_slab_interface_resolves_to_earlier_slab():
    mesh = build_mesh(2, 2, 4, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    slab, tloc = locate_time(mesh, np.array([0.5, 0.6]))
    assert slab.tolist() == [1, 2]  # interface t = 0.5 belongs to [0.25, 0.5]
    assert tloc[0] == pytest.approx(1.0)
    assert tloc[1] == pytest.approx(0.4)


def test_locate_rejects_outside_points():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        locate(mesh, np.array([[1.2, 0.3]]))
    with pytest.raises(ValueError):
        locate_time(mesh, np.array([1.5]))


def test_interpolation_round_trip_through_locate():
    mesh = build_mesh(3, 3, 2, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    space = build_space(mesh, 2, 2, 1, "none")
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(space.ndof)
    XS, tf = space.dof_points()
    idx = rng.choice(space.ndof, size=60, replace=False)
    lv, spn = np.divmod(idx, space.ns_space)
    vals = space.eval(coeffs, XS[spn], tf[lv])
    assert np.allclose(vals, coeffs[idx], rtol=0, atol=1e-12)

