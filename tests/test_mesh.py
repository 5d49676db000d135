"""Structured prism mesh: tiling, flags, deterministic construction, locate."""

import numpy as np
import pytest

from nullctrl.mesh import build_mesh, locate
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
    assert mesh.nprism == 2
    assert mesh.omega_flag.all()


def test_counts_8x8x16():
    mesh = build_mesh(8, 8, 16, 1.0, 1.0, 1.0, (0.25, 0.75, 0.25, 0.75))
    assert mesh.ntri == 128
    assert mesh.nprism == 2048


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
    mesh = build_mesh(5, 4, 3, 1.0, 1.0, 1.0, (0.2, 0.6, 0.25, 0.75))
    for tri in (0, 7, 25, 39):
        c = mesh.tri_vertices(tri).mean(axis=0)
        for slab in (0, 2):
            tmid = 0.5 * (mesh.time_nodes[slab] + mesh.time_nodes[slab + 1])
            prism, tri_f, slab_f, bary, tloc = locate(mesh, c, tmid)
            assert tri_f == tri
            assert slab_f == slab
            assert bary.min() > 0
            assert bary.sum() == pytest.approx(1.0)


def test_locate_slab_interface_resolves_to_earlier_slab():
    mesh = build_mesh(2, 2, 4, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    _, _, slab, _, tloc = locate(mesh, np.array([0.3, 0.3]), 0.5)
    assert slab == 1            # interface t = 0.5 belongs to slab [0.25, 0.5]
    assert tloc == pytest.approx(1.0)


def test_locate_rejects_outside_points():
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        locate(mesh, np.array([1.2, 0.3]), 0.5)
    with pytest.raises(ValueError):
        locate(mesh, np.array([0.2, 0.3]), 1.5)


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


def test_prism_listing():
    mesh = build_mesh(2, 2, 3, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    pr = mesh.prisms
    assert pr.shape == (24, 2)
    assert np.array_equal(pr[:8, 1], np.zeros(8, dtype=int))
    assert np.array_equal(pr[:8, 0], np.arange(8))
