"""Tensor element spaces: counts, constraints, quadrature, norms."""

import numpy as np
from math import factorial
import pytest

from nullctrl.fem import (Assembler, QuadratureRule, build_space,
                          interval_quadrature, l2_norm, tabulate_triangle,
                          triangle_quadrature)
from nullctrl.mesh import build_mesh


@pytest.fixture(scope="module")
def unit_mesh():
    return build_mesh(4, 4, 4, 1.0, 1.0, 1.0, (0.25, 0.75, 0.25, 0.75))


def test_dof_count_bilinear_single_cell():
    mesh = build_mesh(1, 1, 1, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    sp = build_space(mesh, 1, 1, 1, "none")
    assert sp.ndof == 8


def test_dof_count_p2_8x8x16():
    mesh = build_mesh(8, 8, 16, 1.0, 1.0, 1.0, (0.25, 0.75, 0.25, 0.75))
    sp = build_space(mesh, 2, 2, 1, "none")
    assert sp.ndof == 289 * 33 == 9537
    spl = build_space(mesh, 2, 2, 1, "zero_lateral")
    assert int((~spl.free_mask).sum()) == 64 * 33 == 2112


def test_final_time_constraint(unit_mesh):
    sp = build_space(unit_mesh, 2, 2, 1, "zero_lateral_final")
    spl = build_space(unit_mesh, 2, 2, 1, "zero_lateral")
    extra = int((~sp.free_mask).sum()) - int((~spl.free_mask).sum())
    # one full interior slice of spatial nodes at the final time level
    assert extra == sp.ns_space - (4 * (sp.nfx - 1))


def test_vector_space_blocks(unit_mesh):
    sp = build_space(unit_mesh, 2, 2, 2, "zero_lateral")
    assert sp.ndof == 2 * sp.ndof_scalar
    m = sp.free_mask
    assert np.array_equal(m[:sp.ndof_scalar], m[sp.ndof_scalar:])


def test_partition_of_unity():
    qp, _ = triangle_quadrature(6)
    for m in (1, 2, 3, 4):
        vals, grads = tabulate_triangle(m, qp)
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(grads.sum(axis=1)).max() < 1e-11


def test_quadrature_monomial_exactness():
    for deg in (2, 4, 6, 8):
        qp, qw = triangle_quadrature(deg)
        assert qw.min() > 0
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                num = (qw * qp[:, 0] ** a * qp[:, 1] ** b).sum()
                # exact integral over the reference triangle
                exact = (factorial(a) * factorial(b)
                         / factorial(a + b + 2))
                assert num == pytest.approx(exact, rel=1e-13), (deg, a, b)
        tp, tw = interval_quadrature(deg)
        assert tp.min() > 0 and tp.max() < 1
        for k in range(deg + 1):
            assert (tw * tp ** k).sum() == pytest.approx(1 / (k + 1), rel=1e-13)


def test_default_rule_degrees():
    rule = QuadratureRule.default(2, 2)
    # space rule exact to 2m+2 = 6, time rule to 2n+2 = 6, final slab to 8
    for a, b in ((6, 0), (3, 3), (0, 6)):
        num = (rule.tri_weights * rule.tri_points[:, 0] ** a
               * rule.tri_points[:, 1] ** b).sum()
        exact = (factorial(a) * factorial(b)
                 / factorial(a + b + 2))
        assert num == pytest.approx(exact, rel=1e-12)
    assert (rule.t_weights * rule.t_points ** 6).sum() == pytest.approx(1 / 7)
    assert (rule.t_weights_final * rule.t_points_final ** 8).sum() == \
        pytest.approx(1 / 9)
    assert rule.t_points_final.max() < 1.0   # never samples the horizon


def _poly(m, n, comps):
    """A degree-(m, n) polynomial field: comps == 1 gives the scalar first
    component, comps == 2 the vector (..., 2)."""
    def f(X, t):
        x, y = X[..., 0], X[..., 1]
        u1 = x ** m * t ** n + (1.0 - y) ** m
        if comps == 1:
            return u1
        u2 = x ** (m - 1) * y * (1.0 - t) ** n + t
        return np.stack([u1, u2], axis=-1)
    return f


def test_polynomial_interpolation_exact():
    """The point evaluator reproduces degree-(m, n) polynomials on both
    triangulation patterns (every barycentric branch of `locate`), at mesh
    vertices, axis-aligned and diagonal edge midpoints and scattered points,
    at t = 0, slab interfaces and t = T, with one time per point and with
    a column of times."""
    rng = np.random.default_rng(0)
    g = np.linspace(0.0, 1.0, 9)        # vertices and midpoints for h = 1/4
    nodes = np.array([(x, y) for x in g for y in g])
    pts = np.concatenate([nodes, rng.random((20, 2))])
    levels = np.linspace(0.0, 1.0, 5)   # slab interfaces, 0 and T included
    per_point = np.concatenate([rng.choice(levels, len(nodes)),
                                rng.random(20)])
    for diagonal in ("same", "alternate"):
        mesh = build_mesh(4, 4, 4, 1.0, 1.0, 1.0, (0.25, 0.75, 0.25, 0.75),
                          diagonal=diagonal)
        for m, n, comps in ((1, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2)):
            sp = build_space(mesh, m, n, comps, "none")
            f = _poly(m, n, comps)
            coeffs = sp.interpolate(f)
            for t in (0.0, 1.0, per_point):
                want = f(pts, np.broadcast_to(t, len(pts)))
                np.testing.assert_allclose(sp.eval(coeffs, pts, t), want,
                                           rtol=0, atol=1e-12)
            # a column of times gives one row of point values per time
            want = np.stack([f(pts, np.full(len(pts), t)) for t in levels])
            np.testing.assert_allclose(sp.eval(coeffs, pts, levels[:, None]),
                                       want, rtol=0, atol=1e-12)


def test_l2_norm_constants(unit_mesh):
    sp = build_space(unit_mesh, 2, 2, 1, "none")
    one = sp.interpolate(lambda X, t: np.ones(X.shape[:-1]))
    assert l2_norm(sp, one) == pytest.approx(1.0, rel=1e-13)
    u = sp.interpolate(lambda X, t: X[..., 0])
    assert l2_norm(sp, u) == pytest.approx(np.sqrt(1 / 3), rel=1e-13)


def test_weighted_norm_against_refined_quadrature(unit_mesh):
    from nullctrl.weights import WeightSet
    ws = WeightSet(1.0, 1.0, 1.0, (0.5, 0.5))
    sp = build_space(unit_mesh, 2, 2, 1, "none")
    coeffs = sp.interpolate(lambda X, t: 1.0 + X[..., 0] * t)
    w = lambda X, t: ws.inv_weight("-", X, t) ** 2
    val = l2_norm(sp, coeffs, weight=w)

    # refined-quadrature oracle: dense tensor Gauss per prism, refined in time
    from nullctrl.fem import gauss01
    mesh = unit_mesh
    gx, wx = gauss01(8)
    acc = 0.0
    for tri in range(mesh.ntri):
        v = mesh.vertices[mesh.triangles[tri]]
        J = np.stack([v[1] - v[0], v[2] - v[0]], axis=-1)
        U, V = np.meshgrid(gx, gx, indexing="ij")
        X = (v[0][None, :] + U.ravel()[:, None] * J[:, 0][None, :]
             + (V * (1 - U)).ravel()[:, None] * J[:, 1][None, :])
        wq = (np.outer(wx, wx) * (1 - U)).ravel() * abs(np.linalg.det(J))
        for k in range(mesh.nt):
            for sub in range(4):     # refine each slab in time
                t0 = mesh.time_nodes[k] + sub * mesh.ht / 4
                tq = t0 + gx * mesh.ht / 4
                wt = wx * mesh.ht / 4
                for tt, wwt in zip(tq, wt):
                    u = sp.eval(coeffs, X, tt)
                    acc += wwt * (wq * w(X, tt) * u ** 2).sum()
    assert val == pytest.approx(np.sqrt(acc), rel=1e-6)


def test_unknown_constraint_rejected(unit_mesh):
    # zero mean per time level is not a constraint of any assembled system
    with pytest.raises(ValueError, match="unknown constraint"):
        build_space(unit_mesh, 2, 2, 1, "zero_mean_slice")


def _alternate_mesh():
    return build_mesh(3, 3, 4, 1.0, 1.0, 1.0, (1 / 3, 2 / 3, 1 / 3, 2 / 3),
                      diagonal="alternate")


@pytest.mark.parametrize("diagonal,shapes", [("same", 2), ("alternate", 4)])
def test_batches_serve_any_space_of_their_mesh(diagonal, shapes):
    """The batches of an assembler built before any space tabulate each
    space on first use, keep one table set per degree pair, and reproduce a
    degree-(m, n) field at their quadrature points, scalar and vector."""
    mesh = build_mesh(3, 3, 4, 1.0, 1.0, 1.0, (1 / 3, 2 / 3, 1 / 3, 2 / 3),
                      diagonal=diagonal)
    asm = Assembler(mesh, QuadratureRule.default(2, 2))
    assert len(asm.tri_groups) == shapes   # triangle congruence classes
    spaces = [build_space(mesh, m, n, comps, "none")
              for m, n, comps in ((1, 1, 1), (2, 2, 1), (2, 2, 2))]
    lateral = build_space(mesh, 2, 2, 2, "zero_lateral")
    batches = list(asm.batches())
    assert len(batches) == 2 * shapes      # two time rules
    for batch in batches:
        for space in spaces:
            tables = batch.tables(space)
            assert sorted(tables) == ["gx", "gy", "t", "v"]
            for table in tables.values():
                assert table.shape == (len(batch.w), space.ldof)
            f = _poly(space.m, space.n, space.components)
            got = batch.field(space, space.interpolate(f))
            np.testing.assert_allclose(got, f(batch.X, batch.t), rtol=0,
                                       atol=1e-12)
        assert batch.tables(lateral) is batch.tables(spaces[2])


def test_tables_reject_a_space_of_another_mesh():
    asm = Assembler(_alternate_mesh(), QuadratureRule.default(2, 2))
    other = build_space(_alternate_mesh(), 2, 2, 1, "none")
    batch = next(asm.batches())
    with pytest.raises(ValueError, match="different mesh"):
        batch.tables(other)
    with pytest.raises(ValueError, match="different mesh"):
        batch.field(other, np.zeros(other.ndof))


def test_batch_field_of_vector_space_stacks_components_bitwise():
    mesh = _alternate_mesh()
    space = build_space(mesh, 2, 2, 2, "zero_lateral")
    coeffs = np.random.default_rng(3).standard_normal(space.ndof)
    for batch in Assembler(mesh, QuadratureRule.default(2, 2)).batches():
        vals = batch.tables(space)["v"]
        want = np.stack([np.einsum("abl,ql->abq",
                                   coeffs[batch.dofs(space)
                                          + c * space.ndof_scalar], vals)
                         for c in range(2)], axis=-1)
        got = batch.field(space, coeffs)
        assert got.shape == want.shape
        assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                              want.view(np.int64))
