"""Tensor element spaces: counts, constraints, quadrature, norms."""

import numpy as np
from math import factorial
import pytest

from nullctrl.fem import (QuadratureRule, build_space, interval_quadrature,
                          l2_norm, tabulate_triangle, triangle_quadrature)
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


def test_polynomial_interpolation_exact(unit_mesh):
    rng = np.random.default_rng(0)
    for m, n in ((1, 1), (2, 2), (3, 2)):
        sp = build_space(unit_mesh, m, n, 1, "none")
        coeffs = sp.interpolate(lambda X, t: X[..., 0] ** m * t ** n)
        pts = rng.random((20, 2))
        ts = rng.random(20)
        vals = sp.eval(coeffs, pts, ts)
        assert np.allclose(vals, pts[:, 0] ** m * ts ** n, atol=1e-12)


def test_gradient_evaluation(unit_mesh):
    sp = build_space(unit_mesh, 2, 2, 1, "none")
    coeffs = sp.interpolate(lambda X, t: X[..., 0] ** 2 + 3 * X[..., 1] * t)
    pts = np.array([[0.3, 0.4], [0.62, 0.18]])
    vals, grads = sp.eval(coeffs, pts, 0.5, grad=True)
    assert np.allclose(grads[:, 0], 2 * pts[:, 0], atol=1e-12)
    assert np.allclose(grads[:, 1], 1.5, atol=1e-12)


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
        v = mesh.tri_vertices(tri)
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


def test_constraint_application_idempotent(unit_mesh):
    sp = build_space(unit_mesh, 2, 2, 1, "zero_lateral_final")
    rng = np.random.default_rng(1)
    c = rng.standard_normal(sp.ndof)
    once = sp.apply_constraints(c)
    twice = sp.apply_constraints(once)
    assert np.array_equal(once, twice)
    assert np.abs(once[~sp.free_mask]).max() == 0.0


def test_unknown_constraint_rejected(unit_mesh):
    # zero mean per time level is not a constraint of any assembled system
    with pytest.raises(ValueError, match="unknown constraint"):
        build_space(unit_mesh, 2, 2, 1, "zero_mean_slice")
