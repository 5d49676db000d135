"""Weight family: closed forms, derivatives, inverse-weight behavior."""

import numpy as np
import pytest

from nullctrl.weights import WeightSet

from oracles import fd_gradient


@pytest.fixture(scope="module")
def ws():
    return WeightSet(1.0, 1.0, 1.0, (0.5, 0.5), K1=1.0, K2=2.0)


def test_anchor_value_is_one(ws):
    assert ws.chi0(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)


def test_boundary_factor_vanishes(ws):
    assert ws.chi0(np.array([0.0, 0.3])) == 0.0
    assert ws.chi0(np.array([0.7, 1.0])) == 0.0


def test_chi0_against_independent_transcription(ws):
    # frozen from a separate sympy transcription of the closed form at
    # 30-digit precision
    assert ws.chi0(np.array([0.25, 0.25])) == pytest.approx(
        0.496404507703834914111501830566, rel=1e-14)


def test_chi0_grid_bounds_and_anchor(ws):
    xs = np.linspace(0.0, 1.0, 101)
    X = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    vals = ws.chi0(X)
    assert vals.min() >= 0.0
    assert vals.max() <= 1.0 + 1e-12
    interior = vals[1:-1, 1:-1]
    assert interior.min() > 0.0
    edge = np.concatenate([vals[0], vals[-1], vals[:, 0], vals[:, -1]])
    assert np.abs(edge).max() == 0.0


def test_gradient_positive_outside_control_region(ws):
    # the gradient is bounded away from zero on the sample grid outside the
    # control region, except at the four corners where both boundary factors
    # vanish and the closed form is exactly critical
    xs = np.linspace(0.0, 1.0, 101)
    X = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    grad, _ = ws.chi0_derivs(X)
    mag = np.hypot(grad[..., 0], grad[..., 1])
    omega = ((X[..., 0] > 0.2) & (X[..., 0] < 0.6)
             & (X[..., 1] > 0.2) & (X[..., 1] < 0.6))
    corner = (np.isin(X[..., 0], (0.0, 1.0)) & np.isin(X[..., 1], (0.0, 1.0)))
    outside = ~omega & ~corner
    assert mag[outside].min() > 1e-12
    assert np.abs(mag[corner]).max() == 0.0


def test_gradient_zero_at_anchor(ws):
    grad, _ = ws.chi0_derivs(np.array([0.5, 0.5]))
    assert np.abs(grad).max() < 1e-14


def test_gradient_matches_finite_differences(ws):
    rng = np.random.default_rng(3)
    pts = 0.05 + 0.9 * rng.random((100, 2))
    grad, lap = ws.chi0_derivs(pts)
    for k in range(20):
        fd = fd_gradient(lambda x: float(ws.chi0(x)), pts[k])
        assert np.allclose(grad[k], fd, rtol=1e-6, atol=1e-9)


def test_edge_midpoint_gradient_nonzero(ws):
    g = fd_gradient(lambda x: float(ws.chi0(x)), np.array([0.5, 1e-7]))
    grad, _ = ws.chi0_derivs(np.array([0.5, 0.0]))
    assert abs(grad[1]) > 0.1          # outward-normal direction
    assert grad[1] == pytest.approx(g[1], rel=1e-4)


def test_chi_values(ws):
    chi_b, _, _ = ws.chi(np.array([0.0, 0.3]))
    assert chi_b == pytest.approx(6.3890560989306502, rel=1e-14)
    chi_a, _, _ = ws.chi(np.array([0.5, 0.5]))
    assert chi_a == pytest.approx(4.6707742704716050, rel=1e-14)


def test_chi_derivatives_match_finite_differences(ws):
    rng = np.random.default_rng(11)
    pts = 0.05 + 0.9 * rng.random((100, 2))
    _, grad, lap = ws.chi(pts)
    h = 1e-6
    for k in range(100):
        x = pts[k]
        fd = fd_gradient(lambda p: float(ws.chi(p)[0]), x, h=h)
        assert np.allclose(grad[k], fd, rtol=1e-5, atol=1e-8)
    h2 = 1e-4      # optimal step for second differences (roundoff ~ eps/h^2)
    for k in range(20):
        x = pts[k]
        flap = sum((ws.chi(x + h2 * e)[0] - 2 * ws.chi(x)[0]
                    + ws.chi(x - h2 * e)[0]) / h2 ** 2
                   for e in np.eye(2))
        assert lap[k] == pytest.approx(float(flap), rel=1e-5)


def test_inverse_weight_limits_and_values(ws):
    x = np.array([0.0, 0.3])
    for i in ("-", 0):
        assert ws.inv_weight(i, x, 1.0) == 0.0
    assert ws.inv_weight("-", x, 0.0) == pytest.approx(
        0.0016798410570681976, rel=1e-13)
    # frozen from the independent sympy evaluation of the full composition
    assert ws.inv_weight(0, np.array([0.3, 0.3]), 0.5) == pytest.approx(
        5.006787933843057634e-05, rel=1e-13)


def test_inverse_weights_factorize(ws):
    x = np.array([0.3, 0.3])
    t = 0.5
    assert ws.inv_weight(0, x, t) == pytest.approx(
        0.5 ** -1.5 * ws.inv_weight("-", x, t), rel=1e-13)


def test_inverse_weight_continuous_to_zero_at_horizon(ws):
    x = np.array([0.4, 0.7])
    ts = np.linspace(0.0, 1.0, 400)
    for i in ("-", 0):
        vals = ws.inv_weight(i, x, ts)
        assert np.all(np.isfinite(vals))
        assert vals[-1] == 0.0
        assert vals[-2] < 1e-100        # underflows cleanly near the horizon


def test_hatted_coeffs_unit_time_to_go():
    # chi == 4, grad == 0 cannot be arranged exactly, so check the printed
    # combination directly on a synthetic weight set via its pieces
    ws = WeightSet(1.0, 1.0, 2.0, (0.5, 0.5))
    c_mass, c_grad, c_time = ws.hatted_coeff_arrays(np.array([0.5, 0.5]),
                                                    1.0)   # tau = 1
    chi, gchi, lchi = ws.chi(np.array([0.5, 0.5]))
    assert c_time == pytest.approx(1.0)
    assert c_mass == pytest.approx(-1.5 + lchi + chi + gchi @ gchi, rel=1e-13)
    assert np.allclose(c_grad, 2.0 * gchi)


def test_hatted_coeffs_gradient_vanishes_at_anchor(ws):
    for t in (0.0, 0.3, 0.9):
        _, c_grad, c_time = ws.hatted_coeff_arrays(np.array([0.5, 0.5]), t)
        assert np.abs(c_grad).max() < 1e-12
        assert c_time >= 0.0


def test_hatted_coeffs_reject_horizon(ws):
    with pytest.raises(ValueError):
        ws.hatted_coeff_arrays(np.array([0.5, 0.5]), 1.0)


def test_weight_set_validation():
    with pytest.raises(ValueError):
        WeightSet(1.0, 1.0, 1.0, (0.0, 0.5))
    with pytest.raises(ValueError):
        WeightSet(1.0, 1.0, 1.0, (0.5, 0.5), K2=-1.0)
    with pytest.raises(ValueError):
        WeightSet(1.0, 1.0, -1.0, (0.5, 0.5))


@pytest.mark.parametrize("K2", [1.0, 0.5])
def test_weight_set_rejects_exponent_at_or_below_bump_maximum(K2):
    # chi = K1 (e^K2 - e^chi0) with chi0 = 1 at the anchor: K2 <= 1 makes
    # chi <= 0 there, and the weight no longer blows up at T
    with pytest.raises(ValueError, match="K2 greater than 1"):
        WeightSet(1.0, 1.0, 1.0, (0.5, 0.5), K2=K2)
    ws = WeightSet(1.0, 1.0, 1.0, (0.5, 0.5), K2=1.0 + 1e-9)
    assert ws.chi(np.array([0.5, 0.5]))[0] > 0.0


def test_shift_constants_recomputable():
    ws = WeightSet(2.0, 3.0, 1.0, (0.7, 1.1))
    a, b = ws.anchor
    assert ws.c_a == pytest.approx(a - (2.0 - 2 * a) / (2 * a * (2.0 - a)))
    assert ws.c_b == pytest.approx(b - (3.0 - 2 * b) / (2 * b * (3.0 - b)))


def test_rho0_at_start_finite(ws):
    vals = ws.rho0_at_start(np.array([[0.1, 0.2], [0.5, 0.5]]))
    assert np.all(np.isfinite(vals))
    assert np.all(vals > 0)
