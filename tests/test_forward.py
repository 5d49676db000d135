"""Forward verification solvers: analytic benchmarks and exactness checks."""

import numpy as np
import pytest

from nullctrl import forward
from nullctrl.forward import (SpatialGrid, Trajectory, curl_perturbation,
                              flow_forward, heat_forward_cn)

from oracles import fd_divergence


def sin_mode(X):
    return np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1])


def test_heat_decay_against_separated_solution():
    grid = SpatialGrid(32, 32, 1.0, 1.0)
    hist, _ = heat_forward_cn(grid, sin_mode, 0.0, None, 0.1, 200)
    exact = np.exp(-2.0 * np.pi ** 2 * 0.1) * hist.state_norms[0]
    assert hist.state_norms[-1] == pytest.approx(exact, rel=0.01)


def test_heat_second_order_in_time():
    grid = SpatialGrid(32, 32, 1.0, 1.0)
    base, _ = heat_forward_cn(grid, sin_mode, 0.0, None, 0.1, 3200)
    ref = base.state_norms[-1]          # resolved-in-time reference
    errs = []
    for nt in (25, 50):
        h, _ = heat_forward_cn(grid, sin_mode, 0.0, None, 0.1, nt)
        errs.append(abs(h.state_norms[-1] - ref))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_heat_zero_data_stays_zero():
    grid = SpatialGrid(8, 8, 1.0, 1.0)
    hist, y = heat_forward_cn(grid, 0.0, 0.0, None, 0.5, 20)
    assert np.abs(y).max() == 0.0
    assert hist.state_norms.max() == 0.0


def test_heat_incompatible_data_boundary_recovered():
    # constant-1000 data with homogeneous Dirichlet walls: the discrete state
    # honors the boundary for every t > 0 and decays under G = 1
    grid = SpatialGrid(16, 16, 1.0, 1.0)
    hist, y = heat_forward_cn(grid, 1000.0, 1.0, None, 0.5, 50)
    bdry = grid.boundary_nodes()
    assert np.abs(y[bdry]).max() == 0.0
    assert np.all(np.isfinite(hist.state_norms))
    assert hist.state_norms[-1] < 1e-2 * hist.state_norms[0]


class ConstantControl:
    """Control equal to c at every point it is bound to, a scalar or one
    value per velocity component; counts bindings."""

    def __init__(self, c):
        self.c = c
        self.bindings = 0

    def at(self, X):
        self.bindings += 1
        return lambda t: np.full(X.shape[:-1] + np.shape(self.c), self.c)


def test_heat_controlled_branch():
    # the box sits on grid lines, so the triangles it selects tile it and
    # the control's L2(Omega) norm is |c| sqrt(area) at every time
    grid = SpatialGrid(8, 8, 1.0, 1.0)
    box = (0.25, 0.75, 0.25, 0.5)
    area = (box[1] - box[0]) * (box[3] - box[2])
    runs = []
    for c in (-3.0, -6.0):
        control = ConstantControl(c)
        hist, y = heat_forward_cn(grid, 0.0, 1.0, control, 0.5, 20,
                                  omega_box=box)
        assert control.bindings == 1
        assert np.allclose(hist.control_norms, abs(c) * np.sqrt(area),
                           rtol=1e-12, atol=0.0)
        assert hist.state_norms[-1] > 0.0
        runs.append(y)
    assert np.allclose(runs[1], 2.0 * runs[0], rtol=1e-12,
                       atol=1e-14 * np.abs(runs[1]).max())


def test_stokes_controlled_branch():
    # no trajectory: no-slip walls and zero data, so the final velocity is
    # linear in the control
    grid = SpatialGrid(6, 6, 1.0, 1.0)
    box = (1 / 3, 2 / 3, 1 / 3, 2 / 3)
    runs = []
    for c in ((1.0, -2.0), (2.0, -4.0)):
        control = ConstantControl(c)
        hist, y = flow_forward(grid, 1.0, (0.0, 0.0), control, None, 0.3, 6,
                               omega_box=box)
        assert control.bindings == 1
        assert hist.deviation_norms[0] == 0.0
        assert hist.deviation_norms[-1] > 0.0
        runs.append(y)
    assert np.allclose(runs[1], 2.0 * runs[0], rtol=1e-12,
                       atol=1e-14 * np.abs(runs[1]).max())


@pytest.fixture
def factorizations(monkeypatch):
    """Counts the forward solvers' sparse LU factorizations."""
    calls = []
    real = forward.spla.factorized

    def counted(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(forward.spla, "factorized", counted)
    return calls


def test_heat_factorizes_once_per_theta(factorizations):
    grid = SpatialGrid(4, 4, 1.0, 1.0)
    heat_forward_cn(grid, sin_mode, 1.0, None, 0.1, 7)
    assert len(factorizations) == 2


@pytest.mark.parametrize("nt_fwd", [3, 7])
def test_stokes_reuses_factorization_per_theta(factorizations, nt_fwd):
    grid = SpatialGrid(4, 4, 1.0, 1.0)
    flow_forward(grid, 1.0, (0.0, 0.0), None, None, 0.1, nt_fwd)
    assert len(factorizations) == 2


def test_navier_stokes_factorizes_every_step(factorizations):
    grid = SpatialGrid(4, 4, np.pi, np.pi)
    traj = Trajectory("taylor_green")
    flow_forward(grid, 1.0, lambda X: traj(X, 0.0), None,
                 traj, 0.1, 5)
    assert len(factorizations) == 5


def test_zero_trajectory_kind_rejected():
    with pytest.raises(ValueError):
        Trajectory("zero")


def test_trajectory_closed_forms():
    p = Trajectory("poiseuille")
    assert np.allclose(p(np.array([2.0, 0.5]), 0.7), [1.0, 0.0])
    assert np.allclose(p(np.array([2.0, 0.0]), 0.0), [0.0, 0.0])
    tg = Trajectory("taylor_green")
    v = tg(np.array([np.pi / 4, 0.0]), 0.0)
    assert np.allclose(v, [1.0, 0.0], atol=1e-14)
    v1 = tg(np.array([1.0, 2.0]), 0.25)
    assert np.allclose(v1, tg(np.array([1.0, 2.0]), 0.0)
                       * np.exp(-2.0), atol=1e-12)


def test_taylor_green_divergence_free():
    tg = Trajectory("taylor_green")
    rng = np.random.default_rng(2)
    pts = rng.random((100, 2)) * np.pi
    for k in range(100):
        d = fd_divergence(lambda x: tg(x, 0.3), pts[k])
        assert abs(d) <= 1e-6


def test_curl_perturbation_properties():
    rng = np.random.default_rng(6)
    for kind, L1, L2 in (("taylor_green", np.pi, np.pi),
                         ("poiseuille", 5.0, 1.0)):
        for x in (np.array([0.0, 0.3 * L2]), np.array([L1, 0.9 * L2]),
                  np.array([0.4 * L1, 0.0]), np.array([0.7 * L1, L2])):
            assert np.abs(curl_perturbation(kind, 0.1, x)).max() == 0.0
        pts = rng.random((30, 2)) * [L1, L2]
        for k in range(30):
            d = fd_divergence(lambda x: curl_perturbation(kind, 0.1, x),
                              pts[k], h=1e-5)
            assert abs(d) <= 1e-8
        assert np.abs(curl_perturbation(kind, 0.0, pts)).max() == 0.0


def test_flow_zero_data_stays_zero():
    grid = SpatialGrid(6, 6, 1.0, 1.0)
    hist, y = flow_forward(grid, 1.0, (0.0, 0.0), None, None, 0.3, 6)
    assert np.abs(y).max() <= 1e-14
    assert hist.deviation_norms.max() <= 1e-14


def test_poiseuille_steady_state_exact():
    # the channel profile lies in the velocity space, so the discrete flow
    # stays on it to solver roundoff
    grid = SpatialGrid(15, 6, 5.0, 1.0)
    traj = Trajectory("poiseuille")
    hist, _ = flow_forward(grid, 1.0, lambda X: traj(X, 0.0),
                           None, traj, 0.5, 25)
    assert hist.deviation_norms.max() <= 1e-10


def test_taylor_green_tracks_exact_decay():
    grid = SpatialGrid(16, 16, np.pi, np.pi)
    traj = Trajectory("taylor_green", nu=1.0)
    hist, _ = flow_forward(grid, 1.0, lambda X: traj(X, 0.0),
                           None, traj, 0.5, 50)
    norm0 = np.pi / np.sqrt(2.0) * np.sqrt(2.0)   # ||TG(0)|| on (0,pi)^2
    rel = hist.deviation_norms[-1] / (np.exp(-4.0) * norm0)
    assert rel <= 0.05
    # discrete divergence of the velocity pair scales like h^2: 1.1e-2 at
    # this resolution, 2.8e-3 at 32x32
    assert hist.divergence_residual <= 2e-2


def test_flow_divergence_residual_reported():
    grid = SpatialGrid(12, 12, np.pi, np.pi)
    traj = Trajectory("taylor_green", nu=1.0)
    hist, _ = flow_forward(grid, 1.0, lambda X: traj(X, 0.0),
                           None, traj, 0.2, 10)
    assert hist.divergence_residual > 0.0
    assert np.isfinite(hist.divergence_residual)


def test_norm_history_csv(tmp_path):
    from nullctrl.forward import NormHistory
    h = NormHistory(times=np.array([0.0, 1.0]),
                    control_norms=np.array([1.0, 0.0]),
                    state_norms=np.array([2.0, 0.5]))
    p = tmp_path / "norms.csv"
    h.to_csv(p)
    assert p.read_text().startswith("t,control_norm,state_norm")
    h2 = NormHistory(times=np.array([0.0]), deviation_norms=np.array([3.0]))
    p2 = tmp_path / "dev.csv"
    h2.to_csv(p2)
    assert p2.read_text().startswith("t,deviation_norm")
