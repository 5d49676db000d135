"""Forward verification solvers: analytic benchmarks and exactness checks."""

import contextlib
import io
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from nullctrl import cli, forward
from nullctrl.forward import (SpatialGrid, Trajectory, curl_perturbation,
                              flow_forward, heat_forward_cn)

from oracles import (bmat_step_operators, einsum_convection, fd_divergence,
                     fresh_flow_forward, fresh_heat_forward)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


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
        assert hist.state_norms[0] == 0.0
        assert hist.state_norms[-1] > 0.0
        runs.append(y)
    assert np.allclose(runs[1], 2.0 * runs[0], rtol=1e-12,
                       atol=1e-14 * np.abs(runs[1]).max())


def test_stokes_control_norms():
    # as in the heat case, the box sits on grid lines: the control's
    # L2(Omega) norm is |c| sqrt(area) at every time, and 0 without one
    grid = SpatialGrid(6, 6, 1.0, 1.0)
    box = (1 / 3, 2 / 3, 1 / 3, 2 / 3)
    c = (1.0, -2.0)
    hist, _ = flow_forward(grid, 1.0, (0.0, 0.0), ConstantControl(c), None,
                           0.3, 6, omega_box=box)
    assert len(hist.control_norms) == len(hist.times) == 7
    assert np.allclose(hist.control_norms, np.hypot(*c) * np.sqrt(1 / 9),
                       rtol=1e-12, atol=0.0)
    hist0, _ = flow_forward(grid, 1.0, (0.0, 0.0), None, None, 0.3, 6,
                            omega_box=box)
    assert np.array_equal(hist0.control_norms, np.zeros(7))


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
    hist, _ = heat_forward_cn(grid, sin_mode, 1.0, None, 0.1, 7)
    assert len(factorizations) == 2
    assert (hist.factorizations, hist.gmres_iterations) == (2, 0)


@pytest.mark.parametrize("nt_fwd", [3, 7])
def test_stokes_reuses_factorization_per_theta(factorizations, nt_fwd):
    # one held factorization; the theta switch may refactorize once
    grid = SpatialGrid(4, 4, 1.0, 1.0)
    hist, _ = flow_forward(grid, 1.0, (0.0, 0.0), None, None, 0.1, nt_fwd)
    assert 1 <= len(factorizations) <= 2
    assert hist.factorizations == len(factorizations)


def test_navier_stokes_reuses_factorization(factorizations):
    # the convection changes the step matrix every step; GMRES on the held
    # factorization absorbs most of the changes
    grid = SpatialGrid(4, 4, np.pi, np.pi)
    traj = Trajectory("taylor_green")
    hist, _ = flow_forward(grid, 1.0, lambda X: traj(X, 0.0), None,
                           traj, 0.1, 5)
    assert 1 <= len(factorizations) < 5
    assert hist.factorizations == len(factorizations)
    assert hist.gmres_iterations > 0


def _stokes_large_steps(forward_solver):
    # steps of 1/8: GMRES on the theta = 1 factorization would absorb the
    # switch to theta = 1/2 in 7 or 8 iterations, at every later step
    return forward_solver(SpatialGrid(4, 4, np.pi, np.pi), 1.0,
                          lambda X: curl_perturbation("taylor_green", 1.0, X),
                          None, None, 1.0, 8)


def test_stokes_theta_switch_refactorizes():
    # the Stokes matrix changes only at the switch, which refactorizes, so
    # every step is solved directly
    hist, _ = _stokes_large_steps(flow_forward)
    assert (hist.factorizations, hist.gmres_iterations) == (2, 0)


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_step_matrix_refill_matches_bmat(theta):
    # two fields are the Taylor-Hood step, one the heat step; the
    # convection is the same scalar operator in either
    grid = SpatialGrid(5, 4, np.pi, 2.0)
    for npts, fields in ((7, 2), (6, 1)):
        th = forward._StepMatrices(grid, npts, fields)
        adv = np.random.default_rng(3).standard_normal((len(th.nodes), 2))
        dt, nu = 0.05, 0.7
        th.refill(dt, theta, nu * th.Kv + th.convection(adv))
        rhs_op, Aib, KKT = bmat_step_operators(
            th, dt, theta, nu * th.K + einsum_convection(th, adv))
        # every entry within 1e-14 of the matrix's largest: an entry where
        # M/dt and theta S nearly cancel keeps only the sum's absolute
        # accuracy
        for new, ref in ((th.kkt, KKT), (th.rhs_op, rhs_op),
                         (th.lhs[th.interior][:, th.bdry], Aib)):
            new, ref = new.toarray(), ref.toarray()
            assert new.shape == ref.shape
            assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()


def _stokes_flow(forward_solver):
    # no-slip walls, a divergence-free start that vanishes on them and a
    # control
    box = (np.pi / 3, 2 * np.pi / 3, np.pi / 3, 2 * np.pi / 3)
    return forward_solver(SpatialGrid(8, 8, np.pi, np.pi), 0.5,
                          lambda X: curl_perturbation("taylor_green", 1.0, X),
                          ConstantControl((1.0, -2.0)), None, 0.4, 12,
                          omega_box=box)


def _taylor_green_flow(forward_solver):
    traj = Trajectory("taylor_green")
    return forward_solver(
        SpatialGrid(8, 8, np.pi, np.pi), 1.0,
        lambda X: traj(X, 0.0) + curl_perturbation("taylor_green", 0.1, X),
        None, traj, 1.0, 20)


@pytest.mark.parametrize("flow", [_stokes_flow, _stokes_large_steps,
                                  _taylor_green_flow])
def test_reuse_matches_fresh_factorization(flow):
    hist, y = flow(flow_forward)
    ref, y_ref = flow(fresh_flow_forward)
    assert hist.factorizations < ref.factorizations
    assert np.allclose(hist.state_norms, ref.state_norms, rtol=1e-11,
                       atol=0.0)
    assert hist.divergence_residual == pytest.approx(
        ref.divergence_residual, rel=1e-11)
    assert np.allclose(y, y_ref, rtol=0.0, atol=1e-11 * np.abs(y_ref).max())


def _heat_flow(forward_solver, control=None):
    # constant data against homogeneous walls, with or without a control
    box = (0.25, 0.75, 0.25, 0.5)
    return forward_solver(SpatialGrid(8, 8, 1.0, 1.0), 2.0, 1.0, control,
                          0.5, 9, omega_box=box)


@pytest.mark.parametrize("control", [None, ConstantControl(-3.0)])
def test_heat_matches_per_theta_factorization(control):
    hist, y = _heat_flow(heat_forward_cn, control)
    ref, y_ref = _heat_flow(fresh_heat_forward, control)
    assert hist.factorizations == ref.factorizations == 2
    assert hist.gmres_iterations == 0
    assert hist.divergence_residual is None
    assert np.allclose(hist.control_norms, ref.control_norms, rtol=1e-11,
                       atol=0.0)
    assert np.allclose(hist.state_norms, ref.state_norms, rtol=1e-11,
                       atol=0.0)
    assert y.shape == y_ref.shape
    assert np.allclose(y, y_ref, rtol=0.0, atol=1e-11 * np.abs(y_ref).max())


@pytest.mark.parametrize("nx, ny, L, npts, fields", [
    (32, 32, 1.0, 6, 1), (12, 12, np.pi, 7, 2), (5, 4, np.pi, 7, 2)])
def test_step_pattern_is_mass_and_stiffness_csr(nx, ny, L, npts, fields):
    st = forward._StepMatrices(SpatialGrid(nx, ny, L, L), npts, fields)
    for A in (st.lhs, st.rhs_op):
        assert np.shares_memory(A.indices, st.M.indices)
        assert np.shares_memory(A.indptr, st.M.indptr)
    assert np.array_equal(st.K.indices, st.M.indices)
    assert np.array_equal(st.K.indptr, st.M.indptr)
    assert st.Mv is st.M.data and st.Kv is st.K.data
    # the pattern holds every element entry once, rows and columns sorted,
    # and pos sends each element entry to its place in it
    n = len(st.nodes)
    entries = (st.conn[:, :, None] * n + st.conn[:, None, :]).ravel()
    keys = np.unique(entries)
    prow, pcol = np.divmod(keys, n)
    assert np.array_equal(st.M.indices, pcol)
    assert np.array_equal(st.M.indptr, np.searchsorted(prow,
                                                       np.arange(n + 1)))
    assert np.array_equal(keys[st.pos], entries)


@pytest.fixture
def refills(monkeypatch):
    """The theta of each refill of the step matrices."""
    thetas = []
    real = forward._StepMatrices.refill

    def counted(self, dt, theta, S):
        thetas.append(theta)
        return real(self, dt, theta, S)

    monkeypatch.setattr(forward._StepMatrices, "refill", counted)
    return thetas


def test_fixed_operators_refill_at_start_and_switch(refills):
    # heat and Stokes keep their operator: two refills, whatever the steps
    grid = SpatialGrid(4, 4, 1.0, 1.0)
    heat_forward_cn(grid, sin_mode, 1.0, None, 0.1, 7)
    assert refills == [1.0, 0.5]
    refills.clear()
    flow_forward(grid, 1.0, (0.0, 0.0), None, None, 0.1, 7)
    assert refills == [1.0, 0.5]
    refills.clear()
    heat_forward_cn(grid, sin_mode, 1.0, None, 0.1, 2)
    assert refills == [1.0]


def test_convection_refills_every_step(refills):
    grid = SpatialGrid(4, 4, np.pi, np.pi)
    traj = Trajectory("taylor_green")
    flow_forward(grid, 1.0, lambda X: traj(X, 0.0), None, traj, 0.1, 5)
    assert refills == [1.0, 1.0, 0.5, 0.5, 0.5]


@pytest.mark.parametrize("solver", ["heat", "flow"])
def test_control_outside_every_triangle_rejected(solver):
    # on a 2x2 grid no centroid lies strictly inside the middle third, so a
    # run would verify a zero control; without a control the box is unread
    grid = SpatialGrid(2, 2, 1.0, 1.0)
    box = (1 / 3, 2 / 3, 1 / 3, 2 / 3)
    assert len(grid.tris_in(box)) == 0
    if solver == "heat":
        def run(control):
            return heat_forward_cn(grid, 0.0, 0.0, control, 0.1, 3,
                                   omega_box=box)
        c = 1.0
    else:
        def run(control):
            return flow_forward(grid, 1.0, (0.0, 0.0), control, None, 0.1,
                                3, omega_box=box)
        c = (1.0, -2.0)
    control = ConstantControl(c)
    with pytest.raises(ValueError, match="control region"):
        run(control)
    assert control.bindings == 0
    hist, _ = run(None)
    assert np.array_equal(hist.control_norms, np.zeros(4))


def test_traced_navier_stokes_run_counts_forward_work(tmp_path):
    # the benchmark's tracer wraps the forward solvers through the pipeline
    # and counts their factorizations under the forward layer
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import tracing
    rec = tracing.Recorder()
    tracing.install(rec)
    argv = ["run", "ns-taylor-green", "--nx", "3", "--ny", "3", "--nt", "2",
            "--set", "solver.method=direct", "--set", "solver.outer_max=1",
            "--set", "verify.nx=4", "--set", "verify.ny=4",
            "--set", "verify.nt=3", "--out", str(tmp_path)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert rec.call("cli.run", cli.run, argv) == 0
    finally:
        rec.restore()
    m = tracing.layer_metrics(rec.spans)
    assert m["forward.steps"] == 6
    assert m["forward.factorizations"] >= 1
    summary = (tmp_path / "summary.txt").read_text()
    factorizations = int(m["forward.factorizations"])
    assert f"verify_factorizations = {factorizations}\n" in summary


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
    assert hist.state_norms.max() <= 1e-14


def test_poiseuille_steady_state_exact():
    # the channel profile lies in the velocity space, so the discrete flow
    # stays on it to solver roundoff
    grid = SpatialGrid(15, 6, 5.0, 1.0)
    traj = Trajectory("poiseuille")
    hist, _ = flow_forward(grid, 1.0, lambda X: traj(X, 0.0),
                           None, traj, 0.5, 25)
    assert hist.state_norms.max() <= 1e-10


def test_taylor_green_tracks_exact_decay():
    grid = SpatialGrid(16, 16, np.pi, np.pi)
    traj = Trajectory("taylor_green", nu=1.0)
    hist, _ = flow_forward(grid, 1.0, lambda X: traj(X, 0.0),
                           None, traj, 0.5, 50)
    norm0 = np.pi / np.sqrt(2.0) * np.sqrt(2.0)   # ||TG(0)|| on (0,pi)^2
    rel = hist.state_norms[-1] / (np.exp(-4.0) * norm0)
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
    # every scenario's record, with or without a divergence residual, is
    # written as t,control_norm,state_norm
    h = forward.NormHistory(times=np.array([0.0, 1.0]),
                            control_norms=np.array([1.0, 0.0]),
                            state_norms=np.array([2.0, 0.5]))
    hf = forward.NormHistory(times=np.array([0.0]),
                             control_norms=np.array([0.0]),
                             state_norms=np.array([3.0]),
                             divergence_residual=1e-3)
    sol = SimpleNamespace(log=None, history=h, history_uncontrolled=hf)
    tables = cli._tables(sol, None)
    assert set(tables) == {"norms.csv", "norms_uncontrolled.csv"}
    for name, columns in tables.items():
        cli._write_csv(tmp_path / name, columns)
    assert (tmp_path / "norms.csv").read_text() == (
        "t,control_norm,state_norm\n"
        "0.000000000000e+00,1.000000000000e+00,2.000000000000e+00\n"
        "1.000000000000e+00,0.000000000000e+00,5.000000000000e-01\n")
    assert (tmp_path / "norms_uncontrolled.csv").read_text() == (
        "t,control_norm,state_norm\n"
        "0.000000000000e+00,0.000000000000e+00,3.000000000000e+00\n")
