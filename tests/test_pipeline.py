"""Pipeline orchestration: extraction identities, linearity, locality."""

import dataclasses

import numpy as np
import pytest

from nullctrl import pipeline, saddle
from nullctrl.cli import _summary_lines, _tables
from nullctrl.config import RunConfig, from_preset, validate
from nullctrl.fem import Assembler, QuadratureRule, build_space, l2_norm
from nullctrl.forms import SaddleSystem
from nullctrl.mesh import build_mesh
from nullctrl.pipeline import WeightedField, fixed_point_ns, \
    solve_heat_control, solve_stokes_control
from nullctrl.weights import WeightSet

from oracles import fresh_oseen


def heat_cfg(**over):
    base = dict(scenario="heat", L1=1.0, L2=1.0, T=1.0,
                omega=(0.25, 0.75, 0.25, 0.75), nx=4, ny=4, nt=4, m=2, n=2,
                G=1.0, solver_method="direct", verify=False)
    base.update(over)
    return validate(RunConfig(**base))


def stokes_cfg(**over):
    base = dict(scenario="stokes", L1=1.0, L2=1.0, T=1.0,
                omega=(0.25, 0.75, 0.25, 0.75), nx=4, ny=4, nt=4, m=2, n=2,
                nu=1.0, solver_method="direct", verify=False)
    base.update(over)
    return validate(RunConfig(**base))


def test_zero_datum_zero_solution():
    sol = solve_heat_control(heat_cfg(y0_scale=0.0))
    assert sol.J == 0.0
    pts = np.array([[0.3, 0.3], [0.4, 0.45]])
    assert np.abs(sol.control(pts, 0.2)).max() == 0.0
    assert np.abs(sol.state(pts, 0.2)).max() == 0.0


def test_control_vanishes_outside_region():
    cfg = heat_cfg()
    sol = solve_heat_control(cfg)
    assert sol.report["solver_stop"] == "exact"
    assert sol.report["solver_iterations"] == 0
    assert sol.report["solver_converged"]
    assert sol.report["kkt_residual"] <= 1e-8
    mesh = sol.mesh
    rng = np.random.default_rng(0)
    pts = rng.random((200, 2))
    x0, x1, y0, y1 = mesh.omega
    outside = ~((pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                & (pts[:, 1] >= y0) & (pts[:, 1] <= y1))
    for t in (0.1, 0.5, 0.9):
        vals = sol.control(pts, t)
        assert np.abs(vals[outside]).max() == 0.0
    assert sol.J > 0.0
    assert np.isfinite(sol.J)


def test_ah_report_names_its_stop():
    cfg = heat_cfg(solver_method="ah", max_iter=5)
    sol = solve_heat_control(cfg)
    assert sol.report == {
        "solver_iterations": 5, "solver_stop": "max_iter",
        "solver_converged": False,
        "kkt_residual": saddle.kkt_residual(sol.system, sol.x, sol.lam)}
    assert 0 < sol.report["kkt_residual"] < 1


def test_heat_scaling_linearity():
    sol1 = solve_heat_control(heat_cfg())
    sol2 = solve_heat_control(heat_cfg(y0_scale=2.0))
    pts = np.array([[0.3, 0.3], [0.4, 0.45], [0.7, 0.6]])
    for t in (0.05, 0.4, 0.8):
        assert np.allclose(sol2.control(pts, t), 2 * sol1.control(pts, t),
                           rtol=1e-8, atol=1e-10)
        assert np.allclose(sol2.state(pts, t), 2 * sol1.state(pts, t),
                           rtol=1e-8, atol=1e-10)
    assert sol2.J == pytest.approx(4.0 * sol1.J, rel=1e-8)


def test_stokes_scaling_linearity():
    sol1 = solve_stokes_control(stokes_cfg())
    sol2 = solve_stokes_control(stokes_cfg(y0_scale=2.0))
    pts = np.array([[0.3, 0.3], [0.45, 0.4]])
    for t in (0.05, 0.5):
        assert np.allclose(sol2.control(pts, t), 2 * sol1.control(pts, t),
                           rtol=1e-8, atol=1e-10)
        assert np.allclose(sol2.state(pts, t), 2 * sol1.state(pts, t),
                           rtol=1e-8, atol=1e-10)


def test_cost_change_of_variables_identity():
    """J evaluated on normalized coefficients equals the weighted-quadrature
    cost of the extracted fields, compared away from the horizon where the
    un-inverted weights stay in floating-point range.

    The extracted-field route goes through the public pointwise evaluators
    and multiplies back the grown weights, so a wrong extraction exponent
    would break the identity.
    """
    sol = solve_heat_control(heat_cfg())
    ws, mesh = sol.ws, sol.mesh
    zsp, psp, _ = sol.spaces
    asm = Assembler(mesh, QuadratureRule.default(2, 2))
    chimax = 1.0 * (np.e ** 2 - 1.0)
    delta = chimax / 300.0          # keeps exp(2 chi / tau) within range

    def weighted_sq(field, exponent_kind, region=False):
        total = 0.0
        for batch in asm.batches():
            X, t = batch.X, batch.t
            chi = ws.chi(X)[0]
            tau = ws.T - t
            live = tau > delta
            tau_safe = np.where(live, tau, 1.0)
            if exponent_kind == "state":        # rho^2 = e^{2 chi / tau}
                w = np.exp(np.minimum(2.0 * chi / tau_safe, 700.0))
            else:                               # rho_0^2 = tau^3 e^{2 chi/tau}
                w = tau_safe ** 3 * np.exp(np.minimum(2.0 * chi / tau_safe,
                                                      700.0))
            shape = np.broadcast(X[..., 0], t).shape
            f = field(np.broadcast_to(X, shape + (2,)).reshape(-1, 2),
                      np.broadcast_to(t, shape).ravel()).reshape(shape)
            cell = (f * f) * w * live
            if region:
                cell = cell * mesh.omega_flag[batch.tris][:, None, None]
            total += float(np.einsum("abq,q->", cell, batch.w))
        return total

    J_orig = 0.5 * (weighted_sq(sol.state, "state")
                    + weighted_sq(sol.control, "control", region=True))

    blocks = sol.blocks
    restrict = lambda X, t: 1.0 * (ws.T - t > delta)
    # quadrature points are interior to cells and omega is a union of cells,
    # so the box indicator is the cell mask of omega there
    x0, x1, y0, y1 = mesh.omega
    in_omega = lambda X, t: (restrict(X, t) * (X[..., 0] > x0) * (X[..., 0] < x1)
                             * (X[..., 1] > y0) * (X[..., 1] < y1))
    J_hat = 0.5 * (l2_norm(zsp, blocks["z"], weight=restrict, assembler=asm) ** 2
                   + l2_norm(psp, blocks["p"], weight=in_omega,
                             assembler=asm) ** 2)
    assert J_orig == pytest.approx(J_hat, rel=1e-6)
    assert sol.J >= J_hat > 0.0


def test_fixed_point_zero_perturbation():
    cfg = validate(RunConfig(
        scenario="navier_stokes", L1=np.pi, L2=np.pi, T=1.0,
        omega=(np.pi / 3, 2 * np.pi / 3, np.pi / 3, 2 * np.pi / 3),
        nx=3, ny=3, nt=3, m=2, n=2, nu=1.0, trajectory="taylor_green",
        M=0.0, anchor=(np.pi / 2, np.pi / 2), solver_method="direct",
        outer_max=5, verify=False))
    sol, fp = fixed_point_ns(cfg)
    assert fp.converged
    assert fp.iters[-1] == 1
    pts = np.array([[1.2, 1.5], [2.0, 1.3]])
    assert np.abs(sol.control(pts, 0.3)).max() == 0.0
    assert np.abs(sol.state(pts, 0.3)).max() == 0.0


def test_direct_fixed_point_factorizes_each_pass_once(factorizations):
    cfg = validate(dataclasses.replace(
        from_preset("ns-taylor-green"), nx=3, ny=3, nt=3,
        solver_method="direct", outer_max=2, verify=False))
    sol, fp = fixed_point_ns(cfg)
    assert fp.iters == [1, 2] and not fp.converged
    assert len(factorizations) == 2
    rn = sol.report["kkt_residual"]
    assert np.isfinite(rn) and rn > 0
    assert f"kkt_residual = {rn:.6e}" in _summary_lines(cfg, sol, fp, 0.0)
    # KktSolver's own residual is the one the other methods report
    assert rn == pytest.approx(saddle.kkt_residual(sol.system, sol.x,
                                                   sol.lam), rel=1e-6)


def test_lsq_fixed_point_keeps_last_pass_diagnostics(monkeypatch):
    infos = []
    lsq = pipeline.lsq_solve

    def recorded(*args, **kwargs):
        out = lsq(*args, **kwargs)
        infos.append(out[2])
        return out

    monkeypatch.setattr(pipeline, "lsq_solve", recorded)
    cfg = validate(dataclasses.replace(
        from_preset("ns-taylor-green"), nx=3, ny=3, nt=3,
        solver_method="lsq", max_iter=60, outer_max=2, verify=False))
    sol, fp = fixed_point_ns(cfg)
    assert len(infos) == 2
    last = infos[-1]
    assert set(last) == {"iterations", "istop"}
    rn = saddle.kkt_residual(sol.system, sol.x, sol.lam)
    assert sol.report == {
        "solver_iterations": last["iterations"],
        "solver_stop": f"istop_{last['istop']}",
        "solver_converged": last["istop"] in (0, 1, 4),
        "kkt_residual": rn}
    lines = _summary_lines(cfg, sol, fp, 0.0)
    assert f"solver_iterations = {last['iterations']}" in lines
    assert f"solver_stop = istop_{last['istop']}" in lines
    assert f"kkt_residual = {rn:.6e}" in lines


def test_fixed_point_stops_on_stagnation(monkeypatch):
    # l2_norm is called for the increment, then for the iterate: the
    # relative increments read 1, 2, 3, ..., growing at every pass
    calls = []

    def growing(space, coeffs, weight=None, assembler=None):
        calls.append(1)
        return float(len(calls) + 1) / 2 if len(calls) % 2 else 1.0

    # the stop depends on the increments only: every pass reuses the first
    # pass's system, which keeps the eleven passes cheap
    systems = []
    assemble = pipeline.assemble_oseen

    def first_system(*args, **kwargs):
        if not systems:
            systems.append(assemble(*args, **kwargs))
        return systems[0]

    monkeypatch.setattr(pipeline, "l2_norm", growing)
    monkeypatch.setattr(pipeline, "assemble_oseen", first_system)
    cfg = validate(dataclasses.replace(
        from_preset("ns-taylor-green"), nx=3, ny=3, nt=2,
        solver_method="direct", outer_max=20, verify=False))
    sol, fp = fixed_point_ns(cfg)
    assert fp.rel_err == [float(k) for k in range(1, 12)]
    assert fp.stagnated and not fp.converged
    lines = _summary_lines(cfg, sol, fp, 0.0)
    assert "outer_iterations = 11" in lines
    assert "outer_stagnated = True" in lines


def _taylor_green_direct(outer_max):
    return validate(dataclasses.replace(
        from_preset("ns-taylor-green"), nx=3, ny=3, nt=2,
        solver_method="direct", outer_max=outer_max, verify=False))


def test_fixed_point_bitwise_equal_to_assembling_every_pass(monkeypatch):
    """The passes after the first compute only the kernels of the transport
    terms in the iterate; the run keeps the bits of one that assembles every pass from
    scratch, and its outer log counts the element kernels of each pass."""
    cfg = _taylor_green_direct(outer_max=3)
    sol, fp = fixed_point_ns(cfg)
    # the distinct kernels: 54 terms in each of 8 batches, less 8
    # control-region terms on batches without a control-region triangle,
    # less those equal to an earlier one; then 3 transport terms per batch
    assert fp.kernels == [252, 24, 24]
    outer = _tables(sol, fp)["outer_iterations.csv"]
    assert outer["element_kernels"] == [252, 24, 24]
    monkeypatch.setattr(pipeline, "assemble_oseen", fresh_oseen)
    ref, ref_fp = fixed_point_ns(cfg)
    assert fp.iters == ref_fp.iters == [1, 2, 3]
    assert (np.array(fp.rel_err).tobytes()
            == np.array(ref_fp.rel_err).tobytes())
    assert np.float64(sol.J).tobytes() == np.float64(ref.J).tobytes()
    assert sol.x.tobytes() == ref.x.tobytes()


def test_fixed_point_assembles_each_pass_through_its_entry_point(
        monkeypatch):
    """The benchmark's tracer wraps `pipeline.assemble_oseen` by name,
    forwarding every argument, and reads each pass's system from its
    result."""
    systems = []
    assemble = pipeline.assemble_oseen

    def wrapper(*args, **kwargs):
        result = assemble(*args, **kwargs)
        systems.append(result)
        return result

    monkeypatch.setattr(pipeline, "assemble_oseen", wrapper)
    sol, fp = fixed_point_ns(_taylor_green_direct(outer_max=2))
    assert len(systems) == len(fp.iters) == 2
    assert all(isinstance(system, SaddleSystem) for system in systems)
    assert systems[-1] is sol.system


def test_direct_fallback_factorizes_once(factorizations, monkeypatch,
                                         capfd):
    # the small Stokes system is numerically singular, and refinement
    # cannot meet its tolerance on it: one regularized factorization serves
    # the whole solve, with no attempt at the exact (singular) one
    exact = []
    spsolve = saddle.spla.spsolve

    def counted(*args, **kwargs):
        exact.append(1)
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(saddle.spla, "spsolve", counted)
    sol = solve_stokes_control(stokes_cfg(nx=3, ny=3, nt=3))
    assert len(factorizations) == 1
    assert exact == []
    assert capfd.readouterr() == ("", "")
    assert sol.report["kkt_residual"] > 1e-9
    assert sol.report["solver_converged"] is False


def test_bound_evaluator_matches_scattered_points():
    """WeightedField.at(P)(t) agrees with TensorFemSpace.eval times the
    inverse weight, on mesh vertices, element edges (axis-aligned and
    diagonal), the control-region boundary and the domain boundary, at
    t = 0, slab nodes, slab interiors and T, for per-point times and for
    a column of times.
    This checks the weight, sign and region; the field values themselves
    are checked in closed form by test_polynomial_interpolation_exact."""
    mesh = build_mesh(4, 4, 4, 1.0, 1.0, 1.0, (0.25, 0.75, 0.25, 0.75))
    ws = WeightSet(1.0, 1.0, 1.0, (0.5, 0.5))
    rng = np.random.default_rng(3)
    g = np.linspace(0.0, 1.0, 5)
    vertices = np.array([(x, y) for x in g for y in g])
    edges = np.concatenate([vertices[:-1] + [0.0, 0.125],
                            vertices[:-1] + [0.125, 0.0],
                            vertices[:-1] + [0.125, 0.125]])
    region_edge = np.array([(0.25, y) for y in rng.random(5)]
                           + [(x, 0.75) for x in rng.random(5)])
    P = np.concatenate([vertices, np.clip(edges, 0.0, 1.0), region_edge,
                        rng.random((20, 2))])
    inside = ((P[:, 0] >= 0.25) & (P[:, 0] <= 0.75)
              & (P[:, 1] >= 0.25) & (P[:, 1] <= 0.75))
    fields = []
    for comps in (1, 2):
        for deg in (1, 2):
            sp_ = build_space(mesh, deg, 2, comps, "none")
            c = rng.standard_normal(sp_.ndof)
            fields.append(WeightedField(sp_, c, ws, weight=0, sign=-1.0,
                                        region=mesh.omega))
            fields.append(WeightedField(sp_, c, ws, weight="-"))

    def reference(f, t):
        tt = np.broadcast_to(t, len(P))
        vals = f.space.eval(f.coeffs, P, tt)
        w = f.sign * ws.inv_weight(f.weight, P, tt)
        if f.region is not None:
            w = w * inside
        return vals * (w[:, None] if vals.ndim == 2 else w)

    times = [0.0, 0.25, 0.5, 0.75, 0.1, 0.6, 1.0,
             rng.random(len(P))]
    for f in fields:
        bound = f.at(P)
        for t in times:
            got, want = bound(t), reference(f, t)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        # a column of times evaluates the same rows bit for bit
        column = np.array(times[:-1])[:, None]
        assert np.array_equal(bound(column),
                              np.stack([bound(t) for t in times[:-1]]))
