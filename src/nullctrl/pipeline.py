"""End-to-end control computation: assemble, solve, extract, verify.

The extracted control and state are weighted evaluations of the saddle
solution's FEM fields; verification always re-simulates the controlled
problem with the independent forward solvers, alongside an uncontrolled
comparison run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import Assembler, QuadratureRule, build_space, l2_norm
from .forms import assemble_heat, assemble_oseen, assemble_stokes
from .forward import (SpatialGrid, Trajectory, curl_perturbation,
                      flow_forward, heat_forward_cn)
from .mesh import build_mesh
from .saddle import (AHParams, KktSolver, arrow_hurwicz, direct_solve,
                     lsq_solve)
from .weights import WeightSet


@dataclass
class ControlSolution:
    """Solution bundle: raw blocks, extracted fields, logs and diagnostics."""

    kind: str
    blocks: dict
    control: object
    state: object
    J: float
    log: object = None
    history: object = None
    history_uncontrolled: object = None
    extras: dict = field(default_factory=dict)


@dataclass
class FixedPointLog:
    """Outer-loop relative increments of the transported field."""

    iters: list = field(default_factory=list)
    rel_err: list = field(default_factory=list)
    converged: bool = False
    stagnated: bool = False

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,rel_err\n")
            for k, e in zip(self.iters, self.rel_err):
                fh.write(f"{k},{e:.12e}\n")


class WeightedField:
    """FEM field times an inverse-weight power, restricted to a region.

    Evaluates pointwise as weight(x,t) * u_h(x,t); with a region box the
    value is exactly 0 outside it (control locality).  `at` binds the field
    to fixed points once and returns t -> values; `on_batch` serves the
    assembler's quadrature grid directly, avoiding point location.
    """

    def __init__(self, space, coeffs, ws: WeightSet, weight="-", power=1,
                 sign=1.0, region=None):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.ws = ws
        self.weight = weight
        self.power = power
        self.sign = sign
        self.region = region

    def _inside(self, X):
        x0, x1, y0, y1 = self.region
        return ((X[..., 0] >= x0) & (X[..., 0] <= x1)
                & (X[..., 1] >= y0) & (X[..., 1] <= y1))

    def at(self, X):
        """Evaluator t -> values at the fixed points X (..., 2).

        Point location, spatial basis, DOF indices, the weight exponent
        chi(X) and the region mask are computed once; a call costs the time
        basis, one small contraction and exp(-chi/(T-t)).  t is one time or
        an array of times broadcastable to X.shape[:-1].
        """
        X = np.asarray(X, dtype=float)
        field = self.space.at(self.coeffs, X)
        chi, _, _ = self.ws.chi(X)
        scale = np.full(X.shape[:-1], self.sign)
        if self.region is not None:
            scale = scale * self._inside(X)

        def values(t):
            w = scale * self.ws.inv_weight_of_chi(self.weight, chi,
                                                  t) ** self.power
            out = field(t)
            return out * (w[..., None] if out.ndim > w.ndim else w)

        return values

    def __call__(self, X, t):
        """Values at the points X (..., 2) and the time(s) t."""
        return self.at(X)(t)

    def on_batch(self, batch):
        X = batch.Xq[:, None, :, :]
        t = batch.tq[None, :, :]
        w = self.sign * self.ws.inv_weight(self.weight, X, t) ** self.power
        vals = np.stack([batch.field(self.space, self.coeffs, c)
                         for c in range(self.space.components)], axis=-1)
        out = vals * w[..., None]
        if self.region is not None:
            out = out * self._inside(batch.Xq)[:, None, :, None]
        return out


def _solve_system(system, cfg, start=None):
    if cfg.solver_method == "direct":
        x, lam, flagged = direct_solve(system)
        return x, lam, None, {"least_squares": flagged}
    if cfg.solver_method == "lsq":
        x, lam, info = lsq_solve(system, start=start, tol=cfg.tol,
                                 max_iter=cfg.max_iter)
        return x, lam, None, info
    params = AHParams(r=cfg.r, s=cfg.s, tol=cfg.tol, max_iter=cfg.max_iter,
                      equilibrate=cfg.equilibrate)
    x, lam, log = arrow_hurwicz(system, params, start=start)
    return x, lam, log, {}


def _spaces_heat(mesh, m, n):
    return (build_space(mesh, m, n, 1, "none"),
            build_space(mesh, m, n, 1, "zero_lateral"),
            build_space(mesh, m, n, 1, "zero_lateral_final"))


def _spaces_flow(mesh, m, n):
    # the divergence multiplier sits one spatial degree below the velocity
    # fields (stable pairing); equal order leaves the constraint block with
    # spurious dual modes and a numerically singular system
    m_mu = max(m - 1, 1)
    return (build_space(mesh, m, n, 2, "none"),
            build_space(mesh, m, n, 2, "zero_lateral"),
            build_space(mesh, m, n, 1, "none"),
            build_space(mesh, m, n, 2, "zero_lateral"),
            build_space(mesh, m_mu, n, 1, "none"))


def _extract(system, x, mesh, ws, spaces):
    # v = -rho0^{-1} phat, y = rho^{-1} zhat in the weight-absorbing variables
    zsp, psp = spaces[0], spaces[1]
    blocks = system.expand(x)
    control = WeightedField(psp, blocks["p"], ws, weight=0, power=1,
                            sign=-1.0, region=mesh.omega)
    state = WeightedField(zsp, blocks["z"], ws, weight="-", power=1)
    return blocks, control, state


def solve_heat_control(cfg) -> ControlSolution:
    """Compute, extract and verify the distributed heat control."""
    mesh = build_mesh(cfg.nx, cfg.ny, cfg.nt, cfg.L1, cfg.L2, cfg.T, cfg.omega,
                      diagonal=cfg.diagonal)
    ws = WeightSet(cfg.L1, cfg.L2, cfg.T, cfg.anchor, cfg.K1, cfg.K2)
    zsp, psp, lsp = _spaces_heat(mesh, cfg.m, cfg.n)
    y0 = cfg.y0_value
    system = assemble_heat(mesh, (zsp, psp, lsp), ws, cfg.G, y0)
    x, lam, log, extras = _solve_system(system, cfg)
    blocks, control, state = _extract(system, x, mesh, ws, (zsp, psp))
    J = 0.5 * float(x @ (system.A @ x))

    hist = hist0 = None
    if cfg.verify:
        grid = SpatialGrid(cfg.verify_nx, cfg.verify_ny, cfg.L1, cfg.L2)
        hist, _ = heat_forward_cn(grid, 2, y0, cfg.G, control, cfg.T,
                                  cfg.verify_nt, omega_box=mesh.omega)
        hist0, _ = heat_forward_cn(grid, 2, y0, cfg.G, None, cfg.T,
                                   cfg.verify_nt)
    return ControlSolution(kind="heat", blocks=blocks, control=control,
                           state=state, J=J, log=log, history=hist,
                           history_uncontrolled=hist0,
                           extras={"system": system, "x": x, "lam": lam,
                                   "mesh": mesh, "ws": ws,
                                   "spaces": (zsp, psp, lsp), **extras})


def solve_stokes_control(cfg) -> ControlSolution:
    """Compute, extract and verify the distributed Stokes control."""
    mesh = build_mesh(cfg.nx, cfg.ny, cfg.nt, cfg.L1, cfg.L2, cfg.T, cfg.omega,
                      diagonal=cfg.diagonal)
    ws = WeightSet(cfg.L1, cfg.L2, cfg.T, cfg.anchor, cfg.K1, cfg.K2)
    spaces = _spaces_flow(mesh, cfg.m, cfg.n)
    y0 = cfg.y0_vector
    system = assemble_stokes(mesh, spaces, ws, cfg.nu, y0)
    x, lam, log, extras = _solve_system(system, cfg)
    blocks, control, state = _extract(system, x, mesh, ws, spaces)
    J = 0.5 * float(x @ (system.A @ x))

    hist = hist0 = None
    if cfg.verify:
        grid = SpatialGrid(cfg.verify_nx, cfg.verify_ny, cfg.L1, cfg.L2)
        zero = Trajectory("zero")
        y0f = (lambda X: np.broadcast_to(np.asarray(y0, dtype=float),
                                         X.shape[:-1] + (2,)))
        hist, _ = flow_forward(grid, cfg.nu, y0f, control, zero, False,
                               cfg.T, cfg.verify_nt, omega_box=mesh.omega)
        hist0, _ = flow_forward(grid, cfg.nu, y0f, None, zero, False,
                                cfg.T, cfg.verify_nt)
    return ControlSolution(kind="stokes", blocks=blocks, control=control,
                           state=state, J=J, log=log, history=hist,
                           history_uncontrolled=hist0,
                           extras={"system": system, "x": x, "lam": lam,
                                   "mesh": mesh, "ws": ws, "spaces": spaces,
                                   **extras})


def fixed_point_ns(cfg):
    """Fixed-point loop for exact controllability to a flow trajectory.

    Each pass assembles the transport-linearized control system around the
    previous deviation iterate (zero to start), solves it, and replaces the
    iterate by the extracted deviation state; the loop stops when the
    relative L2(Q_T) increment drops below the outer tolerance.  Verification
    runs the full nonlinear forward problem with and without the control.
    """
    mesh = build_mesh(cfg.nx, cfg.ny, cfg.nt, cfg.L1, cfg.L2, cfg.T, cfg.omega,
                      diagonal=cfg.diagonal)
    ws = WeightSet(cfg.L1, cfg.L2, cfg.T, cfg.anchor, cfg.K1, cfg.K2)
    spaces = _spaces_flow(mesh, cfg.m, cfg.n)
    zsp, psp = spaces[0], spaces[1]
    traj = Trajectory(cfg.trajectory, nu=cfg.nu)

    def u0(X):
        return curl_perturbation(cfg.trajectory, cfg.M, X)

    rule = QuadratureRule.default(cfg.m, cfg.n)
    asm = Assembler(mesh, rule)
    uweight = lambda X, t: ws.inv_weight("-", X, t) ** 2

    fp = FixedPointLog()
    w_field = None
    z_prev = None
    x = lam = None
    system = None
    log = None
    info = {}   # the last pass's solver diagnostics
    for it in range(1, cfg.outer_max + 1):
        system = assemble_oseen(mesh, spaces, ws, cfg.nu, traj, w_field, u0,
                                rule=rule)
        start = None if x is None else (x, lam)
        if cfg.solver_method == "direct":
            # a fresh factorization per pass: refinement against the
            # previous pass's factorization diverges on the next system
            x, lam, rn = KktSolver(system).resolve(start=start)
            info = {"kkt_residual": rn}
        else:
            x, lam, log, info = _solve_system(system, cfg, start=start)
        z_new = system.expand(x)["z"]
        dz = z_new if z_prev is None else z_new - z_prev
        num = l2_norm(zsp, dz, weight=uweight, assembler=asm)
        den = l2_norm(zsp, z_new, weight=uweight, assembler=asm)
        rel = num / max(den, 1e-300)
        fp.iters.append(it)
        fp.rel_err.append(rel)
        z_prev = z_new
        w_field = WeightedField(zsp, z_new, ws, weight="-", power=1)
        if rel <= cfg.outer_tol:
            fp.converged = True
            break
        if len(fp.rel_err) > 10 and all(
                fp.rel_err[-j] >= fp.rel_err[-j - 1] for j in range(1, 11)):
            fp.stagnated = True
            break

    blocks, control, state = _extract(system, x, mesh, ws, spaces)
    J = 0.5 * float(x @ (system.A @ x))

    hist = hist0 = None
    if cfg.verify:
        grid = SpatialGrid(cfg.verify_nx, cfg.verify_ny, cfg.L1, cfg.L2)

        def y0f(X):
            return np.asarray(traj(X, 0.0), dtype=float) + u0(X)

        hist, _ = flow_forward(grid, cfg.nu, y0f, control, traj, True,
                               cfg.T, cfg.verify_nt, omega_box=mesh.omega)
        hist0, _ = flow_forward(grid, cfg.nu, y0f, None, traj, True,
                                cfg.T, cfg.verify_nt)
    sol = ControlSolution(kind="navier_stokes", blocks=blocks,
                          control=control, state=state, J=J, log=log,
                          history=hist, history_uncontrolled=hist0,
                          extras={"system": system, "x": x, "lam": lam,
                                  "mesh": mesh, "ws": ws, "spaces": spaces,
                                  "trajectory": traj, "u0": u0, **info})
    return sol, fp
