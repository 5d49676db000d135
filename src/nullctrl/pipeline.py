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
from .forms import (FLOW_FIELDS, HEAT_FIELDS, OseenFixedPart, SaddleSystem,
                    assemble_heat, assemble_oseen, assemble_stokes)
from .forward import (SpatialGrid, Trajectory, curl_perturbation,
                      flow_forward, heat_forward_cn)
from .mesh import build_mesh
from .saddle import (KKT_TOL, AHParams, KktSolver, arrow_hurwicz,
                     direct_solve, kkt_residual, lsq_solve)
from .weights import WeightSet


@dataclass
class ControlSolution:
    """A solved control problem with its extracted fields and diagnostics."""

    mesh: object
    ws: WeightSet
    spaces: tuple          # heat (z, p, lam); flows (z, p, sigma, lam, mu)
    system: SaddleSystem
    x: np.ndarray
    lam: np.ndarray
    blocks: dict           # full coefficient vector of each primal field
    control: WeightedField
    state: WeightedField
    J: float
    log: object = None     # IterationLog of an AH solve
    report: dict = field(default_factory=dict)   # `_solve_system`'s report
    history: object = None
    history_uncontrolled: object = None
    trajectory: object = None   # Navier-Stokes: the target flow ybar


@dataclass
class FixedPointLog:
    """Outer-loop relative increments of the transported field, and the
    element kernels each pass's assembly computed."""

    iters: list = field(default_factory=list)
    rel_err: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    converged: bool = False
    stagnated: bool = False


class WeightedField:
    """FEM field times an inverse weight, restricted to a region.

    Evaluates pointwise as weight(x,t) * u_h(x,t); with a region box the
    value is exactly 0 outside it (control locality).  `at` binds the field
    to fixed points once and returns t -> values; `on_batch` serves the
    assembler's quadrature grid directly, avoiding point location, and
    applies no region (only region-free fields are assembled).
    """

    def __init__(self, space, coeffs, ws: WeightSet, weight="-", sign=1.0,
                 region=None):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.ws = ws
        self.weight = weight
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
        an array of times broadcastable to X.shape[:-1], with leading axes
        as in `TensorFemSpace.at`.
        """
        X = np.asarray(X, dtype=float)
        field = self.space.at(self.coeffs, X)
        chi, _, _ = self.ws.chi(X)
        scale = np.full(X.shape[:-1], self.sign)
        if self.region is not None:
            scale = scale * self._inside(X)

        def values(t):
            w = scale * self.ws.inv_weight_of_chi(self.weight, chi, t)
            out = field(t)
            return out * (w[..., None] if out.ndim > w.ndim else w)

        return values

    def __call__(self, X, t):
        """Values at the points X (..., 2) and the time(s) t."""
        return self.at(X)(t)

    def on_batch(self, batch):
        w = self.sign * self.ws.inv_weight(self.weight, batch.X, batch.t)
        out = batch.field(self.space, self.coeffs)
        return out * (w[..., None] if out.ndim > w.ndim else w)


def _setup(cfg, flow):
    """Mesh, weights and the spaces of the heat (z, p, lam) or the flow
    (z, p, sigma, lam, mu) saddle system, one per row of its field table."""
    mesh = build_mesh(cfg.nx, cfg.ny, cfg.nt, cfg.L1, cfg.L2, cfg.T, cfg.omega,
                      diagonal=cfg.diagonal)
    ws = WeightSet(cfg.L1, cfg.L2, cfg.T, cfg.anchor, cfg.K1, cfg.K2)
    primal, dual = FLOW_FIELDS if flow else HEAT_FIELDS
    # the divergence multiplier sits one spatial degree below the velocity
    # fields; that does not make the flow system nonsingular: with sigma at
    # the velocity degree the KKT matrix keeps a primal kernel, mostly in
    # sigma (105 vectors on Stokes 3x3x3)
    return mesh, ws, tuple(
        build_space(mesh, max(cfg.m - 1, 1) if name == "mu" else cfg.m,
                    cfg.n, components, constraint)
        for name, components, constraint in primal + dual)


# the fixed point has stagnated when its last this many passes bring no
# relative increment below the best one before them
_STALL_PASSES = 5


def _solve_system(system, cfg, start=None):
    """(x, lam, AH log or None, report) by cfg's method from start.

    Every flow system is numerically singular: there `direct` is one fresh
    `KktSolver` factorization per system (refinement against another
    system's factorization diverges), while heat keeps the exact oracle.
    The report has the same four entries for every method: the method's
    iterations, its stop word, whether the solve is certified (the relative
    KKT residual at most solver.tol for `ah` and `lsq`, `saddle.KKT_TOL` for
    `direct`) and that residual (`saddle.kkt_residual`, computed once the
    solver has returned and released its operators).
    """
    log = rn = None
    if cfg.solver_method == "direct" and cfg.scenario != "heat":
        x, lam, rn, steps, stop = KktSolver(system).resolve(start=start)
    elif cfg.solver_method == "direct":
        x, lam, flagged = direct_solve(system)
        steps, stop = 0, "least_squares" if flagged else "exact"
    elif cfg.solver_method == "lsq":
        x, lam, info = lsq_solve(system, start=start, tol=cfg.tol,
                                 max_iter=cfg.max_iter)
        steps, stop = info["iterations"], f"istop_{info['istop']}"
    else:
        params = AHParams(r=cfg.r, s=cfg.s, tol=cfg.tol,
                          max_iter=cfg.max_iter)
        x, lam, log = arrow_hurwicz(system, params, start=start)
        steps = log.iters[-1]
        stop = "converged" if log.converged else "max_iter"
    if rn is None:   # KktSolver returns the residual it stopped on
        rn = kkt_residual(system, x, lam)
    tol = KKT_TOL if cfg.solver_method == "direct" else cfg.tol
    return x, lam, log, {"solver_iterations": steps, "solver_stop": stop,
                         "solver_converged": bool(rn <= tol),
                         "kkt_residual": rn}


def _solution(cfg, mesh, ws, spaces, system, solved, forward,
              trajectory=None) -> ControlSolution:
    """Extraction, J and verification of `_solve_system`'s result `solved`;
    forward(grid, control) returns the scenario's forward norm history."""
    x, lam, log, report = solved
    # v = -rho0^{-1} phat, y = rho^{-1} zhat in the weight-absorbing variables
    blocks = system.expand(x)
    control = WeightedField(spaces[1], blocks["p"], ws, weight=0, sign=-1.0,
                            region=mesh.omega)
    state = WeightedField(spaces[0], blocks["z"], ws, weight="-")
    J = 0.5 * float(x @ (system.A @ x))

    hist = hist0 = None
    if cfg.verify:
        grid = SpatialGrid(cfg.verify_nx, cfg.verify_ny, cfg.L1, cfg.L2)
        hist, hist0 = forward(grid, control), forward(grid, None)
    return ControlSolution(mesh=mesh, ws=ws, spaces=spaces, system=system,
                           x=x, lam=lam, blocks=blocks, control=control,
                           state=state, J=J, log=log, report=report,
                           history=hist,
                           history_uncontrolled=hist0, trajectory=trajectory)


def solve_heat_control(cfg) -> ControlSolution:
    """Compute, extract and verify the distributed heat control."""
    mesh, ws, spaces = _setup(cfg, flow=False)
    y0 = cfg.y0_value
    system = assemble_heat(mesh, spaces, ws, cfg.G, y0)

    def forward(grid, control):
        return heat_forward_cn(grid, y0, cfg.G, control, cfg.T,
                               cfg.verify_nt, omega_box=mesh.omega)[0]

    return _solution(cfg, mesh, ws, spaces, system,
                     _solve_system(system, cfg), forward)


def solve_stokes_control(cfg) -> ControlSolution:
    """Compute, extract and verify the distributed Stokes control."""
    mesh, ws, spaces = _setup(cfg, flow=True)
    y0 = cfg.y0_vector
    system = assemble_stokes(mesh, spaces, ws, cfg.nu, y0)

    def forward(grid, control):   # no trajectory: no-slip, no convection
        return flow_forward(grid, cfg.nu, y0, control, None, cfg.T,
                            cfg.verify_nt, omega_box=mesh.omega)[0]

    return _solution(cfg, mesh, ws, spaces, system,
                     _solve_system(system, cfg), forward)


def fixed_point_ns(cfg):
    """Fixed-point loop for exact controllability to a flow trajectory.

    Each pass assembles the transport-linearized control system around the
    previous deviation iterate (zero to start), solves it from the previous
    pass's solution, and replaces the iterate by the extracted deviation
    state; the loop stops when the relative L2(Q_T) increment drops below
    the outer tolerance, or when _STALL_PASSES passes in a row bring no new
    best increment (stagnation).  Every pass assembles in full on one held
    builder (`forms.OseenFixedPart`); the later ones compute only the
    kernels of the transport terms in the iterate and reuse the rest.  The
    held part is released before verification, which runs the full nonlinear
    forward problem with and without the control.  Returns (solution,
    FixedPointLog).
    """
    mesh, ws, spaces = _setup(cfg, flow=True)
    zsp = spaces[0]
    traj = Trajectory(cfg.trajectory, nu=cfg.nu)

    def u0(X):
        return curl_perturbation(cfg.L1, cfg.L2, cfg.M, X)

    asm = Assembler(mesh, QuadratureRule.default(cfg.m, cfg.n))
    uweight = lambda X, t: ws.inv_weight("-", X, t) ** 2

    fp = FixedPointLog()
    fixed = OseenFixedPart()
    w_field = z_prev = solved = None
    for it in range(1, cfg.outer_max + 1):
        system = assemble_oseen(mesh, spaces, ws, cfg.nu, traj, w_field, u0,
                                fixed=fixed)
        fp.kernels.append(fixed.kernels)
        solved = _solve_system(system, cfg,
                               start=None if solved is None else solved[:2])
        z_new = system.block("z").expand(solved[0])
        dz = z_new if z_prev is None else z_new - z_prev
        num = l2_norm(zsp, dz, weight=uweight, assembler=asm)
        den = l2_norm(zsp, z_new, weight=uweight, assembler=asm)
        rel = num / max(den, 1e-300)
        fp.iters.append(it)
        fp.rel_err.append(rel)
        z_prev = z_new
        w_field = WeightedField(zsp, z_new, ws, weight="-")
        if rel <= cfg.outer_tol:
            fp.converged = True
            break
        if min(fp.rel_err[-_STALL_PASSES:]) >= min(
                fp.rel_err[:-_STALL_PASSES], default=np.inf):
            fp.stagnated = True
            break
    del fixed

    def y0f(X):
        return np.asarray(traj(X, 0.0), dtype=float) + u0(X)

    def forward(grid, control):
        return flow_forward(grid, cfg.nu, y0f, control, traj, cfg.T,
                            cfg.verify_nt, omega_box=mesh.omega)[0]

    return _solution(cfg, mesh, ws, spaces, system, solved, forward,
                     trajectory=traj), fp
