"""Independent forward-in-time solvers used only to verify computed controls.

These deliberately re-implement their own spatial finite elements (hand-coded
P1/P2 triangles on a structured grid) and use classical time stepping, so
that agreement with the space-time control solver is evidence rather than
tautology.  The only shared interface is the control field: a solver picks
its own quadrature points X, calls control.at(X) once, and gets back a
function t -> pointwise control values at X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# ---------------------------------------------------------------------------
# analytic trajectories and perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Reference flow: zero, plane channel (poiseuille), or decaying vortex
    (taylor_green); nu enters the vortex decay rate exp(-8 nu t)."""

    kind: str = "zero"
    nu: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "poiseuille", "taylor_green"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")

    def __call__(self, x, t):
        return trajectory_eval(self, x, t)


def trajectory_eval(traj: Trajectory, x, t):
    """Velocity of the reference flow at (x, t); divergence-free closed forms."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    t = np.asarray(t, dtype=float)
    if traj.kind == "zero":
        shape = np.broadcast(x1, t).shape
        return np.zeros(shape + (2,))
    if traj.kind == "poiseuille":
        u1 = 4.0 * x2 * (1.0 - x2)
        u1 = np.broadcast_to(u1, np.broadcast(x1, t).shape)
        return np.stack([u1, np.zeros_like(u1)], axis=-1)
    # taylor_green, the last kind Trajectory accepts
    decay = np.exp(-8.0 * traj.nu * t)
    u1 = np.sin(2.0 * x1) * np.cos(2.0 * x2) * decay
    u2 = -np.cos(2.0 * x1) * np.sin(2.0 * x2) * decay
    return np.stack(np.broadcast_arrays(u1, u2), axis=-1)


def curl_perturbation(psi_kind, M, x):
    """Divergence-free perturbation M * curl(psi) for the flow scenarios.

    psi = (x1 x2)^2 [(L1 - x1)(L2 - x2)]^2 vanishes to second order on the
    box boundary, so the field and its normal trace vanish there.  psi_kind
    picks the box: 'poiseuille' -> (0,5)x(0,1), 'taylor_green' -> (0,pi)^2.
    """
    if psi_kind == "poiseuille":
        L1, L2 = 5.0, 1.0
    elif psi_kind == "taylor_green":
        L1, L2 = np.pi, np.pi
    else:
        raise ValueError(f"unknown perturbation kind {psi_kind!r}")
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    f = (x1 * (L1 - x1)) ** 2
    g = (x2 * (L2 - x2)) ** 2
    df = 2.0 * x1 * (L1 - x1) * (L1 - 2.0 * x1)
    dg = 2.0 * x2 * (L2 - x2) * (L2 - 2.0 * x2)
    # psi = f g / ... with the paper's (x y)^2 [(L-x)(L-y)]^2 = f g
    return M * np.stack([f * dg, -df * g], axis=-1)


@dataclass
class NormHistory:
    """Per-time L2(Omega) norms recorded along a forward run."""

    times: np.ndarray
    control_norms: np.ndarray = None
    state_norms: np.ndarray = None
    deviation_norms: np.ndarray = None
    divergence_residual: float = 0.0

    def to_csv(self, path):
        with open(path, "w") as fh:
            if self.deviation_norms is not None:
                fh.write("t,deviation_norm\n")
                for t, d in zip(self.times, self.deviation_norms):
                    fh.write(f"{t:.12e},{d:.12e}\n")
            else:
                fh.write("t,control_norm,state_norm\n")
                for t, c, s in zip(self.times, self.control_norms,
                                   self.state_norms):
                    fh.write(f"{t:.12e},{c:.12e},{s:.12e}\n")


# ---------------------------------------------------------------------------
# structured spatial grid with hand-coded P1 / P2 Lagrange triangles
# ---------------------------------------------------------------------------

def _p2_shape(lam):
    """P2 shape values for barycentric coords lam (..., 3); node order
    v0 v1 v2 m01 m12 m02."""
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                     4 * l0 * l1, 4 * l1 * l2, 4 * l0 * l2], axis=-1)


def _p2_shape_grad(lam):
    """Gradients w.r.t. (lam1, lam2) treating lam0 = 1 - lam1 - lam2."""
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    z = np.zeros_like(l0)
    d1 = np.stack([1 - 4 * l0, 4 * l1 - 1, z, 4 * (l0 - l1), 4 * l2, -4 * l2],
                  axis=-1)
    d2 = np.stack([1 - 4 * l0, z, 4 * l2 - 1, -4 * l1, 4 * l1, 4 * (l0 - l2)],
                  axis=-1)
    return np.stack([d1, d2], axis=-1)   # (..., 6, 2)


def _p1_shape(lam):
    return np.asarray(lam)


def _p1_shape_grad(lam):
    n = np.shape(lam)[0] if np.ndim(lam) > 1 else 1
    g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return np.broadcast_to(g, (n, 3, 2))


def _tri_gauss(npts):
    """Symmetric Gauss rules on the reference triangle (weights sum to 1/2)."""
    if npts == 6:   # degree 4
        a1, a2 = 0.445948490915965, 0.091576213509771
        w1, w2 = 0.223381589678011, 0.109951743655322
        pts = [(a1, a1), (1 - 2 * a1, a1), (a1, 1 - 2 * a1),
               (a2, a2), (1 - 2 * a2, a2), (a2, 1 - 2 * a2)]
        wts = [w1, w1, w1, w2, w2, w2]
    elif npts == 7:  # degree 5
        pts = [(1 / 3, 1 / 3)]
        wts = [0.225]
        a1, a2 = 0.470142064105115, 0.101286507323456
        w1, w2 = 0.132394152788506, 0.125939180544827
        pts += [(a1, a1), (1 - 2 * a1, a1), (a1, 1 - 2 * a1),
                (a2, a2), (1 - 2 * a2, a2), (a2, 1 - 2 * a2)]
        wts += [w1, w1, w1, w2, w2, w2]
    else:
        raise ValueError(npts)
    return np.array(pts), 0.5 * np.array(wts)


class SpatialGrid:
    """Uniform triangulation of (0,L1)x(0,L2) for the forward solvers.

    P2 nodes live on the twice-refined vertex grid, so connectivity is pure
    index arithmetic; both triangles of a square share the main diagonal.
    """

    def __init__(self, nx, ny, L1, L2):
        self.nx, self.ny, self.L1, self.L2 = nx, ny, L1, L2
        self.hx, self.hy = L1 / nx, L2 / ny
        tri = []
        for j in range(ny):
            for i in range(nx):
                v00 = (i, j)
                v10 = (i + 1, j)
                v01 = (i, j + 1)
                v11 = (i + 1, j + 1)
                tri.append((v00, v10, v11))
                tri.append((v00, v11, v01))
        self.tri_corners = np.array(tri)          # (ntri, 3, 2) integer coords
        self.ntri = len(tri)
        verts = self.tri_corners * np.array([self.hx, self.hy])
        self.verts = verts.astype(float)          # (ntri, 3, 2) physical
        J = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                     axis=-1)
        self.J = J
        self.detJ = np.abs(np.linalg.det(J))
        self.Jinv = np.linalg.inv(J)

    def nodes(self, degree):
        """Global node coordinates (N, 2) on the degree-refined grid."""
        nfx, nfy = degree * self.nx + 1, degree * self.ny + 1
        xs = np.linspace(0, self.L1, nfx)
        ys = np.linspace(0, self.L2, nfy)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def conn(self, degree):
        """Element connectivity into the degree-refined node grid."""
        nfx = degree * self.nx + 1
        c = self.tri_corners * degree              # (ntri, 3, 2)
        if degree == 1:
            fine = c
        else:
            mids = np.stack([(c[:, 0] + c[:, 1]) // 2,
                             (c[:, 1] + c[:, 2]) // 2,
                             (c[:, 0] + c[:, 2]) // 2], axis=1)
            fine = np.concatenate([c, mids], axis=1)
        return fine[..., 1] * nfx + fine[..., 0]

    def boundary_nodes(self, degree):
        nfx, nfy = degree * self.nx + 1, degree * self.ny + 1
        fi = np.arange(nfx * nfy) % nfx
        fj = np.arange(nfx * nfy) // nfx
        return np.flatnonzero((fi == 0) | (fi == nfx - 1)
                              | (fj == 0) | (fj == nfy - 1))

    def tris_in(self, box):
        """Triangles whose centroid lies inside box (x0, x1, y0, y1); all
        triangles when box is None."""
        if box is None:
            return np.arange(self.ntri)
        cent = self.verts.mean(axis=1)
        x0, x1, y0, y1 = box
        return np.flatnonzero((cent[:, 0] > x0) & (cent[:, 0] < x1)
                              & (cent[:, 1] > y0) & (cent[:, 1] < y1))

    def quad_points(self, npts):
        qp, qw = _tri_gauss(npts)
        lam = np.column_stack([1 - qp[:, 0] - qp[:, 1], qp])
        X = np.einsum("tkd,qk->tqd", self.verts, lam)
        return qp, qw, X


def _assemble(grid, degree, qnpts, kind):
    """Scalar element assembly: kind in {mass, stiffness}."""
    qp, qw, _ = grid.quad_points(qnpts)
    lam = np.column_stack([1 - qp[:, 0] - qp[:, 1], qp])
    if degree == 2:
        sv = _p2_shape(lam)
        sg = _p2_shape_grad(lam)
    else:
        sv = _p1_shape(lam)
        sg = _p1_shape_grad(lam)
    conn = grid.conn(degree)
    w = qw[None, :] * grid.detJ[:, None]
    if kind == "mass":
        E = np.einsum("tq,qi,qj->tij", w, sv, sv)
    elif kind == "stiffness":
        g = np.einsum("tkd,qsk->tqsd", grid.Jinv, sg)
        E = np.einsum("tq,tqid,tqjd->tij", w, g, g)
    else:
        raise ValueError(kind)
    rows = np.broadcast_to(conn[:, :, None], E.shape).ravel()
    cols = np.broadcast_to(conn[:, None, :], E.shape).ravel()
    n = conn.max() + 1
    return sp.coo_matrix((E.ravel(), (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# Crank-Nicolson heat solver
# ---------------------------------------------------------------------------

def heat_forward_cn(grid: SpatialGrid, degree, y0, G, control, T, nt_fwd,
                    omega_box=None, startup_steps=2):
    """theta = 1/2 stepping of the controlled reaction-diffusion problem.

    y_t - Lap y + G y = v 1_omega with homogeneous Dirichlet data; y0 and G
    may be scalars or callables; control is None or a field whose
    control.at(X) returns t -> values at the points X, supported in the
    control region.  The first startup_steps use theta = 1, damping the
    checkerboard transient excited by boundary-incompatible initial data
    (the scheme stays second order).
    Returns the norm history and the final coefficient vector.
    """
    deg = int(degree)
    qnpts = 6
    M = _assemble(grid, deg, qnpts, "mass")
    K = _assemble(grid, deg, qnpts, "stiffness")
    if callable(G):
        raise NotImplementedError("time-independent potentials only")
    S = K + float(G) * M

    nodes = grid.nodes(deg)
    n = len(nodes)
    bdry = grid.boundary_nodes(deg)
    interior = np.setdiff1d(np.arange(n), bdry)

    y = np.zeros(n)
    if callable(y0):
        y[:] = y0(nodes)
    else:
        y[:] = float(y0)
    y[bdry] = 0.0

    dt = T / nt_fwd
    solves = {}
    for theta in (0.5, 1.0):
        lhs = (M / dt + theta * S).tocsc()[interior][:, interior]
        solves[theta] = (spla.factorized(lhs.tocsc()),
                         (M / dt - (1.0 - theta) * S).tocsr())

    if control is not None:
        qp, qw, X = grid.quad_points(qnpts)
        keep = grid.tris_in(omega_box)
        lam = np.column_stack([1 - qp[:, 0] - qp[:, 1], qp])
        sv = _p2_shape(lam) if deg == 2 else _p1_shape(lam)
        conn = grid.conn(deg)[keep]
        w = qw[None, :] * grid.detJ[keep, None]
        v_at = control.at(X[keep])

    def control_load(t):
        out = np.zeros(n)
        if control is not None:
            np.add.at(out, conn, np.einsum("tq,qi->ti", w * v_at(t), sv))
        return out

    def control_norm(t):
        if control is None:
            return 0.0
        v = v_at(t)
        return float(np.sqrt(max((w * v * v).sum(), 0.0)))

    times = np.linspace(0.0, T, nt_fwd + 1)
    state_norms = [float(np.sqrt(max(y @ (M @ y), 0.0)))]
    control_norms = [control_norm(0.0)]
    for k in range(nt_fwd):
        theta = 1.0 if k < startup_steps else 0.5
        solve, rhs_op = solves[theta]
        tm = times[k + 1] if theta == 1.0 else 0.5 * (times[k] + times[k + 1])
        b = (rhs_op @ y)[interior] + control_load(tm)[interior]
        y_new = np.zeros(n)
        y_new[interior] = solve(b)
        y = y_new
        state_norms.append(float(np.sqrt(max(y @ (M @ y), 0.0))))
        control_norms.append(control_norm(times[k + 1]))
    hist = NormHistory(times=times, control_norms=np.array(control_norms),
                       state_norms=np.array(state_norms))
    return hist, y


# ---------------------------------------------------------------------------
# incompressible flow solver (Taylor-Hood, semi-implicit convection)
# ---------------------------------------------------------------------------

class _TaylorHood:
    """P2 velocity / P1 pressure operators on the grid, with a zero-mean
    pressure constraint row."""

    def __init__(self, grid):
        self.grid = grid
        self.qp, self.qw, self.X = grid.quad_points(7)
        lam = np.column_stack([1 - self.qp[:, 0] - self.qp[:, 1], self.qp])
        self.v2 = _p2_shape(lam)
        self.g2 = np.einsum("tkd,qsk->tqsd", grid.Jinv, _p2_shape_grad(lam))
        self.v1 = _p1_shape(lam)
        self.conn2 = grid.conn(2)
        self.conn1 = grid.conn(1)
        self.n2 = self.conn2.max() + 1
        self.n1 = self.conn1.max() + 1
        self.w = self.qw[None, :] * grid.detJ[:, None]

        self.M = self._mat2(np.einsum("tq,qi,qj->tij", self.w, self.v2, self.v2))
        self.K = self._mat2(np.einsum("tq,tqid,tqjd->tij", self.w, self.g2, self.g2))
        # div coupling: rows pressure, cols velocity component c
        self.D = [self._mat12(np.einsum("tq,qi,tqjc->tij", self.w, self.v1,
                                        self.g2[..., c:c + 1]).squeeze())
                  for c in range(2)]
        # pressure mean row
        self.pmean = np.zeros(self.n1)
        np.add.at(self.pmean, self.conn1,
                  np.einsum("tq,qi->ti", self.w, self.v1))

    def _mat2(self, E):
        rows = np.broadcast_to(self.conn2[:, :, None], E.shape).ravel()
        cols = np.broadcast_to(self.conn2[:, None, :], E.shape).ravel()
        return sp.coo_matrix((E.ravel(), (rows, cols)),
                             shape=(self.n2, self.n2)).tocsr()

    def _mat12(self, E):
        rows = np.broadcast_to(self.conn1[:, :, None], E.shape).ravel()
        cols = np.broadcast_to(self.conn2[:, None, :], E.shape).ravel()
        return sp.coo_matrix((E.ravel(), (rows, cols)),
                             shape=(self.n1, self.n2)).tocsr()

    def convection(self, adv):
        """Matrix of (adv . grad) u . v for a P2 vector field adv (n2, 2)."""
        a = np.einsum("tic,qi->tqc", adv[self.conn2], self.v2)
        E = np.einsum("tq,tqjc,qi->tij",
                      self.w, np.einsum("tqc,tqjc->tqjc", a, self.g2), self.v2)
        return self._mat2(E)

    def divergence_residual(self, u):
        """|div u|_L2 relative to |grad u|_L2."""
        gu = np.einsum("tic,tqid->tqcd", u[self.conn2], self.g2)
        div = gu[..., 0, 0] + gu[..., 1, 1]
        nrm = np.einsum("tq,tqcd,tqcd->", self.w, gu, gu)
        dd = np.einsum("tq,tq,tq->", self.w, div, div)
        return float(np.sqrt(max(dd, 0.0) / max(nrm, 1e-300)))


def flow_forward(grid: SpatialGrid, nu, y0, control, trajectory, nonlinear,
                 T, nt_fwd, omega_box=None, startup_steps=2):
    """Velocity/pressure stepping of the (Navier-)Stokes momentum balance.

    Dirichlet data on the velocity is taken from the trajectory (no-slip for
    the zero trajectory); the convecting field is extrapolated from previous
    steps, viscous and pressure terms are treated by the midpoint rule, and
    the divergence constraint is enforced at the new time level with a
    zero-mean pressure.  Returns the history of ||y - ybar|| and the final
    velocity coefficients.
    """
    th = _TaylorHood(grid)
    nodes = grid.nodes(2)
    n2 = th.n2
    bdry = grid.boundary_nodes(2)
    interior = np.setdiff1d(np.arange(n2), bdry)
    ni = len(interior)

    traj = trajectory if trajectory is not None else Trajectory("zero")

    def traj_nodes(t):
        return np.asarray(traj(nodes, t), dtype=float)

    y = np.asarray(y0(nodes), dtype=float) if callable(y0) else \
        np.broadcast_to(np.asarray(y0, dtype=float), (n2, 2)).copy()
    y = np.array(y)
    y[bdry] = traj_nodes(0.0)[bdry]

    if control is not None:
        keep = grid.tris_in(omega_box)
        v_at = control.at(th.X[keep])
        w, conn = th.w[keep], th.conn2[keep]

    def control_load(t):
        out = np.zeros((n2, 2))
        if control is not None:
            v = np.asarray(v_at(t), dtype=float)
            np.add.at(out, conn, np.einsum("tq,tqc,qi->tic", w, v, th.v2))
        return out

    dt = T / nt_fwd
    times = np.linspace(0.0, T, nt_fwd + 1)

    Mi = th.M
    dev0 = y - traj_nodes(0.0)
    dev_norm = [float(np.sqrt(sum(dev0[:, c] @ (Mi @ dev0[:, c])
                                  for c in range(2))))]
    max_div = 0.0
    y_prev = y.copy()
    factor_cache = {}
    for k in range(nt_fwd):
        t0, t1 = times[k], times[k + 1]
        # convecting velocity: extrapolated state for nonlinear runs, the
        # trajectory alone for linearized runs, none for plain Stokes
        if nonlinear:
            adv = 1.5 * y - 0.5 * y_prev if k > 0 else y
            C = th.convection(adv)
        elif traj.kind != "zero":
            C = th.convection(np.asarray(traj(nodes, 0.5 * (t0 + t1)),
                                         dtype=float))
        else:
            C = None
        Sop = nu * th.K if C is None else nu * th.K + C

        theta = 1.0 if k < startup_steps else 0.5
        tload = t1 if theta == 1.0 else 0.5 * (t0 + t1)
        A11 = (th.M / dt + theta * Sop).tocsr()
        rhs_full = (th.M / dt - (1.0 - theta) * Sop) @ y + control_load(tload)

        gb = traj_nodes(t1)
        # block system on interior velocity dofs + full pressure + mean row
        Aii = sp.bmat([[A11[interior][:, interior], None],
                       [None, A11[interior][:, interior]]], format="csr")
        Dint = sp.hstack([th.D[0][:, interior], th.D[1][:, interior]]).tocsr()
        rhs_v = np.concatenate([rhs_full[interior, 0], rhs_full[interior, 1]])
        # move known boundary values (at t1) to the right-hand side
        for c in range(2):
            rhs_seg = rhs_v[c * ni:(c + 1) * ni]
            rhs_seg -= (A11[interior][:, bdry] @ gb[bdry, c])
        rhs_p = -(th.D[0][:, bdry] @ gb[bdry, 0]
                  + th.D[1][:, bdry] @ gb[bdry, 1])
        rhs = np.concatenate([rhs_v, rhs_p, [0.0]])
        if C is None and theta in factor_cache:
            solve = factor_cache[theta]
        else:
            KKT = sp.bmat([[Aii, Dint.T, None],
                           [Dint, None, th.pmean[:, None]],
                           [None, th.pmean[None, :], None]], format="csc")
            solve = spla.factorized(KKT)
            if C is None:
                factor_cache[theta] = solve
        sol = solve(rhs)
        y_prev = y
        y = np.empty((n2, 2))
        y[bdry] = gb[bdry]
        y[interior, 0] = sol[:ni]
        y[interior, 1] = sol[ni:2 * ni]
        dev = y - traj_nodes(t1)
        dev_norm.append(float(np.sqrt(sum(dev[:, c] @ (Mi @ dev[:, c])
                                          for c in range(2)))))
        max_div = max(max_div, th.divergence_residual(y))

    hist = NormHistory(times=times, deviation_norms=np.array(dev_norm),
                       divergence_residual=max_div)
    return hist, y
