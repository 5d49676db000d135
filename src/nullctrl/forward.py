"""Independent forward-in-time solvers used only to verify computed controls.

These deliberately re-implement their own spatial finite elements (hand-coded
P2 triangles, and P1 pressure, on a structured grid) and use classical time
stepping, so that agreement with the space-time control solver is evidence
rather than tautology.  The only shared interface is the control field: a
solver picks its own quadrature points X, calls control.at(X) once, and gets
back a function t -> pointwise control values at X.
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
    """Reference flow: plane channel (poiseuille) or decaying vortex
    (taylor_green); nu enters the vortex decay rate exp(-8 nu t)."""

    kind: str
    nu: float = 1.0

    def __post_init__(self):
        if self.kind not in ("poiseuille", "taylor_green"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")

    def __call__(self, x, t):
        """Velocity of the reference flow at (x, t); divergence-free closed
        forms."""
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        t = np.asarray(t, dtype=float)
        if self.kind == "poiseuille":
            u1 = 4.0 * x2 * (1.0 - x2)
            u1 = np.broadcast_to(u1, np.broadcast(x1, t).shape)
            return np.stack([u1, np.zeros_like(u1)], axis=-1)
        # taylor_green, the last kind Trajectory accepts
        decay = np.exp(-8.0 * self.nu * t)
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
# structured spatial grid with hand-coded P2 Lagrange triangles
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
        self.verts = verts                        # (ntri, 3, 2) physical
        J = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                     axis=-1)
        self.detJ = np.abs(np.linalg.det(J))
        self.Jinv = np.linalg.inv(J)

    def nodes(self):
        """Global P2 node coordinates (N, 2) on the twice-refined grid."""
        xs = np.linspace(0, self.L1, 2 * self.nx + 1)
        ys = np.linspace(0, self.L2, 2 * self.ny + 1)
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

    def boundary_nodes(self):
        """Indices of the P2 nodes on the boundary of the rectangle."""
        nfx, nfy = 2 * self.nx + 1, 2 * self.ny + 1
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


# ---------------------------------------------------------------------------
# shared core: element table, assembly, control binding, step schedule; the
# solvers differ only in the PDE operator, Dirichlet data and recorded norm
# ---------------------------------------------------------------------------

def _matrix(rconn, cconn, E):
    """CSR matrix summing the element blocks E (ntri, i, j) into the rows
    rconn (ntri, i) and columns cconn (ntri, j)."""
    rows = np.broadcast_to(rconn[:, :, None], E.shape).ravel()
    cols = np.broadcast_to(cconn[:, None, :], E.shape).ravel()
    shape = (rconn.max() + 1, cconn.max() + 1)
    return sp.coo_matrix((E.ravel(), (rows, cols)), shape=shape).tocsr()


class _Elements:
    """P2 element table of the grid for one Gauss rule of npts points.

    X are the physical quadrature points (ntri, Q, 2), w the weights times
    |det J| (ntri, Q), lam the barycentric coordinates of the rule's points
    (Q, 3), v the P2 values (Q, 6), g the physical P2 gradients
    (ntri, Q, 6, 2); M and K are the P2 mass and stiffness matrices.
    """

    def __init__(self, grid, npts):
        self.grid = grid
        qp, qw, self.X = grid.quad_points(npts)
        self.lam = np.column_stack([1 - qp[:, 0] - qp[:, 1], qp])
        self.v = _p2_shape(self.lam)
        self.g = np.einsum("tkd,qsk->tqsd", grid.Jinv,
                           _p2_shape_grad(self.lam))
        self.w = qw[None, :] * grid.detJ[:, None]
        self.conn = grid.conn(2)
        self.nodes = grid.nodes()
        self.bdry = grid.boundary_nodes()
        self.interior = np.setdiff1d(np.arange(len(self.nodes)), self.bdry)
        self.M = _matrix(self.conn, self.conn,
                         np.einsum("tq,qi,qj->tij", self.w, self.v, self.v))
        self.K = _matrix(self.conn, self.conn,
                         np.einsum("tq,tqid,tqjd->tij", self.w, self.g, self.g))

    def bind(self, control, box):
        """(w, conn, v_at) on the triangles in box: their weights and
        connectivity, and control.at bound once to their quadrature points."""
        keep = self.grid.tris_in(box)
        return self.w[keep], self.conn[keep], control.at(self.X[keep])


_STARTUP_STEPS = 2


def _steps(T, nt_fwd):
    """Time levels and, per step, (theta, load time, new time).

    The first _STARTUP_STEPS steps use theta = 1 with the load at the new
    time, damping the checkerboard transient excited by boundary-incompatible
    initial data; the rest use theta = 1/2 with the load at the midpoint, so
    the scheme stays second order.
    """
    times = np.linspace(0.0, T, nt_fwd + 1)
    steps = [(1.0, t1, t1) if k < _STARTUP_STEPS else (0.5, 0.5 * (t0 + t1), t1)
             for k, (t0, t1) in enumerate(zip(times[:-1], times[1:]))]
    return times, steps


def _nodal(y0, nodes, shape):
    """Initial nodal values from a callable of the node coordinates or a
    constant (a scalar, or one value per velocity component)."""
    y = np.empty(shape)
    y[...] = y0(nodes) if callable(y0) else np.asarray(y0, dtype=float)
    return y


# ---------------------------------------------------------------------------
# Crank-Nicolson heat solver
# ---------------------------------------------------------------------------

def heat_forward_cn(grid: SpatialGrid, y0, G, control, T, nt_fwd,
                    omega_box=None):
    """theta = 1/2 stepping of the controlled reaction-diffusion problem.

    y_t - Lap y + G y = v 1_omega with homogeneous Dirichlet data; y0 is a
    scalar or a callable of the node coordinates and G a constant; control
    is None or a field whose control.at(X) returns t -> values at the points
    X, supported in the control region.  Steps follow `_steps`.
    Returns the norm history and the final coefficient vector.
    """
    el = _Elements(grid, 6)
    M, interior = el.M, el.interior
    S = el.K + float(G) * M
    n = len(el.nodes)
    y = _nodal(y0, el.nodes, n)
    y[el.bdry] = 0.0

    dt = T / nt_fwd
    solves = {}
    for theta in (0.5, 1.0):
        lhs = (M / dt + theta * S).tocsc()[interior][:, interior]
        solves[theta] = (spla.factorized(lhs.tocsc()),
                         (M / dt - (1.0 - theta) * S).tocsr())

    if control is not None:
        w, conn, v_at = el.bind(control, omega_box)

    def control_load(t):
        out = np.zeros(n)
        if control is not None:
            np.add.at(out, conn, np.einsum("tq,qi->ti", w * v_at(t), el.v))
        return out

    def control_norm(t):
        if control is None:
            return 0.0
        v = v_at(t)
        return float(np.sqrt(max((w * v * v).sum(), 0.0)))

    times, steps = _steps(T, nt_fwd)
    state_norms = [float(np.sqrt(max(y @ (M @ y), 0.0)))]
    control_norms = [control_norm(0.0)]
    for theta, t_load, t_new in steps:
        solve, rhs_op = solves[theta]
        b = (rhs_op @ y)[interior] + control_load(t_load)[interior]
        y = np.zeros(n)
        y[interior] = solve(b)
        state_norms.append(float(np.sqrt(max(y @ (M @ y), 0.0))))
        control_norms.append(control_norm(t_new))
    hist = NormHistory(times=times, control_norms=np.array(control_norms),
                       state_norms=np.array(state_norms))
    return hist, y


# ---------------------------------------------------------------------------
# incompressible flow solver (Taylor-Hood, semi-implicit convection)
# ---------------------------------------------------------------------------

class _TaylorHood(_Elements):
    """P2 velocity / P1 pressure operators on the grid: the P2 table on the
    7-point rule plus the divergence blocks, split into interior columns
    Dint (both components side by side) and boundary columns Db[c], and the
    zero-mean pressure constraint row."""

    def __init__(self, grid):
        super().__init__(grid, 7)
        conn1 = grid.conn(1)
        # rows pressure, cols velocity component c; the P1 values are lam
        D = [_matrix(conn1, self.conn,
                     np.einsum("tq,qi,tqjc->tij", self.w, self.lam,
                               self.g[..., c:c + 1]).squeeze())
             for c in range(2)]
        self.Dint = sp.hstack([D[0][:, self.interior],
                               D[1][:, self.interior]]).tocsr()
        self.Db = [Dc[:, self.bdry] for Dc in D]
        self.pmean = np.zeros(conn1.max() + 1)
        np.add.at(self.pmean, conn1, np.einsum("tq,qi->ti", self.w, self.lam))

    def convection(self, adv):
        """Matrix of (adv . grad) u . v for a P2 vector field adv (n2, 2)."""
        a = np.einsum("tic,qi->tqc", adv[self.conn], self.v)
        E = np.einsum("tq,tqjc,qi->tij",
                      self.w, np.einsum("tqc,tqjc->tqjc", a, self.g), self.v)
        return _matrix(self.conn, self.conn, E)

    def divergence_residual(self, u):
        """|div u|_L2 relative to |grad u|_L2."""
        gu = np.einsum("tic,tqid->tqcd", u[self.conn], self.g)
        div = gu[..., 0, 0] + gu[..., 1, 1]
        nrm = np.einsum("tq,tqcd,tqcd->", self.w, gu, gu)
        dd = np.einsum("tq,tq,tq->", self.w, div, div)
        return float(np.sqrt(max(dd, 0.0) / max(nrm, 1e-300)))

    def norm(self, u):
        """L2 norm of a P2 vector field (n2, 2)."""
        return float(np.sqrt(sum(u[:, c] @ (self.M @ u[:, c])
                                 for c in range(2))))


def flow_forward(grid: SpatialGrid, nu, y0, control, trajectory, T, nt_fwd,
                 omega_box=None):
    """Velocity/pressure stepping of the (Navier-)Stokes momentum balance.

    trajectory=None is the Stokes problem with no-slip walls: no convection,
    and one cached factorization per theta.  Otherwise the velocity's
    Dirichlet data come from the trajectory, the convecting field is
    extrapolated from the previous steps and every step factorizes.  Viscous
    and pressure terms follow `_steps`' theta-scheme, and the divergence
    constraint is enforced at the new time level with a zero-mean pressure.
    Returns the history of ||y - ybar|| (ybar = 0 for Stokes) and the final
    velocity coefficients.
    """
    th = _TaylorHood(grid)
    nodes, bdry, interior = th.nodes, th.bdry, th.interior
    n, ni = len(nodes), len(interior)

    def wall(t):
        """Reference flow at the nodes; its boundary values are the data."""
        if trajectory is None:
            return np.zeros((n, 2))
        return np.asarray(trajectory(nodes, t), dtype=float)

    ybar = wall(0.0)
    y = _nodal(y0, nodes, (n, 2))
    y[bdry] = ybar[bdry]

    if control is not None:
        w, conn, v_at = th.bind(control, omega_box)

    def control_load(t):
        out = np.zeros((n, 2))
        if control is not None:
            v = np.asarray(v_at(t), dtype=float)
            np.add.at(out, conn, np.einsum("tq,tqc,qi->tic", w, v, th.v))
        return out

    dt = T / nt_fwd

    def operators(theta, Sop):
        """(M/dt - (1-theta) Sop, the interior rows' boundary columns of
        M/dt + theta Sop, and the factorized KKT matrix of the step: interior
        velocity dofs of both components, full pressure, mean row)."""
        Ai = (th.M / dt + theta * Sop).tocsr()[interior]
        Aii = Ai[:, interior]
        KKT = sp.bmat([[sp.bmat([[Aii, None], [None, Aii]], format="csr"),
                        th.Dint.T, None],
                       [th.Dint, None, th.pmean[:, None]],
                       [None, th.pmean[None, :], None]], format="csc")
        return (th.M / dt - (1.0 - theta) * Sop, Ai[:, bdry],
                spla.factorized(KKT))

    times, steps = _steps(T, nt_fwd)
    dev_norm = [th.norm(y - ybar)]
    max_div = 0.0
    y_prev = y
    Sop = nu * th.K
    per_theta = {}
    for k, (theta, t_load, t_new) in enumerate(steps):
        if trajectory is None:
            if theta not in per_theta:
                per_theta[theta] = operators(theta, Sop)
            rhs_op, Aib, solve = per_theta[theta]
        else:
            adv = 1.5 * y - 0.5 * y_prev if k > 0 else y
            rhs_op, Aib, solve = operators(theta, Sop + th.convection(adv))
        rhs_full = rhs_op @ y + control_load(t_load)
        # known boundary values at t_new move to the right side
        ybar = wall(t_new)
        gb = ybar[bdry]
        rhs = np.concatenate([rhs_full[interior, 0] - Aib @ gb[:, 0],
                              rhs_full[interior, 1] - Aib @ gb[:, 1],
                              -(th.Db[0] @ gb[:, 0] + th.Db[1] @ gb[:, 1]),
                              [0.0]])
        sol = solve(rhs)
        y_prev = y
        y = np.empty((n, 2))
        y[bdry] = gb
        y[interior, 0] = sol[:ni]
        y[interior, 1] = sol[ni:2 * ni]
        dev_norm.append(th.norm(y - ybar))
        max_div = max(max_div, th.divergence_residual(y))

    hist = NormHistory(times=times, deviation_norms=np.array(dev_norm),
                       divergence_residual=max_div)
    return hist, y
