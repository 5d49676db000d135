"""Independent forward-in-time solvers used only to verify computed controls.

These deliberately re-implement their own spatial finite elements (hand-coded
P2 triangles, and P1 pressure, on a structured grid) and use classical time
stepping, so that agreement with the space-time control solver is evidence
rather than tautology.  The only shared interface is the control field: a
solver picks its own quadrature points X, calls control.at(X) once, and gets
back a function t -> pointwise control values at X.

Heat, Stokes and Navier-Stokes share one discretization class and one
time loop: one P2 field for heat, two velocity components plus P1 pressure
rows for a flow.  The step matrices are refilled in place on the mass
matrix's sparsity pattern, only when theta or the operator changes (every
step under Navier-Stokes convection).  One factorization is held for the
whole run: each step is solved with it, checked on the true residual of the
step's own system, and handed to GMRES preconditioned with the held LU when
that check fails; the step's matrix is refactorized at the switch of time
scheme and when GMRES fails or needs more than a few iterations.
Nothing is imported from the space-time solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def curl_perturbation(L1, L2, M, x):
    """Divergence-free perturbation M * curl(psi) on the box (0,L1)x(0,L2).

    psi = (x1 x2)^2 [(L1 - x1)(L2 - x2)]^2 vanishes to second order on the
    box boundary, so the field and its normal trace vanish there.
    """
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    f = (x1 * (L1 - x1)) ** 2
    g = (x2 * (L2 - x2)) ** 2
    df = 2.0 * x1 * (L1 - x1) * (L1 - 2.0 * x1)
    dg = 2.0 * x2 * (L2 - x2) * (L2 - 2.0 * x2)
    return M * np.stack([f * dg, -df * g], axis=-1)


@dataclass
class NormHistory:
    """Per-time L2(Omega) norms recorded along a forward run: of the control
    and of the state's deviation y - ybar from the target (ybar = 0 for heat
    and Stokes).  Flow runs also record the largest relative divergence of
    the velocity over the steps; heat runs have none.  The solver's work is
    counted too: its sparse LU factorizations and GMRES iterations."""

    times: np.ndarray
    control_norms: np.ndarray
    state_norms: np.ndarray
    divergence_residual: float | None = None
    factorizations: int = 0
    gmres_iterations: int = 0


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
# one discretization and one theta-scheme time loop for every problem; the
# solvers differ only in the step operator, the field count and the
# Dirichlet data
# ---------------------------------------------------------------------------

def _matrix(rconn, cconn, E):
    """CSR matrix summing the element blocks E (ntri, i, j) into the rows
    rconn (ntri, i) and columns cconn (ntri, j)."""
    rows = np.broadcast_to(rconn[:, :, None], E.shape).ravel()
    cols = np.broadcast_to(cconn[:, None, :], E.shape).ravel()
    shape = (rconn.max() + 1, cconn.max() + 1)
    return sp.coo_matrix((E.ravel(), (rows, cols)), shape=shape).tocsr()


class _StepMatrices:
    """P2 element table and theta-scheme step matrices of one problem.

    The state has `fields` P2 fields: one for heat; two velocity components
    for a flow, whose step system adds the P1 pressure rows.  X are the
    physical quadrature points (ntri, Q, 2) of the Gauss rule of npts
    points, w the weights times |det J| (ntri, Q), lam the barycentric
    coordinates of the rule's points (Q, 3), v the P2 values (Q, 6), g the
    physical P2 gradients (ntri, Q, 6, 2); M and K are the P2 mass and
    stiffness matrices.  A flow also has the divergence blocks, split into
    interior columns Dint (both components side by side) and boundary
    columns Db[c], and the zero-mean pressure constraint row pmean.

    The step matrices live on M's own canonical CSR pattern, which K shares
    (both sum the same element entries), so Mv and Kv are M.data and
    K.data.  `lhs` (M/dt + theta S), `rhs_op` (M/dt - (1-theta) S) and the
    step's system `kkt` (the interior dofs of every field, then for a flow
    the full pressure and the mean row) are built once; `refill` rewrites
    their values in place.
    """

    def __init__(self, grid, npts, fields):
        self.grid, self.fields = grid, fields
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
        self.Mv, self.Kv = self.M.data, self.K.data

        n = len(self.nodes)

        def on_pattern(data):
            """CSR matrix sharing M's index arrays."""
            return sp.csr_matrix((data, self.M.indices, self.M.indptr),
                                 shape=(n, n))

        self.lhs = on_pattern(np.zeros(self.M.nnz))
        self.rhs_op = on_pattern(np.zeros(self.M.nnz))
        # the field blocks carry each entry's pattern position plus one;
        # they fill the step system's leading corner, which holds nothing
        # else
        tag = on_pattern(np.arange(1.0, self.M.nnz + 1))[self.interior][
            :, self.interior]
        blocks = sp.block_diag((tag,) * fields)
        if fields == 1:
            self.kkt = blocks.tocsc()
        else:
            conn1 = grid.conn(1)
            # rows pressure, cols velocity component c; the P1 values are
            # lam
            D = [_matrix(conn1, self.conn,
                         np.einsum("tq,qi,tqjc->tij", self.w, self.lam,
                                   self.g[..., c:c + 1]).squeeze())
                 for c in range(2)]
            self.Dint = sp.hstack([D[0][:, self.interior],
                                   D[1][:, self.interior]]).tocsr()
            self.Db = [Dc[:, self.bdry] for Dc in D]
            self.pmean = np.zeros(conn1.max() + 1)
            np.add.at(self.pmean, conn1,
                      np.einsum("tq,qi->ti", self.w, self.lam))
            self.kkt = sp.bmat([[blocks, self.Dint.T, None],
                                [self.Dint, None, self.pmean[:, None]],
                                [None, self.pmean[None, :], None]],
                               format="csc")
        nv = fields * len(self.interior)
        kcol = np.repeat(np.arange(self.kkt.shape[1]),
                         np.diff(self.kkt.indptr))
        self.field_entries = np.flatnonzero((self.kkt.indices < nv)
                                            & (kcol < nv))
        self.source = self.kkt.data[self.field_entries].astype(np.intp) - 1

    def bind(self, control, box):
        """(load, norm) of a control on the triangles in box: t -> its load
        vector (n, fields) and t -> its L2 norm over them, both zero without
        a control.  control.at is bound once to their quadrature points.
        Raises ValueError when a control is given and no triangle of the
        grid has its centroid in box, since the run would then verify a
        zero control."""
        n, keep = len(self.nodes), self.grid.tris_in(box)
        if control is not None and len(keep) == 0:
            raise ValueError(
                f"no triangle of the {self.grid.nx}x{self.grid.ny} "
                f"verification grid has its centroid in the control region "
                f"{tuple(box)}; refine the verification grid")
        w, conn = self.w[keep], self.conn[keep]
        v_at = None if control is None else control.at(self.X[keep])

        def values(t):
            return np.asarray(v_at(t), dtype=float).reshape(
                w.shape + (self.fields,))

        def load(t):
            out = np.zeros((n, self.fields))
            if v_at is not None:
                np.add.at(out, conn, np.einsum("tqc,qi->tic",
                                               w[..., None] * values(t),
                                               self.v))
            return out

        def norm(t):
            if v_at is None:
                return 0.0
            v = values(t)
            return float(np.sqrt(max((w[..., None] * v * v).sum(), 0.0)))

        return load, norm

    @cached_property
    def pos(self):
        """Each element entry's position in the pattern (ntri * 36,)."""
        n = len(self.nodes)
        rows = np.repeat(np.arange(n), np.diff(self.M.indptr))
        entries = self.conn[:, :, None] * n + self.conn[:, None, :]
        return np.searchsorted(rows * n + self.M.indices, entries.ravel())

    def convection(self, adv):
        """(adv . grad) u . v for a P2 vector field adv (n2, 2), as values
        on the pattern: rows test functions, columns trial functions."""
        a = np.matmul(self.v, adv[self.conn])                # (ntri, Q, 2)
        b = np.matmul(self.g, a[..., None])[..., 0]          # (ntri, Q, 6)
        E = np.matmul(self.v.T, self.w[..., None] * b)       # (ntri, 6, 6)
        return np.bincount(self.pos, weights=E.ravel(),
                           minlength=self.M.nnz)

    def refill(self, dt, theta, S):
        """Write one step's matrices for S on the pattern: M/dt + theta S
        into lhs and the step system's field blocks, M/dt - (1-theta) S
        into rhs_op."""
        np.add(self.Mv / dt, theta * S, out=self.lhs.data)
        np.subtract(self.Mv / dt, (1.0 - theta) * S, out=self.rhs_op.data)
        self.kkt.data[self.field_entries] = self.lhs.data[self.source]

    def divergence_residual(self, u):
        """|div u|_L2 relative to |grad u|_L2."""
        gu = np.einsum("tic,tqid->tqcd", u[self.conn], self.g)
        div = gu[..., 0, 0] + gu[..., 1, 1]
        nrm = np.einsum("tq,tqcd,tqcd->", self.w, gu, gu)
        dd = np.einsum("tq,tq,tq->", self.w, div, div)
        return float(np.sqrt(max(dd, 0.0) / max(nrm, 1e-300)))

    def norm(self, u):
        """L2 norm of the P2 fields u (n2, fields)."""
        return float(np.sqrt(max(sum(u[:, c] @ (self.M @ u[:, c])
                                     for c in range(self.fields)), 0.0)))


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
    y[...] = (np.reshape(y0(nodes), shape) if callable(y0)
              else np.asarray(y0, dtype=float))
    return y


_GMRES_RTOL = 1e-12     # true residual, relative to the right-hand side
_GMRES_RESTART = 30
_GMRES_CYCLES = 3       # restart cycles before a GMRES run counts as failed
_REFACTOR_AFTER = 8     # GMRES iterations a held factorization may need


class _HeldFactorization:
    """One sparse LU held across the steps of a run.

    Each step's system is solved with it directly, and the answer is kept
    when its true residual is at most _GMRES_RTOL |b|.  Otherwise GMRES on
    the step's own matrix, preconditioned by the held LU and started from
    that answer, takes over; its stop is the same true-residual test.  A
    GMRES run that fails within _GMRES_CYCLES restart cycles, or that needs
    more than _REFACTOR_AFTER iterations, refactorizes with the step's
    matrix, and a failed one is solved again with the new factorization.
    """

    def __init__(self):
        self.solve = None
        self.factorizations = self.gmres_iterations = 0

    def refactor(self, A):
        self.solve = None   # only one factorization is held at a time
        # a copy: the caller refills A in place for the next steps, and a
        # factorization may keep its matrix (UMFPACK's solve reads it)
        self.solve = spla.factorized(A.copy())
        self.factorizations += 1

    def __call__(self, A, b):
        if self.solve is None:
            self.refactor(A)
        x = self.solve(b)
        if np.linalg.norm(b - A @ x) <= _GMRES_RTOL * np.linalg.norm(b):
            return x
        residuals = []
        # info 0 means GMRES's own final test, on b - A x, passed
        x, info = spla.gmres(A, b, x0=x, rtol=_GMRES_RTOL, atol=0.0,
                             restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES,
                             M=spla.LinearOperator(A.shape, self.solve,
                                                   dtype=A.dtype),
                             callback=residuals.append,
                             callback_type="pr_norm")
        self.gmres_iterations += len(residuals)
        if info != 0 or len(residuals) > _REFACTOR_AFTER:
            self.refactor(A)
            if info != 0:
                x = self.solve(b)
        return x


def _march(st, y0, S, control, omega_box, T, nt_fwd, trajectory=None):
    """Theta-scheme steps of M y' + S y = control load on st's fields.

    S are the operator's values on st's pattern.  Without a trajectory the
    Dirichlet data are zero and the step matrices are refilled only when
    theta changes; with one, its values on the boundary are the data, and
    every step adds the convection by the state extrapolated from the two
    previous levels to S.  Steps follow `_steps`; each step's system is
    solved through one `_HeldFactorization`, refactorized at the theta
    switch.  Returns the norm history, with ||y - ybar|| as the state norm
    (ybar the trajectory, or 0) and for a flow the largest divergence
    residual over the steps, and the final coefficients (n, fields).
    """
    nodes, bdry, interior = st.nodes, st.bdry, st.interior
    n, ni, nf = len(nodes), len(interior), st.fields

    def wall(t):
        """Reference state at the nodes; its boundary values are the data."""
        if trajectory is None:
            return np.zeros((n, nf))
        return np.asarray(trajectory(nodes, t), dtype=float)

    ybar = wall(0.0)
    y = _nodal(y0, nodes, (n, nf))
    y[bdry] = ybar[bdry]
    load, control_norm = st.bind(control, omega_box)

    dt = T / nt_fwd
    times, steps = _steps(T, nt_fwd)
    state_norms = [st.norm(y - ybar)]
    control_norms = [control_norm(0.0)]
    max_div = 0.0
    y_prev = y
    solve = _HeldFactorization()
    for k, (theta, t_load, t_new) in enumerate(steps):
        switch = k > 0 and theta != steps[k - 1][0]
        if trajectory is not None:
            st.refill(dt, theta,
                      S + st.convection(1.5 * y - 0.5 * y_prev if k > 0
                                        else y))
        elif k == 0 or switch:
            st.refill(dt, theta, S)
        if switch:
            # the new theta's matrix is a multiple of S away from the held
            # LU's for the rest of the run; where GMRES absorbs that in a
            # few iterations (Stokes with steps of 1/5 or longer), it would
            # pay them again at every later step
            solve.refactor(st.kkt)
        ybar = wall(t_new)
        g = np.zeros((n, nf))
        g[bdry] = ybar[bdry]
        rhs = st.rhs_op @ y + load(t_load)
        if trajectory is not None:
            # known boundary values at t_new move to the right side
            rhs = rhs - st.lhs @ g
        parts = [rhs[interior, c] for c in range(nf)]
        if nf == 2:
            parts += [-(st.Db[0] @ g[bdry, 0] + st.Db[1] @ g[bdry, 1]), [0.0]]
        sol = solve(st.kkt, np.concatenate(parts))
        y_prev = y
        y = g
        for c in range(nf):
            y[interior, c] = sol[c * ni:(c + 1) * ni]
        state_norms.append(st.norm(y - ybar))
        control_norms.append(control_norm(t_new))
        if nf == 2:
            max_div = max(max_div, st.divergence_residual(y))

    hist = NormHistory(times=times, control_norms=np.array(control_norms),
                       state_norms=np.array(state_norms),
                       divergence_residual=max_div if nf == 2 else None,
                       factorizations=solve.factorizations,
                       gmres_iterations=solve.gmres_iterations)
    return hist, y


def heat_forward_cn(grid: SpatialGrid, y0, G, control, T, nt_fwd,
                    omega_box=None):
    """Theta-scheme stepping of the controlled reaction-diffusion problem:
    _STARTUP_STEPS backward-Euler steps, then Crank-Nicolson (`_steps`).

    y_t - Lap y + G y = v 1_omega with homogeneous Dirichlet data on one P2
    field; y0 is a scalar or a callable of the node coordinates and G a
    constant; control is None or a field whose control.at(X) returns t ->
    values at the points X, supported in the control region.  Every step
    goes through `_march`'s held factorization.  Returns the norm history
    and the final coefficient vector.
    """
    st = _StepMatrices(grid, 6, fields=1)
    hist, y = _march(st, y0, st.Kv + float(G) * st.Mv, control, omega_box,
                     T, nt_fwd)
    return hist, y[:, 0]


def flow_forward(grid: SpatialGrid, nu, y0, control, trajectory, T, nt_fwd,
                 omega_box=None):
    """Velocity/pressure stepping of the (Navier-)Stokes momentum balance.

    Taylor-Hood: two P2 velocity components and P1 pressure.
    trajectory=None is the Stokes problem with no-slip walls and no
    convection.  Otherwise the velocity's Dirichlet data come from the
    trajectory and the convecting field is extrapolated from the previous
    steps.  Viscous and pressure terms follow `_steps`' theta-scheme, and
    the divergence constraint is enforced at the new time level with a
    zero-mean pressure.

    Each step's KKT system is solved through `_march`'s held factorization
    (`_HeldFactorization`), refactorized at the theta switch and when GMRES
    on it fails or needs more than _REFACTOR_AFTER iterations.  Returns the
    norm history, with ||y - ybar|| (ybar = 0 for Stokes) as the state norm
    and the factorization and GMRES iteration counts, and the final
    velocity coefficients.
    """
    st = _StepMatrices(grid, 7, fields=2)
    return _march(st, y0, nu * st.Kv, control, omega_box, T, nt_fwd,
                  trajectory)
