"""Tensor-product Lagrange elements on prisms, quadrature and DOF handling.

Spaces are P_m (triangle) x P_n (interval) with C0 continuity; on the
structured mesh every Lagrange node lands on a uniform fine grid, so global
numbering is pure index arithmetic.  Constraint masks cover the lateral
boundary and the final time level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import SpaceTimeMesh, locate, locate_time

CONSTRAINTS = ("none", "zero_lateral", "zero_lateral_final")


# ---------------------------------------------------------------------------
# reference elements
# ---------------------------------------------------------------------------

def _tri_lattice(m):
    """Lattice multi-indices (a, b) with a + b <= m, in a fixed order."""
    return [(a, b) for b in range(m + 1) for a in range(m + 1 - b)]


def _tri_design(pts, m, dx=0, dy=0):
    """Monomial design matrix (npts, nmono) with optional differentiation."""
    pts = np.atleast_2d(pts)
    cols = []
    for a, b in _tri_lattice(m):
        ca, a_ = 1.0, a
        for _ in range(dx):
            ca *= a_
            a_ -= 1
        cb, b_ = 1.0, b
        for _ in range(dy):
            cb *= b_
            b_ -= 1
        if a_ < 0 or b_ < 0 or ca * cb == 0.0:
            cols.append(np.zeros(len(pts)))
        else:
            cols.append(ca * cb * pts[:, 0] ** a_ * pts[:, 1] ** b_)
    return np.column_stack(cols)


@lru_cache(maxsize=None)
def triangle_element(m):
    """Lagrange basis of degree m on the reference triangle.

    Returns (nodes (nn, 2), coeffs (nmono, nn)); values at points P are
    'design(P) @ coeffs'.
    """
    lattice = _tri_lattice(m)
    nodes = np.array([(a / m, b / m) for a, b in lattice])
    V = _tri_design(nodes, m)
    return nodes, np.linalg.inv(V)


def tabulate_triangle(m, pts):
    """Basis values (np, nn) and reference gradients (np, nn, 2) at pts."""
    _, C = triangle_element(m)
    vals = _tri_design(pts, m) @ C
    gx = _tri_design(pts, m, dx=1) @ C
    gy = _tri_design(pts, m, dy=1) @ C
    return vals, np.stack([gx, gy], axis=-1)


@lru_cache(maxsize=None)
def interval_element(n):
    nodes = np.linspace(0.0, 1.0, n + 1)
    V = np.vander(nodes, n + 1, increasing=True)
    return nodes, np.linalg.inv(V)


def tabulate_interval(n, pts):
    """Basis values (np, nn) and derivatives (np, nn) at reference pts."""
    _, C = interval_element(n)
    pts = np.atleast_1d(pts)
    D0 = np.vander(pts, n + 1, increasing=True)
    D1 = np.zeros_like(D0)
    for k in range(1, n + 1):
        D1[:, k] = k * pts ** (k - 1)
    return D0 @ C, D1 @ C


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def gauss01(k):
    """k-point Gauss rule on (0, 1); all points strictly interior."""
    x, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_quadrature(deg):
    """Rule on the reference triangle exact for total degree <= deg.

    Collapsed tensor Gauss: positive weights, points strictly inside.
    """
    k = (deg + 3) // 2
    gu, wu = gauss01(k)
    gv, wv = gauss01(k)
    U, Vv = np.meshgrid(gu, gv, indexing="ij")
    pts = np.column_stack([U.ravel(), (Vv * (1.0 - U)).ravel()])
    wts = (np.outer(wu, wv) * (1.0 - U) * 1.0).ravel()
    return pts, wts


def interval_quadrature(deg):
    """Gauss rule on (0, 1) exact for degree <= deg."""
    return gauss01((deg + 2) // 2)


@dataclass(frozen=True)
class QuadratureRule:
    """Reference rules used for prism assembly (space x time tensor)."""

    tri_points: np.ndarray
    tri_weights: np.ndarray
    t_points: np.ndarray
    t_weights: np.ndarray
    t_points_final: np.ndarray
    t_weights_final: np.ndarray

    @classmethod
    def default(cls, m, n):
        """Exact to degree 2m+2 in space and 2n+2 in time; the final slab
        rule is raised by 2 to better resolve the integrable square-root
        factors of the coefficient functions."""
        tp, tw = triangle_quadrature(2 * m + 2)
        sp, sw = interval_quadrature(2 * n + 2)
        fp, fw = interval_quadrature(2 * n + 4)
        return cls(tp, tw, sp, sw, fp, fw)


# ---------------------------------------------------------------------------
# tensor FEM space
# ---------------------------------------------------------------------------

@dataclass
class TensorFemSpace:
    """Degree-(m, n) Lagrange space on the prism mesh.

    Scalar DOFs are numbered time-level-major on the fine grid; vector
    components are stacked in blocks of ndof_scalar.
    """

    mesh: SpaceTimeMesh
    m: int
    n: int
    components: int = 1
    constraint: str = "none"

    nfx: int = field(init=False)
    nfy: int = field(init=False)
    ns_space: int = field(init=False)
    ns_time: int = field(init=False)
    ndof_scalar: int = field(init=False)
    ndof: int = field(init=False)
    space_conn: np.ndarray = field(init=False, repr=False)
    free_mask: np.ndarray = field(init=False, repr=False)
    free_idx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("polynomial degrees must be >= 1")
        if self.components not in (1, 2):
            raise ValueError("components must be 1 or 2")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"unknown constraint {self.constraint!r}")
        mesh, m = self.mesh, self.m
        self.nfx = m * mesh.nx + 1
        self.nfy = m * mesh.ny + 1
        self.ns_space = self.nfx * self.nfy
        self.ns_time = self.n * mesh.nt + 1
        self.ndof_scalar = self.ns_space * self.ns_time
        self.ndof = self.components * self.ndof_scalar

        # spatial connectivity on the fine grid
        lattice = np.array(_tri_lattice(m))                    # (nn_s, 2)
        vi = mesh.triangles % (mesh.nx + 1)
        vj = mesh.triangles // (mesh.nx + 1)
        F = np.stack([m * vi, m * vj], axis=-1)                # (ntri, 3, 2)
        e1 = (F[:, 1] - F[:, 0]) // m
        e2 = (F[:, 2] - F[:, 0]) // m
        fine = (F[:, None, 0, :] + lattice[None, :, 0, None] * e1[:, None, :]
                + lattice[None, :, 1, None] * e2[:, None, :])  # (ntri, nn_s, 2)
        self.space_conn = fine[..., 1] * self.nfx + fine[..., 0]

        mask = np.ones(self.ndof, dtype=bool)
        if self.constraint in ("zero_lateral", "zero_lateral_final"):
            fi = np.arange(self.ns_space) % self.nfx
            fj = np.arange(self.ns_space) // self.nfx
            bdry = (fi == 0) | (fi == self.nfx - 1) | (fj == 0) | (fj == self.nfy - 1)
            scalar_fixed = np.tile(bdry, self.ns_time)
            if self.constraint == "zero_lateral_final":
                scalar_fixed[(self.ns_time - 1) * self.ns_space:] = True
            mask[:] = ~np.tile(scalar_fixed, self.components)
        self.free_mask = mask
        self.free_idx = np.flatnonzero(mask)

    # -- numbering helpers ------------------------------------------------

    @property
    def nn_s(self):
        return (self.m + 1) * (self.m + 2) // 2

    @property
    def nn_t(self):
        return self.n + 1

    @property
    def ldof(self):
        return self.nn_s * self.nn_t

    def prism_scalar_dofs(self, tris, slabs):
        """Scalar DOFs (len(tris), len(slabs), ldof), local index it*nn_s+is."""
        tris = np.atleast_1d(tris)
        slabs = np.atleast_1d(slabs)
        levels = slabs[:, None] * self.n + np.arange(self.nn_t)[None, :]
        out = (levels[None, :, :, None] * self.ns_space
               + self.space_conn[tris][:, None, None, :])
        return out.reshape(len(tris), len(slabs), self.ldof)

    def dof_points(self):
        """Spatial fine-grid coordinates (ns_space, 2) and time levels."""
        xf = np.linspace(0.0, self.mesh.L1, self.nfx)
        yf = np.linspace(0.0, self.mesh.L2, self.nfy)
        X, Y = np.meshgrid(xf, yf, indexing="xy")
        tf = np.linspace(0.0, self.mesh.T, self.ns_time)
        return np.column_stack([X.ravel(), Y.ravel()]), tf

    # -- interpolation and evaluation -------------------------------------

    def interpolate(self, f):
        """Nodal interpolation of f(X, t); returns full coefficient vector.

        f must be numpy-vectorized; for vector spaces it returns (..., 2).
        """
        XS, tf = self.dof_points()
        XX = np.broadcast_to(XS[None, :, :], (self.ns_time, self.ns_space, 2))
        TT = np.broadcast_to(tf[:, None], (self.ns_time, self.ns_space))
        vals = np.asarray(f(XX, TT), dtype=float)
        if self.components == 1:
            if vals.shape != (self.ns_time, self.ns_space):
                raise ValueError("interpolant returned wrong shape")
            return vals.ravel().copy()
        if vals.shape != (self.ns_time, self.ns_space, 2):
            raise ValueError("interpolant returned wrong shape")
        return np.concatenate([vals[..., c].ravel() for c in range(2)])

    def apply_constraints(self, coeffs):
        """Zero the fixed DOFs (idempotent, order independent)."""
        out = np.array(coeffs, dtype=float, copy=True)
        out[~self.free_mask] = 0.0
        return out

    def eval(self, coeffs, x, t):
        """Values of the FEM function at the points x (..., 2) and the
        time(s) t; one call of the bound evaluator `at`."""
        return self.at(coeffs, x)(t)

    def at(self, coeffs, x):
        """Evaluator t -> values of the FEM function at the fixed points x.

        x has shape (..., 2); the point location, spatial basis values and
        DOF indices are computed once, so a call costs one time-basis
        tabulation and one small contraction.  t is one time or an array
        of times broadcastable to x.shape[:-1]; axes of t in front of
        those evaluate one row at a time (a column of K times gives K rows
        of point values).  Values have shape t's leading axes plus
        x.shape[:-1], plus a trailing 2 for vector spaces.
        """
        x = np.asarray(x, dtype=float)
        pts_shape = x.shape[:-1]
        shape = pts_shape + ((2,) if self.components == 2 else ())
        tri, bary = locate(self.mesh, x.reshape(-1, 2))
        sval, _ = tabulate_triangle(self.m, bary[:, 1:3])   # (N, nn_s)
        sdofs = self.space_conn[tri][:, None, :]            # (N, 1, nn_s)
        levels = np.asarray(coeffs, dtype=float).reshape(
            self.components, self.ns_time, self.ns_space)

        def values(t):
            t = np.asarray(t, dtype=float)
            if t.ndim > len(pts_shape):
                return np.stack([values(row) for row in t])
            tt = np.broadcast_to(t, pts_shape)
            slab, tloc = locate_time(self.mesh, tt.ravel())
            tval, _ = tabulate_interval(self.n, tloc)       # (N, nn_t)
            lv = slab[:, None, None] * self.n + np.arange(self.nn_t)[:, None]
            cc = levels[:, lv, sdofs]                       # (comp, N, nn_t, nn_s)
            out = np.einsum("cnts,nt,ns->nc", cc, tval, sval)
            return out.reshape(shape)

        return values


def build_space(mesh, m, n, components=1, constraint="none") -> TensorFemSpace:
    return TensorFemSpace(mesh=mesh, m=m, n=n, components=components,
                          constraint=constraint)


# ---------------------------------------------------------------------------
# batched assembly machinery
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """One homogeneous batch of prisms: same triangle shape, same time rule.

    Xq are the physical space points (P1, Q, 2) repeated over the time rule,
    tq the physical times (P2, Q); w the full quadrature weights (Q,) already
    including the cell Jacobians (uniform over the structured grid).
    """

    tris: np.ndarray
    slabs: np.ndarray
    Xq: np.ndarray
    tq: np.ndarray
    w: np.ndarray
    _tables: dict

    def tables(self, space):
        key = (space.m, space.n)
        return self._tables[key]

    def dofs(self, space):
        return space.prism_scalar_dofs(self.tris, self.slabs)

    def coeff(self, fun):
        """Evaluate a coefficient callable on the batch grid -> (P1, P2, Q, …)."""
        if np.isscalar(fun):
            return float(fun)
        X = self.Xq[:, None, :, :]
        t = self.tq[None, :, :]
        return np.asarray(fun(X, t), dtype=float)

    def field(self, space, coeffs, comp=0):
        """Values of a FEM field of this mesh on the batch grid (P1, P2, Q)."""
        val = self.tables(space)[0]
        D = self.dofs(space) + comp * space.ndof_scalar
        cc = np.asarray(coeffs, dtype=float)[D]              # (P1, P2, ldof)
        return np.einsum("abl,ql->abq", cc, val)


class Assembler:
    """Shared quadrature grid and basis tables for one mesh.

    Prisms are grouped by triangle shape (two congruence classes on the
    structured grid) and by time rule (regular slabs vs. the final slab with
    its raised quadrature order); each group is assembled in one vectorized
    batch, accumulated in a fixed order so results are deterministic.
    """

    def __init__(self, mesh: SpaceTimeMesh, rule: QuadratureRule):
        self.mesh = mesh
        self.rule = rule
        self._space_tables = {}

        verts = mesh.vertices[mesh.triangles]                # (ntri, 3, 2)
        J = np.stack([verts[:, 1] - verts[:, 0],
                      verts[:, 2] - verts[:, 0]], axis=-1)
        keys = np.round(J.reshape(len(J), 4), 12)
        _, type_idx = np.unique(keys, axis=0, return_inverse=True)
        self.tri_groups = [np.flatnonzero(type_idx == k)
                           for k in range(type_idx.max() + 1)]
        self.J = J
        self.detJ = np.abs(np.linalg.det(J))

        # physical space points per triangle
        qp = rule.tri_points
        self.Xq_space = (verts[:, None, 0, :]
                         + qp[None, :, 0, None] * J[:, None, :, 0]
                         + qp[None, :, 1, None] * J[:, None, :, 1])

        ht = mesh.ht
        self.t_variants = []
        reg = np.arange(mesh.nt - 1) if mesh.nt > 1 else np.empty(0, dtype=int)
        fin = np.array([mesh.nt - 1])
        for slabs, (tp, tw) in ((reg, (rule.t_points, rule.t_weights)),
                                (fin, (rule.t_points_final, rule.t_weights_final))):
            if len(slabs) == 0:
                continue
            tq = mesh.time_nodes[slabs][:, None] + tp[None, :] * ht
            self.t_variants.append((slabs, tp, tw * ht, tq))

    def _tables_for(self, space):
        key = (space.m, space.n)
        if key in self._space_tables:
            return self._space_tables[key]
        out = []
        sval, sgrad_ref = tabulate_triangle(space.m, self.rule.tri_points)
        for g, tris in enumerate(self.tri_groups):
            Jinv = np.linalg.inv(self.J[tris[0]])
            sgrad = np.einsum("kd,qsk->qsd", Jinv, sgrad_ref)
            per_variant = []
            for slabs, tp, tw, tq in self.t_variants:
                tval, tder = tabulate_interval(space.n, tp)
                tder = tder / self.mesh.ht
                # tensor tables, q = qt * nqs + qs
                val = np.einsum("ti,qs->tqis", tval, sval)
                val = val.reshape(-1, space.nn_t * space.nn_s)
                dt = np.einsum("ti,qs->tqis", tder, sval)
                dt = dt.reshape(-1, space.nn_t * space.nn_s)
                grad = np.einsum("ti,qsd->tqisd", tval, sgrad)
                grad = grad.reshape(-1, space.nn_t * space.nn_s, 2)
                per_variant.append((val, grad, dt))
            out.append(per_variant)
        self._space_tables[key] = out
        return out

    def batches(self, *spaces):
        """Yield Batch objects covering every prism exactly once."""
        for sp in spaces:
            if sp.mesh is not self.mesh:
                raise ValueError("space built on a different mesh")
            self._tables_for(sp)
        for g, tris in enumerate(self.tri_groups):
            det = self.detJ[tris[0]]
            for v, (slabs, tp, tw, tq) in enumerate(self.t_variants):
                w = (tw[:, None] * (self.rule.tri_weights * det)[None, :]).ravel()
                nqs = len(self.rule.tri_weights)
                Xq = np.tile(self.Xq_space[tris], (1, len(tp), 1))
                tqq = np.repeat(tq, nqs, axis=1)
                tables = {k: tabs[g][v] for k, tabs in self._space_tables.items()}
                yield Batch(tris=tris, slabs=slabs, Xq=Xq, tq=tqq, w=w,
                            _tables=tables)


def l2_norm(space, coeffs, weight=None, assembler=None):
    """L2(Q_T) norm of a FEM function, optionally weighted.

    weight is a pointwise callable w(X, t).
    """
    asm = assembler or Assembler(space.mesh, QuadratureRule.default(space.m, space.n))
    total = 0.0
    for batch in asm.batches(space):
        acc = 0.0
        for c in range(space.components):
            v = batch.field(space, coeffs, comp=c)
            acc = acc + v * v
        if weight is not None:
            acc = acc * batch.coeff(weight)
        total += float(np.einsum("abq,q->ab", acc, batch.w).sum())
    return np.sqrt(max(total, 0.0))
