"""Assembly of the saddle-point systems for heat, Stokes and Oseen control.

Each system has the block shape

    [ A  B^T ] [x  ]   [L]
    [ B  0   ] [lam] = [0]

with A the weighted mass form over the primal fields, B the first-order weak
form of the operator constraint (plus the divergence constraint for flows),
and L the initial-datum pairing supported on the p-field at t = 0.

Sign convention: the constraint is "z - (operator applied to p) = 0" tested
against lam; after the change of variables of the heat problem the constraint
coefficients are exactly the groups produced by WeightSet.hatted_coeff_arrays,
a transcription cross-checked against a product-rule expansion oracle in the
test suite before the signs here were frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import Assembler, QuadratureRule, TensorFemSpace, tabulate_triangle, triangle_quadrature
from .mesh import SpaceTimeMesh
from .weights import WeightSet


@dataclass(frozen=True)
class FieldBlock:
    """One named field inside a stacked (reduced) coefficient vector."""

    name: str
    space: TensorFemSpace
    offset: int        # offset into the reduced vector
    size: int          # number of free DOFs

    def expand(self, reduced):
        """Full coefficient vector of this field from the reduced vector."""
        full = np.zeros(self.space.ndof)
        full[self.space.free_idx] = reduced[self.offset:self.offset + self.size]
        return full


@dataclass
class ProblemSpec:
    """What is being controlled; carried on the assembled system."""

    kind: str                      # heat | stokes | oseen
    G: float = None                # heat potential, a constant
    nu: float = None               # viscosity for flow kinds
    ybar: object = None            # background trajectory (oseen)
    w: object = None               # transported field (oseen fixed point)
    y0: object = None              # initial datum

    def __post_init__(self):
        if self.kind in ("stokes", "oseen") and not (self.nu and self.nu > 0):
            raise ValueError("flow problems need positive viscosity")


@dataclass
class SaddleSystem:
    """Sparse block system with field layouts and norm mass matrices."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    L: np.ndarray
    primal: list
    dual: list
    M_primal: sp.csr_matrix
    M_dual: sp.csr_matrix
    mesh: SpaceTimeMesh
    problem: ProblemSpec

    @property
    def n_primal(self):
        return self.A.shape[0]

    @property
    def n_dual(self):
        return self.B.shape[0]

    def block(self, name, which="primal"):
        for blk in (self.primal if which == "primal" else self.dual):
            if blk.name == name:
                return blk
        raise KeyError(name)

    def expand(self, reduced, which="primal"):
        blocks = self.primal if which == "primal" else self.dual
        return {blk.name: blk.expand(reduced) for blk in blocks}


_ELEMENT = "abq,qi,qj->abij"   # sum_q w_q c_q Op_i Op_j per prism


class _Builder:
    """Collects bilinear terms as element values and DOF maps, then builds
    full-size COO blocks from them and reduces those to the free DOFs."""

    def __init__(self, mesh, primal_spaces, dual_spaces):
        self.mesh = mesh
        self.primal_names = [n for n, _ in primal_spaces]
        self.primal_spaces = dict(primal_spaces)
        self.dual_names = [n for n, _ in dual_spaces]
        self.dual_spaces = dict(dual_spaces)
        self.full_off = {}
        off = 0
        for name, spc in primal_spaces:
            self.full_off[name] = off
            off += spc.ndof
        self.n_full_primal = off
        off = 0
        for name, spc in dual_spaces:
            self.full_off[name] = off
            off += spc.ndof
        self.n_full_dual = off
        self._terms = {"A": [], "B": [], "Mp": [], "Md": []}
        self.L_full = np.zeros(self.n_full_primal)
        self._paths = {}   # einsum contraction path per operand shapes

    @staticmethod
    def _op(tables, op):
        val, grad, dt = tables
        if op == "v":
            return val
        if op == "t":
            return dt
        if op == "gx":
            return grad[:, :, 0]
        if op == "gy":
            return grad[:, :, 1]
        raise ValueError(op)

    def add(self, target, batch, test, trial, cvals, region_mask=None):
        """Add sum_q w_q c_q Op_i Op_j over the batch's prisms.

        test/trial are (name, component, op) triples; cvals is a scalar or an
        array broadcastable to (P1, P2, Q).
        """
        tname, tcomp, topn = test
        rname, rcomp, ropn = trial
        spaces = {**self.primal_spaces, **self.dual_spaces}
        tspace, rspace = spaces[tname], spaces[rname]
        Ti = self._op(batch.tables(tspace), topn)
        Tj = self._op(batch.tables(rspace), ropn)
        P1, P2 = len(batch.tris), len(batch.slabs)
        CW = np.broadcast_to(np.asarray(cvals, dtype=float)[...],
                             (P1, P2, len(batch.w))) * batch.w
        if region_mask is not None:
            if not region_mask.any():
                return
            CW = CW * region_mask[:, None, None]
        # the optimal path depends on the operand shapes only, and a given
        # path computes the same bits as optimize=True
        key = (CW.shape, Ti.shape, Tj.shape)
        if key not in self._paths:
            self._paths[key] = np.einsum_path(_ELEMENT, CW, Ti, Tj,
                                              optimize=True)[0]
        E = np.einsum(_ELEMENT, CW, Ti, Tj, optimize=self._paths[key])
        Dt = (batch.dofs(tspace) + tcomp * tspace.ndof_scalar
              + self.full_off[tname])
        Dr = (batch.dofs(rspace) + rcomp * rspace.ndof_scalar
              + self.full_off[rname])
        self._terms[target].append((E, Dt, Dr))

    def add_initial_load(self, name, comp, fun):
        """L contribution int_Omega fun(x) phi(x, 0) dx on the named field."""
        spc = self.primal_spaces[name]
        qp, qw = triangle_quadrature(2 * spc.m + 2)
        vals, _ = tabulate_triangle(spc.m, qp)
        mesh = self.mesh
        verts = mesh.vertices[mesh.triangles]
        J = np.stack([verts[:, 1] - verts[:, 0],
                      verts[:, 2] - verts[:, 0]], axis=-1)
        X = (verts[:, None, 0, :] + qp[None, :, 0, None] * J[:, None, :, 0]
             + qp[None, :, 1, None] * J[:, None, :, 1])
        det = np.abs(np.linalg.det(J))
        f = np.asarray(fun(X), dtype=float)
        contrib = np.einsum("tq,qi,t->ti", f * qw[None, :], vals, det)
        tgt = self.L_full[self.full_off[name] + comp * spc.ndof_scalar:]
        np.add.at(tgt, spc.space_conn, contrib)   # time level 0 only

    def _free_indices(self, names, spaces):
        idx = []
        for name in names:
            idx.append(self.full_off[name] + spaces[name].free_idx)
        return np.concatenate(idx) if idx else np.empty(0, dtype=int)

    def _matrix(self, target, shape, rows_idx, cols_idx):
        """The target's terms as one CSR matrix, reduced to the free DOFs.

        The COO arrays are sized once and each term is copied into its slice
        and dropped, in the order the terms were added.  Before summing
        duplicates, scipy's `tocsr`/`sum_duplicates` sorts each row's column
        indices with an unstable sort: the same sequence of terms gives the
        same bits, but adding or reordering terms can change the rounding of
        other entries in the same row.  The index arrays have the dtype scipy
        converts to, so the conversion copies nothing.
        """
        terms = self._terms.pop(target)
        if not terms:
            return sp.csr_matrix((len(rows_idx), len(cols_idx)))
        total = sum(E.size for E, _, _ in terms)
        idx = (np.int32 if max(max(shape), total) <= np.iinfo(np.int32).max
               else np.int64)
        data = np.empty(total)
        rows = np.empty(total, dtype=idx)
        cols = np.empty(total, dtype=idx)
        start = 0
        for k, (E, Dt, Dr) in enumerate(terms):
            terms[k] = None
            seg = slice(start, start + E.size)
            data[seg].reshape(E.shape)[...] = E
            rows[seg].reshape(E.shape)[...] = Dt[..., None]
            cols[seg].reshape(E.shape)[...] = Dr[:, :, None, :]
            start += E.size
        del E
        M = sp.coo_matrix((data, (rows, cols)), shape=shape)
        del data, rows, cols
        M = M.tocsr()
        M = M[rows_idx][:, cols_idx]
        M.sum_duplicates()
        return M

    def finish(self, problem) -> SaddleSystem:
        pfree = self._free_indices(self.primal_names, self.primal_spaces)
        dfree = self._free_indices(self.dual_names, self.dual_spaces)

        A = self._matrix("A", (self.n_full_primal, self.n_full_primal),
                         pfree, pfree)
        B = self._matrix("B", (self.n_full_dual, self.n_full_primal),
                         dfree, pfree)
        Mp = self._matrix("Mp", (self.n_full_primal, self.n_full_primal),
                          pfree, pfree)
        Md = self._matrix("Md", (self.n_full_dual, self.n_full_dual),
                          dfree, dfree)
        L = self.L_full[pfree]

        primal, dual = [], []
        off = 0
        for name in self.primal_names:
            spc = self.primal_spaces[name]
            primal.append(FieldBlock(name, spc, off, len(spc.free_idx)))
            off += len(spc.free_idx)
        off = 0
        for name in self.dual_names:
            spc = self.dual_spaces[name]
            dual.append(FieldBlock(name, spc, off, len(spc.free_idx)))
            off += len(spc.free_idx)
        return SaddleSystem(A=A, B=B, L=L, primal=primal, dual=dual,
                            M_primal=Mp, M_dual=Md, mesh=self.mesh,
                            problem=problem)

    def add_mass(self, target, asm, name, space):
        for batch in asm.batches(space):
            for c in range(space.components):
                self.add(target, batch, (name, c, "v"), (name, c, "v"), 1.0)


def _require(space, components, constraint, what):
    if space.components != components or space.constraint != constraint:
        raise ValueError(f"{what} space must have components={components}, "
                         f"constraint={constraint!r}")


def _as_spatial(fun):
    if np.isscalar(fun):
        v = float(fun)
        return lambda X: np.full(X.shape[:-1], v)
    return fun


def _as_spatial_vec(fun):
    if isinstance(fun, (tuple, list, np.ndarray)) and np.shape(fun) == (2,):
        v = np.asarray(fun, dtype=float)
        return lambda X: np.broadcast_to(v, X.shape[:-1] + (2,))
    return fun


def assemble_heat(mesh, spaces, ws: WeightSet, G, y0,
                  rule: QuadratureRule = None) -> SaddleSystem:
    """Saddle system of the normalized heat control formulation.

    spaces = (state-like, control-like, multiplier): unconstrained,
    zero_lateral, zero_lateral_final scalar spaces on the same mesh.
    """
    zsp, psp, lsp = spaces
    _require(zsp, 1, "none", "state-like")
    _require(psp, 1, "zero_lateral", "control-like")
    _require(lsp, 1, "zero_lateral_final", "multiplier")
    for s in spaces:
        if s.mesh is not mesh:
            raise ValueError("all spaces must live on the assembly mesh")
    rule = rule or QuadratureRule.default(max(s.m for s in spaces),
                                          max(s.n for s in spaces))
    asm = Assembler(mesh, rule)
    bld = _Builder(mesh, [("z", zsp), ("p", psp)], [("lam", lsp)])
    G = float(G)

    for batch in asm.batches(zsp, psp, lsp):
        om = mesh.omega_flag[batch.tris]
        X = batch.Xq[:, None, :, :]
        t = batch.tq[None, :, :]
        c_mass, c_grad, c_time = ws.hatted_coeff_arrays(X, t)
        # A: plain mass on z, control-region mass on p
        bld.add("A", batch, ("z", 0, "v"), ("z", 0, "v"), 1.0)
        bld.add("A", batch, ("p", 0, "v"), ("p", 0, "v"), 1.0, region_mask=om)
        # B: z-coupling and the three coefficient groups on p
        bld.add("B", batch, ("lam", 0, "v"), ("z", 0, "v"), 1.0)
        bld.add("B", batch, ("lam", 0, "v"), ("p", 0, "t"), c_time)
        bld.add("B", batch, ("lam", 0, "gx"), ("p", 0, "gx"), -c_time)
        bld.add("B", batch, ("lam", 0, "gy"), ("p", 0, "gy"), -c_time)
        bld.add("B", batch, ("lam", 0, "v"), ("p", 0, "v"), -c_time * G)
        bld.add("B", batch, ("lam", 0, "v"), ("p", 0, "gx"), c_grad[..., 0])
        bld.add("B", batch, ("lam", 0, "v"), ("p", 0, "gy"), c_grad[..., 1])
        bld.add("B", batch, ("lam", 0, "v"), ("p", 0, "v"), c_mass)

    y0f = _as_spatial(y0)
    bld.add_initial_load("p", 0, lambda X: ws.rho0_at_start(X) * y0f(X))
    bld.add_mass("Mp", asm, "z", zsp)
    bld.add_mass("Mp", asm, "p", psp)
    bld.add_mass("Md", asm, "lam", lsp)
    return bld.finish(ProblemSpec(kind="heat", G=G, y0=y0))


def _batch_values(fun, batch):
    """A background field on the batch's quadrature grid, (P1, P2, Q, 2).

    fun is None, a callable of (X, t) or a batch evaluator with an
    `on_batch` method.
    """
    if fun is None:
        return None
    if hasattr(fun, "on_batch"):
        return np.asarray(fun.on_batch(batch), dtype=float)
    X = batch.Xq[:, None, :, :]
    t = batch.tq[None, :, :]
    P1, P2 = len(batch.tris), len(batch.slabs)
    return np.broadcast_to(np.asarray(fun(X, t), dtype=float),
                           (P1, P2, len(batch.w), 2))


def _assemble_flow(problem, mesh, spaces, ws, rule):
    """Saddle system of a flow control problem (Stokes or Oseen).

    spaces = (z, p, sigma, lam, mu) with layouts 2/2/1 primal and 2/1 dual.
    The fields are assembled in the weight-absorbing variables
    z -> rho zhat, p -> rho0 phat, sigma -> rho sigmahat, with the matching
    multiplier scalings lam -> rho^{-1} lamhat, mu -> rho1^{-1} muhat.  The
    A-blocks are then plain mass forms and the constraint has bounded,
    balanced coefficients; the raw variables of the formulation as printed
    grow like the (overflowing) weights themselves near the horizon.  Where
    problem.ybar or problem.w is given, the constraint bracket also carries
    the transport terms [grad p (ybar + w) + (grad p)^T ybar] . lam.
    """
    zsp, psp, ssp, lsp, msp = spaces
    _require(zsp, 2, "none", "state-like")
    _require(psp, 2, "zero_lateral", "control-like")
    _require(ssp, 1, "none", "gradient potential")
    _require(lsp, 2, "zero_lateral", "momentum multiplier")
    _require(msp, 1, "none", "divergence multiplier")
    for s in spaces:
        if s.mesh is not mesh:
            raise ValueError("all spaces must live on the assembly mesh")
    rule = rule or QuadratureRule.default(max(s.m for s in spaces),
                                          max(s.n for s in spaces))
    asm = Assembler(mesh, rule)
    bld = _Builder(mesh, [("z", zsp), ("p", psp), ("sigma", ssp)],
                   [("lam", lsp), ("mu", msp)])
    nu = problem.nu
    gops = ("gx", "gy")
    for batch in asm.batches(*spaces):
        om = mesh.omega_flag[batch.tris]
        X = batch.Xq[:, None, :, :]
        t = batch.tq[None, :, :]
        chi, gchi, _ = ws.chi(X)
        tau = ws.T - t
        sq = np.sqrt(tau)
        c_time = tau * sq                              # rho^-1 rho0
        c_pt = -1.5 * sq + chi / sq                    # rho^-1 d_t rho0
        gchi2 = np.einsum("...i,...i->...", gchi, gchi)
        for c in range(2):
            bld.add("A", batch, ("z", c, "v"), ("z", c, "v"), 1.0)
            bld.add("A", batch, ("p", c, "v"), ("p", c, "v"), 1.0,
                    region_mask=om)
            # zhat . lamhat + rho^-1 d_t(rho0 phat) . lamhat
            bld.add("B", batch, ("lam", c, "v"), ("z", c, "v"), 1.0)
            bld.add("B", batch, ("lam", c, "v"), ("p", c, "t"), c_time)
            bld.add("B", batch, ("lam", c, "v"), ("p", c, "v"), c_pt)
            # - rho^-1 grad(rho sigmahat) . lamhat
            bld.add("B", batch, ("lam", c, "v"), ("sigma", 0, gops[c]), -1.0)
            bld.add("B", batch, ("lam", c, "v"), ("sigma", 0, "v"),
                    -gchi[..., c] / tau)
            # - nu grad(rho0 phat) : grad(rho^-1 lamhat), expanded
            bld.add("B", batch, ("lam", c, "gx"), ("p", c, "gx"), -nu * c_time)
            bld.add("B", batch, ("lam", c, "gy"), ("p", c, "gy"), -nu * c_time)
            for d in range(2):
                bld.add("B", batch, ("lam", c, "v"), ("p", c, gops[d]),
                        nu * sq * gchi[..., d])
                bld.add("B", batch, ("lam", c, gops[d]), ("p", c, "v"),
                        -nu * sq * gchi[..., d])
            bld.add("B", batch, ("lam", c, "v"), ("p", c, "v"),
                    nu * gchi2 / sq)
            # divergence rows: rho1^-1 div(rho0 phat) muhat
            bld.add("B", batch, ("mu", 0, "v"), ("p", c, gops[c]), tau)
            bld.add("B", batch, ("mu", 0, "v"), ("p", c, "v"), gchi[..., c])

        yb = _batch_values(problem.ybar, batch)
        wv = _batch_values(problem.w, batch)
        adv = yb.copy() if yb is not None else None
        if wv is not None:
            adv = wv if adv is None else adv + wv
        if adv is None:
            continue
        # grad p (ybar + w) . lam : sum_j adv_j d_j p_i lam_i
        for i in range(2):
            for j in range(2):
                bld.add("B", batch, ("lam", i, "v"), ("p", i, gops[j]),
                        adv[..., j] * c_time)
        # weight-derivative part: sqrt(tau) (grad chi . adv) phat.lamhat
        gdot = np.einsum("...i,...i->...", gchi, adv)
        for i in range(2):
            bld.add("B", batch, ("lam", i, "v"), ("p", i, "v"), sq * gdot)
        if yb is not None:
            # (grad p)^T ybar . lam : sum_j yb_j d_i p_j lam_i
            for i in range(2):
                for j in range(2):
                    bld.add("B", batch, ("lam", i, "v"), ("p", j, gops[i]),
                            yb[..., j] * c_time)
            # sqrt(tau) (phat . ybar) (grad chi . lamhat)
            for i in range(2):
                for j in range(2):
                    bld.add("B", batch, ("lam", i, "v"), ("p", j, "v"),
                            sq * gchi[..., i] * yb[..., j])

    y0f = _as_spatial_vec(problem.y0)
    for c in range(2):
        bld.add_initial_load("p", c, lambda X, c=c: ws.rho0_at_start(X)
                             * np.asarray(y0f(X))[..., c])
    bld.add_mass("Mp", asm, "z", zsp)
    bld.add_mass("Mp", asm, "p", psp)
    bld.add_mass("Mp", asm, "sigma", ssp)
    bld.add_mass("Md", asm, "lam", lsp)
    bld.add_mass("Md", asm, "mu", msp)
    return bld.finish(problem)


def assemble_stokes(mesh, spaces, ws: WeightSet, nu, y0,
                    rule: QuadratureRule = None) -> SaddleSystem:
    """Saddle system of the final mixed Stokes control formulation: the
    Oseen system without a background trajectory (see _assemble_flow).
    Blocks that underflow to exactly 0 near the final time produce no
    non-finite entries."""
    return _assemble_flow(ProblemSpec(kind="stokes", nu=nu, y0=y0),
                          mesh, spaces, ws, rule)


def assemble_oseen(mesh, spaces, ws: WeightSet, nu, ybar, w, u0,
                   rule: QuadratureRule = None) -> SaddleSystem:
    """Saddle system for the Oseen (transport-linearized) control problem.

    The Stokes system plus the transport terms of the background trajectory
    ybar and the transported field w (see _assemble_flow); each is None,
    a callable of (X, t) or a batch evaluator with an `on_batch` method.
    """
    return _assemble_flow(ProblemSpec(kind="oseen", nu=nu, ybar=ybar, w=w,
                                      y0=u0), mesh, spaces, ws, rule)
