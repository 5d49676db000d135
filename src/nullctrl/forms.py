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

from .fem import Assembler, QuadratureRule, TensorFemSpace, tabulate_triangle
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
class SaddleSystem:
    """Sparse block system with field layouts and norm mass matrices."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    L: np.ndarray
    primal: list
    dual: list
    M_primal: sp.csr_matrix
    M_dual: sp.csr_matrix

    @property
    def n_primal(self):
        return self.A.shape[0]

    @property
    def n_dual(self):
        return self.B.shape[0]

    def block(self, name):
        """The named field's block; field names are unique across the
        primal and the dual fields."""
        for blk in self.primal + self.dual:
            if blk.name == name:
                return blk
        raise KeyError(name)

    def expand(self, reduced):
        """Full coefficient vector of every primal field, by name."""
        return {blk.name: blk.expand(reduced) for blk in self.primal}


_ELEMENT = "abq,qi,qj->abij"   # sum_q w_q c_q Op_i Op_j per prism

# a target is converted to CSR in this many row blocks of about equal entries
_ROW_BLOCKS = 8


def row_cuts(counts, nblocks):
    """Bounds of at most nblocks consecutive row ranges with about equal
    entries each, from the entry count of every row; each range holds at
    least one row."""
    starts = np.concatenate([[0], np.cumsum(counts)])
    cuts = np.searchsorted(starts,
                           np.arange(1, nblocks) * starts[-1] / nblocks)
    return np.unique(np.concatenate([[0], cuts, [len(counts)]]))


class _Builder:
    """Collects bilinear terms as element values and DOF maps, then converts
    each target to a CSR matrix over the free DOFs, one row block at a time.

    The system is laid out by `fields` (HEAT_FIELDS or FLOW_FIELDS) on
    `spaces`, one space per row, each checked against its row, and
    integrated by the default rule of their largest degrees.  A target's
    conversion drops its element values, unless the builder is made to
    `keep` the last ones for its next assembly (see `add`).
    """

    def __init__(self, mesh, spaces, fields, keep=False):
        primal, dual = fields
        named = list(zip(primal + dual, spaces, strict=True))
        self.spaces, self.full_off = {}, {}
        self.layouts, self.free, self.n_full = [], [], []
        for rows in (named[:len(primal)], named[len(primal):]):
            layout, idx, full, off = [], [], 0, 0
            for (name, components, constraint), space in rows:
                if (space.components != components
                        or space.constraint != constraint):
                    raise ValueError(f"{name} space must have components="
                                     f"{components}, constraint="
                                     f"{constraint!r}")
                if space.mesh is not mesh:
                    raise ValueError("all spaces must live on the assembly "
                                     "mesh")
                size = len(space.free_idx)
                self.spaces[name] = space
                self.full_off[name] = full
                layout.append(FieldBlock(name, space, off, size))
                idx.append(full + space.free_idx)
                full += space.ndof
                off += size
            self.layouts.append(layout)
            self.free.append(np.concatenate(idx))
            self.n_full.append(full)
        self.asm = Assembler(mesh, QuadratureRule.default(
            max(s.m for s in spaces), max(s.n for s in spaces)))
        self._terms = {"A": [], "B": [], "Mp": [], "Md": []}
        # element values by kernel key: of the current terms, of the last
        # conversion's (kept builder); per target
        self._values = {target: {} for target in self._terms}
        self._kept = {target: {} for target in self._terms}
        self.keep = keep
        self.L_full = np.zeros(self.n_full[0])
        self._paths = {}   # einsum contraction path per operand shapes
        self._maps = {}    # DOF map per (batch, field, component)
        self.kernels = 0   # element kernels computed so far

    def add(self, target, batch, test, trial, cvals, region_mask=None):
        """Add sum_q w_q c_q Op_i Op_j over the batch's prisms.

        test/trial are (name, component, op) triples; cvals is a scalar or an
        array broadcastable to (P1, P2, Q).

        A term whose kernel inputs match a current or kept term's of the
        target takes its element values: equal inputs give equal bits.  The
        inputs are the basis tables, held by the assembler and so known by
        identity, and the exact shape and bytes of CW.
        """
        tname, tcomp, topn = test
        rname, rcomp, ropn = trial
        tspace, rspace = self.spaces[tname], self.spaces[rname]
        Ti = batch.tables(tspace)[topn]
        Tj = batch.tables(rspace)[ropn]
        P1, P2 = len(batch.tris), len(batch.slabs)
        CW = np.broadcast_to(np.asarray(cvals, dtype=float)[...],
                             (P1, P2, len(batch.w))) * batch.w
        if region_mask is not None:
            if not region_mask.any():
                return
            CW = CW * region_mask[:, None, None]
        key = (id(Ti), id(Tj), CW.shape, CW.tobytes())
        values, kept = self._values[target], self._kept[target]
        if key not in values:
            values[key] = (kept.pop(key) if key in kept
                           else self._kernel(CW, Ti, Tj))
        self._terms[target].append((values[key],
                                    self._dofs(batch, tname, tcomp),
                                    self._dofs(batch, rname, rcomp)))

    def _kernel(self, CW, Ti, Tj):
        """Element values sum_q CW_q Ti_qi Tj_qj, (P1, P2, ni, nj)."""
        # the optimal path depends on the operand shapes only, and a given
        # path computes the same bits as optimize=True
        shapes = (CW.shape, Ti.shape, Tj.shape)
        if shapes not in self._paths:
            self._paths[shapes] = np.einsum_path(_ELEMENT, CW, Ti, Tj,
                                                 optimize=True)[0]
        self.kernels += 1
        return np.einsum(_ELEMENT, CW, Ti, Tj, optimize=self._paths[shapes])

    def _dofs(self, batch, name, comp):
        """Full-vector DOFs of the field's component on the batch's prisms,
        (P1, P2, ldof); one array per batch, field and component, shared by
        every term that reads it."""
        key = (batch.key, name, comp)
        if key not in self._maps:
            space = self.spaces[name]
            self._maps[key] = (batch.dofs(space) + comp * space.ndof_scalar
                               + self.full_off[name])
        return self._maps[key]

    def add_initial_datum(self, ws, y0):
        """L = int_Omega rho0(x, 0) y0(x) . p(x, 0) dx on the p field, on the
        assembler's spatial quadrature points; y0 is a constant of p's shape
        (a scalar or a 2-vector) or a callable of the points X (..., 2)."""
        asm, spc = self.asm, self.spaces["p"]
        X, comps = asm.Xq_space, spc.components
        self.L_full = np.zeros(self.n_full[0])
        y = np.asarray(y0(X) if callable(y0) else y0, dtype=float)
        shape = X.shape[:-1] + ((2,) if comps == 2 else ())
        y = np.broadcast_to(y, shape).reshape(X.shape[:-1] + (comps,))
        rho0 = ws.rho0_at_start(X)
        vals, _ = tabulate_triangle(spc.m, asm.rule.tri_points)
        for c in range(comps):
            f = rho0 * y[..., c] * asm.rule.tri_weights[None, :]
            contrib = np.einsum("tq,qi,t->ti", f, vals, asm.detJ)
            tgt = self.L_full[self.full_off["p"] + c * spc.ndof_scalar:]
            np.add.at(tgt, spc.space_conn, contrib)   # time level 0 only

    def _matrix(self, target, shape, rows_idx, cols_idx):
        """The target's terms as one CSR matrix, reduced to the free DOFs
        rows_idx and cols_idx (both ascending).

        The matrix is converted one block of consecutive free rows at a time
        (`row_cuts`), so COO triplets never exist for more than one block.
        A block takes the entries of its rows, term by term in the order the
        terms were added and in (prism, i, j) order within a term, into
        arrays sized once for the block; consecutive terms with the same
        test DOFs share their row order and index arrays.  scipy's `tocsr`
        keeps each row's entries in that order, then sorts each row's column
        indices, with an unstable sort, before summing duplicates.  So a row
        sees the same sequence of entries whatever the cuts, and the bits do
        not depend on them; but adding or reordering terms can change the
        rounding of other entries in the same row.  The target starts over
        with no terms; a kept builder keeps their element values.
        """
        terms, self._terms[target] = self._terms[target], []
        self._kept[target] = self._values[target] if self.keep else {}
        self._values[target] = {}
        n_rows = len(rows_idx)
        if not terms or not n_rows:
            return sp.csr_matrix((n_rows, len(cols_idx)))
        total = sum(E.size for E, _, _ in terms)
        idx = (np.int32 if max(max(shape), total) <= np.iinfo(np.int32).max
               else np.int64)
        groups = []   # (test DOFs, element values, trial DOFs) of each run
        for E, Dt, Dr in terms:
            if (groups and groups[-1][1][0].shape == E.shape
                    and np.array_equal(groups[-1][0], Dt)):
                groups[-1][1].append(E)
                groups[-1][2].append(Dr)
            else:
                groups.append((Dt, [E], [Dr]))
        terms.clear()
        reduced = np.full(shape[0], -1, dtype=idx)   # -1 on fixed rows
        reduced[rows_idx] = np.arange(n_rows)
        counts = np.zeros(n_rows, dtype=np.int64)
        for k, (Dt, Es, Drs) in enumerate(groups):
            rq = reduced[Dt].ravel()
            counts += (np.bincount(rq[rq >= 0], minlength=n_rows)
                       * (len(Es) * Es[0].shape[3]))
            groups[k] = (rq, Es, Drs)
        bounds = row_cuts(counts, _ROW_BLOCKS)
        sizes = np.diff(np.concatenate([[0], np.cumsum(counts)])[bounds])
        for k, (rq, Es, Drs) in enumerate(groups):
            # each test row's block + 1 (0 on fixed rows); the stable sort
            # keeps every block's rows in their (prism, i) order
            block = np.searchsorted(bounds, rq, side="right")
            order = np.argsort(block, kind="stable").astype(idx)
            ends = np.cumsum(np.bincount(block, minlength=len(bounds)))
            ni, nj = Es[0].shape[2:]
            for t, E in enumerate(Es):   # as rows of nj values, for `take`
                Es[t] = np.ascontiguousarray(E).reshape(-1, nj)
            Dr = np.stack(Drs).astype(idx).reshape(len(Es), -1, nj)
            groups[k] = (Es, Dr, order, rq[order], order // ni, ends.tolist())
        blocks = []
        for j, (q0, q1) in enumerate(zip(bounds[:-1], bounds[1:])):
            data = np.empty(sizes[j])
            rows = np.empty(sizes[j], dtype=idx)
            cols = np.empty(sizes[j], dtype=idx)
            start = 0
            for Es, Dr, order, rq, prism, ends in groups:
                lo, hi = ends[j], ends[j + 1]
                part = (len(Es), hi - lo, Dr.shape[2])
                seg = slice(start, start + part[0] * part[1] * part[2])
                values = data[seg].reshape(part)
                for t, E in enumerate(Es):
                    E.take(order[lo:hi], axis=0, out=values[t])
                Dr.take(prism[lo:hi], axis=1, out=cols[seg].reshape(part))
                np.subtract(rq[lo:hi, None], q0, out=rows[seg].reshape(part))
                start = seg.stop
            M = sp.coo_matrix((data, (rows, cols)), shape=(q1 - q0, shape[1]))
            del data, rows, cols
            M = M.tocsr()[:, cols_idx]
            M.sum_duplicates()
            blocks.append(M)
        groups.clear()   # the element values, before the blocks are stacked
        return sp.vstack(blocks, format="csr")

    def finish(self) -> SaddleSystem:
        """The system.  A and B are converted first; then the L2 mass of
        every primal field is added to Mp and converted, and that of every
        dual field to Md, so no two targets' element values coexist."""
        (n_p, n_d), (pfree, dfree) = self.n_full, self.free
        A = self._matrix("A", (n_p, n_p), pfree, pfree)
        B = self._matrix("B", (n_d, n_p), dfree, pfree)
        masses = []
        for target, layout, n, rows in (("Mp", self.layouts[0], n_p, pfree),
                                        ("Md", self.layouts[1], n_d, dfree)):
            for blk in layout:
                for batch in self.asm.batches():
                    for c in range(blk.space.components):
                        self.add(target, batch, (blk.name, c, "v"),
                                 (blk.name, c, "v"), 1.0)
            masses.append(self._matrix(target, (n, n), rows, rows))
        return SaddleSystem(A=A, B=B, L=self.L_full[pfree],
                            primal=self.layouts[0], dual=self.layouts[1],
                            M_primal=masses[0], M_dual=masses[1])


# (name, components, constraint) of each primal field, then of each dual
# field; the assembly takes one space per row, in this order
HEAT_FIELDS = ((("z", 1, "none"), ("p", 1, "zero_lateral")),
               (("lam", 1, "zero_lateral_final"),))
FLOW_FIELDS = ((("z", 2, "none"), ("p", 2, "zero_lateral"),
                ("sigma", 1, "none")),
               (("lam", 2, "zero_lateral"), ("mu", 1, "none")))


def assemble_heat(mesh, spaces, ws: WeightSet, G, y0) -> SaddleSystem:
    """Saddle system of the normalized heat control formulation.

    spaces = one space per row of HEAT_FIELDS (z, p, lam), on the mesh.
    """
    bld = _Builder(mesh, spaces, HEAT_FIELDS)
    G = float(G)

    for batch in bld.asm.batches():
        om = mesh.omega_flag[batch.tris]
        c_mass, c_grad, c_time = ws.hatted_coeff_arrays(batch.X, batch.t)
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

    bld.add_initial_datum(ws, y0)
    return bld.finish()


def _batch_values(fun, batch):
    """A background field on the batch's quadrature grid, (P1, P2, Q, 2).

    fun is None, a callable of (X, t) or a batch evaluator with an
    `on_batch` method.
    """
    if fun is None:
        return None
    if hasattr(fun, "on_batch"):
        return np.asarray(fun.on_batch(batch), dtype=float)
    P1, P2 = len(batch.tris), len(batch.slabs)
    return np.broadcast_to(np.asarray(fun(batch.X, batch.t), dtype=float),
                           (P1, P2, len(batch.w), 2))


def _flow_batch(bld, batch, ws, nu, ybar, w):
    """Add one batch's terms of a flow system (see _assemble_flow) to bld:
    per component the A terms and the Stokes terms of B, then the transport
    terms in adv = ybar + w, then the terms in ybar alone."""
    chi, gchi, _ = ws.chi(batch.X)
    tau = ws.T - batch.t
    sq = np.sqrt(tau)
    c_time = tau * sq                                  # rho^-1 rho0
    c_pt = -1.5 * sq + chi / sq                        # rho^-1 d_t rho0
    gchi2 = np.einsum("...i,...i->...", gchi, gchi)
    om = bld.asm.mesh.omega_flag[batch.tris]
    gops = ("gx", "gy")
    for c in range(2):
        bld.add("A", batch, ("z", c, "v"), ("z", c, "v"), 1.0)
        bld.add("A", batch, ("p", c, "v"), ("p", c, "v"), 1.0, region_mask=om)
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
        bld.add("B", batch, ("lam", c, "v"), ("p", c, "v"), nu * gchi2 / sq)
        # divergence rows: rho1^-1 div(rho0 phat) muhat
        bld.add("B", batch, ("mu", 0, "v"), ("p", c, gops[c]), tau)
        bld.add("B", batch, ("mu", 0, "v"), ("p", c, "v"), gchi[..., c])

    yb = _batch_values(ybar, batch)
    wv = _batch_values(w, batch)
    if yb is None and wv is None:
        return
    adv = yb if wv is None else wv if yb is None else yb + wv
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


class OseenFixedPart:
    """The builder of a fixed point's Oseen systems, held across its passes
    by `assemble_oseen`: its quadrature grid, basis tables, contraction
    paths, DOF maps and the element values of its last assembly."""

    def __init__(self):
        self._problem = None   # (nu, mesh, spaces, ws, ybar, y0)
        self._builder = None
        self._start = 0        # the builder's kernels before the last assembly

    @property
    def kernels(self):
        """Element kernels computed by the last assembly."""
        return self._builder.kernels - self._start if self._builder else 0

    def builder(self, nu, problem):
        """The builder for a new assembly, made on first use; ValueError
        for another nu or problem (by identity)."""
        if self._builder is None:
            mesh, spaces = problem[:2]
            self._problem = (nu,) + problem
            self._builder = _Builder(mesh, spaces, FLOW_FIELDS, keep=True)
        elif nu != self._problem[0] or any(
                a is not b for a, b in zip(problem, self._problem[1:])):
            raise ValueError("the fixed part was held for another problem")
        self._start = self._builder.kernels
        return self._builder


def _assemble_flow(mesh, spaces, ws, nu, y0, ybar, w, fixed=None):
    """Saddle system of a flow control problem (Stokes or Oseen).

    spaces = one space per row of FLOW_FIELDS (z, p, sigma, lam, mu).
    The fields are assembled in the weight-absorbing variables
    z -> rho zhat, p -> rho0 phat, sigma -> rho sigmahat, with the matching
    multiplier scalings lam -> rho^{-1} lamhat, mu -> rho1^{-1} muhat.  The
    A-blocks are then plain mass forms and the constraint has bounded,
    balanced coefficients; the raw variables of the formulation as printed
    grow like the (overflowing) weights themselves near the horizon.  Where
    ybar or w is given, the constraint bracket also carries the transport
    terms [grad p (ybar + w) + (grad p)^T ybar] . lam.  `fixed` is an
    `OseenFixedPart` whose builder assembles the system.
    """
    if not nu > 0:
        raise ValueError("flow problems need positive viscosity")
    if fixed is None:
        bld = _Builder(mesh, spaces, FLOW_FIELDS)
    else:
        bld = fixed.builder(nu, (mesh, spaces, ws, ybar, y0))
    for batch in bld.asm.batches():
        _flow_batch(bld, batch, ws, nu, ybar, w)
    bld.add_initial_datum(ws, y0)
    return bld.finish()


def assemble_stokes(mesh, spaces, ws: WeightSet, nu, y0) -> SaddleSystem:
    """Saddle system of the final mixed Stokes control formulation: the
    Oseen system without a background trajectory (see _assemble_flow).
    Blocks that underflow to exactly 0 near the final time produce no
    non-finite entries."""
    return _assemble_flow(mesh, spaces, ws, nu, y0, None, None)


def assemble_oseen(mesh, spaces, ws: WeightSet, nu, ybar, w, u0,
                   fixed: OseenFixedPart = None) -> SaddleSystem:
    """Saddle system for the Oseen (transport-linearized) control problem.

    The Stokes system plus the transport terms of the background trajectory
    ybar and the transported field w (see _assemble_flow); each is None,
    a callable of (X, t) or a batch evaluator with an `on_batch` method.

    The systems of a fixed point differ in w only.  It passes one
    `OseenFixedPart` to all its assemblies, which then run on one builder:
    a later one computes only the element kernels of the terms in w and
    reuses the others of the assembly before it, and its system is bit for
    bit that of an assembly without `fixed`.  A later call must pass the
    first one's objects (the same nu); otherwise it raises ValueError.
    """
    return _assemble_flow(mesh, spaces, ws, nu, u0, ybar, w, fixed)
