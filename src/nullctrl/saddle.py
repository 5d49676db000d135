"""Solvers for the assembled saddle systems, on one equilibrated core.

All four solvers (the primal-dual iteration `arrow_hurwicz`, the
least-squares `lsq_solve`, the direct `direct_solve` and the factorized
`KktSolver`) work on the same equilibrated system (`equilibrated`): its
scalings, its scaled A, B, L, and the two conversions of a start into that
basis and of a solution back to the assembled (x, lam).  Every solve's
accuracy is one number, the relative KKT residual in that basis
(`kkt_residual`).

The iteration needs matrix-vector products only; nothing is factorized.
`KktSolver` factorizes the regularized KKT matrix of one system exactly once
and refines against that same system; `direct_solve` is the oracle and
fallback for small systems.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import SaddleSystem, row_cuts


class SolverDiverged(RuntimeError):
    """Raised when an iterate stops being finite (step sizes too large)."""

    def __init__(self, iteration, log):
        super().__init__(f"iteration diverged at step {iteration}; "
                         "reduce the primal/dual step sizes")
        self.iteration = iteration
        self.log = log


@dataclass(frozen=True)
class AHParams:
    """Step sizes and stopping control for the primal-dual iteration.

    The iteration runs on the equilibrated bases (primal basis functions
    of unit L2 norm, constraint rows of unit 2-norm, `equilibrated`): a
    diagonal rescaling that leaves every function-space quantity unchanged
    and inverts nothing, but moves the iteration's stable step sizes to an
    O(1), mesh-independent range.  The raw assembled scaling is so stiff
    (constraint rows grow like the inverse square root of the time to the
    horizon) that the plain iteration stalls at any step choice.

    Equilibration does not bound |A_eq|, so no fixed step suits every
    system.  The iteration needs r < 2/lambda_max(A_eq) and a coupled bound
    on r^2 s |B_eq|^2: when A_eq = a I the stable range is exactly r a < 2
    and r^2 s |B_eq|^2 < 2 (2 - r a).  The defaults r, s were calibrated on
    the assembled presets (on heat-sec26 lambda_max(A_eq) = 2.57 at the
    5x5x8 and the 10x10x16 mesh, so r < 0.78).
    The given r, s are used as they are; outside the stable range the
    iterates blow up and arrow_hurwicz raises SolverDiverged.
    """

    r: float = 0.5
    s: float = 1.0
    tol: float = 1e-5
    max_iter: int = 500

    def __post_init__(self):
        if self.r <= 0 or self.s <= 0 or self.tol <= 0 or self.max_iter < 1:
            raise ValueError("need r > 0, s > 0, tol > 0, max_iter >= 1")


@dataclass
class IterationLog:
    """Per-iteration relative errors and whether the stopping test passed."""

    iters: list = field(default_factory=list)
    rel_err1: list = field(default_factory=list)
    rel_err2: list = field(default_factory=list)
    converged: bool = False


@dataclass
class Equilibrated:
    """A system in the equilibrated basis: x = dp * x_eq, lam = dl * lam_eq.

    A, B and L are the scaled operators D_p A D_p, D_l B D_p and D_p L.
    """

    system: SaddleSystem
    dp: np.ndarray
    dl: np.ndarray
    A: sp.csr_matrix
    B: sp.csr_matrix
    L: np.ndarray

    def to_basis(self, start):
        """start=(x, lam) in the assembled basis -> (x_eq, lam_eq), or None."""
        if start is None:
            return None
        return (np.asarray(start[0], dtype=float) / self.dp,
                np.asarray(start[1], dtype=float) / self.dl)

    def from_basis(self, x, lam):
        """Equilibrated (x_eq, lam_eq) -> the assembled (x, lam)."""
        return self.dp * x, self.dl * lam


def equilibrated(system: SaddleSystem) -> Equilibrated:
    """The system in its equilibrated basis (a diagonal renormalization).

    dp makes each primal basis function unit in L2(Q_T); dl then makes each
    constraint row of B unit in the Euclidean norm, except that rows whose
    norm is far below the median (near-dependent constraints such as
    slice-constant divergence pairings) are left small rather than amplified
    into unreachable dual directions.  Pure rescaling: the underlying
    Galerkin problem and its solution functions are untouched.
    """
    mass_diag = np.maximum(system.M_primal.diagonal(), 1e-300)
    dp = 1.0 / np.sqrt(mass_diag)
    Bp = (system.B @ sp.diags(dp)).tocsr()
    rn = np.sqrt(np.asarray(Bp.multiply(Bp).sum(axis=1)).ravel())
    med = np.median(rn[rn > 0]) if np.any(rn > 0) else 1.0
    dl = 1.0 / np.maximum(rn, 0.05 * med)
    Dp, Dl = sp.diags(dp), sp.diags(dl)
    return Equilibrated(system, dp, dl, (Dp @ system.A @ Dp).tocsr(),
                        (Dl @ system.B @ Dp).tocsr(), dp * system.L)


def _residual(eq: Equilibrated, sol):
    """The KKT residual [L; 0] - K sol of the stacked equilibrated iterate
    sol = [x; lam], K = [[A, B^T], [B, 0]], and its 2-norm relative to
    |[L; 0]| (0 for a zero load and a zero iterate)."""
    n, m = eq.A.shape[0], eq.B.shape[0]
    rhs = np.concatenate([eq.L, np.zeros(m)])
    r = rhs - np.concatenate([eq.A @ sol[:n] + eq.B.T @ sol[n:],
                              eq.B @ sol[:n]])
    return r, np.linalg.norm(r) / (np.linalg.norm(rhs) + 1e-300)


def kkt_residual(system: SaddleSystem, x, lam) -> float:
    """|[L; 0] - K [x; lam]| / |[L; 0]| in the equilibrated basis, for the
    assembled (x, lam): the accuracy every saddle solve reports.  The
    equilibration makes it independent of the scaling of the basis
    functions and of the constraint rows."""
    eq = equilibrated(system)
    return float(_residual(eq, np.concatenate(eq.to_basis((x, lam))))[1])


def _eq_mass(M, d):
    """Mass matrix of the norm test in the equilibrated basis, D M D."""
    return (sp.diags(d) @ M @ sp.diags(d)).tocsr()


def _rows_equal(P: sp.csr_matrix, Q: sp.csr_matrix):
    """Mask of the rows of P stored exactly as in Q: the same column
    indices and the same data bits in the same order, so that their
    products with any vector are bitwise equal."""
    lp, lq = np.diff(P.indptr), np.diff(Q.indptr)
    same = lp == lq
    in_p, in_q = np.repeat(same, lp), np.repeat(same, lq)
    differs = ((P.indices[in_p] != Q.indices[in_q])
               | (P.data[in_p].view(np.int64)
                  != Q.data[in_q].view(np.int64)))
    same[np.repeat(np.flatnonzero(same), lp[same])[differs]] = False
    return same


def _stacked_operators(eq: Equilibrated):
    """KX = [A; B; M_p'] and KL = [B^T; M_d] in the equilibrated basis, and
    the index `mass` with (KX @ x)[mass] = M_p @ x.

    M_p' holds only the rows of M_p that A does not store identically (A
    shares every z row and the p rows supported in omega); the mass product
    of the shared rows is read from A's part, bit for bit.
    """
    Mp = _eq_mass(eq.system.M_primal, eq.dp)
    own = np.flatnonzero(~_rows_equal(Mp, eq.A))
    n, m = eq.A.shape[0], eq.B.shape[0]
    mass = np.arange(n)
    mass[own] = n + m + np.arange(len(own))
    KX = sp.vstack([eq.A, eq.B, Mp[own]], format="csr")
    KL = sp.vstack([eq.B.T.tocsr(), _eq_mass(eq.system.M_dual, eq.dl)],
                   format="csr")
    return KX, KL, mass


def _rel_increment(new, old, Mnew, Mold):
    """||new - old||_M / ||new||_M from the products M new and M old,
    guarded near zero."""
    num = np.sqrt(max((new - old) @ (Mnew - Mold), 0.0))
    den = np.sqrt(max(new @ Mnew, 0.0))
    if den < 1e-14:
        return num
    return num / den


def arrow_hurwicz(system: SaddleSystem, params: AHParams = AHParams(),
                  start=None):
    """Iterate the primal-dual scheme, by default from the zero guess.

    x^{k+1} = x^k - r (A x^k - L + B^T lam^k)
    lam^{k+1} = lam^k + r s B x^{k+1}

    Stops when both relative errors (L2(Q_T) mass-matrix norms of the
    increments over the iterates) fall below tol, or at max_iter.
    start=(x0, lam0) warm-starts the iteration (used by the outer fixed-point
    loop); the returned iterate and log always refer to the original
    assembled scaling.

    Each step makes two sparse products: KX = [A; B; M_p] with the new
    primal iterate and KL = [B^T; M_d] with the new dual one (all in the
    equilibrated basis; KX leaves out the rows of M_p that A stores
    identically, `_stacked_operators`).  They give B x^{k+1} for the dual
    update, A x and B^T lam for the next step and the mass products of the
    stopping test.
    """
    eq = equilibrated(system)
    L = eq.L
    n, m = system.n_primal, system.n_dual
    KX, KL, mass = _stacked_operators(eq)

    if start is None:
        x, lam = np.zeros(n), np.zeros(m)
    else:
        x, lam = eq.to_basis(start)
    log = IterationLog()
    kx, kl = KX @ x, KL @ lam
    mx = kx[mass]
    # divergence is reported by SolverDiverged, not by floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, params.max_iter + 1):
            x_new = x - params.r * (kx[:n] - L + kl[:n])
            kx_new = KX @ x_new
            lam_new = lam + params.r * params.s * kx_new[n:n + m]
            if not (np.all(np.isfinite(x_new))
                    and np.all(np.isfinite(lam_new))):
                raise SolverDiverged(k, log)
            if k % 64 == 0 and max(np.abs(x_new).max(),
                                   np.abs(lam_new).max()) > 1e130:
                raise SolverDiverged(k, log)   # slow exponential blow-up
            kl_new = KL @ lam_new
            mx_new = kx_new[mass]
            e1 = _rel_increment(x_new, x, mx_new, mx)
            e2 = _rel_increment(lam_new, lam, kl_new[n:], kl[n:])
            log.iters.append(k)
            log.rel_err1.append(e1)
            log.rel_err2.append(e2)
            x, lam, kx, kl, mx = x_new, lam_new, kx_new, kl_new, mx_new
            if e1 <= params.tol and e2 <= params.tol:
                log.converged = True
                break
    x, lam = eq.from_basis(x, lam)
    return x, lam, log


_MAX_REFINE = 40
_EPS = 1e-8   # KktSolver's regularization
KKT_TOL = 1e-9   # relative KKT residual that certifies a direct solve


def _regularized_kkt(eq: Equilibrated):
    """The quasi-definite [[A + _EPS I, B^T], [B, -_EPS I]] of the
    equilibrated system, as CSC."""
    n, m = eq.A.shape[0], eq.B.shape[0]
    return sp.bmat([[eq.A + _EPS * sp.identity(n), eq.B.T],
                    [eq.B, (-_EPS) * sp.identity(m)]], format="csc")


class KktSolver:
    """One system's regularized KKT matrix, factorized once, with iterative
    refinement against that system.

    The factorization is of the equilibrated, quasi-definite regularization
    [[A + _EPS I, B^T], [B, -_EPS I]]; iterative refinement against the
    true matrix removes the O(_EPS |x|) bias when the system has a solution,
    singular or not.  When it has none (the load has a component outside
    the range of the KKT matrix, as on the flow systems) refinement cannot
    remove that component: the residual stays flat above it while the
    iterate grows along the kernel, and resolve returns the last iterate.

    The matrix is factorized in the system's own order, without pivoting.
    Each scalar component is numbered time-level-major and the components
    follow one another, primal fields before dual ones, so every block of
    the matrix is banded in space-time.  A symmetric quasi-definite matrix
    (positive definite top-left block, negative definite bottom-right one)
    has an LDL^T factorization under every symmetric permutation, so no
    row exchange is needed (Vanderbei 1995; its stability: Gill, Saunders
    & Shinnerl 1996).  Fields couple about one field-length off the
    diagonal, so L+U fills a near-constant share of a dense matrix: 12-17%
    on the flow systems, where SuperLU's COLAMD order with partial pivoting
    fills 21-47% (Taylor-Green 3x3x4: 0.95M against 2.56M entries; at the
    preset's 6x6x10, 65M against 115M).  On the heat systems' three fields
    it fills 26-29% against COLAMD's 14-20%.  A + _EPS I has pivots as
    small as _EPS (A is zero on p outside the control region and on
    sigma), so U's entries grow to about 1/_EPS and one solve's backward
    error is about 1e-14 where pivoting gives 5e-17; refinement against
    the true matrix absorbs it.
    """

    def __init__(self, system: SaddleSystem):
        self.eq = equilibrated(system)
        self.lu = spla.splu(_regularized_kkt(self.eq), permc_spec="NATURAL",
                            diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))

    def resolve(self, start=None, tol=KKT_TOL):
        """Refine from start (zero by default).

        Stops when the relative KKT residual (`_residual`) is at most tol
        ("converged"), when it is not finite or exceeds twice the best
        residual so far ("diverging"), or after _MAX_REFINE steps
        ("max_steps"); a residual that stays flat above tol runs all
        _MAX_REFINE steps.  Returns (x, lam, relative residual, refinement
        steps taken, stop reason)."""
        eq = self.eq
        n, m = eq.A.shape[0], eq.B.shape[0]
        sol = (np.zeros(n + m) if start is None
               else np.concatenate(eq.to_basis(start)))
        best = np.inf
        for steps in range(_MAX_REFINE + 1):
            r, rn = _residual(eq, sol)
            if rn <= tol:
                stop = "converged"
                break
            if not np.isfinite(rn) or rn > 2.0 * best:
                stop = "diverging"
                break
            if steps == _MAX_REFINE:
                stop = "max_steps"
                break
            best = min(best, rn)
            sol = sol + self.lu.solve(r)
        x, lam = eq.from_basis(sol[:n], sol[n:])
        return x, lam, rn, steps, stop


def _available_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(M: sp.csr_matrix, nblocks: int):
    """At most nblocks zero-copy CSR views of consecutive row ranges of M,
    with about equal nonzeros each; each range holds at least one row.

    A view shares M's data and indices and has its own rebased indptr.
    """
    bounds = row_cuts(np.diff(M.indptr), nblocks)
    blocks = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        s, e = M.indptr[r0], M.indptr[r1]
        # the arrays are set after construction: the constructor copies a
        # view that is less than half of its base array
        block = sp.csr_matrix((r1 - r0, M.shape[1]), dtype=M.dtype)
        block.data, block.indices = M.data[s:e], M.indices[s:e]
        block.indptr = M.indptr[r0:r1 + 1] - s
        blocks.append(block)
    return blocks


def _row_split_matvec(pool, M: sp.csr_matrix, nblocks: int):
    """v -> M @ v from the row blocks of `_row_blocks`: the calling thread
    multiplies the first block while the pool multiplies the others
    (scipy's sparse kernels release the GIL while they compute), and the
    parts are joined in block order.

    Every output row is still summed from 0 over its stored columns in
    ascending order, so the result is bit-identical to M @ v.  With one
    block this is M's own product and no thread starts.
    """
    blocks = _row_blocks(M, nblocks)
    if len(blocks) <= 1:
        return M.__matmul__
    first, rest = blocks[0], blocks[1:]

    def matvec(v):
        parts = [pool.submit(block.__matmul__, v) for block in rest]
        return np.concatenate([first @ v] + [part.result() for part in parts])

    return matvec


_FILL_BLOCKS = 16   # row ranges of `_augmented_operators`' scatter


def _augmented_operators(eq: Equilibrated):
    """LSMR's augmented KKT matrix K = [[A + B^T B, B^T], [B, 0]] and its
    transpose K^T, both as CSR, in the equilibrated basis.

    K holds the bits of the stacked sp.vstack/sp.hstack matrix, entry for
    entry and in the same order within each row, and K^T those of
    K.T.tocsr().  The sum A + B^T B is the stacking's own, but B^T B is
    converted to CSR, as the sum would, before the sum is made, so that its
    CSC product is freed first.  K's index arrays are then sized once and
    filled: every top row is the row of A + B^T B followed by the row of
    B^T, and the bottom rows are B's.  The scatter runs on _FILL_BLOCKS row
    ranges of about equal entries, so no position array is longer than a
    range.  The sum is released before K^T is built, so the construction
    holds little more than K and K^T at any time.
    """
    A, B = eq.A, eq.B
    m, n = B.shape
    C = A + (B.T @ B).tocsr()
    C.sort_indices()   # the stacking sorts the row entries of the top rows
    BT = B.T.tocsr()
    nnz = C.nnz + BT.nnz + B.nnz
    idx = np.int32 if max(nnz, n + m) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(n + m + 1, dtype=idx)
    np.add(C.indptr, BT.indptr, out=indptr[:n + 1], dtype=idx)
    indptr[n + 1:] = indptr[n] + B.indptr[1:]
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    indices[indptr[n]:] = B.indices
    data[indptr[n]:] = B.data
    # entry s of row i goes to s + BT.indptr[i] (C) or s + C.indptr[i + 1]
    # (B^T, whose columns are shifted by n)
    for part, offset, shift in ((C, BT.indptr[:-1], 0),
                                (BT, C.indptr[1:], n)):
        counts = np.diff(part.indptr)
        bounds = row_cuts(counts, _FILL_BLOCKS)
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            s0, s1 = part.indptr[r0], part.indptr[r1]
            at = np.repeat(offset[r0:r1].astype(np.intp), counts[r0:r1])
            at += np.arange(s0, s1)
            data[at] = part.data[s0:s1]
            indices[at] = part.indices[s0:s1] + shift
    del C, BT
    K = sp.csr_matrix((data, indices, indptr), shape=(n + m, n + m))
    return K, K.T.tocsr()


def lsq_solve(system: SaddleSystem, start=None, tol=1e-12, max_iter=40000):
    """Minimal-norm least-squares solve of the (augmented) KKT system.

    The iteration runs on the equilibrated basis with the constraint block
    augmented into the primal one (same solution set: the constraint
    vanishes at any solution); this is the workhorse for the flow systems,
    whose KKT matrices are numerically singular, and it supports warm starts
    across outer fixed-point iterations.  The operator is the augmented
    matrix K = [[A + B^T B, B^T], [B, 0]] with its CSR transpose, written
    straight into their arrays (`_augmented_operators`); the two are the
    solve's memory floor.  LSMR's two products per iteration run on row
    blocks of them (`_row_split_matvec`) across the available CPUs, with
    the bits of the serial products: K^T's rows are summed in the same
    order as the CSC product K.T @ u.  The helper threads belong to this
    solve and are joined before it returns.  Returns (x, lam, info_dict)
    with LSMR's iterations and its stop code istop.
    """
    eq = equilibrated(system)
    n, mdim = system.n_primal, system.n_dual
    rhs = np.concatenate([eq.L, np.zeros(mdim)])
    if np.abs(rhs).max() == 0.0:
        # LSMR's own stop code for a zero right-hand side: x = 0 solves it
        return np.zeros(n), np.zeros(mdim), {"iterations": 0, "istop": 0}
    x0 = None if start is None else np.concatenate(eq.to_basis(start))
    K, KT = _augmented_operators(eq)
    cpus = _available_cpus()
    # the calling thread takes part in each product, so one CPU is left to it
    with ThreadPoolExecutor(max_workers=max(cpus - 1, 1),
                            thread_name_prefix="nullctrl-matvec") as pool:
        op = spla.LinearOperator(K.shape, dtype=K.dtype,
                                 matvec=_row_split_matvec(pool, K, cpus),
                                 rmatvec=_row_split_matvec(pool, KT, cpus))
        out = spla.lsmr(op, rhs, atol=tol, btol=tol, maxiter=max_iter, x0=x0)
    sol = out[0]
    x, lam = eq.from_basis(sol[:n], sol[n:])
    return x, lam, {"iterations": int(out[2]), "istop": int(out[1])}


_DIRECT_MAX_DIM = 120_000   # largest n + m `direct_solve` factorizes


def direct_solve(system: SaddleSystem):
    """Factorize the full symmetric indefinite KKT matrix (oracle/fallback).

    The factorization runs on the equilibrated basis (better pivots).  The
    pipeline uses it for the heat systems only; the flow systems are always
    numerically singular and go to `KktSolver` directly.  An exact solve
    whose primal or constraint part of the KKT residual (`_residual`)
    exceeds 1e-8 (|L| + 1) counts as numerically singular: it falls back to
    one `KktSolver` factorization of the quasi-definite regularization
    ([A B^T; B -delta I]) with refinement, and is flagged.  The fallback
    solves a singular system that has a solution; on one that has none it
    returns `KktSolver.resolve`'s last iterate, whose residual stays above
    its tolerance.  Returns (x, lam, flagged).
    """
    n, mdim = system.n_primal, system.n_dual
    if n + mdim > _DIRECT_MAX_DIM:
        raise ValueError(f"system of dimension {n + mdim} exceeds the "
                         f"direct-solve guard {_DIRECT_MAX_DIM}")
    if np.abs(system.L).max() == 0.0:
        return np.zeros(n), np.zeros(mdim), False
    eq = equilibrated(system)
    rhs = np.concatenate([eq.L, np.zeros(mdim)])
    scale = 1e-8 * (np.linalg.norm(eq.L) + 1.0)

    def attempt_exact():
        K = sp.bmat([[eq.A, eq.B.T], [eq.B, None]], format="csc")
        try:
            sol = spla.spsolve(K, rhs)
        except RuntimeError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        r = _residual(eq, sol)[0]
        if max(np.linalg.norm(r[:n]), np.linalg.norm(r[n:])) > scale:
            return None
        return sol

    sol = attempt_exact()
    if sol is not None:
        x, lam = eq.from_basis(sol[:n], sol[n:])
        return x, lam, False
    # numerically singular: regularized factorization with refinement, flagged
    x, lam, *_ = KktSolver(system).resolve()
    return x, lam, True
