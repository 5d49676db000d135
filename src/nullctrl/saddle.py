"""Solvers for the assembled saddle systems, on one equilibrated core.

All four solvers (the primal-dual iteration `arrow_hurwicz`, the
least-squares `lsq_solve`, the direct `direct_solve` and the factorized
`KktSolver`) work on the same equilibrated system (`equilibrated`): its
scalings, its scaled A, B, L, and the two conversions of a start into that
basis and of a solution back to the assembled, projected (x, lam).

The iteration needs matrix-vector products only; nothing is factorized.
`KktSolver` factorizes the regularized KKT matrix of one system exactly once
and refines against that same system; `direct_solve` is the oracle and
fallback for small systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import SaddleSystem


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

    equilibrate renormalizes the discrete bases before iterating (primal
    basis functions to unit L2 norm, constraint rows to unit 2-norm): a
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
    equilibrate: bool = True

    def __post_init__(self):
        if self.r <= 0 or self.s <= 0 or self.tol <= 0 or self.max_iter < 1:
            raise ValueError("need r > 0, s > 0, tol > 0, max_iter >= 1")


@dataclass
class IterationLog:
    """Per-iteration relative errors plus final residual norms."""

    iters: list = field(default_factory=list)
    rel_err1: list = field(default_factory=list)
    rel_err2: list = field(default_factory=list)
    converged: bool = False
    residual_primal: float = np.nan   # |A x + B^T lam - L|
    residual_constraint: float = np.nan   # |B x|

    def rows(self):
        return zip(self.iters, self.rel_err1, self.rel_err2)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,rel_err1,rel_err2\n")
            for k, e1, e2 in self.rows():
                fh.write(f"{k},{e1:.12e},{e2:.12e}\n")


def _equilibration(system):
    """Diagonal basis renormalization (dp, dl) for the iteration.

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
    return dp, dl


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
        """Equilibrated (x_eq, lam_eq) -> the assembled, projected (x, lam)."""
        return (self.system.project_primal(self.dp * x),
                self.system.project_dual(self.dl * lam))


def equilibrated(system: SaddleSystem, equilibrate=True) -> Equilibrated:
    """The system in its equilibrated basis (unit scalings if not
    equilibrate)."""
    if equilibrate:
        dp, dl = _equilibration(system)
    else:
        dp, dl = np.ones(system.n_primal), np.ones(system.n_dual)
    Dp, Dl = sp.diags(dp), sp.diags(dl)
    return Equilibrated(system, dp, dl, (Dp @ system.A @ Dp).tocsr(),
                        (Dl @ system.B @ Dp).tocsr(), dp * system.L)


def _eq_mass(M, d):
    """Mass matrix of the norm test in the equilibrated basis, D M D.

    A missing or empty mass matrix means the Euclidean norm of the
    unscaled vector, i.e. M = I.
    """
    if M is None or M.shape[0] == 0:
        return sp.diags(d * d, format="csr")
    return (sp.diags(d) @ M @ sp.diags(d)).tocsr()


def _stacked_operators(eq: Equilibrated):
    """KX = [A; B; M_p] and KL = [B^T; M_d] in the equilibrated basis."""
    KX = sp.vstack([eq.A, eq.B, _eq_mass(eq.system.M_primal, eq.dp)],
                   format="csr")
    KL = sp.vstack([eq.B.T.tocsr(), _eq_mass(eq.system.M_dual, eq.dl)],
                   format="csr")
    return KX, KL


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
    increments over the iterates) fall below tol, or at max_iter.  Fields
    carrying the zero-mean-per-slice convention are re-projected after every
    update.  start=(x0, lam0) warm-starts the iteration (used by the outer
    fixed-point loop); the returned iterate and log always refer to the
    original assembled scaling.

    Each step makes two sparse products: KX = [A; B; M_p] with the new
    primal iterate and KL = [B^T; M_d] with the new dual one (all in the
    equilibrated basis).  They give B x^{k+1} for the dual update, A x and
    B^T lam for the next step and the mass products of the stopping test.
    """
    eq = equilibrated(system, params.equilibrate)
    dp, dl, L = eq.dp, eq.dl, eq.L
    n, m = system.n_primal, system.n_dual
    KX, KL = _stacked_operators(eq)

    if start is None:
        x, lam = np.zeros(n), np.zeros(m)
    else:
        x, lam = eq.to_basis(start)
    log = IterationLog()

    def project(vec, scale, fn):
        return fn(scale * vec) / scale

    kx, kl = KX @ x, KL @ lam
    # divergence is reported by SolverDiverged, not by floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, params.max_iter + 1):
            x_new = x - params.r * (kx[:n] - L + kl[:n])
            x_new = project(x_new, dp, system.project_primal)
            kx_new = KX @ x_new
            lam_new = lam + params.r * params.s * kx_new[n:n + m]
            lam_new = project(lam_new, dl, system.project_dual)
            if not (np.all(np.isfinite(x_new))
                    and np.all(np.isfinite(lam_new))):
                raise SolverDiverged(k, log)
            if k % 64 == 0 and max(np.abs(x_new).max(),
                                   np.abs(lam_new).max()) > 1e130:
                raise SolverDiverged(k, log)   # slow exponential blow-up
            kl_new = KL @ lam_new
            e1 = _rel_increment(x_new, x, kx_new[n + m:], kx[n + m:])
            e2 = _rel_increment(lam_new, lam, kl_new[n:], kl[n:])
            log.iters.append(k)
            log.rel_err1.append(e1)
            log.rel_err2.append(e2)
            x, lam, kx, kl = x_new, lam_new, kx_new, kl_new
            if e1 <= params.tol and e2 <= params.tol:
                log.converged = True
                break
    x, lam = eq.from_basis(x, lam)
    log.residual_primal = float(np.linalg.norm(
        system.A @ x - system.L + system.B.T @ lam))
    log.residual_constraint = float(np.linalg.norm(system.B @ x))
    return x, lam, log


_MAX_REFINE = 40


class KktSolver:
    """One system's regularized KKT matrix, factorized once, with iterative
    refinement against that system.

    The factorization is of the equilibrated, quasi-definite regularization
    [[A + eps I, B^T], [B, -eps I]]; iterative refinement against the true
    matrix removes the O(eps |x|) bias when the system has a solution,
    singular or not.  When it has none (the load has a component outside
    the range of the KKT matrix, as on the flow systems) refinement cannot
    remove that component: the residual stays flat above it while the
    iterate grows along the kernel, and resolve returns the last iterate.
    """

    def __init__(self, system: SaddleSystem, eps: float = 1e-8):
        self.eq = eq = equilibrated(system)
        n, m = system.n_primal, system.n_dual
        K = sp.bmat([[eq.A + eps * sp.identity(n), eq.B.T],
                     [eq.B, (-eps) * sp.identity(m)]], format="csc")
        self.lu = spla.splu(K)

    def resolve(self, start=None, tol=1e-9):
        """Refine from start (zero by default).

        Stops when the relative KKT residual is at most tol, when it exceeds
        twice the best residual so far (divergence), or after _MAX_REFINE
        steps; a residual that stays flat above tol runs all _MAX_REFINE
        steps.  Returns (x, lam, relative residual)."""
        eq = self.eq
        n, m = eq.A.shape[0], eq.B.shape[0]
        rhs = np.concatenate([eq.L, np.zeros(m)])
        scale = np.linalg.norm(rhs) + 1e-300

        def residual(sol):
            return rhs - np.concatenate([
                eq.A @ sol[:n] + eq.B.T @ sol[n:],
                eq.B @ sol[:n]])

        sol = (np.zeros(n + m) if start is None
               else np.concatenate(eq.to_basis(start)))
        best = np.inf
        for _ in range(_MAX_REFINE):
            r = residual(sol)
            rn = np.linalg.norm(r) / scale
            if rn <= tol or rn > 2.0 * best:   # converged, or diverging
                break
            best = min(best, rn)
            sol = sol + self.lu.solve(r)
        rn = np.linalg.norm(residual(sol)) / scale
        x, lam = eq.from_basis(sol[:n], sol[n:])
        return x, lam, rn


def lsq_solve(system: SaddleSystem, start=None, tol=1e-12, max_iter=40000):
    """Minimal-norm least-squares solve of the (augmented) KKT system.

    The iteration runs on the equilibrated basis with the constraint block
    augmented into the primal one (same solution set: the constraint
    vanishes at any solution); this is the workhorse for the flow systems,
    whose KKT matrices are numerically singular, and it supports warm starts
    across outer fixed-point iterations.  Returns (x, lam, info_dict).
    """
    eq = equilibrated(system)
    A, B = eq.A, eq.B
    n, mdim = system.n_primal, system.n_dual
    rhs = np.concatenate([eq.L, np.zeros(mdim)])
    if np.abs(rhs).max() == 0.0:
        return np.zeros(n), np.zeros(mdim), {"iterations": 0, "residual": 0.0}
    K = sp.vstack([sp.hstack([A + B.T @ B, B.T], format="csr"),
                   sp.hstack([B, sp.csr_matrix((mdim, mdim))], format="csr")],
                  format="csr")
    x0 = None if start is None else np.concatenate(eq.to_basis(start))
    out = spla.lsmr(K, rhs, atol=tol, btol=tol, maxiter=max_iter, x0=x0)
    sol = out[0]
    x, lam = eq.from_basis(sol[:n], sol[n:])
    info = {"iterations": int(out[2]), "residual": float(out[3]),
            "istop": int(out[1])}
    return x, lam, info


def direct_solve(system: SaddleSystem, max_dim: int = 120_000):
    """Factorize the full symmetric indefinite KKT matrix (oracle/fallback).

    The factorization runs on the equilibrated basis (better pivots); if the
    matrix is numerically singular -- the discrete pair carries no inf-sup
    guarantee, so this happens on the flow systems -- the solve falls back to
    one `KktSolver` factorization of the quasi-definite regularization
    ([A B^T; B -delta I]) with refinement, and is flagged.  The fallback
    solves a singular system that has a solution; on one that has none it
    returns `KktSolver.resolve`'s last iterate, whose residual stays above
    its tolerance.  Returns (x, lam, flagged).
    """
    n, mdim = system.n_primal, system.n_dual
    if n + mdim > max_dim:
        raise ValueError(f"system of dimension {n + mdim} exceeds the "
                         f"direct-solve guard {max_dim}")
    if np.abs(system.L).max() == 0.0:
        return np.zeros(n), np.zeros(mdim), False
    eq = equilibrated(system)
    A, B, L = eq.A, eq.B, eq.L
    rhs = np.concatenate([L, np.zeros(mdim)])

    scale = np.linalg.norm(L) + 1.0

    def attempt_exact():
        K = sp.bmat([[A, B.T], [B, None]], format="csc")
        try:
            sol = spla.spsolve(K, rhs)
        except RuntimeError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        if np.linalg.norm(A @ sol[:n] - L + B.T @ sol[n:]) > 1e-8 * scale:
            return None
        if np.linalg.norm(B @ sol[:n]) > 1e-8 * scale:
            return None
        return sol

    sol = attempt_exact()
    if sol is not None:
        x, lam = eq.from_basis(sol[:n], sol[n:])
        return x, lam, False
    # numerically singular: regularized factorization with refinement, flagged
    x, lam, _rn = KktSolver(system).resolve()
    return x, lam, True
