"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's grouped coefficient
functions and assembled forms: polynomial calculus is exact on coefficient
arrays, and the weak-form oracles expand the constraint operators by the
product rule from scratch, so that a transcription or sign error in the
assembly cannot cancel in the comparison.
"""

import math
import tracemalloc

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nullctrl.fem import Assembler, build_space
from nullctrl.forms import _Builder, assemble_oseen
from nullctrl.forward import (NormHistory, Trajectory, _matrix, _nodal,
                              _StepMatrices, _steps)
from nullctrl.mesh import build_mesh
from nullctrl.weights import WeightSet


class Poly2T:
    """Polynomial in (x1, x2, t) with exact calculus on coefficient arrays."""

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    @classmethod
    def random(cls, rng, deg_x, deg_t, scale=1.0):
        """Random polynomial with *total* spatial degree <= deg_x."""
        c = rng.standard_normal((deg_x + 1, deg_x + 1, deg_t + 1)) * scale
        for a in range(deg_x + 1):
            for b in range(deg_x + 1):
                if a + b > deg_x:
                    c[a, b, :] = 0.0
        return cls(c)

    @classmethod
    def bubble(cls, L1, L2):
        """x1 (L1 - x1) x2 (L2 - x2): vanishes on the rectangle boundary."""
        cx = np.array([0.0, L1, -1.0])
        cy = np.array([0.0, L2, -1.0])
        c = np.einsum("a,b->ab", cx, cy)[:, :, None]
        return cls(c)

    @classmethod
    def tfactor(cls, coeffs_t):
        c = np.asarray(coeffs_t, dtype=float)[None, None, :]
        return cls(c)

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly2T(self.c * other)
        a, b = self.c, other.c
        out = np.zeros((a.shape[0] + b.shape[0] - 1,
                        a.shape[1] + b.shape[1] - 1,
                        a.shape[2] + b.shape[2] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                for k in range(a.shape[2]):
                    if a[i, j, k] != 0.0:
                        out[i:i + b.shape[0], j:j + b.shape[1],
                            k:k + b.shape[2]] += a[i, j, k] * b
        return Poly2T(out)

    __rmul__ = __mul__

    def __add__(self, other):
        sa, sb = self.c.shape, other.c.shape
        shape = tuple(max(u, v) for u, v in zip(sa, sb))
        out = np.zeros(shape)
        out[:sa[0], :sa[1], :sa[2]] += self.c
        out[:sb[0], :sb[1], :sb[2]] += other.c
        return Poly2T(out)

    def _diff(self, axis):
        n = self.c.shape[axis]
        if n == 1:
            return Poly2T(np.zeros((1, 1, 1)))
        sl = [slice(None)] * 3
        sl[axis] = slice(1, None)
        k = np.arange(1, n)
        shape = [1, 1, 1]
        shape[axis] = n - 1
        return Poly2T(self.c[tuple(sl)] * k.reshape(shape))

    def dx1(self):
        return self._diff(0)

    def dx2(self):
        return self._diff(1)

    def dt(self):
        return self._diff(2)

    def lap(self):
        return self.dx1().dx1() + self.dx2().dx2()

    def __call__(self, X, t):
        X = np.asarray(X, dtype=float)
        x1, x2 = X[..., 0], X[..., 1]
        t = np.asarray(t, dtype=float)
        out = np.zeros(np.broadcast(x1, t).shape)
        for i in range(self.c.shape[0]):
            for j in range(self.c.shape[1]):
                for k in range(self.c.shape[2]):
                    if self.c[i, j, k] != 0.0:
                        out = out + self.c[i, j, k] * x1 ** i * x2 ** j * t ** k
        return out

    def as_spacetime(self):
        return lambda X, t: self(X, t)


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a 2-point."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_divergence(f, x, h=1e-6):
    """Central-difference divergence of a vector field of a 2-point."""
    x = np.asarray(x, dtype=float)
    d = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        d += (f(x + e)[i] - f(x - e)[i]) / (2.0 * h)
    return d


def quad_spacetime(mesh, rule, integrand):
    """Quadrature of integrand(X, t) over the cylinder with the given rule."""
    asm = Assembler(mesh, rule)
    total = 0.0
    for batch in asm.batches():
        vals = integrand(batch.X, batch.t)
        total += float(np.einsum("abq,q->", vals, batch.w))
    return total


def heat_constraint_oracle(mesh, ws, G, z, p, lam, rule):
    """Product-rule expansion of the normalized heat constraint form.

    Evaluates  iint (zhat - rho^{-1} L*(rho0 phat)) lamhat  for polynomial
    inputs, expanding L*(rho0 phat) term by term with the weight-derivative
    ratios written out from scratch (no grouped coefficients, no integration
    by parts: the Laplacian of the polynomial is exact).
    """
    T = ws.T
    Gf = G if callable(G) else (lambda X, t, g=float(G): g)
    p_t, p_x1, p_x2, p_lap = p.dt(), p.dx1(), p.dx2(), p.lap()

    def integrand(X, t):
        chi, gchi, lchi = ws.chi(X)
        tau = T - t
        rr0 = tau ** 1.5                                   # rho^-1 rho0
        rr0_t = -1.5 * np.sqrt(tau) + chi / np.sqrt(tau)   # rho^-1 d_t rho0
        rr0_g = np.sqrt(tau)[..., None] * gchi             # rho^-1 grad rho0
        rr0_lap = (np.sqrt(tau) * lchi
                   + np.einsum("...i,...i->...", gchi, gchi) / np.sqrt(tau))
        pv = p(X, t)
        grad_term = rr0_g[..., 0] * p_x1(X, t) + rr0_g[..., 1] * p_x2(X, t)
        Lstar = (-(rr0_t * pv + rr0 * p_t(X, t))
                 - (rr0_lap * pv + 2.0 * grad_term + rr0 * p_lap(X, t))
                 + Gf(X, t) * rr0 * pv)
        return (z(X, t) - Lstar) * lam(X, t)

    return quad_spacetime(mesh, rule, integrand)


def hatted_flow_constraint_oracle(mesh, ws, nu, ybar, w, zv, pv, sigma,
                                  lamv, mu, rule):
    """Direct quadrature of the hatted flow constraint, expanded from scratch.

    Momentum part:
        iint (zhat - rho^{-1}[M*(rho0 phat) + grad(rho sigmahat)]).lamhat
    Divergence part: iint rho1^{-1} div(rho0 phat) muhat
    with M* expanded by the product rule using the weight-derivative ratios
    and exact polynomial derivatives (no integration by parts: the Laplacian
    of the polynomial is used directly).
    """
    T = ws.T
    p_t = [p.dt() for p in pv]
    p_lap = [p.lap() for p in pv]
    jac = [[pv[i].dx1(), pv[i].dx2()] for i in range(2)]
    s_grad = [sigma.dx1(), sigma.dx2()]

    def integrand(X, t):
        shape = np.broadcast(X[..., 0], t).shape
        chi, gchi, lchi = ws.chi(X)
        tau = T - t
        sq = np.sqrt(tau)
        rr0 = tau * sq
        rr0_t = -1.5 * sq + chi / sq
        rr0_g = sq[..., None] * gchi
        rr0_lap = sq * lchi + np.einsum("...i,...i->...", gchi, gchi) / sq
        yb = (np.broadcast_to(np.asarray(ybar(X, t), dtype=float), shape + (2,))
              if ybar is not None else np.zeros(shape + (2,)))
        wv = (np.broadcast_to(np.asarray(w(X, t), dtype=float), shape + (2,))
              if w is not None else np.zeros(shape + (2,)))
        adv = yb + wv
        out = 0.0
        for i in range(2):
            pvi = pv[i](X, t)
            Ji = [jac[i][j](X, t) for j in range(2)]
            JTi = [jac[j][i](X, t) for j in range(2)]
            # rho^{-1} * each piece of M*(rho0 phat):
            t_term = rr0_t * pvi + rr0 * p_t[i](X, t)
            visc = nu * (rr0_lap * pvi
                         + 2.0 * (rr0_g[..., 0] * Ji[0] + rr0_g[..., 1] * Ji[1])
                         + rr0 * p_lap[i](X, t))
            conv = (rr0 * (Ji[0] * adv[..., 0] + Ji[1] * adv[..., 1])
                    + np.einsum("...j,...j->...", gchi, adv) * sq * pvi)
            convT = (rr0 * (JTi[0] * yb[..., 0] + JTi[1] * yb[..., 1])
                     + sq * gchi[..., i]
                     * (pv[0](X, t) * yb[..., 0] + pv[1](X, t) * yb[..., 1]))
            Mstar_i = -t_term - visc - conv - convT
            sig_term = s_grad[i](X, t) + gchi[..., i] / tau * sigma(X, t)
            out = out + (zv[i](X, t) - Mstar_i - sig_term) * lamv[i](X, t)
        # divergence block against muhat
        div = (tau * (jac[0][0](X, t) + jac[1][1](X, t))
               + gchi[..., 0] * pv[0](X, t) + gchi[..., 1] * pv[1](X, t))
        out = out + div * mu(X, t)
        return out

    return quad_spacetime(mesh, rule, integrand)


def reduced_vector(system, which, **fields):
    """Stack full per-field coefficient vectors into a reduced vector."""
    blocks = system.primal if which == "primal" else system.dual
    out = np.zeros(sum(b.size for b in blocks))
    for blk in blocks:
        full = fields[blk.name]
        out[blk.offset:blk.offset + blk.size] = full[blk.space.free_idx]
    return out


class ConcatenatingBuilder(_Builder):
    """The assembly builder with the plain reference conversion to CSR.

    Each term's COO triplets are raveled from broadcast index maps,
    concatenated per target and converted in one call; the library's builder
    must give the same matrices bit for bit, with a fraction of the memory.
    """

    def _matrix(self, target, shape, rows_idx, cols_idx):
        terms = self._terms.pop(target)
        if not terms:
            return sp.csr_matrix((len(rows_idx), len(cols_idx)))
        r = [np.broadcast_to(Dt[:, :, :, None], E.shape).ravel()
             for E, Dt, _ in terms]
        c = [np.broadcast_to(Dr[:, :, None, :], E.shape).ravel()
             for E, _, Dr in terms]
        d = [E.ravel() for E, _, _ in terms]
        M = sp.coo_matrix((np.concatenate(d),
                           (np.concatenate(r), np.concatenate(c))),
                          shape=shape).tocsr()
        M = M[rows_idx][:, cols_idx]
        M.sum_duplicates()
        return M


class EveryKernelBuilder(_Builder):
    """The assembly builder that computes every term's element kernel and
    reuses none; the library's builder, which computes each distinct kernel
    once, must give the same systems bit for bit."""

    def add(self, target, *args, **kwargs):
        self._values[target].clear()
        self._kept[target].clear()
        super().add(target, *args, **kwargs)


def wfun(X, t):
    """A smooth transported field w for the Oseen assemblies."""
    return np.stack([0.02 * X[..., 1] ** 2, 0.05 * X[..., 0]], axis=-1)


def p2_flow_spaces(mesh):
    """The pipeline's flow layout: P2 fields, P1 divergence multiplier."""
    return (build_space(mesh, 2, 2, 2, "none"),
            build_space(mesh, 2, 2, 2, "zero_lateral"),
            build_space(mesh, 2, 2, 1, "none"),
            build_space(mesh, 2, 2, 2, "zero_lateral"),
            build_space(mesh, 1, 2, 1, "none"))


def taylor_green_flow():
    """The Oseen problem on the 3x3x4 Taylor-Green mesh around the vortex:
    (spaces, WeightSet, assemble(w, fixed=None)), where assemble is
    `assemble_oseen` of the transported field w, through the fixed part
    `fixed` when given."""
    box = (math.pi / 3, 2 * math.pi / 3, math.pi / 3, 2 * math.pi / 3)
    mesh = build_mesh(3, 3, 4, math.pi, math.pi, 1.0, box,
                      diagonal="alternate")
    ws = WeightSet(math.pi, math.pi, 1.0, (math.pi / 2, math.pi / 2))
    spaces = p2_flow_spaces(mesh)
    ybar, u0 = Trajectory("taylor_green"), (0.1, 0.0)
    return spaces, ws, lambda w, fixed=None: assemble_oseen(
        mesh, spaces, ws, 1.0, ybar, w, u0, fixed=fixed)


def taylor_green_oseen():
    """Oseen assembly on the 3x3x4 Taylor-Green mesh around the vortex,
    with a transported field w."""
    assemble = taylor_green_flow()[2]
    return lambda: assemble(wfun)


def fresh_oseen(mesh, spaces, ws, nu, ybar, w, u0, rule=None, fixed=None):
    """`assemble_oseen` that ignores the fixed part: every pass of a fixed
    point assembles its whole system from scratch."""
    return assemble_oseen(mesh, spaces, ws, nu, ybar, w, u0, rule)


def peak_over_csr_bytes(build):
    """tracemalloc peak of build() over the bytes of the CSR matrices it
    returns."""
    tracemalloc.start()
    try:
        matrices = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr = sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
              for M in matrices)
    return peak / csr


def einsum_convection(th, adv):
    """Matrix of (adv . grad) u . v for a P2 vector field adv (n2, 2),
    from the element values by nested einsum and COO assembly."""
    a = np.einsum("tic,qi->tqc", adv[th.conn], th.v)
    E = np.einsum("tq,tqjc,qi->tij",
                  th.w, np.einsum("tqc,tqjc->tqjc", a, th.g), th.v)
    return _matrix(th.conn, th.conn, E)


def bmat_step_operators(th, dt, theta, Sop):
    """One step's operators built from scratch: M/dt - (1-theta) Sop, the
    interior rows' boundary columns of M/dt + theta Sop, and the step
    system: the interior block for one field; for a flow the KKT matrix of
    interior velocity dofs of both components, full pressure and mean
    row."""
    Ai = (th.M / dt + theta * Sop).tocsr()[th.interior]
    Aii = Ai[:, th.interior]
    if th.fields == 1:
        KKT = Aii.tocsc()
    else:
        KKT = sp.bmat([[sp.bmat([[Aii, None], [None, Aii]], format="csr"),
                        th.Dint.T, None],
                       [th.Dint, None, th.pmean[:, None]],
                       [None, th.pmean[None, :], None]], format="csc")
    return th.M / dt - (1.0 - theta) * Sop, Ai[:, th.bdry], KKT


def fresh_heat_forward(grid, y0, G, control, T, nt_fwd, omega_box=None):
    """`forward.heat_forward_cn` as a loop of its own: each theta of the
    schedule factorized afresh from sparse sums of M and K when the
    schedule reaches it, and every step solved directly with it."""
    el = _StepMatrices(grid, 6, fields=1)
    M, interior = el.M, el.interior
    S = el.K + float(G) * M
    n = len(el.nodes)
    y = _nodal(y0, el.nodes, (n, 1))[:, 0]
    y[el.bdry] = 0.0
    dt = T / nt_fwd
    keep = grid.tris_in(omega_box)
    w, conn = el.w[keep], el.conn[keep]
    v_at = None if control is None else control.at(el.X[keep])

    def control_load(t):
        out = np.zeros(n)
        if v_at is not None:
            np.add.at(out, conn, np.einsum("tq,qi->ti", w * v_at(t), el.v))
        return out

    def control_norm(t):
        if v_at is None:
            return 0.0
        v = v_at(t)
        return float(np.sqrt(max((w * v * v).sum(), 0.0)))

    times, steps = _steps(T, nt_fwd)
    state_norms = [float(np.sqrt(max(y @ (M @ y), 0.0)))]
    control_norms = [control_norm(0.0)]
    current, factorizations = None, 0
    for theta, t_load, t_new in steps:
        if theta != current:
            lhs = (M / dt + theta * S).tocsc()[interior][:, interior]
            solve = spla.factorized(lhs.tocsc())
            rhs_op = (M / dt - (1.0 - theta) * S).tocsr()
            current = theta
            factorizations += 1
        b = (rhs_op @ y)[interior] + control_load(t_load)[interior]
        y = np.zeros(n)
        y[interior] = solve(b)
        state_norms.append(float(np.sqrt(max(y @ (M @ y), 0.0))))
        control_norms.append(control_norm(t_new))
    return NormHistory(times=times, control_norms=np.array(control_norms),
                       state_norms=np.array(state_norms),
                       factorizations=factorizations), y


def fresh_flow_forward(grid, nu, y0, control, trajectory, T, nt_fwd,
                       omega_box=None):
    """`forward.flow_forward` with a fresh factorization of every step's own
    matrix, assembled from scratch, and a direct solve with it."""
    th = _StepMatrices(grid, 7, fields=2)
    nodes, bdry, interior = th.nodes, th.bdry, th.interior
    n, ni = len(nodes), len(interior)

    def wall(t):
        if trajectory is None:
            return np.zeros((n, 2))
        return np.asarray(trajectory(nodes, t), dtype=float)

    ybar = wall(0.0)
    y = _nodal(y0, nodes, (n, 2))
    y[bdry] = ybar[bdry]
    control_load, control_norm = th.bind(control, omega_box)

    dt = T / nt_fwd
    times, steps = _steps(T, nt_fwd)
    state_norms = [th.norm(y - ybar)]
    control_norms = [control_norm(0.0)]
    max_div = 0.0
    y_prev = y
    for k, (theta, t_load, t_new) in enumerate(steps):
        Sop = nu * th.K
        if trajectory is not None:
            adv = 1.5 * y - 0.5 * y_prev if k > 0 else y
            Sop = Sop + einsum_convection(th, adv)
        rhs_op, Aib, KKT = bmat_step_operators(th, dt, theta, Sop)
        rhs_full = rhs_op @ y + control_load(t_load)
        ybar = wall(t_new)
        gb = ybar[bdry]
        rhs = np.concatenate([rhs_full[interior, 0] - Aib @ gb[:, 0],
                              rhs_full[interior, 1] - Aib @ gb[:, 1],
                              -(th.Db[0] @ gb[:, 0] + th.Db[1] @ gb[:, 1]),
                              [0.0]])
        sol = spla.splu(KKT).solve(rhs)
        y_prev = y
        y = np.empty((n, 2))
        y[bdry] = gb
        y[interior, 0] = sol[:ni]
        y[interior, 1] = sol[ni:2 * ni]
        state_norms.append(th.norm(y - ybar))
        control_norms.append(control_norm(t_new))
        max_div = max(max_div, th.divergence_residual(y))
    return NormHistory(times=times, control_norms=np.array(control_norms),
                       state_norms=np.array(state_norms),
                       divergence_residual=max_div,
                       factorizations=nt_fwd), y
