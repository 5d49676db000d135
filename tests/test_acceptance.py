"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Each criterion runs at its stated tolerance on its stated configuration.
"""

import time

import numpy as np

from nullctrl.fem import (QuadratureRule, build_space, interval_quadrature,
                          triangle_quadrature)
from nullctrl.forms import assemble_heat, assemble_oseen
from nullctrl.mesh import build_mesh
from nullctrl.weights import WeightSet

from oracles import (Poly2T, fd_gradient, heat_constraint_oracle,
                     hatted_flow_constraint_oracle, reduced_vector)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")
    return ok


# ---------------------------------------------------------------------- 1

def test_criterion_1_weight_suite():
    t0 = time.time()
    ws = WeightSet(1.0, 1.0, 1.0, (0.5, 0.5), 1.0, 2.0)
    xs = np.linspace(0.0, 1.0, 101)
    X = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    vals = ws.chi0(X)
    edge = np.concatenate([vals[0], vals[-1], vals[:, 0], vals[:, -1]])
    ok = np.abs(edge).max() == 0.0
    ok &= abs(ws.chi0(np.array([0.5, 0.5])) - 1.0) < 1e-14
    grad, _ = ws.chi0_derivs(X)
    mag = np.hypot(grad[..., 0], grad[..., 1])
    omega = ((X[..., 0] > 0.2) & (X[..., 0] < 0.6)
             & (X[..., 1] > 0.2) & (X[..., 1] < 0.6))
    corner = np.isin(X[..., 0], (0.0, 1.0)) & np.isin(X[..., 1], (0.0, 1.0))
    # the four corners are exact critical points of the printed closed form
    # (both boundary factors vanish); the gradient bound holds everywhere
    # else outside the control region
    ok &= mag[~omega & ~corner].min() > 1e-12
    ok &= np.abs(mag[corner]).max() == 0.0
    rng = np.random.default_rng(0)
    pts = 0.05 + 0.9 * rng.random((40, 2))
    grad, _ = ws.chi0_derivs(pts)
    fd_ok = all(
        np.allclose(grad[k], fd_gradient(lambda x: float(ws.chi0(x)), pts[k]),
                    rtol=1e-5, atol=1e-10)
        for k in range(len(pts)))
    ok &= fd_ok
    dt = time.time() - t0
    assert report(1, "weight suite", bool(ok) and dt < 1.0,
                  f"grid checks + fd agreement, {dt:.2f}s")


# ---------------------------------------------------------------------- 2

def test_criterion_2_assembly_oracles(monkeypatch):
    t0 = time.time()
    ws = WeightSet(1.0, 1.0, 1.0, (0.5, 0.5))
    mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(202)
    bub = Poly2T.bubble(1.0, 1.0)

    # heat constraint form, 10 random polynomial inputs
    hs = (build_space(mesh, 4, 2, 1, "none"),
          build_space(mesh, 4, 2, 1, "zero_lateral"),
          build_space(mesh, 4, 2, 1, "zero_lateral_final"))
    rule = QuadratureRule.default(4, 2)
    # the builder's rule, the default one of the spaces' degrees
    system = assemble_heat(mesh, hs, ws, 1.0, 1000.0)
    errs, vals = [], []
    for _ in range(10):
        z = Poly2T.random(rng, 4, 2)
        p = bub * Poly2T.tfactor(rng.standard_normal(3))
        lam = bub * Poly2T.tfactor([1.0, -1.0]) * Poly2T.tfactor(
            rng.standard_normal(2))
        x = reduced_vector(system, "primal",
                           z=hs[0].interpolate(z.as_spacetime()),
                           p=hs[1].interpolate(p.as_spacetime()))
        lr = reduced_vector(system, "dual",
                            lam=hs[2].interpolate(lam.as_spacetime()))
        asm = lr @ (system.B @ x)
        orc = heat_constraint_oracle(mesh, ws, 1.0, z, p, lam, rule)
        errs.append(abs(asm - orc))
        vals.append(abs(orc))
    heat_ok = max(errs) <= 1e-8 * max(vals)
    heat_err = max(errs) / max(vals)

    # transport-linearized constraint form
    nu = 0.7
    ybar = lambda X, t: np.stack(
        [0.3 + 0.1 * X[..., 0] + 0.05 * np.broadcast_to(t, X[..., 0].shape),
         -0.2 + 0.07 * X[..., 1]], axis=-1)
    wfun = lambda X, t: np.stack([0.02 * X[..., 1] ** 2, 0.05 * X[..., 0]],
                                 axis=-1)

    def flow_inputs():
        zv = [Poly2T.random(rng, 4, 2, 0.5) for _ in range(2)]
        pv = [bub * Poly2T.tfactor(rng.standard_normal(3)) for _ in range(2)]
        sg = Poly2T.random(rng, 4, 2, 0.5)
        lamv = [bub * Poly2T.tfactor(rng.standard_normal(3)) for _ in range(2)]
        muv = Poly2T.random(rng, 4, 2, 0.5)
        return zv, pv, sg, lamv, muv

    # the comparison needs a raised rule (the two routes differ by an
    # integration-by-parts residual with non-polynomial weight gradients), so
    # it runs on a single-slab mesh to stay inside the budget; the assembly
    # takes it in place of the default rule its builder derives
    tp, tw = triangle_quadrature(16)
    sp_, sw_ = interval_quadrature(12)
    fp_, fw_ = interval_quadrature(14)
    hi = QuadratureRule(tp, tw, sp_, sw_, fp_, fw_)
    mesh1 = build_mesh(2, 2, 1, 1.0, 1.0, 1.0, (0.0, 1.0, 0.0, 1.0))
    fs1 = (build_space(mesh1, 4, 2, 2, "none"),
           build_space(mesh1, 4, 2, 2, "zero_lateral"),
           build_space(mesh1, 4, 2, 1, "none"),
           build_space(mesh1, 4, 2, 2, "zero_lateral"),
           build_space(mesh1, 4, 2, 1, "none"))
    with monkeypatch.context() as mp:
        mp.setattr(QuadratureRule, "default", lambda m, n: hi)
        sys_h = assemble_oseen(mesh1, fs1, ws, nu, ybar, wfun, (0.1, 0.0))
    errs_h, vals_h = [], []
    for _ in range(10):
        zv, pv, sg, lamv, muv = flow_inputs()
        x = reduced_vector(
            sys_h, "primal",
            z=fs1[0].interpolate(lambda X, t: np.stack(
                [zv[0](X, t), zv[1](X, t)], -1)),
            p=fs1[1].interpolate(lambda X, t: np.stack(
                [pv[0](X, t), pv[1](X, t)], -1)),
            sigma=fs1[2].interpolate(sg.as_spacetime()))
        lr = reduced_vector(
            sys_h, "dual",
            lam=fs1[3].interpolate(lambda X, t: np.stack(
                [lamv[0](X, t), lamv[1](X, t)], -1)),
            mu=fs1[4].interpolate(muv.as_spacetime()))
        asm = lr @ (sys_h.B @ x)
        orc = hatted_flow_constraint_oracle(mesh1, ws, nu, ybar, wfun, zv, pv,
                                            sg, lamv, muv, hi)
        errs_h.append(abs(asm - orc))
        vals_h.append(abs(orc))
    hat_ok = max(errs_h) <= 1e-8 * max(vals_h)
    hat_err = max(errs_h) / max(vals_h)

    dt = time.time() - t0
    ok = heat_ok and hat_ok
    assert report(2, "assembly oracles", ok,
                  f"heat {heat_err:.1e}, normalized flow {hat_err:.1e}, "
                  f"{dt:.1f}s")
