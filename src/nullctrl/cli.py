"""Command-line driver: scenario presets, config files, CSV/VTK artifacts."""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

import numpy as np

from . import config as cfgmod
from .pipeline import (fixed_point_ns, solve_heat_control,
                       solve_stokes_control)
from .vtkout import write_field_series


def _parser():
    p = argparse.ArgumentParser(
        prog="nullctrl",
        description="Distributed null controls for 2D heat, Stokes and "
                    "Navier-Stokes problems on space-time finite elements.")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario run")
    run.add_argument("source", help="preset name or config file path; "
                     "presets: " + ", ".join(sorted(cfgmod.PRESETS)))
    run.add_argument("--nx", type=int)
    run.add_argument("--ny", type=int)
    run.add_argument("--nt", type=int)
    run.add_argument("--y0-scale", dest="y0_scale", type=float)
    run.add_argument("--max-iter", dest="max_iter", type=int)
    run.add_argument("--method", choices=cfgmod.SOLVER_METHODS)
    run.add_argument("--out", dest="output_dir")
    run.add_argument("--no-verify", action="store_true")
    run.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="key=value", help="override any config key")
    return p


def _load_config(args) -> cfgmod.RunConfig:
    if os.path.exists(args.source):
        cfg = cfgmod.from_file(args.source)
    else:
        cfg = cfgmod.from_preset(args.source)
    for flag in ("nx", "ny", "nt", "y0_scale", "max_iter", "output_dir"):
        val = getattr(args, flag, None)
        if val is not None:
            cfg = cfgmod.apply_setting(cfg, flag, val)
    if args.method is not None:
        cfg = cfgmod.apply_setting(cfg, "solver_method", args.method)
    if args.no_verify:
        cfg = cfgmod.apply_setting(cfg, "verify", False)
    for item in args.sets:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        cfg = cfgmod.apply_setting(cfg, key.strip(), raw.strip())
    return cfgmod.validate(cfg)


def _summary_lines(cfg, sol, fp, wall):
    lines = [f"scenario = {cfg.scenario}",
             f"J = {sol.J:.12e}",
             f"wall_seconds = {wall:.1f}"]
    if sol.log is not None:
        lines.append(f"solver_iterations = {sol.log.iters[-1]}")
        lines.append(f"solver_converged = {sol.log.converged}")
        lines.append(f"rel_err1_final = {sol.log.rel_err1[-1]:.6e}")
        lines.append(f"rel_err2_final = {sol.log.rel_err2[-1]:.6e}")
        lines.append(f"residual_primal = {sol.log.residual_primal:.6e}")
        lines.append(f"residual_constraint = {sol.log.residual_constraint:.6e}")
    info = sol.info
    if "istop" in info:   # an LSMR solve
        lines.append(f"lsmr_iterations = {info['iterations']}")
        lines.append(f"lsmr_istop = {info['istop']}")
        lines.append(f"lsmr_residual = {info['residual']:.6e}")
    if "kkt_residual" in info:
        lines.append(f"kkt_residual = {info['kkt_residual']:.6e}")
    if "least_squares" in info:   # heat direct: the singular fallback ran
        lines.append(f"least_squares = {info['least_squares']}")
    if fp is not None:
        lines.append(f"outer_iterations = {fp.iters[-1]}")
        lines.append(f"outer_converged = {fp.converged}")
        lines.append(f"outer_stagnated = {fp.stagnated}")
        lines.append(f"outer_rel_err_final = {fp.rel_err[-1]:.6e}")
    h, h0 = sol.history, sol.history_uncontrolled
    if h is not None:
        if h.deviation_norms is not None:
            lines.append(f"final_deviation_controlled = {h.deviation_norms[-1]:.6e}")
            lines.append(f"final_deviation_uncontrolled = {h0.deviation_norms[-1]:.6e}")
            ratio = h.deviation_norms[-1] / max(h0.deviation_norms[-1], 1e-300)
            lines.append(f"controlled_over_uncontrolled = {ratio:.6e}")
            lines.append(f"divergence_residual = {h.divergence_residual:.6e}")
        else:
            lines.append(f"initial_state_norm = {h.state_norms[0]:.6e}")
            lines.append(f"final_state_norm_controlled = {h.state_norms[-1]:.6e}")
            lines.append(f"final_state_norm_uncontrolled = {h0.state_norms[-1]:.6e}")
            lines.append(f"final_over_initial = "
                         f"{h.state_norms[-1] / max(h.state_norms[0], 1e-300):.6e}")
            ratio = h.state_norms[-1] / max(h0.state_norms[-1], 1e-300)
            lines.append(f"controlled_over_uncontrolled = {ratio:.6e}")
    return lines


def _vtk_fields(cfg, sol):
    blocks, spaces = sol.blocks, sol.spaces
    fields = {"y": sol.state,   # Navier-Stokes: the deviation
              "v": sol.control}
    if cfg.scenario == "heat":
        zsp, psp = spaces[:2]
        fields["p_hat"] = lambda X, t: psp.eval(blocks["p"], X, t)
        fields["z_hat"] = lambda X, t: zsp.eval(blocks["z"], X, t)
        return fields
    fields["sigma"] = lambda X, t: spaces[2].eval(blocks["sigma"], X, t)
    if cfg.scenario == "navier_stokes":
        traj = sol.trajectory
        fields["y_total"] = lambda X, t: (np.asarray(traj(X, t), dtype=float)
                                          + sol.state(X, t))
    return fields


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "config.resolved"), "w") as fh:
        fh.write(cfg.resolved_text())

    t0 = time.time()
    fp = None
    try:
        if cfg.scenario == "heat":
            sol = solve_heat_control(cfg)
        elif cfg.scenario == "stokes":
            sol = solve_stokes_control(cfg)
        else:
            sol, fp = fixed_point_ns(cfg)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"error: solver: {exc}", file=sys.stderr)
        return 1
    wall = time.time() - t0

    out = cfg.output_dir
    if sol.log is not None:
        sol.log.to_csv(os.path.join(out, "iterations.csv"))
    if fp is not None:
        fp.to_csv(os.path.join(out, "outer_iterations.csv"))
    if sol.history is not None:
        sol.history.to_csv(os.path.join(out, "norms.csv"))
        sol.history_uncontrolled.to_csv(
            os.path.join(out, "norms_uncontrolled.csv"))
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(_summary_lines(cfg, sol, fp, wall)) + "\n")
    write_field_series(out, sol.mesh, _vtk_fields(cfg, sol))
    print(f"run complete: {out} (J = {sol.J:.6e}, {wall:.1f} s)")
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
