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
    lines += [f"{key} = {value:.6e}" if isinstance(value, float)
              else f"{key} = {value}" for key, value in sol.report.items()]
    if fp is not None:
        lines.append(f"outer_iterations = {fp.iters[-1]}")
        lines.append(f"outer_converged = {fp.converged}")
        lines.append(f"outer_stagnated = {fp.stagnated}")
        lines.append(f"outer_rel_err_final = {fp.rel_err[-1]:.6e}")
    h, h0 = sol.history, sol.history_uncontrolled
    if h is not None:
        first, final = h.state_norms[0], h.state_norms[-1]
        final0 = h0.state_norms[-1]
        lines += [f"initial_state_norm = {first:.6e}",
                  f"final_state_norm_controlled = {final:.6e}",
                  f"final_state_norm_uncontrolled = {final0:.6e}",
                  f"final_over_initial = {final / max(first, 1e-300):.6e}",
                  f"controlled_over_uncontrolled = "
                  f"{final / max(final0, 1e-300):.6e}"]
        if h.divergence_residual is not None:
            lines.append(f"divergence_residual = {h.divergence_residual:.6e}")
        lines += [f"verify_factorizations = "
                  f"{h.factorizations + h0.factorizations}",
                  f"verify_gmres_iterations = "
                  f"{h.gmres_iterations + h0.gmres_iterations}"]
    return lines


def _write_csv(path, columns):
    """One CSV table from {header: column}: integer columns as they are,
    number columns as .12e."""
    cells = [[f"{v}" for v in col] if np.asarray(col).dtype.kind in "iu"
             else [f"{v:.12e}" for v in col] for col in columns.values()]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _tables(sol, fp):
    """{file name: columns} of the run's CSV tables: the saddle solver's
    iteration log, the fixed point's outer log and the norm histories."""
    tables = {}
    if sol.log is not None:
        tables["iterations.csv"] = {"iter": sol.log.iters,
                                    "rel_err1": sol.log.rel_err1,
                                    "rel_err2": sol.log.rel_err2}
    if fp is not None:
        tables["outer_iterations.csv"] = {"iter": fp.iters,
                                          "rel_err": fp.rel_err,
                                          "element_kernels": fp.kernels}
    for name, h in (("norms.csv", sol.history),
                    ("norms_uncontrolled.csv", sol.history_uncontrolled)):
        if h is not None:
            tables[name] = {"t": h.times, "control_norm": h.control_norms,
                            "state_norm": h.state_norms}
    return tables


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
    for name, columns in _tables(sol, fp).items():
        _write_csv(os.path.join(out, name), columns)
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(_summary_lines(cfg, sol, fp, wall)) + "\n")
    write_field_series(out, sol.mesh, _vtk_fields(cfg, sol))
    print(f"run complete: {out} (J = {sol.J:.6e}, {wall:.1f} s)")
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
