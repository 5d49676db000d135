"""Benchmark workloads: program arguments from a seed, and output checks.

Each workload is one `nullctrl run` invocation derived from a preset.  Seed 0
runs the preset's own data; other seeds rescale the initial datum (heat) or
the perturbation amplitude (Navier-Stokes).  The program receives only the
generated arguments.
"""

from __future__ import annotations

import csv
import glob
import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    settings: tuple          # (key, value) pairs applied with --set
    seed_key: str            # setting the seed draws
    seed_range: tuple        # (low, high) of the drawn value
    preset_value: float      # the preset's value of seed_key (seed 0)
    rtol: float              # relative tolerance of the seed-0 reference
    reference: dict          # seed-0 J and final forward norms
    require_converged: bool = False   # the saddle iteration must converge

    def seed_value(self, seed: int) -> float:
        if seed == 0:
            return self.preset_value
        lo, hi = self.seed_range
        return round(random.Random(seed).uniform(lo, hi), 6)

    def settings_for(self, seed: int):
        extra = () if seed == 0 else ((self.seed_key,
                                       repr(self.seed_value(seed))),)
        return tuple(self.settings) + extra

    def argv(self, seed: int, out: str):
        """Arguments of `nullctrl.cli.run` for this workload and seed."""
        args = ["run", self.preset]
        for key, value in self.settings_for(seed):
            args += ["--set", f"{key}={value}"]
        return args + ["--out", out]


_HEAT = (("mesh.nx", 5), ("mesh.ny", 5), ("mesh.nt", 8),
         ("solver.tol", "1e-4"))
# The flow meshes and verification grids are the smallest on which the
# control still beats the uncontrolled flow several times over; they keep one
# run under ten seconds so that a measured run holds several runs.
_NS = (("mesh.nx", 3), ("mesh.ny", 3), ("mesh.nt", 4), ("solver.tol", "1e-5"),
       ("verify.nx", 12), ("verify.ny", 12), ("verify.nt", 30))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="heat-ah",
        why="matrix-free primal-dual (AH) saddle iteration to tol 1e-4; "
            "the iteration kernel and its convergence dominate",
        preset="heat-sec26", settings=_HEAT,
        seed_key="physics.y0_scale", seed_range=(0.5, 2.0), preset_value=1.0,
        rtol=1e-3, require_converged=True,
        reference={"J": 9.566662655923e+08,
                   "final_controlled": 8.086226696092e-06,
                   "final_uncontrolled": 8.124352068876e-06}),
    Workload(
        name="ns-tg-lsq",
        why="Navier-Stokes fixed point with warm-started LSMR on the flow "
            "saddle system; the least-squares solver dominates",
        preset="ns-taylor-green",
        settings=_NS + (("solver.outer_max", 2),),
        seed_key="physics.M", seed_range=(0.08, 0.12), preset_value=0.1,
        rtol=1e-4,
        reference={"J": 8.795498477242e+07,
                   "final_controlled": 8.411426814127e-03,
                   "final_uncontrolled": 3.700056299314e-02}),
    Workload(
        name="ns-tg-direct",
        why="same flow problem solved by the KKT factorization-reuse path; "
            "per-pass Oseen assembly and sparse LU dominate",
        preset="ns-taylor-green",
        settings=_NS + (("solver.method", "direct"),
                        ("solver.outer_max", 4)),
        seed_key="physics.M", seed_range=(0.08, 0.12), preset_value=0.1,
        rtol=1e-6,
        reference={"J": 2.882303096880e+09,
                   "final_controlled": 8.337410640708e-03,
                   "final_uncontrolled": 3.700056299314e-02}),
)}


# ---------------------------------------------------------------------------
# outputs and their checks
# ---------------------------------------------------------------------------

def _last_column(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return float(rows[-1][-1])


def read_outputs(outdir):
    """The values a run's checks need, read from its artifacts."""
    summary = {}
    with open(os.path.join(outdir, "summary.txt")) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            summary[key.strip()] = value.strip()
    return {
        "J": float(summary["J"]),
        "verify_ratio": float(summary["controlled_over_uncontrolled"]),
        "converged": summary.get("solver_converged") == "True",
        "final_controlled": _last_column(os.path.join(outdir, "norms.csv")),
        "final_uncontrolled": _last_column(
            os.path.join(outdir, "norms_uncontrolled.csv")),
        "vtk_files": len(glob.glob(os.path.join(outdir, "field_*.vtk"))),
    }


def check(w: Workload, seed: int, out: dict):
    """Problems with one run's outputs; an empty list means it is correct."""
    problems = []
    values = ("J", "verify_ratio", "final_controlled", "final_uncontrolled")
    for key in values:
        if not math.isfinite(out[key]):
            problems.append(f"{key} is not finite ({out[key]})")
    if problems:
        return problems
    if not out["verify_ratio"] < 1.0:
        problems.append(f"verify_ratio {out['verify_ratio']} is not below 1")
    if w.require_converged and not out["converged"]:
        problems.append("saddle iteration did not converge")
    if out["vtk_files"] < 1:
        problems.append("no VTK snapshots written")
    # The heat problem is linear in y0: J scales with its square, the forward
    # norms with y0 itself.  The flow problem is not, so its reference holds
    # for seed 0 only.
    if w.seed_key == "physics.y0_scale":
        s = w.seed_value(seed)
        scale = {"J": s * s, "final_controlled": s, "final_uncontrolled": s}
    elif seed == 0:
        scale = {"J": 1.0, "final_controlled": 1.0, "final_uncontrolled": 1.0}
    else:
        scale = {}
    for key, factor in scale.items():
        want = w.reference[key] * factor
        if abs(out[key] - want) > w.rtol * abs(want):
            problems.append(f"{key} = {out[key]:.12e}, reference "
                            f"{want:.12e} (rtol {w.rtol:g})")
    return problems
