"""CLI driver: presets, artifact layout, determinism, failure modes."""

import os
import subprocess
import sys

import numpy as np
import pytest

from nullctrl import config as cfgmod
from nullctrl.cli import _load_config, _parser, run


# the child imports the package from where this process found it
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cfgmod.__file__)))


def run_cli(args):
    path = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "nullctrl.cli"] + args,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    return proc


FAST = ["--nx", "5", "--ny", "5", "--nt", "4", "--max-iter", "200",
        "--set", "verify.nx=12", "--set", "verify.ny=12",
        "--set", "verify.nt=20", "--set", "solver.tol=1e-4"]


def test_every_preset_validates():
    for name in cfgmod.PRESETS:
        cfg = cfgmod.validate(cfgmod.from_preset(name))
        assert cfg.scenario in ("heat", "stokes", "navier_stokes")


def test_taylor_green_preset_geometry():
    cfg = cfgmod.validate(cfgmod.from_preset("ns-taylor-green"))
    assert cfg.L1 == pytest.approx(np.pi)
    assert cfg.L2 == pytest.approx(np.pi)
    assert cfg.T == 1.0
    assert cfg.nu == 1.0
    assert cfg.omega[0] == pytest.approx(np.pi / 3)
    assert cfg.omega[1] == pytest.approx(2 * np.pi / 3)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset = heat-sec26\nmesh.nx = 4  # comment\n"
                    "mesh.ny = 4\nsolver.max_iter = 7\n")
    cfg = cfgmod.from_file(str(path))
    assert cfg.nx == 4 and cfg.ny == 4 and cfg.max_iter == 7
    assert cfg.scenario == "heat"


def test_omega_snapping():
    snapped = cfgmod.snap_omega((0.2, 0.6, 0.2, 0.6), 8, 8, 1.0, 1.0)
    assert snapped == (0.25, 0.625, 0.25, 0.625)
    same = cfgmod.snap_omega((0.2, 0.6, 0.2, 0.6), 10, 10, 1.0, 1.0)
    assert same[0] == pytest.approx(0.2)
    assert same[1] == pytest.approx(0.6)


def test_method_flag_takes_every_solver_method():
    for method in ("ah", "direct", "lsq"):
        args = _parser().parse_args(["run", "ns-taylor-green",
                                     "--method", method])
        assert _load_config(args).solver_method == method


def test_unknown_key_rejected():
    with pytest.raises(ValueError):
        cfgmod.apply_setting(cfgmod.from_preset("heat-sec26"), "mesh.bogus", 3)


def test_heat_run_artifacts(tmp_path):
    out = str(tmp_path / "run1")
    rc = run(["run", "heat-sec26", "--out", out] + FAST)
    assert rc == 0
    for name in ("config.resolved", "iterations.csv", "norms.csv",
                 "norms_uncontrolled.csv", "summary.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    vtks = [f for f in os.listdir(out) if f.endswith(".vtk")]
    assert any(f.startswith("field_y_") for f in vtks)
    assert any(f.startswith("field_v_") for f in vtks)
    head = open(os.path.join(out, "iterations.csv")).readline().strip()
    assert head == "iter,rel_err1,rel_err2"
    head = open(os.path.join(out, "norms.csv")).readline().strip()
    assert head == "t,control_norm,state_norm"
    vtk0 = [f for f in vtks if f.startswith("field_y_")][0]
    text = open(os.path.join(out, vtk0)).read()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "CELL_TYPES" in text


def test_zero_scale_run_reports_zero_cost(tmp_path):
    out = str(tmp_path / "run0")
    rc = run(["run", "heat-sec26", "--out", out, "--y0-scale", "0"] + FAST)
    assert rc == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    j = [ln for ln in summary.splitlines() if ln.startswith("J =")][0]
    assert float(j.split("=")[1]) == 0.0


def test_repeat_runs_bitwise_identical(tmp_path):
    outs = []
    for k in range(2):
        out = str(tmp_path / f"det{k}")
        rc = run(["run", "heat-sec26", "--out", out] + FAST)
        assert rc == 0
        outs.append(out)
    for name in ("iterations.csv", "norms.csv", "norms_uncontrolled.csv"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


def test_invalid_config_exits_nonzero():
    proc = run_cli(["run", "heat-sec26", "--nx", "0"])
    assert proc.returncode != 0
    err_lines = [ln for ln in proc.stderr.strip().splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: config:")


def test_unknown_preset_exits_nonzero():
    proc = run_cli(["run", "no-such-preset"])
    assert proc.returncode != 0
    assert "error: config:" in proc.stderr
