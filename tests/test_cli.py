"""CLI driver: presets, artifact layout, determinism, failure modes."""

import os
import subprocess
import sys

import numpy as np
import pytest

from nullctrl import cli, fem
from nullctrl import config as cfgmod
from nullctrl.cli import _load_config, _parser, run
from nullctrl.mesh import locate
from nullctrl.saddle import SolverDiverged


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


def read(*path):
    with open(os.path.join(*path)) as fh:
        return fh.read()


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


def test_preset_after_other_settings_rejected(tmp_path, capsys):
    # a later preset line would silently replace mesh.nx
    path = tmp_path / "run.cfg"
    path.write_text("mesh.nx = 4\npreset = heat-sec26\n")
    with pytest.raises(ValueError, match="first setting"):
        cfgmod.from_file(str(path))
    rc = run(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not os.path.exists(tmp_path / "out")


def test_misspelled_boolean_rejected(tmp_path, capsys):
    for word in ("1", "TRUE", "yes", "on", "True"):
        assert cfgmod.apply_setting(cfgmod.RunConfig(verify=False),
                                    "verify.enabled", word).verify is True
    for word in ("0", "False", "no", "Off", False):
        assert cfgmod.apply_setting(cfgmod.RunConfig(), "verify.enabled",
                                    word).verify is False
    rc = run(["run", "heat-sec26", "--set", "verify.enabled=flase",
              "--out", str(tmp_path / "out")] + FAST)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not os.path.exists(tmp_path / "out")


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


def test_removed_keys_rejected(tmp_path, capsys):
    # the weight-absorbing flow variables are the only formulation, and the
    # initial datum's base amplitude is a constant
    for preset, key, value in (("stokes-sec37", "solver.hatted", "false"),
                               ("heat-sec26", "physics.y0_base", "1000")):
        with pytest.raises(ValueError, match="unknown config key"):
            cfgmod.apply_setting(cfgmod.from_preset(preset), key, value)
        out = tmp_path / key
        rc = run(["run", preset, "--set", f"{key}={value}", "--out",
                  str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config:")
        assert not os.path.exists(out)


def test_equilibrate_key_rejected():
    # the iteration always runs on the equilibrated bases
    with pytest.raises(ValueError, match="unknown config key"):
        cfgmod.apply_setting(cfgmod.from_preset("heat-sec26"),
                             "solver.equilibrate", "false")


TINY_FLOW = ["--nx", "3", "--ny", "3", "--nt", "3",
             "--set", "solver.outer_max=2"]


# preset -> (extra arguments, CSV tables beyond the norms, VTK fields)
ARTIFACTS = {
    "heat-sec26": ([], {"iterations.csv"}, {"y", "v", "p_hat", "z_hat"}),
    "stokes-sec37": (TINY_FLOW, set(), {"y", "v", "sigma"}),
    "ns-taylor-green": (TINY_FLOW, {"outer_iterations.csv"},
                        {"y", "v", "sigma", "y_total"}),
}


@pytest.mark.parametrize("preset", ARTIFACTS)
def test_run_artifacts(tmp_path, preset):
    extra, tables, fields = ARTIFACTS[preset]
    out = str(tmp_path / "run1")
    rc = run(["run", preset, "--out", out] + FAST + extra)
    assert rc == 0
    files = os.listdir(out)
    vtks = [f for f in files if f.endswith(".vtk")]
    assert set(files) - set(vtks) == {
        "config.resolved", "norms.csv", "norms_uncontrolled.csv",
        "summary.txt"} | tables
    assert {f[len("field_"):].rsplit("_", 1)[0] for f in vtks} == fields
    head = read(out, "norms.csv").splitlines()[0]
    assert head == ("t,control_norm,state_norm" if preset == "heat-sec26"
                    else "t,deviation_norm")
    if "iterations.csv" in tables:
        head = read(out, "iterations.csv").splitlines()[0]
        assert head == "iter,rel_err1,rel_err2"
    text = read(out, vtks[0])
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "CELL_TYPES" in text


def test_vtk_fields_locate_vertices_once(tmp_path, monkeypatch):
    # each written field locates the mesh vertices once, not at every time node
    calls = []

    def counting_locate(mesh, x):
        calls.append(len(x))
        return locate(mesh, x)

    monkeypatch.setattr(fem, "locate", counting_locate)
    out = str(tmp_path / "vtk")
    rc = run(["run", "heat-sec26", "--nx", "3", "--ny", "3", "--nt", "2",
              "--method", "direct", "--no-verify", "--out", out])
    assert rc == 0
    names = {f[len("field_"):].rsplit("_", 1)[0]
             for f in os.listdir(out) if f.endswith(".vtk")}
    assert names == {"y", "v", "p_hat", "z_hat"}
    assert calls == [16] * len(names)   # 4x4 vertices


def test_zero_scale_run_reports_zero_cost(tmp_path):
    out = str(tmp_path / "run0")
    rc = run(["run", "heat-sec26", "--out", out, "--y0-scale", "0"] + FAST)
    assert rc == 0
    summary = read(out, "summary.txt")
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
        assert read(outs[0], name) == read(outs[1], name), name


def test_failing_solve_prints_traceback(tmp_path, monkeypatch, capsys):
    def diverge(cfg):
        raise SolverDiverged(7, None)

    monkeypatch.setattr(cli, "solve_heat_control", diverge)
    rc = run(["run", "heat-sec26", "--out", str(tmp_path / "fail")] + FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "SolverDiverged: iteration diverged at step 7" in err
    assert err.strip().splitlines()[-1].startswith("error: solver:")


def test_import_starts_no_thread():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import threading; n = threading.active_count(); "
         "import nullctrl.cli; print(n, threading.active_count())"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


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
