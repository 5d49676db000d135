"""CLI driver: presets, artifact layout, determinism, failure modes."""

import argparse
import ast
import dataclasses
import importlib
import os
import re
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
    # a box is checked before it is snapped, not clamped into the domain
    for box in ((0.2, 5.0, 0.2, 0.6), (-3.0, 0.6, 0.2, 0.6),
                (0.6, 0.2, 0.2, 0.6)):
        with pytest.raises(ValueError, match="inside the domain"):
            cfgmod.snap_omega(box, 10, 10, 1.0, 1.0)


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


@pytest.mark.parametrize("key,value", [
    ("solver.outer_max", "0"), ("verify.nx", "0"), ("verify.ny", "0"),
    ("verify.nt", "0"), ("weights.K2", "1"),
    # non-finite numbers: nu and K1 used to write the output directory and
    # fail in the solver, the others passed validation
    ("physics.nu", "nan"), ("weights.K1", "nan"), ("solver.tol", "nan"),
    ("geometry.T", "inf"), ("physics.G", "nan"), ("physics.y0_scale", "nan"),
    ("solver.r", "inf"), ("solver.outer_tol", "-inf"), ("physics.M", "nan"),
    ("weights.anchor", "nan,1.5"),
    # control boxes that leave the domain (pi x pi) or are empty: they used
    # to be clamped into it, or widened, and then run
    ("geometry.omega", "1.0,5.0,1.0,2.0"),
    ("geometry.omega", "-3,2.0,1.0,2.0"),
    ("geometry.omega", "1.0,2.0,1.5,1.5"),
    ("geometry.omega", "2.0,1.0,1.0,2.0"),
    ("geometry.omega", "1.0,2.0,1.0,inf")])
def test_out_of_range_setting_rejected_before_any_output(tmp_path, capsys,
                                                         key, value):
    # each of these used to run (part of) the solve, write its output
    # directory and then fail: no fixed-point pass, a division by zero in
    # the verification, or a weight that does not blow up at T
    out = tmp_path / "out"
    rc = run(["run", "ns-taylor-green", "--nx", "3", "--ny", "3", "--nt",
              "2", "--method", "direct", "--set", f"{key}={value}",
              "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not os.path.exists(out)


def test_equilibrate_key_rejected():
    # the iteration always runs on the equilibrated bases
    with pytest.raises(ValueError, match="unknown config key"):
        cfgmod.apply_setting(cfgmod.from_preset("heat-sec26"),
                             "solver.equilibrate", "false")


KEYS = {f.metadata["key"]: f for f in dataclasses.fields(cfgmod.RunConfig)}


def test_settings_have_one_name_each():
    assert len(KEYS) == 31
    assert {key for key in KEYS if "." not in key} == {"scenario"}
    preset = cfgmod.from_preset("ns-taylor-green")
    for key, f in KEYS.items():
        value = getattr(preset, f.name)
        text = (",".join(map(repr, value)) if isinstance(value, tuple)
                else str(value))
        cfg = cfgmod.apply_setting(cfgmod.RunConfig(), key, text)
        assert getattr(cfg, f.name) == value, key
        if f.name != key:
            with pytest.raises(ValueError, match="unknown config key"):
                cfgmod.apply_setting(cfgmod.RunConfig(), f.name, text)


def test_field_names_rejected_as_keys(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("preset = heat-sec26\nnx = 5\n")
    for source, extra in ((str(path), []), ("heat-sec26", ["--set", "nx=5"])):
        out = tmp_path / "out"
        assert run(["run", source, "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err.startswith(
            "error: config: unknown config key 'nx'")
        assert not os.path.exists(out)


# a value for each shortcut flag that differs from every preset's
SHORTCUT_VALUES = {"--nx": "7", "--ny": "5", "--nt": "3", "--y0-scale": "0.5",
                   "--max-iter": "11", "--method": "direct", "--out": "o"}


@pytest.mark.parametrize("flag", sorted(cli.SHORTCUTS))
def test_shortcut_sets_its_key(flag):
    setting = cli.SHORTCUTS[flag]
    value = SHORTCUT_VALUES.get(flag)
    argv = ["run", "heat-sec26", flag] + ([value] if value else [])
    by_flag = _load_config(_parser().parse_args(argv))
    by_set = _load_config(_parser().parse_args(
        ["run", "heat-sec26", "--set",
         setting if value is None else f"{setting}={value}"]))
    assert by_flag == by_set != _load_config(
        _parser().parse_args(["run", "heat-sec26"]))


def test_settings_apply_in_command_line_order():
    for argv, nx in ((["--nx", "5", "--set", "mesh.nx=8"], 8),
                     (["--set", "mesh.nx=8", "--nx", "5"], 5)):
        args = _parser().parse_args(["run", "heat-sec26"] + argv)
        assert _load_config(args).nx == nx


# every preset, and one run with shortcut and --set overrides
@pytest.mark.parametrize("value", ["r#1", "a\nb", "a\rb", " r", "r\t"])
def test_output_dir_that_cannot_read_back_rejected(value):
    # from_file cuts a '#' comment, reads one setting a line and strips it
    cfg = cfgmod.RunConfig(output_dir=value)
    with pytest.raises(ValueError, match="output.dir"):
        cfgmod.validate(cfg)


@pytest.mark.parametrize("option", ["--out", "--set"])
def test_output_dir_with_hash_rejected_before_any_output(tmp_path, capsys,
                                                         option):
    out = str(tmp_path / "r#1")
    value = out if option == "--out" else f"output.dir={out}"
    rc = run(["run", "heat-sec26", "--nx", "3", "--ny", "3", "--nt", "2",
              "--method", "direct", "--no-verify", option, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: output.dir")
    assert os.listdir(tmp_path) == []


def test_output_dir_from_config_file_reads_back(tmp_path):
    # in a config file the '#' starts a comment, so the directory it names
    # is the one config.resolved gives back
    out = tmp_path / "run 1"
    path = tmp_path / "run.cfg"
    path.write_text(f"preset = heat-sec26\nmesh.nx = 3\nmesh.ny = 3\n"
                    f"mesh.nt = 2\nsolver.method = direct\n"
                    f"verify.enabled = false\noutput.dir = {out}  # #2\n")
    assert run(["run", str(path)]) == 0
    resolved = cfgmod.from_file(str(out / "config.resolved"))
    assert resolved == cfgmod.validate(cfgmod.from_file(str(path)))
    assert resolved.output_dir == str(out)


def test_unusable_output_dir_reported(tmp_path, capsys):
    # a file in the directory's place, or in config.resolved's
    taken = tmp_path / "taken"
    taken.write_text("")
    (tmp_path / "dir" / "config.resolved").mkdir(parents=True)
    for out in (taken, taken / "sub", tmp_path / "dir"):
        rc = run(["run", "heat-sec26", "--no-verify", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output:") and "Traceback" not in err
    assert taken.read_text() == ""


RESOLVED_CASES = [[preset] for preset in sorted(cfgmod.PRESETS)] + [[
    "ns-taylor-green", "--nx", "3", "--ny", "3", "--nt", "2", "--method",
    "direct", "--set", "geometry.omega=1.0,2.1,1.1,2.0", "--set",
    "physics.M=0.05", "--y0-scale", "2", "--max-iter", "9", "--no-verify",
    "--out", "o"]]


@pytest.mark.parametrize("argv", RESOLVED_CASES)
def test_config_resolved_reads_back(tmp_path, argv):
    cfg = _load_config(_parser().parse_args(["run"] + argv))
    path = tmp_path / "config.resolved"
    path.write_text(cfg.resolved_text())
    assert cfgmod.validate(cfgmod.from_file(str(path))) == cfg


def test_rerun_from_config_resolved(tmp_path):
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert run(["run", "heat-sec26", "--nx", "3", "--ny", "3", "--nt", "2",
                "--method", "direct", "--no-verify", "--out", first]) == 0
    assert run(["run", os.path.join(first, "config.resolved"),
                "--out", second]) == 0

    def j_line(out):
        return next(line for line in read(out, "summary.txt").splitlines()
                    if line.startswith("J = "))
    assert j_line(first) == j_line(second)


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
    heads = {"norms.csv": "t,control_norm,state_norm",
             "norms_uncontrolled.csv": "t,control_norm,state_norm",
             "iterations.csv": "iter,rel_err1,rel_err2",
             "outer_iterations.csv": "iter,rel_err,element_kernels"}
    for name in set(files) & set(heads):
        assert read(out, name).splitlines()[0] == heads[name], name
    text = read(out, vtks[0])
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "CELL_TYPES" in text


def test_write_csv_formats_columns(tmp_path):
    # integer columns as they are, number columns as .12e
    path = tmp_path / "table.csv"
    cli._write_csv(path, {"iter": [1, 2], "t": np.array([0.0, 0.25]),
                          "norm": [2.0, 0.5]})
    assert path.read_text() == ("iter,t,norm\n"
                                "1,0.000000000000e+00,2.000000000000e+00\n"
                                "2,2.500000000000e-01,5.000000000000e-01\n")


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def _documented_summary_keys():
    """The names README's `summary.txt` list documents: the code spans
    before the first ": " of each of its sub-items."""
    text = read(README)
    start = text.index("- `summary.txt`")
    end = text.index("\n- ", start + 1)
    items = text[start:end].split("\n  - ")[1:]
    return {key for item in items
            for key in re.findall(r"`(\w+)`", item.split(": ", 1)[0])}


SOLVE_REPORT = {"solver_iterations", "solver_stop", "solver_converged",
                "kkt_residual"}
# every solver path of the three problems
SUMMARY_RUNS = {
    "heat-ah": ("heat-sec26", []),
    "heat-direct": ("heat-sec26", ["--method", "direct"]),
    "stokes": ("stokes-sec37", TINY_FLOW),
    "flow-direct": ("ns-taylor-green", TINY_FLOW + ["--method", "direct"]),
    "flow-lsq": ("ns-taylor-green", TINY_FLOW),
}


@pytest.fixture(scope="module")
def summary_keys(tmp_path_factory):
    """The keys of each SUMMARY_RUNS run's summary.txt."""
    keys = {}
    for name, (preset, extra) in SUMMARY_RUNS.items():
        out = str(tmp_path_factory.mktemp(name))
        assert run(["run", preset, "--out", out] + FAST + extra) == 0
        keys[name] = [line.split(" = ", 1)[0]
                      for line in read(out, "summary.txt").splitlines()]
    return keys


@pytest.mark.parametrize("name", SUMMARY_RUNS)
def test_summary_keys_documented_in_readme(summary_keys, name):
    keys = summary_keys[name]
    assert len(keys) == len(set(keys))
    assert SOLVE_REPORT <= set(keys)
    assert not set(keys) - _documented_summary_keys()


def test_readme_documents_only_written_summary_keys(summary_keys):
    written = set().union(*summary_keys.values())
    assert written == _documented_summary_keys()


def _run_options():
    """The option strings of the `run` subcommand, less -h/--help."""
    sub = next(action for action in _parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {s for action in sub.choices["run"]._actions
            for s in action.option_strings} - {"-h", "--help"}


def test_readme_shortcuts_are_the_run_options():
    """README's shortcut list, with `--set`, names every option of `run`
    and nothing else."""
    text = read(README)
    spans = re.findall(r"`(--[^`]*)` are shortcuts", text)
    assert len(spans) == 1
    shortcuts = {s.strip() for s in spans[0].split("/")}
    assert "`--set section.key=value`" in text
    assert shortcuts | {"--set"} == _run_options()


def test_readme_settings_table_is_the_declared_keys():
    """README's settings reference names every declared key with the kind
    of value it takes, and nothing else."""
    text = read(README)
    start = text.index("## Settings")
    table = text[start:text.index("\n## ", start + 1)]
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \|", table, re.M)
    assert len(rows) == len({key for key, _ in rows})
    assert dict(rows) == {key: cfgmod._kind(f.default)
                          for key, f in KEYS.items()}


def _project():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later
    with open(os.path.join(os.path.dirname(README), "pyproject.toml"),
              "rb") as fh:
        return tomllib.load(fh)["project"]


def test_console_script_runs_cli_main():
    project = _project()
    assert project["name"] == "nullctrl"
    target = project["scripts"]["nullctrl"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_imported_libraries_are_declared():
    """Every library the package imports is a declared dependency; scipy
    from 1.12, whose gmres is the first to take `rtol`.  The test suite's
    runner is the `test` extra."""
    package = os.path.dirname(os.path.abspath(cfgmod.__file__))
    imported = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            for node in ast.walk(ast.parse(read(package, name))):
                if isinstance(node, ast.Import):
                    imported |= {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add(node.module.split(".")[0])
    libraries = imported - set(sys.stdlib_module_names) - {"__future__"}
    declared = {re.match(r"[\w.-]+", d).group(0): d
                for d in _project()["dependencies"]}
    assert libraries == set(declared) == {"numpy", "scipy"}
    assert declared["scipy"] == "scipy>=1.12"
    assert _project()["optional-dependencies"]["test"] == ["pytest"]


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


@pytest.mark.parametrize("preset", ["heat-sec26", "stokes-sec37"])
def test_control_region_off_the_verification_grid_fails(tmp_path, capsys,
                                                        preset):
    # the control region snaps to (1/3, 2/3)^2 on the 3x3 mesh, where no
    # triangle of a 2x2 verification grid has its centroid: the run fails
    # rather than verify a zero control
    out = tmp_path / "run"
    rc = run(["run", preset, "--set", "mesh.nx=3", "--set", "mesh.ny=3",
              "--set", "mesh.nt=3", "--set", "solver.method=direct",
              "--set", "verify.nx=2", "--set", "verify.ny=2",
              "--set", "verify.nt=10", "--out", str(out)])
    assert rc == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error: solver:")
    assert "control region" in last
    assert not (out / "norms.csv").exists()


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
