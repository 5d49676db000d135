"""Run configuration: presets, flat key-value files, validation, snapping.

The config layer is the only place the control-region box is adjusted: its
corners are snapped to the nearest mesh lines (the mesh builder itself
rejects misaligned boxes), and the snapped values are what land in
config.resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

SCENARIOS = ("heat", "stokes", "navier_stokes")
SOLVER_METHODS = ("ah", "direct", "lsq")
Y0_BASE = 1000.0   # heat and Stokes initial amplitude at y0_scale 1

PRESETS = {
    "heat-sec26": dict(
        scenario="heat", L1=1.0, L2=1.0, T=1.0,
        omega=(0.2, 0.6, 0.2, 0.6), nx=10, ny=10, nt=16,
        m=2, n=2, K1=1.0, K2=2.0, anchor=(0.5, 0.5),
        G=1.0, y0_scale=1.0,
        r=0.5, s=1.0, tol=1e-6, max_iter=30000,
    ),
    "stokes-sec37": dict(
        scenario="stokes", L1=1.0, L2=1.0, T=1.0,
        omega=(0.2, 0.6, 0.2, 0.6), nx=10, ny=10, nt=10,
        m=2, n=2, K1=1.0, K2=2.0, anchor=(0.5, 0.5),
        nu=1.0, y0_scale=1.0,
        r=0.5, s=1.0, tol=1e-6, max_iter=30000,
        solver_method="lsq",
    ),
    "ns-poiseuille": dict(
        scenario="navier_stokes", L1=5.0, L2=1.0, T=2.0,
        omega=(1.0, 2.0, 0.0, 1.0), nx=10, ny=6, nt=10,
        m=2, n=2, K1=1.0, K2=2.0, anchor=(1.5, 0.5),
        nu=1.0, trajectory="poiseuille", M=0.1, diagonal="alternate",
        r=0.5, s=1.0, tol=1e-6, max_iter=8000,
        solver_method="lsq", outer_tol=1e-4, outer_max=60,
    ),
    "ns-taylor-green": dict(
        scenario="navier_stokes", L1=math.pi, L2=math.pi, T=1.0,
        omega=(math.pi / 3, 2 * math.pi / 3, math.pi / 3, 2 * math.pi / 3),
        nx=6, ny=6, nt=10,
        m=2, n=2, K1=1.0, K2=2.0, anchor=(math.pi / 2, math.pi / 2),
        nu=1.0, trajectory="taylor_green", M=0.1, diagonal="alternate",
        r=0.5, s=1.0, tol=1e-6, max_iter=8000,
        solver_method="lsq", outer_tol=1e-4, outer_max=60,
    ),
}


def _setting(key, default):
    """A RunConfig field whose settings key (`section.key`) is `key`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; validated before any work starts.

    Each field declares the one key that config files, `--set` and
    config.resolved name it by; its default gives the value's type, and a
    tuple default the number of entries.
    """

    scenario: str = _setting("scenario", "heat")
    L1: float = _setting("geometry.L1", 1.0)
    L2: float = _setting("geometry.L2", 1.0)
    T: float = _setting("geometry.T", 1.0)
    omega: tuple = _setting("geometry.omega", (0.2, 0.6, 0.2, 0.6))
    nx: int = _setting("mesh.nx", 10)
    ny: int = _setting("mesh.ny", 10)
    nt: int = _setting("mesh.nt", 16)
    diagonal: str = _setting("mesh.diagonal", "same")
    m: int = _setting("degrees.m", 2)
    n: int = _setting("degrees.n", 2)
    K1: float = _setting("weights.K1", 1.0)
    K2: float = _setting("weights.K2", 2.0)
    anchor: tuple = _setting("weights.anchor", (0.5, 0.5))
    G: float = _setting("physics.G", 1.0)
    nu: float = _setting("physics.nu", 1.0)
    trajectory: str = _setting("physics.trajectory", "taylor_green")
    M: float = _setting("physics.M", 0.1)
    y0_scale: float = _setting("physics.y0_scale", 1.0)
    r: float = _setting("solver.r", 0.5)
    s: float = _setting("solver.s", 1.0)
    tol: float = _setting("solver.tol", 1e-6)
    max_iter: int = _setting("solver.max_iter", 30000)
    solver_method: str = _setting("solver.method", "ah")
    outer_tol: float = _setting("solver.outer_tol", 1e-4)
    outer_max: int = _setting("solver.outer_max", 60)
    verify: bool = _setting("verify.enabled", True)
    verify_nx: int = _setting("verify.nx", 32)
    verify_ny: int = _setting("verify.ny", 32)
    verify_nt: int = _setting("verify.nt", 200)
    output_dir: str = _setting("output.dir", "run_out")

    @property
    def y0_value(self) -> float:
        return Y0_BASE * self.y0_scale

    @property
    def y0_vector(self):
        return (Y0_BASE * self.y0_scale, 0.0)

    def resolved_text(self) -> str:
        """Every setting as a `key = value` line: a config file that
        `from_file` reads back into this configuration."""
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(float(c)) for c in v)
            lines.append(f"{f.metadata['key']} = {v}")
        return "\n".join(lines) + "\n"


def snap_omega(omega, nx, ny, L1, L2):
    """Snap the corners of a nonempty control box inside the domain to the
    nearest grid lines.

    Guarantees at least one cell of width in each direction; the exact-union
    requirement of the mesh builder then holds by construction.
    """
    x0, x1, y0, y1 = omega
    if not (0.0 <= x0 < x1 <= L1 and 0.0 <= y0 < y1 <= L2):
        raise ValueError("geometry.omega must be a nonempty box inside the "
                         "domain")
    xg = np.linspace(0.0, L1, nx + 1)
    yg = np.linspace(0.0, L2, ny + 1)

    def near(grid, v):
        return int(np.argmin(np.abs(grid - v)))

    i0, i1 = near(xg, omega[0]), near(xg, omega[1])
    j0, j1 = near(yg, omega[2]), near(yg, omega[3])
    if i1 <= i0:
        i1 = min(i0 + 1, nx)
        i0 = i1 - 1
    if j1 <= j0:
        j1 = min(j0 + 1, ny)
        j0 = j1 - 1
    return (float(xg[i0]), float(xg[i1]), float(yg[j0]), float(yg[j1]))


def validate(cfg: RunConfig) -> RunConfig:
    """Check module preconditions and return the snapped configuration."""
    for f in fields(cfg):
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in np.ravel(getattr(cfg, f.name))):
            raise ValueError(f"{f.metadata['key']} must be finite")
    if cfg.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    if cfg.diagonal not in ("same", "alternate"):
        raise ValueError("mesh.diagonal must be 'same' or 'alternate'")
    if min(cfg.nx, cfg.ny, cfg.nt) < 1:
        raise ValueError("mesh.nx, mesh.ny, mesh.nt must be >= 1")
    if min(cfg.m, cfg.n) < 1:
        raise ValueError("degrees.m, degrees.n must be >= 1")
    if min(cfg.L1, cfg.L2, cfg.T) <= 0:
        raise ValueError("geometry.L1, geometry.L2, geometry.T must be "
                         "positive")
    if cfg.K1 <= 0 or cfg.K2 <= 1:
        # chi = K1 (e^K2 - e^chi0) must stay positive where chi0 reaches 1
        raise ValueError("weights.K1 must be positive and weights.K2 "
                         "greater than 1")
    if cfg.scenario in ("stokes", "navier_stokes") and cfg.nu <= 0:
        raise ValueError("physics.nu must be positive")
    if cfg.scenario == "navier_stokes" and cfg.trajectory not in (
            "poiseuille", "taylor_green"):
        raise ValueError(f"unknown physics.trajectory {cfg.trajectory!r}")
    if (cfg.r <= 0 or cfg.s <= 0 or cfg.tol <= 0 or cfg.max_iter < 1
            or cfg.outer_max < 1):
        raise ValueError("solver.r, solver.s, solver.tol, solver.max_iter, "
                         "solver.outer_max must be positive")
    if min(cfg.verify_nx, cfg.verify_ny, cfg.verify_nt) < 1:
        raise ValueError("verify.nx, verify.ny, verify.nt must be >= 1")
    if cfg.solver_method not in SOLVER_METHODS:
        raise ValueError("solver.method must be one of "
                         + ", ".join(SOLVER_METHODS))
    # from_file, reading config.resolved back, cuts at '#' and strips lines
    if (any(c in cfg.output_dir for c in "#\r\n")
            or cfg.output_dir != cfg.output_dir.strip()):
        raise ValueError("output.dir must not contain '#' or a line break, "
                         "nor start or end with whitespace")
    omega = snap_omega(cfg.omega, cfg.nx, cfg.ny, cfg.L1, cfg.L2)
    cfg = replace(cfg, omega=omega)
    a, b = cfg.anchor
    x0, x1, y0, y1 = cfg.omega
    if not (x0 < a < x1 and y0 < b < y1):
        raise ValueError("weights.anchor must lie strictly inside the "
                         "control region")
    return cfg


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _kind(default):
    """The kind of value a setting with this default takes."""
    if isinstance(default, tuple):
        return f"{len(default)} floats"
    return type(default).__name__


def _coerce(key, raw, default):
    """raw as a value of the kind of default."""
    text = str(raw).replace("(", "").replace(")", "")
    try:
        if isinstance(default, bool):
            return _BOOL_WORDS[text.strip().lower()]
        if not isinstance(default, tuple):
            return type(default)(raw)
        parts = tuple(float(p) for p in text.split(","))
        if len(parts) == len(default):
            return parts
    except (KeyError, ValueError):
        pass
    raise ValueError(f"{key} takes {_kind(default)}, got {raw!r}")


def apply_setting(cfg: RunConfig, key: str, raw) -> RunConfig:
    """Apply one `section.key = value` (or `scenario = name`) setting."""
    if key not in _FIELDS:
        raise ValueError(f"unknown config key {key!r}")
    f = _FIELDS[key]
    return replace(cfg, **{f.name: _coerce(key, raw, f.default)})


def from_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have "
                         + ", ".join(sorted(PRESETS)))
    return RunConfig(**PRESETS[name])


def from_file(path: str) -> RunConfig:
    """Flat key-value text: 'section.key = value', '#' comments allowed;
    the keys are those of RunConfig's fields, and config.resolved is one.

    A 'preset = name' line seeds the remaining keys; it must be the first
    setting, since it would silently replace the ones before it.
    """
    cfg = RunConfig()
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    for k, ln in enumerate(lines):
        if "=" not in ln:
            raise ValueError(f"bad config line: {ln!r}")
        key, raw = (part.strip() for part in ln.split("=", 1))
        if key == "preset":
            if k > 0:
                raise ValueError("'preset' must be the first setting of "
                                 "a config file")
            cfg = from_preset(raw)
            continue
        cfg = apply_setting(cfg, key, raw)
    return cfg
