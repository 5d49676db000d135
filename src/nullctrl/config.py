"""Run configuration: presets, flat key-value files, validation, snapping.

The config layer is the only place the control-region box is adjusted: its
corners are snapped to the nearest mesh lines (the mesh builder itself
rejects misaligned boxes), and the snapped values are what land in
config.resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; validated before any work starts."""

    scenario: str = "heat"
    # geometry
    L1: float = 1.0
    L2: float = 1.0
    T: float = 1.0
    omega: tuple = (0.2, 0.6, 0.2, 0.6)
    # mesh and degrees
    nx: int = 10
    ny: int = 10
    nt: int = 16
    diagonal: str = "same"
    m: int = 2
    n: int = 2
    # weights
    K1: float = 1.0
    K2: float = 2.0
    anchor: tuple = (0.5, 0.5)
    # physics
    G: float = 1.0
    nu: float = 1.0
    trajectory: str = "taylor_green"
    M: float = 0.1
    y0_scale: float = 1.0
    # solver
    r: float = 0.5
    s: float = 1.0
    tol: float = 1e-6
    max_iter: int = 30000
    solver_method: str = "ah"
    outer_tol: float = 1e-4
    outer_max: int = 60
    # verification
    verify: bool = True
    verify_nx: int = 32
    verify_ny: int = 32
    verify_nt: int = 200
    # output
    output_dir: str = "run_out"

    @property
    def y0_value(self) -> float:
        return Y0_BASE * self.y0_scale

    @property
    def y0_vector(self):
        return (Y0_BASE * self.y0_scale, 0.0)

    def resolved_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(float(c)) for c in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


def snap_omega(omega, nx, ny, L1, L2):
    """Snap the control box corners to the nearest grid lines.

    Guarantees at least one cell of width in each direction; the exact-union
    requirement of the mesh builder then holds by construction.
    """
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
    if cfg.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    if cfg.diagonal not in ("same", "alternate"):
        raise ValueError("mesh.diagonal must be 'same' or 'alternate'")
    if min(cfg.nx, cfg.ny, cfg.nt) < 1:
        raise ValueError("mesh counts nx, ny, nt must be >= 1")
    if min(cfg.m, cfg.n) < 1:
        raise ValueError("degrees m, n must be >= 1")
    if min(cfg.L1, cfg.L2, cfg.T) <= 0:
        raise ValueError("L1, L2, T must be positive")
    if cfg.K1 <= 0 or cfg.K2 <= 0:
        raise ValueError("K1, K2 must be positive")
    if cfg.scenario in ("stokes", "navier_stokes") and cfg.nu <= 0:
        raise ValueError("viscosity nu must be positive")
    if cfg.scenario == "navier_stokes" and cfg.trajectory not in (
            "poiseuille", "taylor_green"):
        raise ValueError(f"unknown trajectory {cfg.trajectory!r}")
    if cfg.r <= 0 or cfg.s <= 0 or cfg.tol <= 0 or cfg.max_iter < 1:
        raise ValueError("solver parameters must be positive")
    if cfg.solver_method not in SOLVER_METHODS:
        raise ValueError("solver_method must be one of "
                         + ", ".join(SOLVER_METHODS))
    omega = snap_omega(cfg.omega, cfg.nx, cfg.ny, cfg.L1, cfg.L2)
    cfg = replace(cfg, omega=omega)
    a, b = cfg.anchor
    x0, x1, y0, y1 = cfg.omega
    if not (x0 < a < x1 and y0 < b < y1):
        raise ValueError("anchor must lie strictly inside the control region")
    return cfg


_TUPLE_KEYS = {"omega": 4, "anchor": 2}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_SECTION_MAP = {
    "mesh.nx": "nx", "mesh.ny": "ny", "mesh.nt": "nt",
    "mesh.diagonal": "diagonal",
    "degrees.m": "m", "degrees.n": "n",
    "geometry.L1": "L1", "geometry.L2": "L2", "geometry.T": "T",
    "geometry.omega": "omega",
    "weights.K1": "K1", "weights.K2": "K2", "weights.anchor": "anchor",
    "physics.G": "G", "physics.nu": "nu", "physics.trajectory": "trajectory",
    "physics.M": "M", "physics.y0_scale": "y0_scale",
    "solver.r": "r", "solver.s": "s", "solver.tol": "tol",
    "solver.max_iter": "max_iter", "solver.method": "solver_method",
    "solver.outer_tol": "outer_tol", "solver.outer_max": "outer_max",
    "verify.enabled": "verify", "verify.nx": "verify_nx",
    "verify.ny": "verify_ny", "verify.nt": "verify_nt",
    "output.dir": "output_dir",
}


def _coerce(name, raw, current):
    if name in _TUPLE_KEYS:
        parts = [float(p) for p in str(raw).replace("(", "").replace(")", "").split(",")]
        if len(parts) != _TUPLE_KEYS[name]:
            raise ValueError(f"{name} needs {_TUPLE_KEYS[name]} numbers")
        return tuple(parts)
    if isinstance(current, bool):
        word = str(raw).strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"{name} needs one of {', '.join(_BOOL_WORDS)}, "
                             f"got {raw!r}")
        return _BOOL_WORDS[word]
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return str(raw)


def apply_setting(cfg: RunConfig, key: str, raw) -> RunConfig:
    """Apply one 'section.key = value' (or bare field name) setting."""
    name = _SECTION_MAP.get(key, key)
    valid = {f.name for f in fields(RunConfig)}
    if name not in valid:
        raise ValueError(f"unknown config key {key!r}")
    return replace(cfg, **{name: _coerce(name, raw, getattr(cfg, name))})


def from_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have "
                         + ", ".join(sorted(PRESETS)))
    return RunConfig(**PRESETS[name])


def from_file(path: str) -> RunConfig:
    """Flat key-value text: 'section.key = value', '#' comments allowed.

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
