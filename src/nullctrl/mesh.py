"""Structured space-time prism mesh: triangulated rectangle x time slabs.

Every grid square of the rectangle is split into two triangles along the same
diagonal; cells of the mesh are prisms F x [t1, t2].  The control region must
be a union of triangles, so its box is required to sit exactly on grid lines.
Construction is deterministic: equal inputs give bit-identical meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class SpaceTimeMesh:
    """Triangulation of (0,L1)x(0,L2), uniform time partition, prism cells."""

    L1: float
    L2: float
    T: float
    nx: int
    ny: int
    nt: int
    omega: tuple[float, float, float, float]   # (x0, x1, y0, y1)
    vertices: np.ndarray                        # (nv, 2)
    triangles: np.ndarray                       # (ntri, 3) vertex indices
    time_nodes: np.ndarray                      # (nt+1,)
    omega_flag: np.ndarray                      # (ntri,) bool
    diagonal: str = "same"
    xgrid: np.ndarray = field(repr=False, default=None)
    ygrid: np.ndarray = field(repr=False, default=None)

    @property
    def ntri(self) -> int:
        return self.triangles.shape[0]

    @property
    def nprism(self) -> int:
        return self.ntri * self.nt

    @property
    def hx(self) -> float:
        return self.L1 / self.nx

    @property
    def hy(self) -> float:
        return self.L2 / self.ny

    @property
    def ht(self) -> float:
        return self.T / self.nt

    @property
    def prisms(self) -> np.ndarray:
        """(nprism, 2) array of (triangle index, slab index), slab-major."""
        slabs, tris = np.divmod(np.arange(self.nprism), self.ntri)
        return np.column_stack([tris, slabs])

    def tri_vertices(self, tri) -> np.ndarray:
        return self.vertices[self.triangles[tri]]


def _grid_index(value, grid, name):
    k = int(np.argmin(np.abs(grid - value)))
    if abs(grid[k] - value) > _ALIGN_TOL * max(1.0, grid[-1]):
        raise ValueError(
            f"control region {name}={value} does not lie on a grid line; "
            "corners must be multiples of the cell size")
    return k


def build_mesh(nx, ny, nt, L1, L2, T, omega, diagonal="same") -> SpaceTimeMesh:
    """Build the structured prism mesh with control-region cell flags.

    omega is an axis-aligned box (x0, x1, y0, y1) whose corners must sit on
    grid lines, so that the flagged triangles tile it exactly.  diagonal
    picks the square-splitting pattern: "same" uses the main diagonal in
    every cell; "alternate" flips it checkerboard-fashion, which makes the
    triangulation mirror symmetric (for even cell counts) -- needed when
    symmetry of the discrete solution matters.
    """
    if min(nx, ny, nt) < 1:
        raise ValueError("nx, ny, nt must be >= 1")
    if min(L1, L2, T) <= 0:
        raise ValueError("L1, L2, T must be positive")
    if diagonal not in ("same", "alternate"):
        raise ValueError("diagonal must be 'same' or 'alternate'")
    x0, x1, y0, y1 = omega
    if not (0.0 <= x0 < x1 <= L1 and 0.0 <= y0 < y1 <= L2):
        raise ValueError("control region box must be nonempty and inside "
                         "the domain")

    xgrid = np.linspace(0.0, L1, nx + 1)
    ygrid = np.linspace(0.0, L2, ny + 1)
    i0 = _grid_index(x0, xgrid, "x0")
    i1 = _grid_index(x1, xgrid, "x1")
    j0 = _grid_index(y0, ygrid, "y0")
    j1 = _grid_index(y1, ygrid, "y1")

    xv, yv = np.meshgrid(xgrid, ygrid, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    omega_flag = np.zeros(2 * nx * ny, dtype=bool)
    for j in range(ny):
        for i in range(nx):
            cell = j * nx + i
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if diagonal == "same" or (i + j) % 2 == 0:
                # split along the main diagonal v00 -> v11
                triangles[2 * cell] = (v00, v10, v11)
                triangles[2 * cell + 1] = (v00, v11, v01)
            else:
                # split along the anti-diagonal v10 -> v01
                triangles[2 * cell] = (v00, v10, v01)
                triangles[2 * cell + 1] = (v10, v11, v01)
            inside = i0 <= i < i1 and j0 <= j < j1
            omega_flag[2 * cell] = inside
            omega_flag[2 * cell + 1] = inside

    time_nodes = np.linspace(0.0, T, nt + 1)
    return SpaceTimeMesh(L1=L1, L2=L2, T=T, nx=nx, ny=ny, nt=nt,
                         omega=(float(xgrid[i0]), float(xgrid[i1]),
                                float(ygrid[j0]), float(ygrid[j1])),
                         vertices=vertices, triangles=triangles,
                         time_nodes=time_nodes, omega_flag=omega_flag,
                         diagonal=diagonal, xgrid=xgrid, ygrid=ygrid)


def _interval_index(grid, v):
    """Index of the containing interval; exact grid hits go to the earlier one."""
    k = np.searchsorted(grid, v, side="left") - 1
    return np.clip(k, 0, len(grid) - 2)


def locate_time(mesh: SpaceTimeMesh, t):
    """Containing slab of the time(s) t and the affine coordinate in [0, 1]
    within it; slab interfaces resolve to the earlier slab."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -_ALIGN_TOL * mesh.T) or np.any(t > mesh.T * (1 + _ALIGN_TOL)):
        raise ValueError("point outside the space-time cylinder")
    slab = _interval_index(mesh.time_nodes, t)
    return slab, (t - mesh.time_nodes[slab]) / mesh.ht


def locate(mesh: SpaceTimeMesh, x, t):
    """Containing prism of the point(s) (x, t) with local coordinates.

    Returns (prism, tri, slab, bary, tloc): barycentric coordinates (…, 3) in
    the triangle and affine coordinate in [0, 1] within the slab.  Points on
    cell interfaces resolve to the lowest-index containing cell (earlier slab,
    earlier square, lower triangle of a square).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    tt = np.broadcast_to(t, pts.shape[:-1]).ravel()

    eps = _ALIGN_TOL
    if (np.any(pts[:, 0] < -eps * mesh.L1) or np.any(pts[:, 0] > mesh.L1 * (1 + eps))
            or np.any(pts[:, 1] < -eps * mesh.L2) or np.any(pts[:, 1] > mesh.L2 * (1 + eps))):
        raise ValueError("point outside the space-time cylinder")
    slab, tloc = locate_time(mesh, tt)

    i = _interval_index(mesh.xgrid, pts[:, 0])
    j = _interval_index(mesh.ygrid, pts[:, 1])

    xi = (pts[:, 0] - mesh.xgrid[i]) / mesh.hx
    eta = (pts[:, 1] - mesh.ygrid[j]) / mesh.hy
    main_diag = (mesh.diagonal == "same") | ((i + j) % 2 == 0)
    bary = np.empty((len(pts), 3))
    tri = np.empty(len(pts), dtype=int)
    # main-diagonal split: lower (v00,v10,v11) lam=(1-xi, xi-eta, eta),
    #                      upper (v00,v11,v01) lam=(1-eta, xi, eta-xi)
    lower = main_diag & (eta <= xi)
    bary[lower] = np.column_stack([1.0 - xi[lower], xi[lower] - eta[lower],
                                   eta[lower]])
    up = main_diag & ~ (eta <= xi)
    bary[up] = np.column_stack([1.0 - eta[up], xi[up], eta[up] - xi[up]])
    # anti-diagonal split: lower (v00,v10,v01) lam=(1-xi-eta, xi, eta),
    #                      upper (v10,v11,v01) lam=(1-eta, xi+eta-1, 1-xi)
    low2 = ~main_diag & (xi + eta <= 1.0)
    bary[low2] = np.column_stack([1.0 - xi[low2] - eta[low2], xi[low2],
                                  eta[low2]])
    up2 = ~main_diag & ~(xi + eta <= 1.0)
    bary[up2] = np.column_stack([1.0 - eta[up2], xi[up2] + eta[up2] - 1.0,
                                 1.0 - xi[up2]])
    tri[:] = 2 * (j * mesh.nx + i) + np.where(lower | low2, 0, 1)

    prism = slab * mesh.ntri + tri
    if scalar:
        return int(prism[0]), int(tri[0]), int(slab[0]), bary[0], float(tloc[0])
    return prism, tri, slab, bary, tloc
