"""Legacy-ASCII VTK snapshots of space-time fields on the spatial mesh.

One file per time node, scalar/vector point data at the triangulation
vertices; viewable in any standard VTK reader without extra dependencies.
"""

from __future__ import annotations

import os

import numpy as np


def write_vtk_snapshot(path, mesh, point_fields):
    """Write one UNSTRUCTURED_GRID file with the given point data.

    point_fields maps names to arrays of shape (nv,) (scalar) or (nv, 2)
    (vector; padded with a zero third component).
    """
    nv = len(mesh.vertices)
    ntri = mesh.ntri
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("space-time control field snapshot\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.10g} {y:.10g} 0\n")
        fh.write(f"CELLS {ntri} {4 * ntri}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {ntri}\n")
        fh.write("\n".join(["5"] * ntri) + "\n")
        fh.write(f"POINT_DATA {nv}\n")
        for name, vals in point_fields.items():
            vals = np.asarray(vals, dtype=float)
            if vals.ndim == 1:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in vals:
                    fh.write(f"{v:.10g}\n")
            else:
                fh.write(f"VECTORS {name} double\n")
                for v in vals:
                    fh.write(f"{v[0]:.10g} {v[1]:.10g} 0\n")


def write_field_series(outdir, mesh, fields):
    """Write field_<name>_<k>.vtk at every mesh time node.

    fields maps names to callables f(X, t) of the spatial vertices X; each
    is called once, with the column of time nodes as t, and returns one row
    of vertex values per time node.
    """
    X, times = mesh.vertices, mesh.time_nodes[:, None]
    for name, fn in fields.items():
        series = np.asarray(fn(X, times), dtype=float)
        for k, vals in enumerate(series):
            path = os.path.join(outdir, f"field_{name}_{k}.vtk")
            write_vtk_snapshot(path, mesh, {name: vals})
