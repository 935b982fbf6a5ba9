"""Legacy ASCII VTK export of meshes and nodal fields."""

import numpy as np


def _fmt(x):
    return repr(float(x))


def write_vtk(path, mesh, point_scalars=None, point_vectors=None):
    """Write the mesh plus nodal data as DATASET UNSTRUCTURED_GRID.

    ``point_scalars`` maps names to (n_nodes,) arrays, ``point_vectors``
    to (n_nodes, 2) arrays (padded with a zero z-component).
    """
    point_scalars = point_scalars or {}
    point_vectors = point_vectors or {}
    n = mesh.n_nodes
    m = mesh.n_triangles
    lines = [
        "# vtk DataFile Version 3.0",
        "morphopt fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    for x, y in mesh.nodes:
        lines.append(f"{_fmt(x)} {_fmt(y)} 0.0")
    lines.append(f"CELLS {m} {4 * m}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {m}")
    lines.extend(["5"] * m)
    if point_scalars or point_vectors:
        lines.append(f"POINT_DATA {n}")
        for name, arr in point_scalars.items():
            arr = np.asarray(arr, dtype=float)
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(v) for v in arr)
        for name, arr in point_vectors.items():
            arr = np.asarray(arr, dtype=float)
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{_fmt(vx)} {_fmt(vy)} 0.0" for vx, vy in arr)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
