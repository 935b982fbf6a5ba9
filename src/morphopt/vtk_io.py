"""Legacy ASCII VTK export of meshes and nodal fields."""

import numpy as np


def write_vtk(path, mesh, point_scalars=None, point_vectors=None):
    """Write the mesh plus nodal data as DATASET UNSTRUCTURED_GRID.

    ``point_scalars`` maps names to (n_nodes,) arrays, ``point_vectors``
    to (n_nodes, 2) arrays (padded with a zero z-component).  A float is
    written as the repr of the Python float, the shortest text that reads
    back to the same double.
    """
    point_scalars = point_scalars or {}
    point_vectors = point_vectors or {}
    n = mesh.n_nodes
    m = mesh.n_triangles
    with open(path, "w") as fh:
        def put(lines):
            # one write per section: the Python floats and strings of a
            # section are freed before the next section is built (holding
            # every line until one final write raised a run's peak RSS)
            fh.write("\n".join(lines) + "\n")

        put(["# vtk DataFile Version 3.0", "morphopt fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"])
        put(f"{x!r} {y!r} 0.0"
            for x, y in np.asarray(mesh.nodes, dtype=float).tolist())
        put([f"CELLS {m} {4 * m}"])
        put(f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist())
        put([f"CELL_TYPES {m}"] + ["5"] * m)
        if point_scalars or point_vectors:
            put([f"POINT_DATA {n}"])
        for name, arr in point_scalars.items():
            put([f"SCALARS {name} double 1", "LOOKUP_TABLE default"])
            put(map(repr, np.asarray(arr, dtype=float).tolist()))
        for name, arr in point_vectors.items():
            put([f"VECTORS {name} double"])
            put(f"{vx!r} {vy!r} 0.0"
                for vx, vy in np.asarray(arr, dtype=float).tolist())
    return path
