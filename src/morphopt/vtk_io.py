"""Legacy ASCII VTK export of meshes and nodal fields."""

import numpy as np

# lines formatted and written at once: only that many Python floats and
# strings live at a time (a whole section at once raised a run's peak RSS)
LINES_PER_WRITE = 4096


def write_vtk(path, mesh, point_scalars=None, point_vectors=None):
    """Write the mesh plus nodal data as DATASET UNSTRUCTURED_GRID.

    ``point_scalars`` maps names to (n_nodes,) arrays, ``point_vectors``
    to (n_nodes, 2) arrays (padded with a zero z-component).  A float is
    written as the repr of the Python float, the shortest text that reads
    back to the same double.
    """
    n, m = mesh.n_nodes, mesh.n_triangles
    with open(path, "w") as fh:
        def put(line, rows):
            # one %-format of the block's values, line repeated per row
            for a in range(0, len(rows), LINES_PER_WRITE):
                block = rows[a:a + LINES_PER_WRITE]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))

        fh.write("# vtk DataFile Version 3.0\nmorphopt fields\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n")
        put("%r %r 0.0\n", np.asarray(mesh.nodes, dtype=float))
        fh.write(f"CELLS {m} {4 * m}\n")
        put("3 %d %d %d\n", mesh.triangles)
        fh.write(f"CELL_TYPES {m}\n" + "5\n" * m)
        if point_scalars or point_vectors:
            fh.write(f"POINT_DATA {n}\n")
        for name, arr in (point_scalars or {}).items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            put("%r\n", np.asarray(arr, dtype=float).reshape(-1, 1))
        for name, arr in (point_vectors or {}).items():
            fh.write(f"VECTORS {name} double\n")
            put("%r %r 0.0\n", np.asarray(arr, dtype=float))
    return path
