"""Structured P1 triangulations of the rectangle and the regular hexagon.

Meshes are immutable after construction and carry the boundary markers the
solvers need: the clamped node set and the set of triangles covering the
target region (membership decided by centroid).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

_SQRT3_2 = np.sqrt(3.0) / 2.0

# Regular unit hexagon, vertex 0 on the +x axis, counterclockwise.
_HEX_VERTS = np.array([
    [1.0, 0.0],
    [0.5, _SQRT3_2],
    [-0.5, _SQRT3_2],
    [-1.0, 0.0],
    [-0.5, -_SQRT3_2],
    [0.5, -_SQRT3_2],
])

# Outward unit normals of the hexagon edges V_k -> V_{k+1}; edge k has its
# normal at 30 + 60k degrees.
_HEX_EDGE_NORMALS = np.array([
    [_SQRT3_2, 0.5],
    [0.0, 1.0],
    [-_SQRT3_2, 0.5],
    [-_SQRT3_2, -0.5],
    [0.0, -1.0],
    [_SQRT3_2, -0.5],
])


@dataclass
class Mesh:
    """P1 triangle mesh with boundary and target markers.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
    triangles : (n_tri, 3) int array, counterclockwise
    dirichlet_nodes : sorted int array of clamped node indices
    target_elements : sorted int array of triangles covering the target region
    cell_size : characteristic edge length h
    cache : per-mesh derived data, filled on first use (elasticity keeps
        its operator maps there)
    """

    nodes: np.ndarray
    triangles: np.ndarray
    dirichlet_nodes: np.ndarray
    target_elements: np.ndarray
    cell_size: float
    areas: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    # geometry-only data other modules derive once per mesh on first use
    cache: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    def __post_init__(self):
        self.nodes = np.array(self.nodes, dtype=float)
        self.triangles = np.array(self.triangles, dtype=np.int64)
        self.dirichlet_nodes = np.unique(np.asarray(self.dirichlet_nodes, dtype=np.int64))
        self.target_elements = np.unique(np.asarray(self.target_elements, dtype=np.int64))
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.nodes)):
            raise InvalidParameterError("triangle refers to a nonexistent node")
        p = self.nodes[self.triangles]                       # (M, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(signed <= 0.0):
            raise InvalidParameterError("mesh contains a degenerate or clockwise triangle")
        self.areas = signed
        # P1 shape-function gradients: grad N_a = perp(p_{a+2} - p_{a+1}) / (2A)
        grads = np.empty((len(self.triangles), 3, 2))
        for a in range(3):
            e = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
            grads[:, a, 0] = -e[:, 1]
            grads[:, a, 1] = e[:, 0]
        grads /= (2.0 * signed)[:, None, None]
        self.grads = grads
        if not np.all(np.isin(self.dirichlet_nodes, self.boundary_nodes())):
            raise InvalidParameterError("dirichlet node off the mesh boundary")
        for arr in (self.nodes, self.triangles, self.dirichlet_nodes,
                    self.target_elements, self.areas, self.grads):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def area(self):
        return float(np.sum(self.areas))

    def centroids(self):
        return self.nodes[self.triangles].mean(axis=1)

    def boundary_nodes(self):
        """Nodes lying on edges that belong to exactly one triangle."""
        t = self.triangles
        edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        return np.unique(uniq[counts == 1])

    def dirichlet_dofs(self):
        """Both displacement components of every clamped node."""
        n = self.dirichlet_nodes
        return np.sort(np.concatenate([2 * n, 2 * n + 1]))

    def lumped_node_areas(self):
        """Row sums of the P1 mass matrix: sum of A/3 over incident triangles."""
        out = np.zeros(self.n_nodes)
        np.add.at(out, self.triangles.ravel(),
                  np.repeat(self.areas / 3.0, 3))
        return out


def build_rect_mesh(lx, ly, h, dirichlet_side="left", target_box=None):
    """Structured mesh of the rectangle (0, lx) x (0, ly).

    Each grid cell is split along its lower-left to upper-right diagonal.
    ``dirichlet_side`` is one of left/right/bottom/top; ``target_box`` is
    (x0, y0, x1, y1) and selects triangles by centroid.
    """
    if lx <= 0 or ly <= 0 or h <= 0:
        raise InvalidParameterError("lx, ly, h must be positive")
    nx = int(round(lx / h))
    ny = int(round(ly / h))
    if nx == 0 or ny == 0:
        raise InvalidParameterError(
            f"cell size h={h} does not resolve the {lx} x {ly} rectangle")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([xg.ravel(), yg.ravel()])  # node id = j*(nx+1) + i

    i = np.arange(nx)
    j = np.arange(ny)
    ii, jj = np.meshgrid(i, j, indexing="xy")
    n00 = (jj * (nx + 1) + ii).ravel()
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    sides = {
        "left": nodes[:, 0] == 0.0,
        "right": nodes[:, 0] == lx,
        "bottom": nodes[:, 1] == 0.0,
        "top": nodes[:, 1] == ly,
    }
    if dirichlet_side not in sides:
        raise InvalidParameterError(f"unknown dirichlet_side {dirichlet_side!r}")
    dirichlet = np.nonzero(sides[dirichlet_side])[0]

    if target_box is None:
        target = np.array([], dtype=np.int64)
    else:
        x0, y0, x1, y1 = target_box
        if not (0.0 <= x0 <= x1 <= lx and 0.0 <= y0 <= y1 <= ly):
            raise InvalidParameterError("target_box must sit inside the domain")
        c = nodes[triangles].mean(axis=1)
        inside = (c[:, 0] >= x0) & (c[:, 0] <= x1) & (c[:, 1] >= y0) & (c[:, 1] <= y1)
        target = np.nonzero(inside)[0]

    return Mesh(nodes, triangles, dirichlet, target,
                cell_size=max(lx / nx, ly / ny))


def points_in_hexagon(points, edge):
    """Mask of points inside the centered regular hexagon with given edge."""
    apothem = edge * _SQRT3_2
    proj = points @ _HEX_EDGE_NORMALS[:3].T
    return np.all(np.abs(proj) <= apothem, axis=1)


def build_hexagon_mesh(edge, h, target_edge, clamp_orientation="odd"):
    """Structured mesh of the regular hexagon centered at the origin.

    The hexagon is tiled by three rhombi spanned by (V0,V2), (V2,V4),
    (V4,V0), each subdivided into an m x m grid of cells split along the
    same diagonal, so the mesh is exactly invariant under rotation by
    2pi/3.  Three alternating edges are clamped: ``clamp_orientation``
    "odd" selects the edges with outward normals at 90/210/330 degrees,
    "even" the other triple (30/150/270).  Target triangles are those
    whose centroid lies in the centered hexagon with edge ``target_edge``.
    """
    if edge <= 0 or h <= 0:
        raise InvalidParameterError("edge and h must be positive")
    if not 0 < target_edge < edge:
        raise InvalidParameterError("target_edge must lie in (0, edge)")
    if clamp_orientation not in ("odd", "even"):
        raise InvalidParameterError(
            f"clamp_orientation must be 'odd' or 'even', got {clamp_orientation!r}")
    m = int(round(edge / h))
    if m < 1:
        raise InvalidParameterError(f"cell size h={h} does not resolve the hexagon")

    verts = edge * _HEX_VERTS
    key_scale = 1e-9 * edge
    node_ids = {}
    coords = []

    def node_id(p):
        key = (round(p[0] / key_scale), round(p[1] / key_scale))
        idx = node_ids.get(key)
        if idx is None:
            idx = len(coords)
            node_ids[key] = idx
            coords.append((p[0], p[1]))
        return idx

    tris = []
    frac = np.arange(m + 1) / m
    for r in range(3):
        a = verts[2 * r]
        b = verts[(2 * r + 2) % 6]
        grid = np.empty((m + 1, m + 1), dtype=np.int64)
        for iy in range(m + 1):
            for ix in range(m + 1):
                grid[ix, iy] = node_id(frac[ix] * a + frac[iy] * b)
        for ix in range(m):
            for iy in range(m):
                p00 = grid[ix, iy]
                p10 = grid[ix + 1, iy]
                p01 = grid[ix, iy + 1]
                p11 = grid[ix + 1, iy + 1]
                tris.append((p00, p10, p11))
                tris.append((p00, p11, p01))

    nodes = np.array(coords)
    triangles = np.array(tris, dtype=np.int64)

    clamped_edges = (1, 3, 5) if clamp_orientation == "odd" else (0, 2, 4)
    tol = 1e-9 * edge
    on_clamped = np.zeros(len(nodes), dtype=bool)
    for k in clamped_edges:
        va = verts[k]
        vb = verts[(k + 1) % 6]
        d = vb - va
        rel = nodes - va
        cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
        t = (rel @ d) / (d @ d)
        on_clamped |= (np.abs(cross) <= tol * edge) & (t >= -1e-12) & (t <= 1 + 1e-12)
    dirichlet = np.nonzero(on_clamped)[0]

    c = nodes[triangles].mean(axis=1)
    target = np.nonzero(points_in_hexagon(c, target_edge))[0]
    if len(target) == 0:
        raise InvalidParameterError(
            f"cell size h={h} leaves the target hexagon (edge {target_edge}) unresolved")

    return Mesh(nodes, triangles, dirichlet, target, cell_size=edge / m)


def hexagon_rotation_permutation(mesh):
    """Node permutation realizing the 2pi/3 rotation of a hexagon mesh.

    Returns ``perm`` with ``nodes[perm[i]] == R @ nodes[i]``; raises if the
    node set is not rotation invariant.
    """
    from scipy.spatial import cKDTree

    rot = np.array([[-0.5, -_SQRT3_2], [_SQRT3_2, -0.5]])
    rotated = mesh.nodes @ rot.T
    scale = max(float(np.max(np.abs(mesh.nodes))), 1.0)
    dist, perm = cKDTree(mesh.nodes).query(rotated)
    if np.max(dist) > 1e-9 * scale or len(np.unique(perm)) != mesh.n_nodes:
        raise InvalidParameterError("mesh nodes are not 2pi/3-rotation invariant")
    return perm.astype(np.int64)
