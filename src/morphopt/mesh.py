"""Structured P1 triangulations of the rectangle and the regular hexagon.

Meshes are immutable after construction and carry the boundary markers the
solvers need: the clamped node set and the set of triangles covering the
target region (membership decided by centroid).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError
from .linsolve import sorted_unique

_SQRT3_2 = np.sqrt(3.0) / 2.0

# Largest node count a builder allocates: 119 times the 84,168 nodes of
# the shipped h = 2e-3 cantilever, whose probe peaks near 745 MiB
MAX_NODES = 10 ** 7

# Regular unit hexagon, vertex 0 on the +x axis, counterclockwise.
_HEX_VERTS = np.array([
    [1.0, 0.0],
    [0.5, _SQRT3_2],
    [-0.5, _SQRT3_2],
    [-1.0, 0.0],
    [-0.5, -_SQRT3_2],
    [0.5, -_SQRT3_2],
])

# Outward unit normals of the hexagon edges V_k -> V_{k+1} for k = 0, 1, 2
# (at 30 + 60k degrees); edge k + 3 has the opposite normal.
_HEX_EDGE_NORMALS = np.array([
    [_SQRT3_2, 0.5],
    [0.0, 1.0],
    [-_SQRT3_2, 0.5],
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
    areas, grads : triangle areas and P1 shape-function gradients
    area : total area
    cache : per-mesh derived data, filled on first use (the gradient
        operator; elasticity keeps its operator maps there)

    Every array is read-only.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    dirichlet_nodes: np.ndarray
    target_elements: np.ndarray
    cell_size: float
    areas: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    area: float = field(init=False, repr=False)
    _lumped_areas: np.ndarray = field(init=False, repr=False)
    _dirichlet_dofs: np.ndarray = field(init=False, repr=False)
    # geometry-only data other modules derive once per mesh on first use
    cache: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    def __post_init__(self):
        nodes, tris = np.asarray(self.nodes), np.asarray(self.triangles)
        cell = np.asarray(self.cell_size)
        markers = {"dirichlet_nodes": np.asarray(self.dirichlet_nodes),
                   "target_elements": np.asarray(self.target_elements)}
        finite = [a.dtype.kind in "iuf" and np.isfinite(a).all()
                  for a in (nodes, tris, cell, *markers.values())]
        if not (finite[0] and nodes.shape[1:] == (2,)):
            raise InvalidParameterError(
                f"nodes must be a finite (n, 2) array, got shape {nodes.shape}")
        if not (finite[1] and tris.shape[1:] == (3,) and _whole(tris) and (
                not tris.size or 0 <= tris.min() <= tris.max() < len(nodes))):
            raise InvalidParameterError(
                f"triangles must be an (m, 3) array of node indices, got "
                f"{tris.dtype} of shape {tris.shape}")
        if not (finite[2] and cell.shape == () and cell > 0):
            raise InvalidParameterError(
                f"cell_size must be one finite positive number, got {cell!r}")
        self.nodes = np.array(nodes, dtype=float)
        self.triangles = np.array(tris, dtype=np.int64)
        self.cell_size = float(cell)
        for ok, (name, a) in zip(finite[3:], markers.items()):
            if not (ok and a.ndim == 1 and _whole(a)):
                raise InvalidParameterError(
                    f"{name} must be a 1-D array of whole indices, got "
                    f"{a.dtype} of shape {a.shape}")
            setattr(self, name, sorted_unique(a.astype(np.int64)))
        if self.target_elements.size and (
                self.target_elements[0] < 0
                or self.target_elements[-1] >= len(self.triangles)):
            raise InvalidParameterError("target element refers to a nonexistent triangle")
        # the corners as complex x + iy: one gather of 16-byte items, and
        # complex sums and differences act on x and y apart
        p = _corners(self.nodes, self.triangles)             # (M, 3)
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        signed = 0.5 * (d1.real * d2.imag - d1.imag * d2.real)
        if not np.all(signed > 0.0):
            raise InvalidParameterError("mesh contains a degenerate or clockwise triangle")
        self.areas = signed
        # P1 shape-function gradients: grad N_a = perp(p_{a+2} - p_{a+1}) / (2A)
        e = p.take([2, 0, 1], axis=1) - p.take([1, 2, 0], axis=1)
        grads = np.empty((len(p), 3, 2))
        np.negative(e.imag, out=grads[:, :, 0])
        grads[:, :, 1] = e.real
        grads /= (2.0 * signed)[:, None, None]
        self.grads = grads
        d = self.dirichlet_nodes
        if d.size and not (0 <= d[0] and d[-1] < self.n_nodes
                           and self._on_boundary()[d].all()):
            raise InvalidParameterError("dirichlet node off the mesh boundary")
        self.area = float(np.sum(signed))
        self._lumped_areas = np.bincount(self.triangles.ravel(), np.repeat(
            signed / 3.0, 3), minlength=self.n_nodes)
        n = self.dirichlet_nodes
        self._dirichlet_dofs = np.sort(np.concatenate([2 * n, 2 * n + 1]))
        for arr in (self.nodes, self.triangles, self.dirichlet_nodes,
                    self.target_elements, self.areas, self.grads,
                    self._lumped_areas, self._dirichlet_dofs):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def centroids(self):
        return _centroids(self.nodes, self.triangles)

    def boundary_nodes(self):
        """Nodes lying on edges that belong to exactly one triangle."""
        return np.flatnonzero(self._on_boundary())

    def _on_boundary(self):
        # the edge keys sorted once: a key unequal to both its neighbours
        # belongs to exactly one triangle
        t = self.triangles
        a, b = t.ravel(), t[:, [1, 2, 0]].ravel()
        n = self.n_nodes
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        differs = np.empty(len(keys) + 1, dtype=bool)
        differs[[0, -1]] = True
        np.not_equal(keys[1:], keys[:-1], out=differs[1:-1])
        edges = keys[differs[:-1] & differs[1:]]
        mask = np.zeros(n, dtype=bool)
        mask[edges // n] = True
        mask[edges % n] = True
        return mask

    def dirichlet_dofs(self):
        """Both displacement components of every clamped node."""
        return self._dirichlet_dofs

    def lumped_node_areas(self):
        """Row sums of the P1 mass matrix: sum of A/3 over incident triangles."""
        return self._lumped_areas

    def gradient_operator(self):
        """The P1 gradient D, a (2 n_tri, n_nodes) read-only CSR matrix
        kept in ``cache["gradient"]``, built on first use: row 2m + d holds
        d/dx_d on triangle m at its nodes, in local-node order.  ``D @
        nodal`` gives the per-triangle gradients of nodal fields, ``D.T``
        scatters element values to the nodes."""
        if "gradient" not in self.cache:
            m = self.n_triangles
            D = sp.csr_matrix(
                (self.grads.transpose(0, 2, 1).ravel(),
                 np.repeat(self.triangles, 2, axis=0).ravel().astype(np.int32),
                 np.arange(0, 6 * m + 1, 3, dtype=np.int32)),
                shape=(2 * m, self.n_nodes))
            for arr in (D.data, D.indices, D.indptr):
                arr.setflags(write=False)
            self.cache["gradient"] = D
        return self.cache["gradient"]


def _whole(a):
    """Whether every entry of the finite array ``a`` is a whole number."""
    return a.dtype.kind in "iu" or bool(np.all(a == np.round(a)))


def _corners(nodes, triangles):
    """The corners of every triangle as complex numbers x + iy, (M, 3)."""
    return np.ascontiguousarray(nodes).view(complex)[:, 0][triangles]


def _centroids(nodes, triangles):
    """(p0 + p1 + p2) / 3 of every triangle, (M, 2)."""
    p = _corners(nodes, triangles)
    return (p[:, 0] + p[:, 1] + p[:, 2]).view(float).reshape(-1, 2) / 3.0


def _split_cells(n00, n10, n01, n11):
    """Two counterclockwise triangles per grid cell, split along its
    n00-n11 diagonal; cells in the C order of the corner arrays."""
    n00, n10, n01, n11 = (c.ravel() for c in (n00, n10, n01, n11))
    triangles = np.empty((2 * len(n00), 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([n00, n10, n11])
    triangles[1::2] = np.column_stack([n00, n11, n01])
    return triangles


def _check_node_count(count, h):
    """InvalidParameterError before allocating more than MAX_NODES nodes
    (``count`` is a float, inf when the grid count overflows)."""
    if not count <= MAX_NODES:
        raise InvalidParameterError(
            f"{count:.3g} mesh nodes at cell size h={h} exceed the ceiling "
            f"of {MAX_NODES:.0e}")


def build_rect_mesh(lx, ly, h, dirichlet_side="left", target_box=None):
    """Structured mesh of the rectangle (0, lx) x (0, ly).

    Each grid cell is split along its lower-left to upper-right diagonal.
    ``dirichlet_side`` is one of left/right/bottom/top; ``target_box`` is
    (x0, y0, x1, y1) and selects triangles by centroid.
    """
    if lx <= 0 or ly <= 0 or h <= 0:
        raise InvalidParameterError(
            f"lx, ly, h must be positive, got lx={lx!r}, ly={ly!r}, h={h!r}")
    nx, ny = round(lx / h, 0), round(ly / h, 0)
    _check_node_count((nx + 1) * (ny + 1), h)
    nx, ny = int(nx), int(ny)
    if nx == 0 or ny == 0:
        raise InvalidParameterError(
            f"cell size h={h} does not resolve the {lx} x {ly} rectangle")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([xg.ravel(), yg.ravel()])
    ids = np.arange(len(nodes)).reshape(ny + 1, nx + 1)    # [j, i]
    triangles = _split_cells(ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1],
                             ids[1:, 1:])

    sides = {
        "left": nodes[:, 0] == 0.0,
        "right": nodes[:, 0] == lx,
        "bottom": nodes[:, 1] == 0.0,
        "top": nodes[:, 1] == ly,
    }
    if dirichlet_side not in sides:
        raise InvalidParameterError(
            f"unknown dirichlet_side {dirichlet_side!r}, expected one of "
            f"{', '.join(sides)}")
    dirichlet = np.nonzero(sides[dirichlet_side])[0]

    if target_box is None:
        target = np.array([], dtype=np.int64)
    else:
        x0, y0, x1, y1 = target_box
        if not (0.0 <= x0 <= x1 <= lx and 0.0 <= y0 <= y1 <= ly):
            raise InvalidParameterError("target_box must sit inside the domain")
        c = _centroids(nodes, triangles)
        inside = (c[:, 0] >= x0) & (c[:, 0] <= x1) & (c[:, 1] >= y0) & (c[:, 1] <= y1)
        target = np.nonzero(inside)[0]
        if len(target) == 0:
            raise InvalidParameterError(
                f"target_box {tuple(target_box)} contains no triangle "
                f"centroid at cell size h={h}")

    return Mesh(nodes, triangles, dirichlet, target,
                cell_size=max(lx / nx, ly / ny))


def points_in_hexagon(points, edge):
    """Mask of points inside the centered regular hexagon with given edge."""
    apothem = edge * _SQRT3_2
    proj = points @ _HEX_EDGE_NORMALS.T
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
        raise InvalidParameterError(
            f"edge and h must be positive, got edge={edge!r}, h={h!r}")
    if not 0 < target_edge < edge:
        raise InvalidParameterError(
            f"target_edge must lie in (0, edge), got target_edge="
            f"{target_edge!r}, edge={edge!r}")
    if clamp_orientation not in ("odd", "even"):
        raise InvalidParameterError(
            f"clamp_orientation must be 'odd' or 'even', got {clamp_orientation!r}")
    m = round(edge / h, 0)
    _check_node_count(3 * m * m + 3 * m + 1, h)
    m = int(m)
    if m < 1:
        raise InvalidParameterError(f"cell size h={h} does not resolve the hexagon")

    # Point (ix, iy) of rhombus r is frac[ix] V_2r + frac[iy] V_2r+2.  Row
    # iy = 0 of rhombus r is column ix = 0 of rhombus r - 1, and column
    # ix = 0 of rhombus 2 is row iy = 0 of rhombus 0; the other points are
    # numbered in (r, iy, ix) order.
    a = edge * _HEX_VERTS[0::2, None, None]                 # V0, V2, V4
    b = np.roll(a, -1, axis=0)                              # V2, V4, V0
    frac = np.arange(m + 1) / m
    xy = frac[:, None] * a + frac[:, None, None] * b        # [r, iy, ix]
    new = np.ones((3, m + 1, m + 1), dtype=bool)
    new[1:, 0] = False
    new[2, :, 0] = False
    nodes = xy[new]
    grid = np.empty(new.shape, dtype=np.int64)
    grid[new] = np.arange(len(nodes))
    grid[1, 0] = grid[0, :, 0]
    grid[2, 0] = grid[1, :, 0]
    grid[2, :, 0] = grid[0, 0]
    cells = grid.transpose(0, 2, 1)                         # [r, ix, iy]
    triangles = _split_cells(cells[:, :-1, :-1], cells[:, 1:, :-1],
                             cells[:, :-1, 1:], cells[:, 1:, 1:])
    # row iy = m covers edges 1, 3, 5 (outward normals at 90/210/330
    # degrees), column ix = m edges 0, 2, 4
    dirichlet = (grid[:, m] if clamp_orientation == "odd" else grid[:, :, m]).ravel()

    c = _centroids(nodes, triangles)
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
