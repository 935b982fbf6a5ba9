import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphopt import quadrature
from morphopt.config import load_shipped_config
from morphopt.elasticity import assemble_stimulus_load, element_strains
from morphopt.errors import InvalidParameterError
from morphopt.fields import (DesignField, StimulusField,
                             nodal_average_from_elements)
from morphopt.materials import Material, PhaseSet, interp
from morphopt.mesh import (_HEX_VERTS, Mesh, build_hexagon_mesh,
                           build_rect_mesh, hexagon_rotation_permutation,
                           points_in_hexagon)
from morphopt.sensitivity import Evaluation


def single_triangle_mesh(p0=(0.0, 0.0), p1=(1.0, 0.0), p2=(0.0, 1.0)):
    return Mesh(np.array([p0, p1, p2]), np.array([[0, 1, 2]]),
                np.array([], dtype=int), np.array([], dtype=int), 1.0)


def reference_hexagon_mesh(edge, h, target_edge, clamp_orientation="odd"):
    """The hexagon mesh with its nodes numbered through a dict of rounded
    coordinates, one call per grid point, and the clamped nodes found by a
    geometric edge test: the oracle of build_hexagon_mesh."""
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


def reference_boundary_nodes(mesh):
    """Boundary nodes from the sorted 2-D edge rows: the oracle of
    Mesh.boundary_nodes."""
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return np.unique(uniq[counts == 1])


def assert_same_arrays(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


HEXAGON_CASES = [
    pytest.param((0.35, 0.35 / m, te, orient), id=f"m{m}-{orient}-{te}")
    for m in range(1, 41) for orient in ("odd", "even") for te in (0.035, 0.1)
] + [
    pytest.param(args, id=f"invalid-{k}") for k, args in enumerate([
        (0.0, 0.1, 0.05, "odd"), (0.35, -0.1, 0.05, "odd"),
        (0.35, 0.1, 0.35, "odd"), (0.35, 0.1, 0.05, "north"),
        (0.35, 1.0, 0.05, "even")])]


@pytest.mark.parametrize("args", HEXAGON_CASES)
def test_hexagon_mesh_equals_reference(args):
    try:
        ref = reference_hexagon_mesh(*args)
    except InvalidParameterError as exc:
        with pytest.raises(type(exc)) as info:
            build_hexagon_mesh(*args)
        assert str(info.value) == str(exc)
        return
    mesh = build_hexagon_mesh(*args)
    for name in ("nodes", "triangles", "dirichlet_nodes", "target_elements",
                 "areas", "grads"):
        assert_same_arrays(getattr(mesh, name), getattr(ref, name))
    assert mesh.cell_size == ref.cell_size
    assert_same_arrays(mesh.boundary_nodes(), reference_boundary_nodes(ref))


@pytest.mark.parametrize("args", [
    (1.0, 1 / 3, 1 / 60, "left", (14 / 15, 2 / 15, 1.0, 0.2)),
    (0.7, 0.4, 0.05, "top", None), (1.0, 0.5, 0.125, "right", None)])
def test_rect_boundary_equals_reference(args):
    mesh = build_rect_mesh(*args)
    assert_same_arrays(mesh.boundary_nodes(), reference_boundary_nodes(mesh))


def test_boundary_with_edges_shared_by_three_triangles():
    # an interior triangle doubled: each of its edges is then shared by
    # three triangles and stays interior.  The one triangle at the corner
    # node 4 doubled: its two boundary edges are shared by two, so the
    # corner leaves the boundary
    mesh = build_rect_mesh(1.0, 1.0, 0.25, "left", None)
    interior = [k for k, t in enumerate(mesh.triangles)
                if not np.isin(t, mesh.boundary_nodes()).any()][0]
    corner, = np.flatnonzero((mesh.triangles == 4).any(axis=1))
    doubled = Mesh(mesh.nodes, np.concatenate(
        [mesh.triangles, mesh.triangles[[interior, corner]]]),
        np.array([], dtype=int), np.array([], dtype=int), mesh.cell_size)
    ref = reference_boundary_nodes(doubled)
    assert_same_arrays(doubled.boundary_nodes(), ref)
    assert np.array_equal(ref, np.setdiff1d(mesh.boundary_nodes(), [4]))


class TestRectMesh:
    def test_cell_counting_example(self):
        mesh = build_rect_mesh(1.0, 1 / 3, 1 / 3, "left",
                               (2 / 3, 0.0, 1.0, 1 / 3))
        assert mesh.n_nodes == 8
        assert mesh.n_triangles == 6
        assert len(mesh.dirichlet_nodes) == 2
        assert np.all(mesh.nodes[mesh.dirichlet_nodes][:, 0] == 0.0)

    def test_full_resolution_grid_scale(self):
        box = (1 - 1 / 15, 1 / 6 - 1 / 30, 1.0, 1 / 6 + 1 / 30)
        mesh = build_rect_mesh(1.0, 1 / 3, 2e-3, "left", box)
        assert mesh.n_nodes == 501 * 168          # 500 x 167 cells
        assert mesh.n_triangles == 2 * 500 * 167
        assert len(mesh.target_elements) > 0
        c = mesh.centroids()[mesh.target_elements]
        assert c[:, 0].min() >= box[0] and c[:, 1].min() >= box[1]
        assert abs(mesh.area - 1 / 3) <= 1e-12 / 3

    def test_whole_domain_target(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.5, "bottom", (0.0, 0.0, 1.0, 1.0))
        assert mesh.n_triangles == 8
        assert len(mesh.target_elements) == 8

    # centroids sit at x, y in {1/6, 1/3, 2/3, 5/6}
    @pytest.mark.parametrize("box", [
        pytest.param((0.5, 0.0, 0.5, 1.0), id="zero-width"),
        pytest.param((0.4, 0.4, 0.6, 0.6), id="between-centroids")])
    def test_target_box_without_centroid_rejected(self, box):
        with pytest.raises(InvalidParameterError, match="centroid"):
            build_rect_mesh(1.0, 1.0, 0.5, "bottom", box)

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_rect_mesh(1.0, 0.01, 0.5, "left", None)

    def test_oversized_grid_rejected_before_allocation(self):
        # the desk cantilever at h = 1e-5 would need about 3.3e9 nodes;
        # 3163^2 nodes is the first square grid above MAX_NODES
        for lx, ly, h in ((1.0, 1 / 3, 1e-5), (1.0, 1.0, 1 / 3162)):
            with pytest.raises(InvalidParameterError, match="ceiling"):
                build_rect_mesh(lx, ly, h, "left", None)

    def test_refinement_quadruples_triangles(self):
        coarse = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        fine = build_rect_mesh(1.0, 0.5, 0.125, "left", None)
        assert fine.n_triangles == 4 * coarse.n_triangles

    def test_unknown_side_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_rect_mesh(1.0, 1.0, 0.5, "north", None)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.5, -0.1, "left"),
         "lx, ly, h must be positive, got lx=1.0, ly=0.5, h=-0.1"),
        ((1.0, 0.5, 0.1, "middle"), "unknown dirichlet_side 'middle', "
         "expected one of left, right, bottom, top")])
    def test_messages_give_the_values_and_choices(self, args, message):
        with pytest.raises(InvalidParameterError) as info:
            build_rect_mesh(*args)
        assert str(info.value) == message

    def test_area_tiles_domain(self):
        mesh = build_rect_mesh(0.7, 0.4, 0.05, "top", None)
        assert abs(mesh.area - 0.28) <= 1e-12 * 0.28


class TestShapeGradients:
    def test_unit_right_triangle(self):
        mesh = single_triangle_mesh()
        assert mesh.areas[0] == pytest.approx(0.5, abs=1e-15)
        expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mesh.grads[0], expected, atol=1e-14)

    def test_partition_of_unity(self):
        mesh = build_hexagon_mesh(1.0, 0.2, 0.3)
        sums = mesh.grads.sum(axis=1)
        assert np.max(np.abs(sums)) <= 1e-14 / mesh.cell_size

    def test_translation_invariance(self):
        a = single_triangle_mesh((0.1, 0.3), (0.9, 0.2), (0.4, 1.1))
        b = single_triangle_mesh((5.1, -6.7), (5.9, -6.8), (5.4, -5.9))
        np.testing.assert_allclose(a.areas, b.areas, rtol=1e-13)
        np.testing.assert_allclose(a.grads, b.grads, atol=1e-12)

    def test_affine_field_reproduced_exactly(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.1, "left", None)
        A = np.array([[0.3, -1.2], [0.7, 0.4]])
        b = np.array([0.1, -0.2])
        u = mesh.nodes @ A.T + b
        strains = element_strains(mesh, u)
        sym = 0.5 * (A + A.T)
        assert np.max(np.abs(strains - sym)) <= 1e-13

    def test_strains_reject_wrong_node_count(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        for u in (np.zeros((mesh.n_nodes + 1, 2)),
                  np.zeros((3, mesh.n_nodes - 1, 2))):
            with pytest.raises(InvalidParameterError, match="displacement"):
                element_strains(mesh, u)


def reference_element_strains(mesh, u):
    """The einsum strains the gradient operator replaced."""
    grad = np.einsum("mai,maj->mij", u[mesh.triangles], mesh.grads)
    return 0.5 * (grad + np.transpose(grad, (0, 2, 1)))


def reference_p1_gradient(mesh, nodal):
    """The einsum gradient the gradient operator replaced."""
    return np.einsum("ma,mad->md", nodal[mesh.triangles], mesh.grads)


def reference_at_quadrature_points(nodal, triangles, rule):
    """One nodal P1 field at the rule's points on every triangle,
    (n_tri, nq), by a gather and a matmul: the one-field oracle of
    quadrature.sample."""
    return np.asarray(nodal)[triangles] @ rule.points.T


def reference_add_hat_integrals(out, triangles, values, rule, scale):
    """The np.add.at scatter hat_integrals replaced: add to
    ``out`` at node a of every triangle T
    scale_T * sum_q w_q values_Tq phi_a(x_q)."""
    contrib = ((values * rule.weights) @ rule.points) * scale[:, None]
    np.add.at(out, triangles.ravel(), contrib.ravel())


def reference_nodal_average(mesh, vals):
    """The np.add.at area-weighted average nodal_average_from_elements
    replaced."""
    w = np.repeat(mesh.areas, 3)
    den = np.zeros(mesh.n_nodes)
    np.add.at(den, mesh.triangles.ravel(), w)
    num = np.zeros(mesh.n_nodes)
    np.add.at(num, mesh.triangles.ravel(), w * np.repeat(vals, 3))
    return num / den


def reference_stimulus_load(mesh, rho3q, phases, sq):
    """The np.add.at stimulus load the gradient operator replaced, from
    rho3 and s_j at the degree-4 points."""
    rule = quadrature.TRI_DEG4
    resp = phases.responsive
    coef = (resp.beta * 2.0 * resp.bulk * ((interp(rho3q) * sq) @ rule.weights)
            * mesh.areas)
    edof = (2 * mesh.triangles[:, :, None] + [0, 1]).reshape(-1, 6)
    f = np.zeros(2 * mesh.n_nodes)
    np.add.at(f, edof.ravel(),
              (coef[:, None, None] * mesh.grads).reshape(-1, 6).ravel())
    return f


OPERATOR_MESHES = st.one_of(
    st.builds(lambda nx, ny, side: build_rect_mesh(
        1.0, ny / nx, 1.0 / nx, side, (0.5, 0.0, 1.0, ny / nx)),
        st.integers(1, 30), st.integers(1, 20),
        st.sampled_from(["left", "right", "bottom", "top"])),
    st.builds(lambda m, orientation: build_hexagon_mesh(
        0.35, 0.35 / m, 0.2, orientation),
        st.integers(2, 14), st.sampled_from(["odd", "even"])))


class TestGradientOperator:
    PHASES = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(OPERATOR_MESHES, st.integers(1, 4), st.integers(0, 2 ** 16))
    def test_kernels_equal_reference(self, mesh, k, seed):
        # nodal fields as the blocked solve hands them out: (n, 2) views of
        # the columns of a (2n, k) result, not contiguous for k > 1
        rng = np.random.default_rng(seed)
        n = mesh.n_nodes
        X = rng.normal(size=(2 * n, k))
        for x in X.T:
            u = x.reshape(-1, 2)
            assert np.array_equal(element_strains(mesh, u),
                                  reference_element_strains(mesh, u))
            assert np.array_equal(
                (mesh.gradient_operator() @ u[:, 1]).reshape(-1, 2),
                reference_p1_gradient(mesh, u[:, 1]))
        # all cases at once, as the solves hand them out: the (k, n, 2) view
        # of the blocked result, and the same fields stacked in C order
        cases = X.T.reshape(k, n, 2)
        expected = np.stack([reference_element_strains(mesh, u) for u in cases])
        for stacked in (cases, np.ascontiguousarray(cases)):
            strains = element_strains(mesh, stacked)
            assert strains.flags.c_contiguous
            assert np.array_equal(strains, expected)
        rho2 = rng.uniform(0.0, 0.5, n)
        design = DesignField(rho2, rng.uniform(0.0, 1.0, n) * (1.0 - rho2))
        stimulus = StimulusField(rng.uniform(-1.0, 1.0, (k, n)))
        F = assemble_stimulus_load(mesh, design, self.PHASES, stimulus)
        assert F.shape == (2 * n, k)
        for f, sq in zip(F.T, stimulus.samples(mesh)):
            assert np.array_equal(f, reference_stimulus_load(
                mesh, design.samples(mesh)[1], self.PHASES, sq))

    @pytest.mark.parametrize("build", [
        lambda: build_rect_mesh(1.0, 0.5, 0.25, "left", None),
        lambda: build_hexagon_mesh(1.0, 0.25, 0.3, "odd")],
        ids=["rect", "hexagon"])
    def test_layout_and_cache(self, build):
        mesh = build()
        assert "gradient" not in mesh.cache          # built on first use
        D = mesh.gradient_operator()
        assert mesh.gradient_operator() is D
        m = mesh.n_triangles
        assert D.shape == (2 * m, mesh.n_nodes)
        assert D.indices.dtype == np.int32 and D.indptr.dtype == np.int32
        # row 2m + d: d/dx_d on triangle m, entries in local-node order
        assert np.array_equal(D.indptr, np.arange(0, 6 * m + 1, 3))
        assert np.array_equal(D.indices.reshape(m, 2, 3),
                              np.repeat(mesh.triangles[:, None], 2, axis=1))
        assert np.array_equal(D.data.reshape(m, 2, 3),
                              np.transpose(mesh.grads, (0, 2, 1)))


QUADRATURE_RULES = [quadrature.TRI_DEG2, quadrature.TRI_DEG4]


def assert_close_to_scale(actual, expected):
    """Agreement within 1e-14 of the largest |expected| value."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestQuadratureOperator:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(OPERATOR_MESHES, st.integers(1, 4), st.integers(0, 2 ** 16))
    def test_kernels_equal_reference(self, mesh, k, seed):
        rng = np.random.default_rng(seed)
        n, m, tri = mesh.n_nodes, mesh.n_triangles, mesh.triangles
        X = rng.normal(size=(k, n))
        for rule in QUADRATURE_RULES:
            nq = len(rule.weights)
            sampled = quadrature.sample(mesh, rule, X)
            assert sampled.shape == (k, m, nq)
            V = rng.normal(size=(k, m, nq))
            scale = mesh.areas * rng.uniform(-2.0, 2.0, m)
            scattered = quadrature.hat_integrals(mesh, rule, V, scale)
            assert scattered.shape == (k, n)
            for x, q, v, g in zip(X, sampled, V, scattered):
                assert_close_to_scale(
                    q, reference_at_quadrature_points(x, tri, rule))
                expected = np.zeros(n)
                reference_add_hat_integrals(expected, tri, v, rule, scale)
                assert_close_to_scale(g, expected)
        # the fields sample through the same kernel
        for x, q in zip(X, StimulusField(X).samples(mesh)):
            assert_close_to_scale(q, reference_at_quadrature_points(
                x, tri, quadrature.TRI_DEG4))
        design = DesignField(X[0], X[-1])
        for x, q in zip((design.rho1(), design.rho2, design.rho3),
                        design.phase_samples(mesh)):
            assert_close_to_scale(q, reference_at_quadrature_points(
                x, tri, quadrature.TRI_DEG2))
        vals = rng.normal(size=m)
        assert_close_to_scale(nodal_average_from_elements(mesh, vals),
                              reference_nodal_average(mesh, vals))
        # k rows at once, each as its own average
        rows = rng.normal(size=(k, m))
        averaged = nodal_average_from_elements(mesh, rows)
        assert averaged.shape == (k, n)
        for row, avg in zip(rows, averaged):
            assert np.array_equal(avg, nodal_average_from_elements(mesh, row))
            assert_close_to_scale(avg, reference_nodal_average(mesh, row))

    def test_gradient_keeps_no_quadrature_data_on_the_mesh(self):
        # the samples and scatters read each rule's own table: after a
        # gradient the mesh holds D and the elasticity operator map only
        spec = load_shipped_config("cantilever_desk_staggered")
        mesh = spec.build_mesh()
        n, targets = mesh.n_nodes, spec.target_array()
        Evaluation(mesh, DesignField.constant(n, 0.3, 0.3),
                   StimulusField(np.ones((len(targets), n))), spec.phases,
                   spec.params, targets).gradient
        assert "gradient" in mesh.cache
        assert all(key == "gradient" or key[0] == "operator"
                   for key in mesh.cache), list(mesh.cache)


class TestHexagonMesh:
    def test_target_unresolved_is_error(self):
        with pytest.raises(InvalidParameterError, match="unresolved"):
            build_hexagon_mesh(0.35, 0.35 / 2, 0.035)

    def test_oversized_grid_rejected_before_allocation(self):
        # 3 m^2 + 3 m + 1 nodes: m = 1826 is the first grid above MAX_NODES
        with pytest.raises(InvalidParameterError, match="ceiling"):
            build_hexagon_mesh(1.0, 1 / 1826, 0.5)

    def test_target_area_one_percent(self):
        mesh = build_hexagon_mesh(0.35, 0.35 / 40, 0.035)
        target_area = float(np.sum(mesh.areas[mesh.target_elements]))
        exact = 1.5 * np.sqrt(3.0) * 0.035 ** 2
        # within one layer of cells around the small hexagon's boundary
        slack = 6 * 0.035 * mesh.cell_size * 2
        assert abs(target_area - exact) <= slack
        assert abs(exact / mesh.area - 0.01) < 1e-12

    def test_hexagon_area_formula(self):
        mesh = build_hexagon_mesh(1.0, 0.5, 0.5)
        exact = 1.5 * np.sqrt(3.0)
        assert abs(mesh.area - exact) <= 1e-12 * exact

    def test_clamped_edges_alternate(self):
        edge = 0.35
        mesh = build_hexagon_mesh(edge, edge / 8, 0.1)
        clamped = mesh.nodes[mesh.dirichlet_nodes]
        s32 = np.sqrt(3.0) / 2.0
        normals = {"odd": [(0.0, 1.0), (-s32, -0.5), (s32, -0.5)],
                   "even": [(s32, 0.5), (-s32, 0.5), (0.0, -1.0)]}
        apothem = edge * s32
        on_any = np.zeros(len(clamped), dtype=bool)
        for n in normals["odd"]:
            on_any |= np.abs(clamped @ np.array(n) - apothem) <= 1e-9
        assert on_any.all()
        # three edges' worth of nodes, shared vertices not double counted
        m = round(edge / (edge / 8))
        assert len(mesh.dirichlet_nodes) == 3 * (m + 1)

    def test_even_orientation_differs(self):
        a = build_hexagon_mesh(1.0, 0.25, 0.3, clamp_orientation="odd")
        b = build_hexagon_mesh(1.0, 0.25, 0.3, clamp_orientation="even")
        assert not np.array_equal(a.dirichlet_nodes, b.dirichlet_nodes)
        assert len(a.dirichlet_nodes) == len(b.dirichlet_nodes)

    def test_rotation_symmetry_permutation(self):
        mesh = build_hexagon_mesh(0.35, 0.35 / 6, 0.1)
        perm = hexagon_rotation_permutation(mesh)
        assert len(np.unique(perm)) == mesh.n_nodes
        rot = np.array([[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
        np.testing.assert_allclose(mesh.nodes[perm], mesh.nodes @ rot.T,
                                   atol=1e-12)

    def test_points_in_hexagon(self):
        pts = np.array([[0.0, 0.0], [0.99, 0.0], [1.01, 0.0], [0.0, 0.87]])
        np.testing.assert_array_equal(points_in_hexagon(pts, 1.0),
                                      [True, True, False, False])


class TestMeshValidation:
    def test_clockwise_triangle_rejected(self):
        with pytest.raises(InvalidParameterError):
            Mesh(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                 np.array([[0, 1, 2]]), np.array([], dtype=int),
                 np.array([], dtype=int), 1.0)

    def test_bad_node_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                 np.array([[0, 1, 7]]), np.array([], dtype=int),
                 np.array([], dtype=int), 1.0)

    @pytest.mark.parametrize("nodes,triangles,cell_size,name", [
        pytest.param([[0, 0], [1, 0], [np.nan, 1]], [[0, 1, 2]], 1.0, "nodes",
                     id="nan-node"),
        pytest.param([[0, 0], [1, 0], [np.inf, 1]], [[0, 1, 2]], 1.0, "nodes",
                     id="inf-node"),
        pytest.param([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], 1.0,
                     "nodes", id="three-column-nodes"),
        pytest.param([[0, 0], [1, 0], [0, 1]], [[0.5, 1.5, 2.5]], 1.0,
                     "triangles", id="half-integer-triangles"),
        pytest.param([[0, 0], [1, 0], [0, 1]], [[0, 1, np.nan]], 1.0,
                     "triangles", id="nan-triangle"),
        pytest.param([[0, 0], [1, 0], [0, 1]], [0, 1, 2], 1.0, "triangles",
                     id="flat-triangles"),
        pytest.param([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [1.0, 1.0],
                     "cell_size", id="two-cell-sizes"),
        pytest.param([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], np.nan,
                     "cell_size", id="nan-cell-size"),
        pytest.param([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], 0.0, "cell_size",
                     id="zero-cell-size")])
    def test_malformed_geometry_rejected(self, nodes, triangles, cell_size,
                                         name):
        with pytest.raises(InvalidParameterError, match=name):
            Mesh(np.array(nodes, dtype=float), np.array(triangles),
                 np.array([], dtype=int), np.array([], dtype=int), cell_size)

    def test_whole_float_triangles_and_integer_cell_size_accepted(self):
        mesh = Mesh(np.array([[0, 0], [1, 0], [0, 1]]),
                    np.array([[0.0, 1.0, 2.0]]), np.array([], dtype=int),
                    np.array([], dtype=int), np.int64(2))
        assert mesh.triangles.dtype == np.int64 and mesh.nodes.dtype == float
        assert type(mesh.cell_size) is float and mesh.cell_size == 2.0

    @pytest.mark.parametrize("name,marker", [
        pytest.param("dirichlet_nodes", lambda m: m.dirichlet_nodes + 0.5,
                     id="half-integer-dirichlet"),
        pytest.param("dirichlet_nodes", lambda m: m.dirichlet_nodes[:, None],
                     id="column-dirichlet"),
        pytest.param("dirichlet_nodes", lambda m: np.array([0.0, np.nan]),
                     id="nan-dirichlet"),
        pytest.param("target_elements", lambda m: m.target_elements + 0.7,
                     id="fractional-target"),
        pytest.param("target_elements",
                     lambda m: m.target_elements.reshape(2, -1),
                     id="two-dimensional-target"),
        pytest.param("target_elements",
                     lambda m: m.target_elements.astype(bool),
                     id="boolean-target")])
    def test_malformed_markers_rejected(self, name, marker):
        # these were truncated or flattened into other valid markers
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", (0.5, 0.0, 1.0, 0.5))
        arrays = {"dirichlet_nodes": mesh.dirichlet_nodes,
                  "target_elements": mesh.target_elements, name: marker(mesh)}
        with pytest.raises(InvalidParameterError, match=name):
            Mesh(mesh.nodes, mesh.triangles, cell_size=mesh.cell_size,
                 **arrays)

    def test_whole_float_markers_accepted(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", (0.5, 0.0, 1.0, 0.5))
        again = Mesh(mesh.nodes, mesh.triangles,
                     mesh.dirichlet_nodes.astype(float),
                     list(mesh.target_elements), mesh.cell_size)
        for a, b in ((again.dirichlet_nodes, mesh.dirichlet_nodes),
                     (again.target_elements, mesh.target_elements)):
            assert a.dtype == np.int64 and np.array_equal(a, b)

    @pytest.mark.parametrize("target", [-1, 10 ** 6])
    def test_target_element_off_mesh_rejected(self, target):
        mesh = build_rect_mesh(1.0, 1.0, 0.25, "left", None)
        with pytest.raises(InvalidParameterError, match="target element"):
            Mesh(mesh.nodes, mesh.triangles, mesh.dirichlet_nodes,
                 np.array([0, target]), mesh.cell_size)
        # the last triangle is still a valid target
        Mesh(mesh.nodes, mesh.triangles, mesh.dirichlet_nodes,
             np.array([mesh.n_triangles - 1]), mesh.cell_size)

    def test_interior_dirichlet_node_rejected(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.25, "left", None)
        interior = [i for i in range(mesh.n_nodes)
                    if i not in mesh.boundary_nodes()][0]
        with pytest.raises(InvalidParameterError):
            Mesh(mesh.nodes, mesh.triangles, np.array([interior]),
                 np.array([], dtype=int), mesh.cell_size)

    @pytest.mark.parametrize("node", [-1, 25])
    def test_off_mesh_dirichlet_node_rejected(self, node):
        mesh = build_rect_mesh(1.0, 1.0, 0.25, "left", None)
        assert mesh.n_nodes == 25
        with pytest.raises(InvalidParameterError, match="dirichlet node off"):
            Mesh(mesh.nodes, mesh.triangles, np.array([0, node]),
                 np.array([], dtype=int), mesh.cell_size)

    def test_immutability(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.5, "left", None)
        with pytest.raises(ValueError):
            mesh.nodes[0, 0] = 5.0
        with pytest.raises(ValueError):
            mesh.areas[0] = 2.0

    @pytest.mark.parametrize("build", [
        lambda: build_rect_mesh(1.0, 1.0, 0.25, "left", (0.5, 0.5, 1.0, 1.0)),
        lambda: build_hexagon_mesh(1.0, 0.25, 0.3, "even")],
        ids=["rect", "hexagon"])
    def test_stored_geometry_is_read_only(self, build):
        mesh = build()
        arrays = [mesh.nodes, mesh.triangles, mesh.dirichlet_nodes,
                  mesh.target_elements, mesh.areas, mesh.grads,
                  mesh.lumped_node_areas(), mesh.dirichlet_dofs()]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]
        # stored once, not rebuilt per call
        assert mesh.lumped_node_areas() is mesh.lumped_node_areas()
        assert mesh.dirichlet_dofs() is mesh.dirichlet_dofs()
        assert mesh.area == float(np.sum(mesh.areas))

    def test_dirichlet_dofs_are_both_components(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.5, "left", None)
        dofs = mesh.dirichlet_dofs()
        assert len(dofs) == 2 * len(mesh.dirichlet_nodes)
        assert np.all(np.isin(dofs // 2, mesh.dirichlet_nodes))
