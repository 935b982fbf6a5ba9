"""Gauss quadrature rules on the reference triangle.

Points are stored as barycentric coordinates, weights sum to one; an
integral over a physical triangle is ``area * sum_q w_q f(x_q)``.  For P1
fields the barycentric coordinates double as shape-function values at the
quadrature points, so the rule's (nq, 3) ``points`` table is all that maps
the three corner values of a triangle to its points: :func:`sample` gathers
the corners and applies the table, and :func:`hat_integrals` applies its
transpose and adds the corner integrals to the nodes.
"""

import numpy as np


class TriangleRule:
    """Quadrature rule: barycentric points (nq, 3) and weights (nq,)."""

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = degree
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


# Edge-midpoint rule, exact for polynomials of degree 2.
TRI_DEG2 = TriangleRule(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    degree=2,
)

# Six-point rule (Dunavant), exact for degree 4.
_A1, _W1 = 0.816847572980459, 0.109951743655322
_B1 = 0.091576213509771
_A2, _W2 = 0.108103018168070, 0.223381589678011
_B2 = 0.445948490915965
TRI_DEG4 = TriangleRule(
    [
        [_A1, _B1, _B1], [_B1, _A1, _B1], [_B1, _B1, _A1],
        [_A2, _B2, _B2], [_B2, _A2, _B2], [_B2, _B2, _A2],
    ],
    [_W1, _W1, _W1, _W2, _W2, _W2],
    degree=4,
)

# Seven-point rule, exact for degree 5; used only to cross-check exactness.
_C1, _V1 = 0.797426985353087, 0.125939180544827
_D1 = 0.101286507323456
_C2, _V2 = 0.059715871789770, 0.132394152788506
_D2 = 0.470142064105115
TRI_DEG5 = TriangleRule(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_C1, _D1, _D1], [_D1, _C1, _D1], [_D1, _D1, _C1],
        [_C2, _D2, _D2], [_D2, _C2, _D2], [_D2, _D2, _C2],
    ],
    [0.225, _V1, _V1, _V1, _V2, _V2, _V2],
    degree=5,
)


def sample(mesh, rule, X):
    """The (k, n_nodes) nodal values ``X`` at ``rule``'s points of every
    triangle, (k, n_tri, nq): one gather of the corner values and one
    product with the points table (in C order: numpy's fast path)."""
    return np.take(X, mesh.triangles, axis=1) @ np.ascontiguousarray(rule.points.T)


def hat_integrals(mesh, rule, values, scale):
    """Integrals of point values against the hat functions, one scatter
    for all k columns: the (k, n_nodes) sums over every triangle T of
    scale_T * sum_q w_q values_Tq phi_a(x_q) at node a, for ``values`` of
    shape (k, n_tri, nq) or (n_tri, nq).

    With ``scale`` the triangle areas this is  int_T v phi_a  for the
    quadrature values v.  It is the transpose of :func:`sample`: the
    weighted values times the points table are the corner integrals of
    every triangle, and lane j of node a adds up at index j n + a.
    """
    n = mesh.n_nodes
    w = scale[:, None] * rule.weights
    corners = (np.reshape(values, (-1,) + w.shape) * w) @ rule.points
    lanes = np.arange(0, len(corners) * n, n)[:, None, None] + mesh.triangles
    return np.bincount(lanes.ravel(), corners.ravel(),
                       minlength=len(corners) * n).reshape(-1, n)


def element_integrals(values, rule, areas):
    """int_T v on every triangle from (..., n_tri, nq) quadrature values."""
    return (values @ rule.weights) * areas


# 1D Gauss-Legendre on [0, 1], 3 points: exact for degree 5.
_G = np.sqrt(3.0 / 5.0)
GL3_POINTS = np.array([0.5 * (1.0 - _G), 0.5, 0.5 * (1.0 + _G)])
GL3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
