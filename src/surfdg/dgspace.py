"""Element-local polynomial spaces on flat triangles embedded in R^3.

Fully discontinuous nodal Lagrange spaces of degree 1 or 2 with
element-major dof numbering, tangential (in-plane) basis gradients, and
quadrature rules on the reference triangle and unit segment.  The
element geometry (pushforwards, areas, normals) belongs to the mesh,
which computes it once, when the mesh is made; a space adds the basis
and keeps nothing else.

Reference coordinates (xi, eta) relate to barycentric ones by
lam = (1 - xi - eta, xi, eta).  P2 nodes 3, 4, 5 sit on the midpoints of
edges (0,1), (1,2), (2,0) in that order.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, SurfaceMesh, _edge_vectors, _element_frames


class QuadratureError(ValueError):
    """Requested rule outside the supported exactness range."""


@dataclass
class QuadratureRule:
    """Points and positive weights summing to the reference measure
    (1/2 for the triangle, 1 for the unit segment)."""

    kind: str
    exactness: int
    points: np.ndarray  # (n, 3) barycentric or (n,) in [0, 1]
    weights: np.ndarray


# Dunavant rules; barycentric orbits with weights scaled to area 1/2
_TRI_RULES: dict[int, tuple] = {}


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (b, c, a), (a, b, c), (b, a, c)]


def _build_triangle_rules():
    rules = {}
    rules[1] = (np.array([(1 / 3, 1 / 3, 1 / 3)]), np.array([0.5]))
    pts = _orbit3(1.0 / 6.0)
    rules[2] = (np.array(pts), np.full(3, 1.0 / 6.0))
    pts = _orbit3(0.445948490915965) + _orbit3(0.091576213509771)
    w = [0.111690794839005] * 3 + [0.054975871827661] * 3
    rules[4] = (np.array(pts), np.array(w))
    pts = (_orbit3(0.063089014491502) + _orbit3(0.249286745170910)
           + _orbit6(0.310352451033785, 0.053145049844816))
    w = ([0.025422453185103] * 3 + [0.058393137863189] * 3
         + [0.041425537809187] * 6)
    rules[6] = (np.array(pts), np.array(w))
    return rules


_TRI_RULES = _build_triangle_rules()


def get_quadrature(kind: str, exactness: int) -> QuadratureRule:
    """Quadrature on the reference triangle or the unit segment.

    Triangle rules exist for exactness 1, 2, 4, 6; intermediate requests
    round up to the next available rule.
    """
    if not 1 <= exactness <= 6:
        raise QuadratureError(f"unsupported exactness {exactness}")
    if kind == "triangle":
        deg = min(d for d in _TRI_RULES if d >= exactness)
        pts, w = _TRI_RULES[deg]
        return QuadratureRule(kind, deg, pts.copy(), w.copy())
    if kind == "segment":
        n = (exactness + 2) // 2
        x, w = np.polynomial.legendre.leggauss(n)
        return QuadratureRule(kind, 2 * n - 1, 0.5 * (x + 1.0), 0.5 * w)
    raise QuadratureError(f"unknown quadrature kind {kind!r}")


def _as_barycentric(ref_point) -> np.ndarray:
    lam = np.asarray(ref_point, dtype=float).reshape(3)
    if abs(lam.sum() - 1.0) > 1e-10 or np.any(lam < -1e-12):
        raise ValueError(f"invalid barycentric point {lam.tolist()}")
    return lam


def _values(degree: int, lam: np.ndarray) -> np.ndarray:
    """Basis values at barycentric points lam of shape (..., 3);
    no domain validation (assembly extrapolates slightly off-element)."""
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    if degree == 1:
        return np.stack([l0, l1, l2], axis=-1)
    if degree == 2:
        return np.stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
        ], axis=-1)
    raise ValueError(f"unsupported degree {degree}")


def _ref_grads(degree: int, lam: np.ndarray) -> np.ndarray:
    """Gradients w.r.t. (xi, eta) at barycentric lam; shape (..., n, 2)."""
    lam = np.asarray(lam, dtype=float)
    if degree == 1:
        g = np.array([(-1.0, -1.0), (1.0, 0.0), (0.0, 1.0)])
        return np.broadcast_to(g, lam.shape[:-1] + (3, 2)).copy()
    if degree == 2:
        l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
        z = np.zeros_like(l0)
        gx = np.stack([1 - 4 * l0, 4 * l1 - 1, z,
                       4 * (l0 - l1), 4 * l2, -4 * l2], axis=-1)
        gy = np.stack([1 - 4 * l0, z, 4 * l2 - 1,
                       -4 * l1, 4 * l1, 4 * (l0 - l2)], axis=-1)
        return np.stack([gx, gy], axis=-1)
    raise ValueError(f"unsupported degree {degree}")


def basis_eval(degree: int, ref_point) -> np.ndarray:
    """Nodal Lagrange basis values at a barycentric point."""
    return _values(degree, _as_barycentric(ref_point))


def tangential_basis_gradient(tri_vertices, degree: int, ref_point):
    """Physical basis gradients, tangential to the (flat) triangle.

    Returns an (n_basis, 3) array of in-plane vectors.
    """
    tri = np.asarray(tri_vertices, dtype=float).reshape(1, 3, 3)
    lam = _as_barycentric(ref_point)
    try:
        tmap, area = _element_frames(*_edge_vectors(tri))
    except MeshError:
        raise ValueError("degenerate triangle") from None
    # area 0.5e-14 is a Gram determinant of 1e-28
    if area[0] < 0.5e-14:
        raise ValueError("degenerate triangle")
    return _ref_grads(degree, lam) @ tmap[0]


def _barycentric(tmap, v0, x) -> np.ndarray:
    """Barycentric coordinates (1 - xi - eta, xi, eta) (E, k, 3) of points
    x (E, k, 3), (xi, eta) = T (x - v0) with T = tmap, v0 (E, 3)."""
    xi = np.einsum("ead,ekd->eka", tmap, x - v0[:, None, :])
    lam = np.empty(xi.shape[:2] + (3,))
    lam[..., 1:] = xi
    lam[..., 0] = 1.0 - xi.sum(axis=-1)
    return lam


@dataclass(eq=False)
class DgSpace:
    """Fully discontinuous P1/P2 space with element-major numbering."""

    mesh: SurfaceMesh
    degree: int

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError(f"unsupported degree {self.degree}")
        self.dofs_per_element = 3 if self.degree == 1 else 6
        self.total_dofs = len(self.mesh.triangles) * self.dofs_per_element

    def element_dofs(self, element: int) -> np.ndarray:
        n = self.dofs_per_element
        return np.arange(element * n, (element + 1) * n)

    def ref_nodes(self) -> np.ndarray:
        """Barycentric coordinates of the local nodes."""
        verts = np.eye(3)
        if self.degree == 1:
            return verts
        mids = np.array([(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)])
        return np.vstack([verts, mids])

    def node_coords(self) -> np.ndarray:
        """Physical positions of all dofs, shape (total_dofs, 3).

        P2 edge nodes are Euclidean midpoints on the flat elements, not
        projected onto the surface.
        """
        tv = self.mesh.triangle_vertices()  # (m, 3, 3)
        lam = self.ref_nodes()  # (n, 3)
        return np.einsum("nk,mkd->mnd", lam, tv).reshape(-1, 3)

    def trace(self, elems, x, grads: bool = False):
        """Basis values (E, k, n) of elements ``elems`` (E,) at physical
        points ``x`` (E, k, 3) in or near their planes; with ``grads``
        also the in-plane basis gradients (E, k, n, 3).

        Points off an element's plane are projected orthogonally onto it,
        so the slightly cracked neighbour segments of nonconforming meshes
        still have traces on both sides.
        """
        mesh = self.mesh
        tmap = mesh.pushforward[elems]
        lam = _barycentric(tmap, mesh.vertices[mesh.triangles[elems, 0]], x)
        vals = _values(self.degree, lam)
        if not grads:
            return vals
        return vals, np.einsum("ekna,ead->eknd",
                               _ref_grads(self.degree, lam), tmap)

    def element_points(self, rule: QuadratureRule, ids=slice(None)
                       ) -> np.ndarray:
        """Points (E, q, 3) of triangle rule ``rule`` on the flat elements
        ``ids`` (all by default)."""
        corners = self.mesh.vertices[self.mesh.triangles[ids]]
        return np.einsum("qk,mkd->mqd", rule.points, corners)

    def face_points(self, rule: QuadratureRule, ids=slice(None)
                    ) -> np.ndarray:
        """Points (E, k, 3) of segment rule ``rule`` on the intersections
        ``ids`` (all by default), for ``trace`` of their minus and their
        plus element."""
        edges = self.mesh.edges
        p0, p1 = edges.endpoints[ids, 0], edges.endpoints[ids, 1]
        t = rule.points[None, :, None]
        return p0[:, None, :] + t * (p1 - p0)[:, None, :]


@dataclass(eq=False)
class DgFunction:
    """Coefficient vector over a DgSpace (nodal values)."""

    space: DgSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.total_dofs,):
            raise ValueError(
                f"expected {self.space.total_dofs} coefficients, got "
                f"{self.coefficients.shape}")


def evaluate(f: DgFunction, element: int, ref_point) -> float:
    """Value of a DG function at a barycentric point of one element."""
    if not 0 <= element < len(f.space.mesh.triangles):
        raise IndexError(f"element {element} out of range")
    vals = basis_eval(f.space.degree, ref_point)
    return float(vals @ f.coefficients[f.space.element_dofs(element)])


def interpolate(space: DgSpace, g) -> DgFunction:
    """Nodal interpolant of a scalar field on the flat mesh: ``g`` (a
    ScalarField3 or a plain callable) is called once on the (n, 3) nodes
    and must give their n values."""
    nodes = space.node_coords()
    vals = np.asarray(getattr(g, "value", g)(nodes), dtype=float)
    if vals.shape != (len(nodes),):
        raise ValueError(f"the field gave values of shape {vals.shape} at "
                         f"nodes of shape {nodes.shape}; expected "
                         f"({len(nodes)},)")
    return DgFunction(space, vals)


def ref_coords(tri_vertices, pts) -> np.ndarray:
    """Barycentric coordinates of physical points relative to a triangle.

    Points off the triangle plane are first projected orthogonally onto
    it, so slightly cracked neighbour segments of nonconforming meshes can
    still be expressed in the element's frame.
    """
    tri = np.asarray(tri_vertices, dtype=float).reshape(1, 3, 3)
    pts = np.asarray(pts, dtype=float).reshape(1, -1, 3)
    tmap, _ = _element_frames(*_edge_vectors(tri))
    return _barycentric(tmap, tri[:, 0], pts)[0]
