"""Quadrature rules and the discontinuous P1/P2 element space."""

from math import factorial

import numpy as np
import pytest

from conftest import flat_grid, flat_pair
from surfdg.dgspace import (
    DgFunction,
    DgSpace,
    QuadratureError,
    basis_eval,
    evaluate,
    get_quadrature,
    interpolate,
    ref_coords,
    tangential_basis_gradient,
)
from surfdg.geometry import make_sphere
from surfdg.mesh import initial_mesh, mesh_width, refine_uniform


def tri_monomial_integral(a: int, b: int) -> float:
    # int over {xi, eta >= 0, xi + eta <= 1} of xi^a eta^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("exactness", [1, 2, 4, 6])
def test_triangle_rule_basics(exactness):
    rule = get_quadrature("triangle", exactness)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    assert np.all(rule.weights > 0)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(rule.points >= 0)


@pytest.mark.parametrize("exactness", [1, 2, 4, 6])
def test_triangle_rule_exactness(exactness):
    rule = get_quadrature("triangle", exactness)
    xi, eta = rule.points[:, 1], rule.points[:, 2]
    for a in range(exactness + 1):
        for b in range(exactness + 1 - a):
            got = float(rule.weights @ (xi**a * eta**b))
            assert got == pytest.approx(tri_monomial_integral(a, b), rel=1e-13)


def test_triangle_rule_rounds_up():
    assert get_quadrature("triangle", 3).exactness == 4
    assert get_quadrature("triangle", 5).exactness == 6


@pytest.mark.parametrize("exactness", [1, 2, 3, 4, 5, 6])
def test_segment_rule_exactness(exactness):
    rule = get_quadrature("segment", exactness)
    assert np.all((0 < rule.points) & (rule.points < 1))
    assert rule.exactness >= exactness
    for k in range(rule.exactness + 1):
        got = float(rule.weights @ rule.points**k)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_quadrature_errors():
    with pytest.raises(QuadratureError):
        get_quadrature("triangle", 0)
    with pytest.raises(QuadratureError):
        get_quadrature("triangle", 7)
    with pytest.raises(QuadratureError, match="unknown"):
        get_quadrature("tetrahedron", 2)


@pytest.mark.parametrize("degree", [1, 2])
def test_basis_nodal_property(degree):
    mesh = flat_pair()
    space = DgSpace(mesh, degree)
    nodes = space.ref_nodes()
    vals = np.array([basis_eval(degree, lam) for lam in nodes])
    assert np.allclose(vals, np.eye(space.dofs_per_element), atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(degree):
    rng = np.random.default_rng(1)
    for _ in range(20):
        lam = rng.dirichlet((1.0, 1.0, 1.0))
        assert basis_eval(degree, lam).sum() == pytest.approx(1.0, abs=1e-13)


def test_basis_eval_spot_values():
    c = (1 / 3, 1 / 3, 1 / 3)
    assert np.allclose(basis_eval(1, c), [1 / 3] * 3, atol=1e-15)
    # P2 vertex functions are -1/9 at the centroid, edge functions 4/9
    assert np.allclose(basis_eval(2, c), [-1 / 9] * 3 + [4 / 9] * 3, atol=1e-14)
    mid = (0.5, 0.5, 0.0)
    assert np.allclose(basis_eval(2, mid), [0, 0, 0, 1.0, 0, 0], atol=1e-14)


def test_basis_eval_rejects_bad_point():
    with pytest.raises(ValueError, match="barycentric"):
        basis_eval(1, (0.5, 0.5, 0.5))


@pytest.mark.parametrize("degree", [1, 2])
def test_tangential_gradient_of_linear_field(degree):
    """For f(x) = a . x the elementwise gradient is the in-plane part of a."""
    rng = np.random.default_rng(4)
    tri = rng.standard_normal((3, 3))
    a = rng.standard_normal(3)
    nrm = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    nrm /= np.linalg.norm(nrm)
    a_t = a - (a @ nrm) * nrm
    nodes = DgSpace(flat_pair(), degree).ref_nodes()
    coeff = np.array([a @ (lam @ tri) for lam in nodes])
    lam = rng.dirichlet((1, 1, 1))
    grads = tangential_basis_gradient(tri, degree, lam)
    assert np.allclose(coeff @ grads, a_t, atol=1e-12)
    # tangency of every basis gradient
    assert np.max(np.abs(grads @ nrm)) < 1e-12


def test_tangential_gradient_equivariance():
    rng = np.random.default_rng(8)
    tri = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    shift = rng.standard_normal(3)
    lam = (0.2, 0.3, 0.5)
    for degree in (1, 2):
        g = tangential_basis_gradient(tri, degree, lam)
        g_moved = tangential_basis_gradient(tri @ q.T + shift, degree, lam)
        assert np.max(np.abs(g_moved - g @ q.T)) < 1e-13


def test_tangential_gradient_degenerate_triangle():
    collinear = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    tiny = 1e-8 * np.eye(3)  # Gram determinant 3e-32, below the 1e-28 floor
    for tri in (collinear, tiny):
        with pytest.raises(ValueError, match="degenerate triangle"):
            tangential_basis_gradient(tri, 1, (1 / 3, 1 / 3, 1 / 3))


def test_space_dof_layout():
    mesh = flat_pair()
    p1 = DgSpace(mesh, 1)
    assert p1.total_dofs == 6
    assert np.array_equal(p1.element_dofs(1), [3, 4, 5])
    p2 = DgSpace(mesh, 2)
    assert p2.total_dofs == 12
    assert np.array_equal(p2.element_dofs(1), [6, 7, 8, 9, 10, 11])
    with pytest.raises(ValueError, match="degree"):
        DgSpace(mesh, 3)


def test_node_coords_p2_midpoints():
    mesh = flat_pair()
    coords = DgSpace(mesh, 2).node_coords()
    tri0 = mesh.vertices[mesh.triangles[0]]
    assert np.allclose(coords[:3], tri0, atol=0)
    assert np.allclose(coords[3], 0.5 * (tri0[0] + tri0[1]), atol=0)
    assert np.allclose(coords[4], 0.5 * (tri0[1] + tri0[2]), atol=0)
    assert np.allclose(coords[5], 0.5 * (tri0[2] + tri0[0]), atol=0)


def test_element_points_map_the_rule_onto_flat_elements():
    """The points of a triangle rule on all elements, or on a slice of
    them, are the barycentric combinations of each element's vertices,
    bit for bit, and lie in the elements' planes."""
    mesh = initial_mesh(make_sphere(), "icosahedron")
    space = DgSpace(mesh, 1)
    rule = get_quadrature("triangle", 6)
    want = np.einsum("qk,mkd->mqd", rule.points, mesh.triangle_vertices())
    assert space.element_points(rule).tobytes() == want.tobytes()
    part = slice(3, 7)
    assert space.element_points(rule, part).tobytes() == want[part].tobytes()
    offsets = want - mesh.triangle_vertices()[:, :1, :]
    assert np.abs(np.einsum("mqd,md->mq", offsets, mesh.normals)).max() < 1e-14


def test_interpolation_reproduces_polynomials():
    mesh = flat_grid(4)
    rng = np.random.default_rng(2)
    f_lin = lambda x: 2.0 * x[..., 0] - 3.0 * x[..., 1] + 0.5
    f_quad = lambda x: x[..., 0] ** 2 + x[..., 0] * x[..., 1] - x[..., 1]
    for degree, f in ((1, f_lin), (2, f_lin), (2, f_quad)):
        u = interpolate(DgSpace(mesh, degree), f)
        for _ in range(10):
            elem = int(rng.integers(len(mesh.triangles)))
            lam = rng.dirichlet((1, 1, 1))
            x = lam @ mesh.vertices[mesh.triangles[elem]]
            assert evaluate(u, elem, lam) == pytest.approx(float(f(x)), abs=1e-13)


def test_interpolation_eoc_on_sphere():
    """P1 interpolation of x1 x2 on refined sphere meshes converges at
    second order (measured EOCs 1.99, 2.02, 2.01)."""
    sph = make_sphere()
    u = lambda x: np.asarray(x)[..., 0] * np.asarray(x)[..., 1]
    rule = get_quadrature("triangle", 6)
    mesh = initial_mesh(sph, "icosahedron")
    errs, hs = [], []
    for _ in range(4):
        space = DgSpace(mesh, 1)
        f = interpolate(space, u)
        tv = mesh.triangle_vertices()
        pts = np.einsum("qk,mkd->mqd", rule.points, tv)
        vals = np.einsum("qi,mi->mq",
                         np.array([basis_eval(1, lam) for lam in rule.points]),
                         f.coefficients.reshape(len(mesh.triangles), 3))
        err2 = 2.0 * np.einsum("m,q,mq->", mesh.areas, rule.weights,
                               (vals - u(pts)) ** 2)
        errs.append(np.sqrt(err2))
        hs.append(mesh_width(mesh))
        mesh = refine_uniform(mesh, sph)
    eocs = [np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
            for i in range(3)]
    for e in eocs:
        assert 1.9 <= e <= 2.1


def test_interpolate_calls_the_field_once_and_refuses_misshapen_values():
    """The field is called once on all nodes: its own error propagates
    after that one call, and values that are not one per node are refused
    with both shapes named."""
    space = DgSpace(flat_pair(), 1)
    calls = []

    def failing(x):
        calls.append(x.shape)
        raise RuntimeError("field failed")

    with pytest.raises(RuntimeError, match="field failed"):
        interpolate(space, failing)
    assert calls == [(6, 3)]
    with pytest.raises(ValueError, match=r"shape \(6, 1\) at nodes of "
                                         r"shape \(6, 3\)"):
        interpolate(space, lambda x: x[:, :1])


def test_evaluate_range_check():
    u = interpolate(DgSpace(flat_pair(), 1), lambda x: x[..., 0])
    with pytest.raises(IndexError):
        evaluate(u, 2, (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(IndexError):
        evaluate(u, -3, (1 / 3, 1 / 3, 1 / 3))


def test_dgfunction_length_check():
    space = DgSpace(flat_pair(), 1)
    with pytest.raises(ValueError, match="expected 6 coefficients"):
        DgFunction(space, np.zeros(5))


def test_ref_coords_roundtrip():
    rng = np.random.default_rng(6)
    tri = rng.standard_normal((3, 3))
    lam = rng.dirichlet((1, 1, 1), size=7)
    pts = lam @ tri
    back = ref_coords(tri, pts)
    assert np.max(np.abs(back - lam)) < 1e-12
    # off-plane points project orthogonally onto the element plane first
    nrm = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    nrm /= np.linalg.norm(nrm)
    back2 = ref_coords(tri, pts + 0.3 * nrm)
    assert np.max(np.abs(back2 - lam)) < 1e-12
