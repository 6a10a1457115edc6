"""Manufactured problems: forcing routes and the lifted exact solution."""

import numpy as np
import pytest

from conftest import tube_points
from surfdg.geometry import (eval_phi, laplace_beltrami_levelset,
                             project_points)
from surfdg.problems import (
    PROBLEM_NAMES,
    default_exact_u,
    exact_u_on_gammah,
    make_problem,
)


def surface_samples(surface, n, seed):
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 3))
    while len(pts) < n:
        seeds = rng.uniform(-1.5, 1.5, size=(4 * n, 3))
        pr = project_points(surface, seeds)
        ok = np.abs(eval_phi(surface, pr.points)) <= 1e-9
        pts = np.vstack([pts, pr.points[ok]])
    return pts[:n]


def test_problem_names():
    assert PROBLEM_NAMES == ("sphere", "dziuk", "enzensberger-stern")
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("torus")
    with pytest.raises(ValueError, match="forcing mode"):
        make_problem("sphere", "symbolic")


def test_exact_solution_fields():
    u = default_exact_u()
    p = np.array([1.0, 2.0, 3.0])
    assert u.value(p) == 2.0
    assert np.allclose(u.gradient(p), (2.0, 1.0, 0.0))
    h = u.hessian(p)
    assert h[0, 1] == h[1, 0] == 1.0
    assert np.abs(h).sum() == 2.0


def test_sphere_analytic_forcing():
    prob = make_problem("sphere")
    assert prob.forcing_mode == "analytic"
    pts = np.array([[1.0, 0, 0], [0.6, 0.8, 0.0], [0, 0, 1.0]])
    assert np.allclose(prob.f(pts), 7.0 * pts[:, 0] * pts[:, 1], atol=1e-14)
    # f(1,0,0) = 3.5 at the rotated point where x1 = x2 = 1/sqrt(2)
    diag = np.array([[np.sqrt(0.5), np.sqrt(0.5), 0.0]])
    assert prob.f(diag)[0] == pytest.approx(3.5, abs=1e-14)


def test_sphere_forcing_routes_agree():
    analytic = make_problem("sphere", "analytic")
    generic = make_problem("sphere", "generic-LB")
    pts = surface_samples(analytic.surface, 100, seed=14)
    gap = np.max(np.abs(analytic.f(pts) - generic.f(pts)))
    assert gap < 1e-3  # measured ~1e-8


def test_dziuk_forcing_odd_symmetry():
    # u = x1 x2 is odd under x2 -> -x2, an isometry of the surface, so
    # the forcing vanishes on the fixed plane
    prob = make_problem("dziuk")
    assert prob.forcing_mode == "analytic"
    pts = np.array([[1.0, 0.0, 0.0], [0.16 + np.sqrt(0.84), 0.0, 0.4]])
    assert np.max(np.abs(prob.f(pts))) < 1e-6


def test_dziuk_forcing_routes_agree():
    analytic = make_problem("dziuk", "analytic")
    generic = make_problem("dziuk", "generic-LB")
    pts = surface_samples(analytic.surface, 100, seed=15)
    assert np.max(np.abs(analytic.f(pts) - generic.f(pts))) < 1e-3


def test_dziuk_forcing_against_chart_oracle():
    """Independent route: parametrize the right cap as a graph
    x1 = t^2 + sqrt(1 - s^2 - t^2) over (s, t) = (x2, x3) and evaluate
    the Laplace-Beltrami operator from the metric tensor with sympy."""
    import sympy as sym

    s, t = sym.symbols("s t")
    g1 = t**2 + sym.sqrt(1 - s**2 - t**2)
    X = sym.Matrix([g1, s, t])
    Xs, Xt = X.diff(s), X.diff(t)
    G = sym.Matrix([[Xs.dot(Xs), Xs.dot(Xt)], [Xt.dot(Xs), Xt.dot(Xt)]])
    det = G.det()
    Ginv = G.inv()
    u_chart = g1 * s  # u = x1 x2 on the chart
    terms = sym.S.Zero
    coords = (s, t)
    for i in range(2):
        for j in range(2):
            terms += sym.diff(sym.sqrt(det) * Ginv[i, j]
                              * sym.diff(u_chart, coords[j]), coords[i])
    lap = terms / sym.sqrt(det)
    f_chart = sym.lambdify((s, t), u_chart - lap, "numpy")

    prob = make_problem("dziuk")
    for sv, tv in ((0.0, 0.0), (0.3, 0.4), (-0.2, 0.1), (0.0, 0.55)):
        x1 = tv**2 + np.sqrt(1.0 - sv**2 - tv**2)
        p = np.array([[x1, sv, tv]])
        assert abs(eval_phi(prob.surface, p[0])) < 1e-14
        assert prob.f(p)[0] == pytest.approx(float(f_chart(sv, tv)), abs=1e-3)


def test_enzensberger_stern_defaults_to_generic():
    prob = make_problem("enzensberger-stern")
    assert prob.forcing_mode == "generic-LB"
    with pytest.raises(ValueError, match="generic-LB"):
        make_problem("enzensberger-stern", "analytic")
    # name normalization
    assert make_problem("Enzensberger_Stern").name == "enzensberger-stern"


def test_enzensberger_stern_forcing_step_consistency():
    """The differenced forcing is O(step^2) consistent: halving the normal
    stencil step moves values far less than the gating tolerance."""
    prob = make_problem("enzensberger-stern")
    pts = surface_samples(prob.surface, 20, seed=16)
    base = prob.f(pts)
    prob_finer = make_problem("enzensberger-stern")
    prob_finer.surface.normal_fd_step = prob_finer.surface.normal_fd_step / 2.0
    shifted = prob_finer.f(pts)
    assert np.max(np.abs(base - shifted)) < 1e-3
    assert np.all(np.isfinite(base))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_manufactured_residual(name):
    """-lap_G u + u = f must close at random surface points when the
    Laplacian is evaluated through the level-set route."""
    prob = make_problem(name)
    pts = surface_samples(prob.surface, 100, seed=17)
    lap = laplace_beltrami_levelset(prob.surface, prob.exact_u, pts)
    residual = -lap + prob.exact_u.value(pts) - prob.f(pts)
    assert np.max(np.abs(residual)) < 1e-3


def test_exact_u_on_gammah_sphere():
    prob = make_problem("sphere")
    p = np.array([0.6, 0.8, 0.0])
    val, tang = exact_u_on_gammah(prob, p)
    assert val == pytest.approx(0.48, abs=1e-12)
    grad = np.array([0.8, 0.6, 0.0])
    expect = grad - (grad @ p) * p
    assert np.allclose(tang, expect, atol=1e-10)
    assert abs(tang @ p) < 1e-10  # tangential


def test_exact_u_on_gammah_lifts_offsurface_points():
    # a point off the surface is first mapped along the closest-point
    # projection; values match the on-surface evaluation
    prob = make_problem("sphere")
    on = np.array([0.0, 0.6, 0.8])
    off = 1.3 * on
    v_on, t_on = exact_u_on_gammah(prob, on)
    v_off, t_off = exact_u_on_gammah(prob, off)
    assert v_off == pytest.approx(v_on, abs=1e-10)
    assert np.allclose(t_off, t_on, atol=1e-9)


def test_exact_u_on_gammah_batch_matches_single():
    prob = make_problem("dziuk")
    pts = tube_points(prob.surface, n=10, seed=18)
    vals, tangs = exact_u_on_gammah(prob, pts)
    assert vals.shape == (10,)
    assert tangs.shape == (10, 3)
    for k in range(10):
        v, t = exact_u_on_gammah(prob, pts[k])
        assert v == pytest.approx(vals[k], abs=1e-13)
        assert np.allclose(t, tangs[k], atol=1e-13)


def test_surface_evaluations_per_point():
    """phi and grad phi evaluations per point of the projection-based
    routines, counted on the element centroids of a 3-refinement
    Enzensberger-Stern mesh: each projection iterate is evaluated once."""
    from surfdg.geometry import grad_normal
    from surfdg.mesh import initial_mesh, refine_uniform
    prob = make_problem("enzensberger-stern")
    surf = prob.surface
    mesh = initial_mesh(surf, "octahedron", 1.25)
    for _ in range(3):
        mesh = refine_uniform(mesh, surf)
    pts = mesh.triangle_vertices().mean(axis=1)
    count = {}

    def counted(key, f):
        def wrapped(x):
            count[key] += np.asarray(x).size // 3
            return f(x)
        return wrapped

    surf.phi = counted("phi", surf.phi)
    surf.grad_phi = counted("grad", surf.grad_phi)
    # measured per point (phi, grad phi); a kernel that evaluates every
    # point again for the sign, the polish and the residuals needs
    # 66.8/85.5, 10.0/12.9 and 10.0/13.9 on these points
    for call, per_point in (
            (lambda: grad_normal(surf, pts), (30.84, 55.59)),
            (lambda: project_points(surf, pts), (4.98, 8.95)),
            (lambda: exact_u_on_gammah(prob, pts), (4.98, 8.95))):
        count.update(phi=0, grad=0)
        call()
        got = (count["phi"] / len(pts), count["grad"] / len(pts))
        assert got == pytest.approx(per_point, abs=0.01)
