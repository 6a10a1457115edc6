"""Level-set surfaces, projections and surface differential operators."""

import numpy as np
import pytest

import surfdg.geometry as geometry
from surfdg import _pool
from conftest import tube_points
from surfdg.geometry import (
    DegenerateGradientError,
    EvaluationError,
    LevelSetSurface,
    ProjectionError,
    ScalarField3,
    approx_normal,
    eval_phi,
    field_gradient,
    field_hessian,
    get_surface,
    grad_normal,
    grad_phi,
    laplace_beltrami_levelset,
    laplace_beltrami_normal_field,
    make_dziuk,
    make_enzensberger_stern,
    make_plane,
    make_sphere,
    project_first_order,
    project_newton,
    project_points,
    stopping_residual,
)

SURFACES = ("sphere", "dziuk", "enzensberger-stern")


def test_phi_spot_values():
    sph = make_sphere()
    assert eval_phi(sph, (0.0, 0.0, 0.0)) == -1.0
    assert eval_phi(sph, (1.0, 1.0, 1.0)) == 2.0
    assert eval_phi(sph, (0.6, 0.8, 0.0)) == pytest.approx(0.0, abs=1e-15)

    dz = make_dziuk()
    assert eval_phi(dz, (0.0, 0.0, 0.0)) == -1.0
    assert eval_phi(dz, (1.0, 0.0, 0.0)) == 0.0
    # x1 = x3^2 + sqrt(1 - x2^2 - x3^2) parametrizes the right cap
    x3 = 0.3
    x1 = x3**2 + np.sqrt(1.0 - x3**2)
    assert abs(eval_phi(dz, (x1, 0.0, x3))) < 1e-14

    es = make_enzensberger_stern()
    assert eval_phi(es, (0.0, 0.0, 0.0)) == -41.0
    # on the x axis the cross terms vanish: (1 - x^2)^3 = -40
    ax = np.sqrt(1.0 + 40.0 ** (1.0 / 3.0))
    assert abs(eval_phi(es, (ax, 0.0, 0.0))) < 1e-10


def test_gradients_match_finite_differences():
    # analytic grad/hess against central differences of phi itself
    rng = np.random.default_rng(5)
    for name in SURFACES:
        surf = get_surface(name)
        pts = rng.uniform(-1.2, 1.2, size=(20, 3))
        f = ScalarField3(value=surf.phi)
        for p in pts:
            g = surf.grad_phi(p)
            g_fd = field_gradient(f, p)
            assert np.linalg.norm(g - g_fd) < 1e-5 * (1.0 + np.linalg.norm(g))
            H = surf.hess_phi(p)
            H_fd = field_hessian(f, p)
            assert np.max(np.abs(H - H_fd)) < 1e-4 * (1.0 + np.max(np.abs(H)))


def test_field_hessian_differences_a_given_gradient():
    """Without an analytic Hessian, field_hessian differences the field's
    gradient; for u = x1 x2 with its gradient given, that is the exact
    Hessian up to roundoff (measured 6.6e-12), and exactly symmetric."""
    u = ScalarField3(value=lambda x: x[..., 0] * x[..., 1],
                     gradient=lambda x: np.stack(
                         [x[..., 1], x[..., 0], np.zeros(x.shape[:-1])], -1))
    pts = np.random.default_rng(41).uniform(-1.5, 1.5, (200, 3))
    H = field_hessian(u, pts)
    exact = np.zeros((3, 3))
    exact[0, 1] = exact[1, 0] = 1.0
    assert np.max(np.abs(H - exact)) < 1e-9
    assert np.array_equal(H, np.swapaxes(H, -1, -2))


def _listed_criterion(p, g, x, x0):
    """The stopping criterion as it was written before its terms were
    shared with the projection loop, kept as a reference."""
    gn = geometry._norm(g)
    out = (p / gn) ** 2
    d = x - x0
    dn = geometry._norm(d)
    far = dn > 1e-14
    if np.any(far):
        diff = g[far] / gn[far, None] - d[far] / dn[far, None]
        out[far] += np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(out)


@pytest.mark.parametrize("name", SURFACES)
def test_reported_residuals_match_listed_criterion(name):
    """stopping_residual and the residuals project_points reports equal the
    listed criterion bit for bit (|phi| / |grad phi| for dropped points),
    on tube seeds and on far seeds inside and outside the surface."""
    surf = get_surface(name)
    rng = np.random.default_rng(43)
    far = rng.standard_normal((200, 3))
    far *= rng.uniform(0.4, 2.5, (200, 1)) / np.linalg.norm(far, axis=1,
                                                             keepdims=True)
    for seeds in (tube_points(surf, n=200, seed=43), far):
        proj = project_points(surf, seeds)
        x = proj.points
        p, g = eval_phi(surf, x), grad_phi(surf, x)
        ref = _listed_criterion(p, g, x, seeds)
        assert np.array_equal(stopping_residual(surf, x, seeds), ref)
        kept = ~proj.dropped
        assert np.array_equal(proj.residuals[kept], ref[kept])
        assert np.array_equal(proj.residuals[~kept],
                              (np.abs(p) / geometry._norm(g))[~kept])


def test_on_surface_normal_is_the_normalized_gradient():
    """On the surface approx_normal is grad phi / |grad phi|, bit for bit,
    also where the surface has a closed-form normal."""
    rng = np.random.default_rng(47)
    for surf in (make_sphere(), make_dziuk()):
        pts = project_points(surf, rng.uniform(-1.2, 1.2, (100, 3))).points
        assert np.all(np.abs(eval_phi(surf, pts)) < 1e-10)
        g = grad_phi(surf, pts)
        assert np.array_equal(approx_normal(surf, pts),
                              g / geometry._norm(g)[:, None])


def test_eval_phi_rejects_nonfinite():
    bad = LevelSetSurface(phi=lambda x: np.full(np.asarray(x).shape[:-1], np.nan),
                          name="bad")
    with pytest.raises(EvaluationError):
        eval_phi(bad, (0.0, 0.0, 0.0))


def test_grad_phi_critical_point():
    with pytest.raises(DegenerateGradientError):
        grad_phi(make_sphere(), (0.0, 0.0, 0.0))
    with pytest.raises(DegenerateGradientError):
        project_first_order(make_sphere(), (0.0, 0.0, 0.0))


def test_stopping_residual_inside_and_outside_seed():
    """At the true closest point the residual is 0 for inside seeds but 2
    for outside seeds, where grad phi and x - x0 are antiparallel."""
    sph = make_sphere()
    assert stopping_residual(sph, (1.0, 0, 0), (0.5, 0, 0)) == pytest.approx(0.0, abs=1e-14)
    assert stopping_residual(sph, (1.0, 0, 0), (2.0, 0, 0)) == pytest.approx(2.0, abs=1e-14)
    # on-surface seed: both terms vanish
    assert stopping_residual(sph, (0, 1.0, 0), (0, 1.0, 0)) == 0.0


def test_project_sphere_outside_seed():
    sph = make_sphere()
    fo = project_first_order(sph, (2.0, 0.0, 0.0))
    assert np.allclose(fo.point, (1.0, 0.0, 0.0), atol=1e-12)
    assert fo.iterations == 6
    assert fo.normal_check_dropped  # antiparallel direction term
    assert fo.residual < 1e-10
    nw = project_newton(sph, (2.0, 0.0, 0.0))
    assert np.allclose(nw.point, (1.0, 0.0, 0.0), atol=1e-12)
    assert nw.iterations <= 8
    assert np.allclose(nw.normal, (1.0, 0.0, 0.0), atol=1e-12)


def test_project_dziuk_axis_seed():
    dz = make_dziuk()
    r = project_first_order(dz, (1.1, 0.0, 0.0))
    assert np.allclose(r.point, (1.0, 0.0, 0.0), atol=1e-12)
    assert abs(eval_phi(dz, r.point)) < 1e-12
    assert r.iterations <= 6


def test_project_methods_agree_dziuk():
    dz = make_dziuk()
    a = project_first_order(dz, (0.5, 0.5, 0.5))
    b = project_newton(dz, (0.5, 0.5, 0.5))
    assert np.linalg.norm(a.point - b.point) < 1e-8  # measured 4.4e-10
    assert abs(eval_phi(dz, a.point)) < 1e-10
    # Newton's step converges far faster; first-order steps would take 79
    assert (a.iterations, b.iterations) == (79, 10)
    # the landing point keeps x1 = 0.5 and splits the rest evenly
    assert np.allclose(a.point, (0.5, np.sqrt(0.5), np.sqrt(0.5)), atol=1e-9)


def test_newton_far_dziuk_seed_lands_near_seed():
    """A far Dziuk seed whose Newton iterate ran off to about
    [15.1, 1.49, -0.78] and raised: the steps that would land farther from
    the surface than the seed are replaced by first-order steps, and the
    projection lands on the surface near the seed."""
    dz = make_dziuk()
    x0 = np.array([-0.5475857342377127, 0.11998869380188738,
                   0.08805535963240971])
    b = project_newton(dz, x0)
    assert abs(eval_phi(dz, b.point)) < 1e-10
    # the first-order projection lies 0.37 from the seed, Newton's 0.47
    assert np.linalg.norm(b.point - x0) < 0.5


@pytest.mark.parametrize("name", SURFACES)
def test_far_seeds_land_on_surface(name):
    surf = get_surface(name)
    rng = np.random.default_rng(11)
    seeds = rng.uniform(-1.5, 1.5, size=(200, 3))
    pr = project_points(surf, seeds)
    assert np.max(np.abs(eval_phi(surf, pr.points))) <= 1e-8


@pytest.mark.parametrize("name", SURFACES)
def test_projection_methods_agree_in_tube(name):
    """Newton and first-order projections agree to 10 * tol near the
    surface; each either converges or stops on the documented fallback
    with the point pinned to phi = 0."""
    surf = get_surface(name)
    for p in tube_points(surf, n=100, seed=42):
        a = project_first_order(surf, p, tol=1e-10)
        b = project_newton(surf, p, tol=1e-10)
        assert np.linalg.norm(a.point - b.point) < 1e-8
        for r in (a, b):
            if r.residual >= 1e-10:
                assert abs(eval_phi(surf, r.point)) < 1e-10


def test_hand_summed_kernels_match_numpy_reductions():
    """The row norm and the Enzensberger-Stern level set add their three
    terms by hand; the values must equal numpy's reductions exactly."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2000, 3)) * rng.uniform(1e-3, 1e3, (2000, 1))
    assert np.array_equal(geometry._norm(v), np.linalg.norm(v, axis=1))
    x2 = v**2
    cross = (x2[:, 0] * x2[:, 1] + x2[:, 1] * x2[:, 2]
             + x2[:, 0] * x2[:, 2])
    ref = 400.0 * cross - (1.0 - x2.sum(axis=-1)) ** 3 - 40.0
    assert np.array_equal(make_enzensberger_stern().phi(v), ref)


def test_epilogue_error_counts_points_off_the_surface(monkeypatch):
    """The epilogue reports the points that miss the polish criterion
    |phi| <= tol min(1, |grad phi|), not |phi| / |grad phi| >= tol, which
    counts none of them on a steep level set."""
    from surfdg.mesh import initial_mesh
    es = make_enzensberger_stern()
    verts = initial_mesh(es, "octahedron", 1.25).vertices
    g = grad_phi(es, verts)
    gn = np.linalg.norm(g, axis=1)
    assert np.all(gn > 100.0)
    seeds = verts + 1e-6 * g / gn[:, None]
    monkeypatch.setattr(geometry, "_EPILOGUE_STEPS", 0)
    with pytest.raises(ProjectionError,
                       match=r"within 1 iterations for 6 point\(s\)"):
        geometry._project_batch(es, seeds, 1e-10, 1)


def test_newton_epilogue_error_names_the_method(monkeypatch):
    """Newton's failures still say which algorithm failed, and where."""
    from surfdg.mesh import initial_mesh
    es = make_enzensberger_stern()
    vert = initial_mesh(es, "octahedron", 1.25).vertices[0]
    g = grad_phi(es, vert)
    seed = vert + 1e-6 * g / np.linalg.norm(g)
    monkeypatch.setattr(geometry, "_EPILOGUE_STEPS", 0)
    with pytest.raises(ProjectionError,
                       match=r"^Newton projection did not converge within 1 "
                             r"iterations .*'enzensberger-stern'"):
        project_newton(es, seed, max_iter=1)


@pytest.mark.parametrize("name", SURFACES)
def test_finite_difference_fallbacks_land_on_the_analytic_point(name):
    """A surface given by phi alone, or by phi and grad phi, projects
    through the central-difference gradient and Hessian to the point the
    analytic derivatives give (measured <= 3.8e-11)."""
    surf = get_surface(name)
    variants = (LevelSetSurface(phi=surf.phi, name=name),
                LevelSetSurface(phi=surf.phi, grad_phi=surf.grad_phi,
                                name=name))
    for p in tube_points(surf, n=30, seed=29):
        ref = project_newton(surf, p).point
        for fd in variants:
            for project in (project_first_order, project_newton):
                assert np.linalg.norm(project(fd, p).point - ref) < 1e-9


def test_project_points_batches_do_not_change_values(monkeypatch):
    """Projecting in batches gives exactly the values of one whole batch."""
    surf = make_dziuk()
    rng = np.random.default_rng(19)
    seeds = np.vstack([tube_points(surf, n=30, seed=19),
                       rng.uniform(-1.5, 1.5, (20, 3))])
    whole = project_points(surf, seeds)
    monkeypatch.setattr(_pool, "_LIFT_BATCH", 7)
    parts = project_points(surf, seeds)
    for f in ("points", "iterations", "residuals", "dropped", "gradients"):
        assert np.array_equal(getattr(parts, f), getattr(whole, f))


BAD_TOLS = (0.0, -1.0, np.nan, np.inf, True, "1e-10")
BAD_MAX_ITERS = (-1, 2.5, True, np.nan, "100")


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_projection_refuses_a_bad_tol(tol):
    """A NaN or zero tol used to run every iteration and report every
    point as dropped with residual 0, a negative one to end in a false
    "did not converge"; every route refuses it by name instead."""
    dz = make_dziuk()
    seed = (1.1, 0.0, 0.0)
    for route in (project_points, project_first_order, project_newton):
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            route(dz, seed, tol=tol)
    # approx_normal projects only the seeds with |phi| >= tol, which with
    # these tols are all of them
    if tol in (0.0, -1.0) or tol is np.nan:
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            approx_normal(dz, seed, tol=tol)


@pytest.mark.parametrize("max_iter", BAD_MAX_ITERS)
def test_projection_refuses_a_bad_max_iter(max_iter):
    """A negative max_iter used to fail with an UnboundLocalError and a
    fraction with a bare TypeError."""
    dz = make_dziuk()
    for route in (project_points, project_first_order, project_newton):
        with pytest.raises(ValueError,
                           match="max_iter must be a non-negative integer"):
            route(dz, (1.1, 0.0, 0.0), max_iter=max_iter)


def test_projection_refuses_before_evaluating():
    calls = []
    sph = make_sphere()
    counted = LevelSetSurface(
        phi=lambda x: calls.append(1) or sph.phi(x), grad_phi=sph.grad_phi,
        name="counted")
    with pytest.raises(ValueError, match="got nan"):
        project_points(counted, np.ones((4, 3)), tol=np.nan)
    with pytest.raises(ValueError, match="got -3"):
        project_points(counted, np.ones((4, 3)), max_iter=-3)
    assert not calls
    # the bounds themselves are taken: no iteration, a numpy scalar tol
    out = project_points(counted, np.ones((4, 3)), tol=np.float64(1e-10),
                         max_iter=0)
    assert np.array_equal(out.iterations, np.zeros(4))
    assert np.allclose(out.points, np.ones((4, 3)) / np.sqrt(3.0))


def test_projection_normal_orientation():
    # for a seed off the surface the normal points along grad phi
    sph = make_sphere()
    out = project_first_order(sph, (0.0, 0.0, 1.7))
    assert np.allclose(out.normal, (0.0, 0.0, 1.0), atol=1e-10)
    inner = project_first_order(sph, (0.0, 0.0, 0.4))
    assert np.allclose(inner.normal, (0.0, 0.0, 1.0), atol=1e-10)


def test_approx_normal_sphere():
    sph = make_sphere()
    p = np.array([0.6, 0.8, 0.0])
    assert np.allclose(approx_normal(sph, p), p, atol=1e-12)
    # slightly off the surface the normal comes from the projected point
    assert np.allclose(approx_normal(sph, 1.1 * p), p, atol=1e-8)


def test_grad_normal_sphere_trace():
    """The unit sphere Weingarten map has trace 2 (twice the mean
    curvature) and is symmetric."""
    sph = make_sphere()
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        J = grad_normal(sph, p)
        assert abs(np.trace(J) - 2.0) < 1e-6
        assert np.max(np.abs(J - J.T)) < 1e-6
        # normal direction is in the kernel
        assert np.linalg.norm(J @ p) < 1e-6


def test_grad_normal_is_central_difference_of_approx_normal():
    """grad_normal is field_gradient of approx_normal, bit for bit, on a
    batch and on a single point."""
    rng = np.random.default_rng(5)
    for surf in (make_sphere(), make_dziuk()):
        pts = project_points(surf, rng.uniform(-1.2, 1.2, (20, 3))).points
        field = ScalarField3(lambda y: approx_normal(surf, y))
        for x in (pts, pts[0]):
            assert np.array_equal(
                grad_normal(surf, x),
                field_gradient(field, x, surf.normal_fd_step))


def test_laplace_beltrami_sphere_exact():
    """For u = x1 x2 restricted to the unit sphere (a degree-2 spherical
    harmonic), Delta_Gamma u = -6 x1 x2."""
    sph = make_sphere()
    u = ScalarField3(value=lambda x: np.asarray(x)[..., 0] * np.asarray(x)[..., 1])
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((30, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    lb = laplace_beltrami_levelset(sph, u, pts)
    assert np.max(np.abs(lb - (-6.0) * pts[:, 0] * pts[:, 1])) < 1e-6


def test_laplace_beltrami_routes_agree():
    # the level-set route and the normal-field route evaluate the same
    # operator through different normals
    u = ScalarField3(value=lambda x: np.asarray(x)[..., 0] * np.asarray(x)[..., 1])
    rng = np.random.default_rng(3)
    for surf in (make_sphere(), make_dziuk()):
        seeds = rng.uniform(-1.2, 1.2, (40, 3))
        pts = project_points(surf, seeds).points
        a = laplace_beltrami_levelset(surf, u, pts)
        b = laplace_beltrami_normal_field(surf.analytic_normal, u, pts,
                                          surf.normal_fd_step)
        assert np.max(np.abs(a - b)) < 1e-5


def test_laplace_beltrami_requires_surface_points():
    sph = make_sphere()
    u = ScalarField3(value=lambda x: np.asarray(x)[..., 0])
    with pytest.raises(ValueError):
        laplace_beltrami_levelset(sph, u, np.array([[1.1, 0.0, 0.0]]))


def test_plane_surface_is_flat():
    pl = make_plane()
    assert eval_phi(pl, (0.3, -0.2, 0.0)) == 0.0
    assert np.allclose(grad_phi(pl, (5.0, 5.0, 0.0)), (0, 0, 1.0))
    r = project_first_order(pl, (0.25, 0.75, 0.4))
    assert np.allclose(r.point, (0.25, 0.75, 0.0), atol=1e-14)


def test_get_surface_unknown_name():
    with pytest.raises(ValueError, match="unknown surface"):
        get_surface("torus")
