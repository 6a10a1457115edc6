"""Level-set geometry kernel: surface evaluation, closest-point projection,
approximate normals and a generic Laplace-Beltrami evaluator.

A surface Gamma is the zero level set of a scalar function phi : R^3 -> R
with phi < 0 inside.  All field callables are vectorized over a trailing
axis of length 3, i.e. they accept arrays of shape (..., 3).

Two projection algorithms are provided: a first-order fixed-point scheme
that needs only phi and grad phi, and a Newton iteration on the stationarity
system of  min |x - x0|^2  s.t. phi(x) = 0.  Both run through one loop,
``_project_batch``, and differ only in the step it takes; they share its
fallback phases, its epilogue and its stopping criterion

    ( phi(x)^2 / |grad phi(x)|^2
      + | grad phi(x)/|grad phi(x)| - (x - x0)/|x - x0| |^2 )^(1/2)  <  tol

evaluated verbatim.  For seed points outside the surface the limit of
(x - x0) is antiparallel to grad phi, the direction term sticks near 2 and
the criterion cannot be met; stagnation detection then drops the direction
term so the iteration can terminate with a point that still lies on the
surface.  ``normal_check_dropped`` on the result records that this happened.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from . import _pool

__all__ = [
    "EvaluationError",
    "DegenerateGradientError",
    "ProjectionError",
    "ScalarField3",
    "LevelSetSurface",
    "ProjectionResult",
    "eval_phi",
    "grad_phi",
    "stopping_residual",
    "project_first_order",
    "project_newton",
    "project_points",
    "approx_normal",
    "grad_normal",
    "laplace_beltrami_levelset",
    "laplace_beltrami_normal_field",
    "field_gradient",
    "field_hessian",
    "make_sphere",
    "make_dziuk",
    "make_enzensberger_stern",
    "make_plane",
    "get_surface",
    "SURFACE_NAMES",
]

# Below this |grad phi| a point counts as critical and projection is hopeless.
GRAD_FLOOR = 1e-14

# Stagnation: this many iterations without a 1e-3 relative residual
# improvement drops to the next fallback phase.  Fallback phases are also
# abandoned after a fixed allowance (residuals creeping down by just over
# the stall tolerance each step would otherwise exhaust max_iter); plain
# descent then finishes the job.  Points still live at max_iter get a
# last-resort descent onto the level set and keep only the |phi| guarantee.
_STALL_WINDOW = 10
_STALL_RTOL = 1e-3
_FALLBACK_BUDGET = 30
_EPILOGUE_STEPS = 12

_POLISH_STEPS = 8


class EvaluationError(RuntimeError):
    """The level-set function returned a non-finite value."""


class DegenerateGradientError(RuntimeError):
    """|grad phi| fell below the critical-point floor."""


class ProjectionError(RuntimeError):
    """Projection onto the surface did not converge."""


@dataclass
class ScalarField3:
    """Scalar field on R^3 with optional analytic derivatives.

    ``value`` maps (..., 3) -> (...).  ``gradient`` and ``hessian``, when
    given, map (..., 3) -> (..., 3) and (..., 3, 3); otherwise they are
    replaced by central finite differences (see ``field_gradient`` /
    ``field_hessian``).
    """

    value: Callable
    gradient: Optional[Callable] = None
    hessian: Optional[Callable] = None


@dataclass
class LevelSetSurface:
    """Implicit surface phi = 0 with phi < 0 inside.

    ``grad_phi``, ``hess_phi`` and ``analytic_normal`` are optional analytic
    callables; missing derivatives fall back to central differences with step
    ``fd_step``.  ``normal_fd_step`` is the separate stencil step used when
    differencing normal fields (the normals themselves are O(h) accurate, so
    a larger step is appropriate).  ``analytic_normal`` serves only the
    closed-form Dziuk forcing of ``problems.py`` and the tests; this module's
    normal on the surface is grad phi / |grad phi|.
    """

    phi: Callable
    grad_phi: Optional[Callable] = None
    hess_phi: Optional[Callable] = None
    analytic_normal: Optional[Callable] = None
    fd_step: float = 1e-5
    normal_fd_step: float = 1e-4
    name: str = ""


@dataclass
class ProjectionResult:
    point: np.ndarray
    normal: np.ndarray
    iterations: int
    residual: float
    normal_check_dropped: bool


def _norm(v):
    """Row norms of an (n, 3) array, np.linalg.norm(v, axis=1) summed in the
    same order but without numpy's slow reduction over a length-3 axis."""
    a, b, c = v.T
    return np.sqrt(a * a + b * b + c * c)


def eval_phi(surface: LevelSetSurface, x) -> np.ndarray | float:
    """Evaluate phi, rejecting non-finite results."""
    x = np.asarray(x, dtype=float)
    val = np.asarray(surface.phi(x), dtype=float)
    if not np.all(np.isfinite(val)):
        raise EvaluationError(
            f"phi returned a non-finite value on surface {surface.name!r}")
    if val.ndim == 0:
        return float(val)
    return val


def grad_phi(surface: LevelSetSurface, x) -> np.ndarray:
    """Gradient of phi, analytic if available, else second-order central FD.

    Raises ``DegenerateGradientError`` when |grad phi| < 1e-14 anywhere,
    which signals a critical point of the level-set function.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(-1, 3)
    if surface.grad_phi is not None:
        g = np.asarray(surface.grad_phi(pts), dtype=float)
    else:
        g = field_gradient(ScalarField3(lambda y: eval_phi(surface, y)), pts,
                           surface.fd_step)
    if not np.all(np.isfinite(g)):
        raise EvaluationError(
            f"grad phi returned a non-finite value on surface {surface.name!r}")
    norms = _norm(g)
    if np.any(norms < GRAD_FLOOR):
        bad = pts[int(np.argmin(norms))]
        raise DegenerateGradientError(
            f"critical point of phi near {bad.tolist()} (|grad phi| < {GRAD_FLOOR:g})")
    return g[0] if single else g.reshape(x.shape)


def _hess_phi(surface: LevelSetSurface, x: np.ndarray) -> np.ndarray:
    """Hessians (n, 3, 3) of phi at (n, 3) points: analytic, else
    ``field_hessian`` of phi with ``grad_phi`` as its gradient."""
    if surface.hess_phi is not None:
        return np.asarray(surface.hess_phi(x), dtype=float)
    phi = ScalarField3(lambda y: eval_phi(surface, y),
                       lambda y: grad_phi(surface, y))
    return field_hessian(phi, x, surface.fd_step)


def field_gradient(f: ScalarField3, x, step: float = 1e-5) -> np.ndarray:
    """Gradient of a scalar field, analytic if the field carries one.

    The central differences also take a vector field (values (..., k)),
    whose Jacobian they stack as (..., k, 3).
    """
    x = np.asarray(x, dtype=float)
    if f.gradient is not None:
        return np.asarray(f.gradient(x), dtype=float)
    cols = []
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = step
        cols.append((np.asarray(f.value(x + shift), float)
                     - np.asarray(f.value(x - shift), float)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def field_hessian(f: ScalarField3, x, step: float = 1e-5) -> np.ndarray:
    """Hessian of a scalar field, analytic if available, else the
    symmetrized central-difference Jacobian of its ``field_gradient``."""
    x = np.asarray(x, dtype=float)
    if f.hessian is not None:
        return np.asarray(f.hessian(x), dtype=float)
    H = field_gradient(ScalarField3(lambda y: field_gradient(f, y, step)),
                       x, step)
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def stopping_residual(surface: LevelSetSurface, x, x0) -> np.ndarray | float:
    """Projection stopping criterion, evaluated verbatim.

    The direction term is defined as 0 when |x - x0| < 1e-14.  Note the term
    compares grad phi with (x - x0); for x0 outside the surface these are
    antiparallel at the projected point and the residual approaches 2 rather
    than 0.  The projection drivers handle that via stagnation fallback.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    single = x.ndim == 1
    xs = x.reshape(-1, 3)
    x0s = np.broadcast_to(x0.reshape(-1, 3), xs.shape)
    out = _criterion(np.atleast_1d(eval_phi(surface, xs)),
                     grad_phi(surface, xs), xs, x0s)
    return float(out[0]) if single else out.reshape(x.shape[:-1])


def _criterion_terms(p, g, gn, x, x0):
    """|phi| / |grad phi| and the squared direction misfit (0 within 1e-14
    of the seed x0) at x, from phi p, grad phi g and |grad phi| gn there.
    ``_project_batch``'s loop passes sqrt(g . g), ``_criterion`` ``_norm(g)``:
    they differ in the last bit, so changing either one moves results."""
    phi_term = np.abs(p) / gn
    d = x - x0
    dn = _norm(d)
    far = dn > 1e-14
    diff = g / gn[:, None] - d / np.where(far, dn, 1.0)[:, None]
    return phi_term, np.where(far, np.einsum("ij,ij->i", diff, diff), 0.0)


def _criterion(p, g, x, x0):
    """``stopping_residual`` from phi and grad phi already evaluated at x."""
    phi_term, dir2 = _criterion_terms(p, g, _norm(g), x, x0)
    return np.sqrt(phi_term**2 + dir2)


def _phi_residual(p, g):
    return np.abs(p) / _norm(g)


def _off_surface(p, gnorm, tol):
    return np.abs(p) > tol * np.minimum(1.0, gnorm)


def _descend(surface, x, p, g, tol, steps):
    """Plain Newton steps for phi until |phi| <= tol * min(1, |grad phi|).

    Takes phi and grad phi at the (n, 3) points x; a point is evaluated
    again only after it moved.  Returns the new points, phi and grad phi
    there, and the mask of points still off the surface after ``steps``
    steps.
    """
    x, p, g = x.copy(), p.copy(), g.copy()
    cand = np.arange(len(x))
    for _ in range(steps):
        gc = g[cand]
        g2 = np.einsum("ij,ij->i", gc, gc)
        need = _off_surface(p[cand], np.sqrt(g2), tol)
        if not np.any(need):
            return x, p, g, np.zeros(len(x), dtype=bool)
        cand = cand[need]
        x[cand] -= (p[cand] / g2[need])[:, None] * g[cand]
        p[cand] = eval_phi(surface, x[cand])
        g[cand] = grad_phi(surface, x[cand])
    return x, p, g, _off_surface(p, _norm(g), tol)


def _polish_onto_surface(surface, x, p, g, tol):
    """Pin points onto the surface; returns x, phi and grad phi there.

    The main loops stop as soon as the criterion passes tol, which for steep
    level sets (|grad phi| >> 1) can leave |phi| well above tol.  A couple of
    quadratically convergent descent steps pin the points onto the surface
    without moving them appreciably.
    """
    x, p, g, off = _descend(surface, x, p, g, tol, _POLISH_STEPS)
    if np.any(off):
        raise ProjectionError(
            f"surface polish failed for {int(off.sum())} point(s) on "
            f"{surface.name!r}")
    return x, p, g


@dataclass
class _BatchProjection:
    points: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    dropped: np.ndarray
    gradients: np.ndarray  # grad phi at points


def _newton_deltas(surface, x, x0, p, g, lam, reach, tol):
    """Newton steps (n, 4) for (x, lam) on the stationarity system of
    F(x, lam) = |x - x0|^2 + lam * phi(x), at points x with phi p and
    grad phi g, and the mask of the steps to take (the rows of the others
    are left unset).  A step is taken where the 4x4 Newton matrix is
    regular and the step lands on the surface (within the band of
    ``_off_surface``) or no farther from it than the seed, by the algebraic
    distance |phi| / |grad phi| (``reach``).  Far from the surface an
    indefinite Newton matrix can send the iterate off to infinity."""
    n = len(x)
    J = np.zeros((n, 4, 4))
    J[:, :3, :3] = 2.0 * np.eye(3) + lam[:, None, None] * _hess_phi(surface, x)
    J[:, :3, 3] = g
    J[:, 3, :3] = g
    F = np.empty((n, 4))
    F[:, :3] = 2.0 * (x - x0) + lam[:, None] * g
    F[:, 3] = p
    delta = np.empty((n, 4))
    ok = np.ones(n, dtype=bool)
    try:
        delta[:] = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: find it point by point
        for i in range(n):
            try:
                delta[i] = np.linalg.solve(J[i], -F[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    a = np.flatnonzero(ok)
    land = x[a] + delta[a, :3]
    p_new = np.atleast_1d(eval_phi(surface, land))
    gn_new = _norm(grad_phi(surface, land))
    ok[a] = (~_off_surface(p_new, gn_new, tol)
             | (np.abs(p_new) / gn_new <= reach[a]))
    return delta, ok


def _reanchor(surface, x, s, sgn, a) -> None:
    """Re-anchor the iterates ``x[a]`` at their seeds ``s[a]``, in place:
    each moves to its seed's signed distance ``sgn[a] |x - s|`` along the
    gradient at the iterate."""
    xt, sa = x[a], s[a]
    gt = grad_phi(surface, xt)
    dist = sgn[a] * _norm(xt - sa)
    x[a] = sa - (dist / _norm(gt))[:, None] * gt


def _check_tol(tol) -> None:
    """Refuse a ``tol`` that is not a positive finite real (bools
    refused) by name."""
    if isinstance(tol, bool) or not isinstance(tol, Real) \
            or not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got "
                         f"{tol!r}")


def _project_batch(surface, seeds, tol, max_iter,
                   seed_phi=None, newton=False) -> _BatchProjection:
    """Project an (n, 3) batch of seed points, by the first-order scheme or,
    with ``newton``, by Newton steps (see ``project_newton``).

    Per-point phases: 0 = full criterion, 1 = direction term dropped (the
    iterate must then also settle in place before stopping), 2 = plain
    gradient descent for phi (last resort when the re-anchored update
    itself cycles).  Phase bumps happen after _STALL_WINDOW iterations
    without relative progress, or immediately when the update step is
    pinned below tol.  Points still live at max_iter fall through to a
    descent epilogue that certifies |phi| only.  The two algorithms differ
    only in the step of phases 0 and 1: the first-order scheme re-anchors
    at the seed, Newton solves its KKT system and re-anchors only where
    that system is singular or its step is refused (``_newton_deltas``).

    The state of the live points is kept in compacted arrays that shrink
    as points finish, and each iterate is evaluated once: phi at the seeds
    (``seed_phi`` when the caller has it) serves both the sign and
    iteration 0, and the last evaluation of every point feeds the polish,
    the reported residual and ``gradients``.

    A ``tol`` that is not a positive finite real, or a ``max_iter`` that
    is not a non-negative int, is refused before the first evaluation.
    """
    # a NaN or zero tol is never met, so every point would run max_iter
    # iterations and leave as dropped, and a negative one would end in a
    # false "did not converge"; a negative max_iter would leave no iterate,
    # and a fraction or a bool would count iterations
    _check_tol(tol)
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) \
            or max_iter < 0:
        raise ValueError(f"max_iter must be a non-negative integer, got "
                         f"{max_iter!r}")
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 3)
    n = seeds.shape[0]
    p = (np.atleast_1d(eval_phi(surface, seeds)) if seed_phi is None
         else seed_phi)
    x_out = np.empty_like(seeds)
    p_out = np.empty(n)
    g_out = np.empty_like(seeds)
    its = np.full(n, max_iter, dtype=np.int64)
    dropped = np.zeros(n, dtype=bool)

    # the live set: position in the batch, iterate, previous iterate, seed,
    # sign of phi at the seed, phase, stall count, best criterion, age and
    # Newton's multiplier (set at iteration 0)
    lid = np.arange(n)
    x = prev = s = seeds
    sgn = np.sign(p)
    sgn[sgn == 0.0] = 1.0
    phase = np.zeros(n, dtype=np.int8)
    stall = np.zeros(n, dtype=np.int16)
    best = np.full(n, np.inf)
    age = np.zeros(n, dtype=np.int16)

    for k in range(max_iter + 1):
        if k > 0:
            p = np.atleast_1d(eval_phi(surface, x))
        g = grad_phi(surface, x)
        g2 = np.einsum("ij,ij->i", g, g)
        phi_term, dir2 = _criterion_terms(p, g, np.sqrt(g2), x, s)
        # a point already on the surface whose displacement points against
        # the gradient (the outside-seed case) can never pass the verbatim
        # criterion; drop its direction term right away
        phase[(phase == 0) & (phi_term < tol) & (dir2 >= 2.0)] = 1
        full = np.sqrt(phi_term**2 + dir2)
        if k > 0:
            relstep = _norm(x - prev) / (1.0 + _norm(x))
        else:
            relstep = np.full(len(lid), np.inf)
        if k == 0 and newton:
            # Newton's multiplier; matmul sums |grad phi|^2 as a scalar
            # g @ g does, not as the einsum of g2, whose last bit far seeds
            # would amplify into points other than Newton's recorded ones
            lam = 2.0 * p / (g[:, None, :] @ g[:, :, None])[:, 0, 0]
            # the seed's algebraic distance, which a Newton step may not
            # exceed off the surface
            reach = phi_term
        # with the direction term dropped the phi residual alone would stop
        # the foot-point iteration while it is still moving tangentially;
        # require the update step to settle too so both projection routes
        # keep landing on the same point
        crit = np.where(phase == 0, full,
                        np.where(phase == 1,
                                 np.maximum(phi_term, relstep), phi_term))

        done = crit < tol
        if np.any(done):
            fin = lid[done]
            x_out[fin] = x[done]
            p_out[fin] = p[done]
            g_out[fin] = g[done]
            its[fin] = k
            dropped[fin] = phase[done] >= 1
            keep = np.flatnonzero(~done)
            lid, x, s, sgn, phase, stall, best, age = (
                a[keep] for a in (lid, x, s, sgn, phase, stall, best, age))
            p, g, g2, crit, relstep = (
                a[keep] for a in (p, g, g2, crit, relstep))
            if newton:
                lam, reach = lam[keep], reach[keep]
        if k == max_iter or not len(lid):
            break

        stall += 1
        stall[crit < (1.0 - _STALL_RTOL) * best] = 0
        best = np.minimum(best, crit)
        age += 1
        overdue = (phase >= 1) & (age >= _FALLBACK_BUDGET)
        bump = (stall >= _STALL_WINDOW) | (relstep <= tol) | overdue
        if np.any(bump):
            phase[bump] = np.minimum(phase[bump] + 1, 2)
            stall[bump] = 0
            age[bump] = 0
            best[bump] = np.inf

        prev = x
        # the points that start from the descent step xt = x - phi grad phi
        # / |grad phi|^2: all but those taking a Newton step
        plain = np.ones(len(lid), dtype=bool)
        if newton:
            x = np.empty_like(prev)
            a = np.flatnonzero(phase < 2)
            if len(a):
                delta, ok = _newton_deltas(surface, prev[a], s[a], p[a],
                                           g[a], lam[a], reach[a], tol)
                a = a[ok]
                x[a] = prev[a] + delta[ok, :3]
                lam[a] += delta[ok, 3]
                plain[a] = False
        if np.all(plain):
            x = prev - (p / g2)[:, None] * g
        else:
            x[plain] = prev[plain] - (p[plain] / g2[plain])[:, None] * g[plain]
        anchored = plain & (phase < 2)
        if np.any(anchored):
            # a slice spares the gathers when every live point is anchored
            _reanchor(surface, x, s, sgn,
                      slice(None) if np.all(anchored) else anchored)
    # a loop that ends with every point done has not replaced the last
    # step's input; free it before the polish
    del prev

    if len(lid):
        # last resort: descend onto the level set; these exits certify only
        # |phi|, not the direction criterion, so they report as dropped
        xe, pe, ge, off = _descend(surface, x, p, g, tol, _EPILOGUE_STEPS)
        if np.any(off):
            worst = xe[off][int(np.argmax(_phi_residual(pe[off], ge[off])))]
            raise ProjectionError(
                ("Newton " if newton else "")
                + f"projection did not converge within {max_iter} iterations "
                f"for {int(off.sum())} point(s) on "
                f"{surface.name!r}; worst near {worst.tolist()}")
        x_out[lid] = xe
        p_out[lid] = pe
        g_out[lid] = ge
        dropped[lid] = True

    x, p, g = _polish_onto_surface(surface, x_out, p_out, g_out, tol)
    del x_out, p_out, g_out  # the polish works on copies
    # the reported residual at the polished points
    res = np.empty(n)
    res[dropped] = _phi_residual(p[dropped], g[dropped])
    kept = ~dropped
    res[kept] = _criterion(p[kept], g[kept], x[kept], seeds[kept])
    return _BatchProjection(points=x, iterations=its, residuals=res,
                            dropped=dropped, gradients=g)


def project_points(surface: LevelSetSurface, seeds, tol: float = 1e-10,
                   max_iter: int = 100) -> _BatchProjection:
    """Vectorized first-order projection of many seed points at once.

    Returns an object with ``points``, ``iterations``, ``residuals``,
    ``dropped`` and ``gradients`` (grad phi at the points) arrays.
    Semantics per point match ``project_first_order``.  Seeds are projected
    in batches of ``_pool._LIFT_BATCH`` points shared by the usable CPUs,
    which bounds the temporaries, and the batches run across those CPUs
    (``_pool._run_chunks``); each point is projected on its own, so the
    batching changes no value.
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 3)
    n = len(seeds)
    batches = _pool._slices(n, n, _pool._LIFT_BATCH)
    if len(batches) <= 1:
        return _project_batch(surface, seeds, tol, max_iter)
    out = _BatchProjection(
        points=np.empty((n, 3)), iterations=np.empty(n, dtype=np.int64),
        residuals=np.empty(n), dropped=np.empty(n, dtype=bool),
        gradients=np.empty((n, 3)))

    def project(part):
        done = _project_batch(surface, seeds[part], tol, max_iter)
        for name, arr in vars(done).items():
            getattr(out, name)[part] = arr

    _pool._run_chunks(project, batches)
    return out


def _projection_normals(seeds, p, proj, tol):
    """Unit normals (n, 3) of the projections ``proj`` of seeds with phi p:
    along sign(phi) * (seed - point), oriented along grad phi."""
    disp = seeds - proj.points
    dn = _norm(disp)
    g = proj.gradients
    n = np.where(p >= 0, 1.0, -1.0)[:, None] * disp
    # a seed sitting within polish distance of the surface gives no
    # usable displacement direction; fall back to the gradient there
    tiny = dn <= 10.0 * tol * (1.0 + _norm(seeds))
    n[tiny] = g[tiny]
    n /= _norm(n)[:, None]
    flip = np.einsum("ij,ij->i", n, g) < 0.0
    n[flip] = -n[flip]
    return n


def _project_one(surface, x0, tol, max_iter, newton):
    """One seed through ``_project_batch``, with its projection normal."""
    x0 = np.asarray(x0, dtype=float).reshape(1, 3)
    p0 = np.atleast_1d(eval_phi(surface, x0))
    br = _project_batch(surface, x0, tol, max_iter, p0, newton=newton)
    return ProjectionResult(
        point=br.points[0],
        normal=_projection_normals(x0, p0, br, tol)[0],
        iterations=int(br.iterations[0]),
        residual=float(br.residuals[0]),
        normal_check_dropped=bool(br.dropped[0]),
    )


def project_first_order(surface: LevelSetSurface, x0, tol: float = 1e-10,
                        max_iter: int = 100) -> ProjectionResult:
    """Project a point onto the surface with the first-order scheme.

    Each iteration takes a Newton step for phi,

        xt = x - phi(x) grad phi(x) / |grad phi(x)|^2 ,
        dist = sign(phi(x0)) |xt - x0| ,

    and re-anchors at the seed along the gradient direction at xt,

        x <- x0 - dist * grad phi(xt) / |grad phi(xt)| .

    Stops when the verbatim criterion passes tol, falling back per the
    module docstring when the direction term blocks termination.
    """
    return _project_one(surface, x0, tol, max_iter, newton=False)


def project_newton(surface: LevelSetSurface, x0, tol: float = 1e-10,
                   max_iter: int = 100) -> ProjectionResult:
    """Project a point by Newton iteration on the constrained minimization.

    Seeks a stationary point of F(x, lam) = |x - x0|^2 + lam * phi(x),
    starting from (x0, 2 phi(x0)/|grad phi(x0)|^2).  A singular Newton
    matrix, or a Newton step that lands off the surface and farther from
    it than the seed (by |phi| / |grad phi|), triggers a single first-order
    step instead.  Stopping criterion and stagnation fallback match
    ``project_first_order``.
    """
    return _project_one(surface, x0, tol, max_iter, newton=True)


def _approx_normal_batch(surface, pts, tol, max_iter=100, phi=None):
    """Vectorized ``approx_normal``; pts has shape (n, 3), ``phi`` is phi
    at pts when the caller has already evaluated it.  A bad ``tol`` is
    refused as the projection refuses it, before ``abs(phi) < tol``: an
    inf would take every seed as on the surface."""
    _check_tol(tol)
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    p = np.atleast_1d(eval_phi(surface, pts)) if phi is None else phi
    out = np.empty_like(pts)
    on = np.abs(p) < tol
    if np.any(on):
        n = grad_phi(surface, pts[on])
        out[on] = n / _norm(n)[:, None]
    off = ~on
    if np.any(off):
        proj = _project_batch(surface, pts[off], tol, max_iter, p[off])
        out[off] = _projection_normals(pts[off], p[off], proj, tol)
    return out


def approx_normal(surface: LevelSetSurface, x0, tol: float = 1e-10) -> np.ndarray:
    """Approximate the outward unit normal at (the projection of) x0.

    On the surface (|phi| < tol) this is grad phi / |grad phi|.  Off the
    surface the point is projected and the unit vector along
    sign(phi(x0)) * (x0 - proj(x0)) is returned, with the sign corrected so
    the result points in the direction of increasing phi.
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    out = _approx_normal_batch(surface, x0.reshape(-1, 3), tol)
    return out[0] if single else out.reshape(x0.shape)


def grad_normal(surface: LevelSetSurface, x) -> np.ndarray:
    """Jacobian of the approximate normal field by central differences.

    All nine entries are differenced with step ``surface.normal_fd_step``;
    projection failures at stencil points propagate.  The trace approximates
    the sum of principal curvatures (e.g. 2 on the unit sphere).
    """
    return field_gradient(ScalarField3(lambda y: approx_normal(surface, y)),
                          x, surface.normal_fd_step)


def _surface_laplacian(x, nu, normal, u, step):
    """Delta u - nu . (H u) nu - tr(grad nu) (grad u . nu)  at the points x
    (one point or (..., 3)), from the unit normals nu (n, 3) there and the
    unit normal field ``normal``.  The Jacobian of the normal field and the
    derivatives of u are central differences of step ``step`` (u's own
    derivatives when it has them)."""
    pts = x.reshape(-1, 3)
    Jnu = field_gradient(ScalarField3(normal), pts, step)
    gu = field_gradient(u, pts, step)
    Hu = field_hessian(u, pts, step)
    lap = np.trace(Hu, axis1=-2, axis2=-1)
    nHn = np.einsum("...i,...ij,...j->...", nu, Hu, nu)
    trJ = np.trace(Jnu, axis1=-2, axis2=-1)
    gdotn = np.einsum("...i,...i->...", gu, nu)
    out = lap - nHn - trJ * gdotn
    return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])


def laplace_beltrami_levelset(surface: LevelSetSurface, u: ScalarField3, x,
                              tol: float = 1e-10) -> np.ndarray | float:
    """Surface Laplacian of an ambient field at on-surface points.

    Evaluates  Delta u - nu . (H u) nu - tr(grad nu) (grad u . nu)  with the
    normal and its Jacobian taken from ``approx_normal`` / ``grad_normal``.
    Points must lie on the surface (|phi(x)| < 1e-8).
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    p = np.atleast_1d(eval_phi(surface, pts))
    if np.any(np.abs(p) >= 1e-8):
        raise ValueError("laplace_beltrami_levelset requires on-surface "
                         "points (|phi| < 1e-8)")
    return _surface_laplacian(
        x, _approx_normal_batch(surface, pts, tol, phi=p),
        lambda y: approx_normal(surface, y, tol), u, surface.normal_fd_step)


def laplace_beltrami_normal_field(normal_field: Callable, u: ScalarField3, x,
                                  step: float = 1e-4) -> np.ndarray | float:
    """Surface Laplacian using an explicit normal field instead of projection.

    ``normal_field`` maps (..., 3) -> (..., 3); its values are normalized
    before use so only the direction matters.  Useful when a closed-form
    normal is known (it avoids any projection work in the FD stencils).
    """
    x = np.asarray(x, dtype=float)

    def unit(q):
        v = np.asarray(normal_field(q), dtype=float)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    return _surface_laplacian(x, unit(x.reshape(-1, 3)), unit, u, step)


# ---------------------------------------------------------------------------
# built-in surfaces


def make_sphere() -> LevelSetSurface:
    """Unit sphere, phi = |x|^2 - 1."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,...i->...", x, x) - 1.0

    def grad(x):
        return 2.0 * np.asarray(x, dtype=float)

    def hess(x):
        x = np.asarray(x, dtype=float)
        H = np.zeros(x.shape + (3,))
        H[..., 0, 0] = H[..., 1, 1] = H[..., 2, 2] = 2.0
        return H

    def normal(x):
        x = np.asarray(x, dtype=float)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    return LevelSetSurface(phi=phi, grad_phi=grad, hess_phi=hess,
                           analytic_normal=normal, name="sphere")


def _dziuk_numerator(x):
    x = np.asarray(x, dtype=float)
    a = x[..., 0] - x[..., 2] ** 2
    n = np.empty_like(x)
    n[..., 0] = a
    n[..., 1] = x[..., 1]
    n[..., 2] = x[..., 2] * (1.0 - 2.0 * a)
    return n


def make_dziuk() -> LevelSetSurface:
    """Sheared sphere of Dziuk type, phi = (x1 - x3^2)^2 + x2^2 + x3^2 - 1."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        a = x[..., 0] - x[..., 2] ** 2
        return a**2 + x[..., 1] ** 2 + x[..., 2] ** 2 - 1.0

    def grad(x):
        return 2.0 * _dziuk_numerator(x)

    def hess(x):
        x = np.asarray(x, dtype=float)
        H = np.zeros(x.shape + (3,))
        H[..., 0, 0] = 2.0
        H[..., 1, 1] = 2.0
        H[..., 0, 2] = H[..., 2, 0] = -4.0 * x[..., 2]
        H[..., 2, 2] = 2.0 - 4.0 * x[..., 0] + 12.0 * x[..., 2] ** 2
        return H

    def normal(x):
        # closed form, unit exactly on the surface
        x = np.asarray(x, dtype=float)
        den = np.sqrt(1.0 + 4.0 * x[..., 2] ** 2
                      * (1.0 - x[..., 0] - x[..., 1] ** 2))
        return _dziuk_numerator(x) / den[..., None]

    return LevelSetSurface(phi=phi, grad_phi=grad, hess_phi=hess,
                           analytic_normal=normal, name="dziuk")


def make_enzensberger_stern() -> LevelSetSurface:
    """Six-armed star surface, 400 (x^2 y^2 + y^2 z^2 + x^2 z^2)
    - (1 - x^2 - y^2 - z^2)^3 - 40 = 0."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        x2 = x**2
        cross = (x2[..., 0] * x2[..., 1] + x2[..., 1] * x2[..., 2]
                 + x2[..., 0] * x2[..., 2])
        # summed by hand, in the order of x2.sum(axis=-1): numpy reduces
        # over a length-3 axis slowly, and phi is the projection's kernel
        s = 1.0 - (x2[..., 0] + x2[..., 1] + x2[..., 2])
        return 400.0 * cross - s**3 - 40.0

    def grad(x):
        x = np.asarray(x, dtype=float)
        x2 = x**2
        s = 1.0 - (x2[..., 0] + x2[..., 1] + x2[..., 2])
        g = np.empty_like(x)
        g[..., 0] = 800.0 * x[..., 0] * (x2[..., 1] + x2[..., 2]) \
            + 6.0 * x[..., 0] * s**2
        g[..., 1] = 800.0 * x[..., 1] * (x2[..., 0] + x2[..., 2]) \
            + 6.0 * x[..., 1] * s**2
        g[..., 2] = 800.0 * x[..., 2] * (x2[..., 0] + x2[..., 1]) \
            + 6.0 * x[..., 2] * s**2
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        x2 = x**2
        s = 1.0 - (x2[..., 0] + x2[..., 1] + x2[..., 2])
        H = np.empty(x.shape + (3,))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            H[..., i, i] = (800.0 * (x2[..., j] + x2[..., k])
                            + 6.0 * s**2 - 24.0 * x2[..., i] * s)
        for i in range(3):
            for j in range(i + 1, 3):
                mixed = x[..., i] * x[..., j] * (1600.0 - 24.0 * s)
                H[..., i, j] = mixed
                H[..., j, i] = mixed
        return H

    return LevelSetSurface(phi=phi, grad_phi=grad, hess_phi=hess,
                           name="enzensberger-stern")


def make_plane() -> LevelSetSurface:
    """Plane x3 = 0; handy as a flat sanity surface in tests."""

    def phi(x):
        return np.asarray(x, dtype=float)[..., 2]

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 2] = 1.0
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (3,))

    return LevelSetSurface(phi=phi, grad_phi=grad, hess_phi=hess,
                           name="plane")


_SURFACE_FACTORIES = {
    "sphere": make_sphere,
    "dziuk": make_dziuk,
    "enzensberger-stern": make_enzensberger_stern,
}

SURFACE_NAMES = tuple(sorted(_SURFACE_FACTORIES))


def get_surface(name: str) -> LevelSetSurface:
    """Look up a built-in surface by name."""
    try:
        return _SURFACE_FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown surface {name!r}; available: {', '.join(SURFACE_NAMES)}"
        ) from None
