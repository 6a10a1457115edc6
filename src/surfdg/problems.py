"""Manufactured test problems -lap_G u + u = f on the built-in surfaces.

The exact solution is the ambient polynomial u(x) = x1 x2 restricted to
the surface.  Forcing modes:

  analytic    closed-form data: on the sphere f = 7 x1 x2 directly; on
              the Dziuk surface the curvature formula is evaluated with
              the closed-form normal field (no projections involved).
  generic-LB  f = u - lap_G u with the surface Laplacian built from the
              projection-based approximate normal and its differenced
              Jacobian; works on any level-set surface.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (LevelSetSurface, ScalarField3, _norm, get_surface,
                       laplace_beltrami_levelset,
                       laplace_beltrami_normal_field, project_points)

PROBLEM_NAMES = ("sphere", "dziuk", "enzensberger-stern")


def _u_value(p):
    p = np.asarray(p, dtype=float)
    return p[..., 0] * p[..., 1]


def _u_gradient(p):
    p = np.asarray(p, dtype=float)
    g = np.zeros_like(p)
    g[..., 0] = p[..., 1]
    g[..., 1] = p[..., 0]
    return g


def _u_hessian(p):
    p = np.asarray(p, dtype=float)
    h = np.zeros(p.shape + (3,))
    h[..., 0, 1] = 1.0
    h[..., 1, 0] = 1.0
    return h


def default_exact_u() -> ScalarField3:
    return ScalarField3(value=_u_value, gradient=_u_gradient,
                        hessian=_u_hessian)


@dataclass
class TestProblem:
    """Surface, exact solution and forcing for one manufactured run."""

    name: str
    surface: LevelSetSurface
    exact_u: ScalarField3
    forcing_mode: str
    f: Callable  # (n, 3) on-surface points -> (n,)


def make_problem(name: str, forcing_mode: str | None = None) -> TestProblem:
    """Build a named problem; forcing_mode overrides the default route."""
    key = name.strip().lower().replace("_", "-")
    if key not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; pick from "
                         f"{PROBLEM_NAMES}")
    surface = get_surface(key)
    u = default_exact_u()
    mode = forcing_mode
    if mode is None:
        mode = "generic-LB" if key == "enzensberger-stern" else "analytic"
    if mode not in ("analytic", "generic-LB"):
        raise ValueError(f"unknown forcing mode {forcing_mode!r}")

    if mode == "analytic":
        if key == "sphere":
            # u = x1 x2 is a degree-2 spherical harmonic: -lap_G u = 6 u
            def f(p):
                return 7.0 * _u_value(p)
        elif key == "dziuk":
            normal = surface.analytic_normal

            def f(p):
                lb = laplace_beltrami_normal_field(normal, u, p,
                                                   surface.normal_fd_step)
                return _u_value(p) - lb
        else:
            raise ValueError(f"no closed-form forcing for {key!r}; use "
                             "the generic-LB mode")
    else:
        def f(p):
            return _u_value(p) - laplace_beltrami_levelset(surface, u, p)

    return TestProblem(name=key, surface=surface, exact_u=u,
                       forcing_mode=mode, f=f)


def exact_u_on_gammah(problem: TestProblem, x):
    """Exact solution composed with the closest-point map.

    Returns (u(xi(x)), P grad u at xi(x)) with P the tangent projector of
    the smooth surface; accepts a single point or an (n, 3) batch.
    """
    x = np.asarray(x, dtype=float)
    proj = project_points(problem.surface, x.reshape(-1, 3))
    nu = proj.gradients
    nu /= _norm(nu)[:, None]
    grad = problem.exact_u.gradient(proj.points)
    tang = grad - np.einsum("ij,ij->i", grad, nu)[:, None] * nu
    val = problem.exact_u.value(proj.points)
    if x.ndim == 1:
        return float(val[0]), tang[0]
    return val, tang
