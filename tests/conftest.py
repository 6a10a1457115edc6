"""Shared fixtures: flat reference patches, Dziuk spaces, tube-point
sampling and numpy memory tracing."""

import tracemalloc

import numpy as np
import pytest

from surfdg.dgspace import DgSpace
from surfdg.geometry import (eval_phi, get_surface, grad_phi, make_dziuk,
                             make_plane, project_points)
from surfdg.mesh import (SurfaceMesh, build_edges, initial_mesh,
                         refine_nonconforming, refine_uniform)
from surfdg.problems import TestProblem

# a domain dataclass, not a test case
TestProblem.__test__ = False

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # `pytest --hypothesis-profile=ci` draws a fixed example sequence, so a
    # property-test failure in CI reproduces anywhere
    settings.register_profile("ci", derandomize=True, deadline=None)

# normal offsets used when sampling points near each surface; kept well
# inside the reach so the closest point stays unique
TUBE_WIDTH = {"sphere": 0.2, "dziuk": 0.05, "enzensberger-stern": 0.01}


def flat_grid(cells: int) -> SurfaceMesh:
    """Structured triangulation of [0,1]^2 in the z = 0 plane.

    Every cell is split along its (0,0)-(1,1) diagonal, giving
    2 * cells**2 triangles.
    """
    n = cells + 1
    xs = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n * n)])
    tris = []
    for j in range(cells):
        for i in range(cells):
            v00 = j * n + i
            v10 = v00 + 1
            v01 = v00 + n
            v11 = v01 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    mesh = SurfaceMesh(vertices=verts,
                       triangles=np.asarray(tris, dtype=np.int64),
                       levels=np.zeros(len(tris), dtype=np.int32),
                       allow_boundary=True)
    return build_edges(mesh)


def flat_pair() -> SurfaceMesh:
    """Unit square split along the main diagonal into two triangles.

    Vertex order matches the hand-computed 6x6 assembly oracle: triangle 0
    covers 0 <= y <= x <= 1, triangle 1 covers 0 <= x <= y <= 1.
    """
    verts = np.array([[0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    mesh = SurfaceMesh(vertices=verts, triangles=tris,
                       levels=np.zeros(2, dtype=np.int32),
                       allow_boundary=True)
    return build_edges(mesh)


def dziuk_space(refinements, degree):
    """DgSpace on the icosahedral Dziuk mesh after uniform refinements."""
    surf = make_dziuk()
    mesh = initial_mesh(surf, "icosahedron")
    for _ in range(refinements):
        mesh = refine_uniform(mesh, surf)
    return DgSpace(mesh, degree)


def perturbed_mesh(name, seed, amplitude, nonconforming):
    """Icosahedral seed mesh of surface ``name`` with every vertex moved
    tangentially by up to ``amplitude`` times the shortest edge and put
    back onto the surface; optionally its x1 > 0 half refined once."""
    surface = get_surface(name)
    mesh = initial_mesh(surface, "icosahedron")
    v = mesh.vertices
    nu = grad_phi(surface, v)
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(v.shape)
    d -= np.einsum("ij,ij->i", d, nu)[:, None] * nu
    d *= (amplitude * mesh.edges.lengths.min()
          / np.linalg.norm(d, axis=1, keepdims=True))
    moved = project_points(surface, v + d).points
    mesh = build_edges(SurfaceMesh(vertices=moved, triangles=mesh.triangles,
                                   levels=mesh.levels))
    if nonconforming:
        cent = mesh.triangle_vertices().mean(axis=1)
        mesh = refine_nonconforming(mesh, np.flatnonzero(cent[:, 0] > 0.0),
                                    surface)
    return mesh


def tube_points(surface, n=100, seed=0, width=None):
    """n random points in a thin tube around phi = 0.

    Seeds are drawn from [-1.5, 1.5]^3, projected onto the surface, and
    pushed off along the normal by a uniform offset within the tube width.
    """
    if width is None:
        width = TUBE_WIDTH.get(surface.name, 0.05)
    rng = np.random.default_rng(seed)
    base = np.empty((0, 3))
    while len(base) < n:
        seeds = rng.uniform(-1.5, 1.5, size=(4 * n, 3))
        proj = project_points(surface, seeds)
        ok = np.abs(eval_phi(surface, proj.points)) <= 1e-8
        base = np.vstack([base, proj.points[ok]])
    base = base[:n]
    g = grad_phi(surface, base)
    nu = g / np.linalg.norm(g, axis=1, keepdims=True)
    t = rng.uniform(-width, width, size=(n, 1))
    return base + t * nu


def _numpy_bytes() -> int:
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(stat.size for stat in snap.statistics("filename"))


def traced_bytes(fn):
    """Run ``fn()`` under tracemalloc; returns (result, peak, kept): the
    traced peak above the bytes allocated at the call, and the bytes of
    numpy data the call leaves allocated (tracemalloc's numpy domain)."""
    tracemalloc.start()
    try:
        before = _numpy_bytes()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
        kept = _numpy_bytes() - before
    finally:
        tracemalloc.stop()
    return out, peak, kept


@pytest.fixture
def plane():
    return make_plane()


@pytest.fixture
def square2():
    return flat_pair()


@pytest.fixture
def square128():
    return flat_grid(8)
