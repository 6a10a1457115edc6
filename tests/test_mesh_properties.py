"""Property tests of refinement closure and the intersection list."""

import numpy as np
import pytest

from conftest import perturbed_mesh
from surfdg.geometry import get_surface
from surfdg.mesh import initial_mesh, refine_nonconforming, refine_uniform

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def level_gap(mesh):
    return np.abs(mesh.levels[mesh.edges.plus].astype(int)
                  - mesh.levels[mesh.edges.minus].astype(int)).max()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk")), steps=st.integers(2, 3),
       data=st.data())
def test_closure_keeps_level_gap_at_most_one(name, steps, data):
    """Whatever elements are marked, in each of 2-3 nonconforming
    refinements, closure leaves a level gap of at most one across every
    intersection."""
    surface = get_surface(name)
    mesh = initial_mesh(surface, "icosahedron")
    for _ in range(steps):
        m = len(mesh.triangles)
        marked = data.draw(st.sets(st.integers(0, m - 1), min_size=1,
                                   max_size=min(m, 12)))
        mesh = refine_nonconforming(mesh, marked, surface)
        assert len(mesh.triangles) >= m + 3 * len(marked)
        assert level_gap(mesh) <= 1


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk", "enzensberger-stern")),
       seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.15),
       refinements=st.integers(0, 2))
def test_conforming_intersections_cover_half_the_perimeter(
        name, seed, amplitude, refinements):
    """On a closed conforming mesh every triangle edge is one intersection
    shared by two elements, so the intersection lengths sum to half the
    total triangle perimeter."""
    surface = get_surface(name)
    mesh = perturbed_mesh(name, seed, amplitude, False)
    for _ in range(refinements):
        mesh = refine_uniform(mesh, surface)
    assert mesh.conforming
    tv = mesh.triangle_vertices()
    perimeter = sum(np.linalg.norm(tv[:, (k + 1) % 3] - tv[:, k],
                                   axis=1).sum() for k in range(3))
    total = mesh.edges.lengths.sum()
    assert abs(total - 0.5 * perimeter) <= 1e-12 * perimeter
