"""Property tests of the IP matrix assembly on perturbed seed meshes."""

import numpy as np
import pytest
import scipy.sparse as sp

from surfdg import assembly
from surfdg.assembly import (PenaltyParams, assemble_mass_stiffness,
                             assemble_penalty_matrix, assemble_system,
                             check_symmetry)
from surfdg.dgspace import DgSpace
from surfdg.geometry import get_surface, grad_phi, project_points
from surfdg.mesh import (SurfaceMesh, build_edges, initial_mesh,
                         refine_nonconforming)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


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


def recorded(stream, build):
    """``build()`` with every block family handed to the triplet writer
    appended to ``stream`` as (block, row elements, column elements)."""
    write = assembly._TripletWriter.write

    def spy(self, block, row_elems, col_elems):
        stream.append((block.copy(), row_elems, col_elems))
        write(self, block, row_elems, col_elems)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly._TripletWriter, "write", spy)
        return build()


def listed_csr(space, stream):
    """The stream summed the list-of-blocks way: int64 row and column
    lists per family, concatenated, converted by scipy."""
    n = space.dofs_per_element
    dofs = np.arange(space.total_dofs).reshape(-1, n)
    rows = [np.repeat(dofs[r], n, axis=1).ravel() for _, r, _ in stream]
    cols = [np.tile(dofs[c], (1, n)).ravel() for _, _, c in stream]
    vals = [b.ravel() for b, _, _ in stream]
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.total_dofs,) * 2).tocsr()
    mat.sort_indices()
    return mat


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk")), degree=st.sampled_from((1, 2)),
       nonconforming=st.booleans(), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.0, 0.15))
def test_triplet_writer_matches_listed_conversion(name, degree, nonconforming,
                                                  seed, amplitude):
    """Every assembler's CSR is, array for array, scipy's conversion of the
    block stream its writer received, and Choices 2, 3 and 4 are
    symmetric."""
    space = DgSpace(perturbed_mesh(name, seed, amplitude, nonconforming),
                    degree)
    penalty = PenaltyParams()
    builds = {c: (lambda c=c: assemble_system(space, c, penalty))
              for c in assembly.CHOICES}
    builds["mass-stiffness"] = lambda: assemble_mass_stiffness(space)
    builds["penalty"] = lambda: assemble_penalty_matrix(space, penalty)
    for what, build in builds.items():
        stream = []
        got = recorded(stream, build).matrix
        want = listed_csr(space, stream)
        assert got.has_sorted_indices, what
        for part in ("indptr", "indices", "data"):
            g, w = getattr(got, part), getattr(want, part)
            assert g.dtype == w.dtype, (what, part)
            assert np.array_equal(g, w), (what, part)
        if what in ("2", "3", "4"):
            assert check_symmetry(got) <= 1e-12 * np.abs(got.data).max()
