"""Property tests of the IP matrix assembly on perturbed seed meshes."""

import copy

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import flat_grid, perturbed_mesh
from surfdg import _pool, assembly
from surfdg.assembly import (PenaltyParams, assemble_mass_stiffness,
                             assemble_penalty_matrix, assemble_system,
                             check_symmetry)
from surfdg.dgspace import DgSpace, get_quadrature
from surfdg.geometry import make_plane
from surfdg.mesh import EdgeSet, SurfaceMesh, refine_nonconforming

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def flipped_sides(mesh, seed):
    """``mesh`` with the minus and the plus side of about half of its
    intersections swapped, so minus elements also follow plus ones."""
    e = mesh.edges
    flip = np.random.default_rng(seed).random(len(e)) < 0.5

    def pick(a, b):
        return np.where(flip.reshape((-1,) + (1,) * (a.ndim - 1)), b, a)

    edges = EdgeSet(e.endpoints, pick(e.plus, e.minus), pick(e.minus, e.plus),
                    e.lengths, pick(e.conormal_plus, e.conormal_minus),
                    pick(e.conormal_minus, e.conormal_plus), e.conforming)
    flipped = copy.copy(mesh)  # keeps the mesh's areas and normals
    flipped.edges = edges
    return flipped


def whole_streams(space, tags, penalty):
    """The whole matrices' block streams, (block, row elements, column
    elements), in the written order of a one-shot assembly, from the
    pass's kernels over all elements and over all intersections as one
    chunk: per choice of ``tags`` the volume blocks of all elements, then
    the minus-diagonal, minus-off, plus-diagonal and plus-off blocks of
    all intersections; and the streams of the two references, the volume
    blocks alone ("mass-stiffness") and the penalty blocks ("penalty")."""
    m = len(space.mesh.triangles)
    elems, ids = np.arange(m), np.arange(len(space.mesh.edges))
    tri_deg, seg_deg = assembly._quad_degrees(space.degree)
    seg_rule = get_quadrature("segment", seg_deg)
    volume = (assembly._volume_block(
        space, get_quadrature("triangle", tri_deg)), elems, elems)
    sides = assembly._chunk_faces(
        space, seg_rule, *assembly._face_weights(space, penalty, seg_rule),
        0, m, (ids, ids))
    streams = {tag: [volume, *assembly._face_blocks(tag, sides, {})]
               for tag in tags}
    streams["mass-stiffness"] = [volume]
    streams["penalty"] = []
    for own, other, *_, b, _w, mass_f, cross in sides:
        b = b[:, None, None]
        streams["penalty"] += [(b * mass_f, own, own),
                               (-b * cross, own, other)]
    return streams


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


def same_csr(got, want):
    """Whether two CSR matrices hold the same arrays, dtypes included."""
    return all(getattr(got, part).dtype == getattr(want, part).dtype
               and np.array_equal(getattr(got, part), getattr(want, part))
               for part in ("indptr", "indices", "data"))


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk")), degree=st.sampled_from((1, 2)),
       nonconforming=st.booleans(), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.0, 0.15), chunk=st.integers(1, 1 << 14),
       flip=st.booleans())
def test_row_chunks_match_one_shot_conversion(name, degree, nonconforming,
                                              seed, amplitude, chunk, flip):
    """Every choice's IP matrix, built in row chunks of about ``chunk``
    triplets (down to one element per chunk, up to a single chunk), alone
    and as an output of the shared pass over all choices, is, array for
    array, scipy's one-shot conversion of its whole block stream in its
    written order, as are the two references; Choices 2, 3 and 4 are
    symmetric; also when some minus elements follow their plus
    elements."""
    mesh = perturbed_mesh(name, seed, amplitude, nonconforming)
    space = DgSpace(flipped_sides(mesh, seed) if flip else mesh, degree)
    penalty = PenaltyParams()
    builds = {c: (lambda c=c: [assemble_system(space, c, penalty)])
              for c in assembly.CHOICES}
    builds["mass-stiffness"] = lambda: [assemble_mass_stiffness(space)]
    builds["penalty"] = lambda: [assemble_penalty_matrix(space, penalty)]
    builds["all choices"] = lambda: assembly._assemble_choices(
        space, list(assembly.CHOICES), penalty)
    wants = {what: listed_csr(space, stream) for what, stream
             in whole_streams(space, assembly.CHOICES, penalty).items()}
    for what, build in builds.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_CHUNK_TRIPLETS", chunk)
            got = build()
        tags = assembly.CHOICES if what == "all choices" else (what,)
        assert len(got) == len(tags), what
        for tag, system in zip(tags, got):
            a = system.matrix
            assert a.has_sorted_indices, (what, tag)
            assert same_csr(a, wants[tag]), (what, tag)
            if tag in ("2", "3", "4"):
                assert check_symmetry(a) <= 1e-12 * np.abs(a.data).max()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk")), degree=st.sampled_from((1, 2)),
       nonconforming=st.booleans(), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.0, 0.15),
       tags=st.permutations(assembly.CHOICES).flatmap(
           lambda p: st.integers(1, len(p)).map(lambda k: list(p[:k]))),
       chunk=st.integers(1, 1 << 14), cpus=st.integers(1, 3))
def test_shared_pass_equals_per_choice_assembly(name, degree, nonconforming,
                                                seed, amplitude, tags, chunk,
                                                cpus):
    """The shared pass over any subset of the choices, in any order, with
    row chunks of about ``chunk`` triplets on 1 to 3 workers, gives each
    choice, array for array, the matrix of its own one-choice assembly;
    all outputs hold one ``indices`` and one ``indptr`` array."""
    space = DgSpace(perturbed_mesh(name, seed, amplitude, nonconforming),
                    degree)
    penalty = PenaltyParams()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "_usable_cpus", lambda: cpus)
        mp.setattr(_pool, "_shared", None)
        mp.setattr(_pool, "_CHUNK_TRIPLETS", chunk)
        try:
            got = [s.matrix for s in assembly._assemble_choices(
                space, tags, penalty)]
        finally:
            if _pool._shared is not None:
                _pool._shared[1].shutdown(wait=True)
    assert len(got) == len(tags)
    for tag, a in zip(tags, got):
        assert same_csr(a, assemble_system(space, tag, penalty).matrix), tag
        assert np.shares_memory(a.indices, got[0].indices)
        assert np.shares_memory(a.indptr, got[0].indptr)


@settings(max_examples=30, deadline=None)
@given(cells=st.integers(1, 4), degree=st.sampled_from((1, 2)),
       seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.3),
       nonconforming=st.booleans())
def test_flat_choices_assemble_equal_matrices(cells, degree, seed, amplitude,
                                              nonconforming):
    """On a planar grid with every vertex moved in the plane by up to
    ``amplitude`` times the grid spacing (which keeps every triangle's
    orientation), and optionally some elements refined with hanging
    nodes, the conormals of each intersection are opposite, so Choices
    1-4 (and 4T) assemble the same matrix."""
    grid = flat_grid(cells)
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, len(grid.vertices))
    radius = amplitude / cells * rng.random(len(grid.vertices))
    v = grid.vertices.copy()
    v[:, 0] += radius * np.cos(angle)
    v[:, 1] += radius * np.sin(angle)
    mesh = SurfaceMesh(vertices=v, triangles=grid.triangles,
                       levels=grid.levels, allow_boundary=True)
    if nonconforming:
        marked = np.flatnonzero(rng.random(len(mesh.triangles)) < 0.3)
        mesh = refine_nonconforming(mesh, marked if len(marked) else [0],
                                    make_plane())
    space = DgSpace(mesh, degree)
    penalty = PenaltyParams(sigma=2.0)
    mats = {c: assemble_system(space, c, penalty).matrix.toarray()
            for c in assembly.CHOICES}
    scale = np.abs(mats["2"]).max()
    for c, a in mats.items():
        assert np.abs(a - mats["2"]).max() <= 1e-12 * scale, c
