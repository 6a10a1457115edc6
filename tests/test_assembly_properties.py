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
from surfdg.dgspace import DgSpace
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


def recorded(calls, build):
    """``build()`` with the arguments of every ``_assemble_by_rows`` call
    appended to ``calls`` as (positional, keyword)."""
    assemble = assembly._assemble_by_rows

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return assemble(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_assemble_by_rows", spy)
        return build()


def whole_streams(space, volume, faces, face_rule=None, grads=False,
                  outputs=1):
    """Per output, the whole matrix's block stream, (block, row elements,
    column elements), in the written order of a one-shot assembly: the
    volume blocks of all elements, then the minus-diagonal, minus-off,
    plus-diagonal and plus-off blocks of all intersections."""
    m = len(space.mesh.triangles)
    elems = np.arange(m)
    shared = [] if volume is None else [(volume(slice(None)), elems, elems)]
    sides = []
    if faces is not None:
        edges = space.mesh.edges
        ids = np.arange(len(edges))
        x = space.face_points(face_rule)
        tr_minus = space.trace(edges.minus, x, grads)
        tr_plus = space.trace(edges.plus, x, grads)
        for minus, own, other, own_tr, other_tr in (
                (True, edges.minus, edges.plus, tr_minus, tr_plus),
                (False, edges.plus, edges.minus, tr_plus, tr_minus)):
            sides.append((faces(ids, minus, own_tr, other_tr), own, other))
    streams = []
    for k in range(outputs):
        stream = list(shared)
        for face, own, other in sides:
            diag, off = face(k)
            stream += [(diag, own, own), (off, own, other)]
        streams.append(stream)
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
    """Every assembler's CSR, built in row chunks of about ``chunk``
    triplets (down to one element per chunk, up to a single chunk), is,
    array for array, scipy's one-shot conversion of the whole block stream
    in its written order, and Choices 2, 3 and 4 are symmetric; also when
    some minus elements follow their plus elements, and for every output
    of the shared pass over all choices."""
    mesh = perturbed_mesh(name, seed, amplitude, nonconforming)
    space = DgSpace(flipped_sides(mesh, seed) if flip else mesh, degree)
    penalty = PenaltyParams()
    builds = {c: (lambda c=c: [assemble_system(space, c, penalty)])
              for c in assembly.CHOICES}
    builds["mass-stiffness"] = lambda: [assemble_mass_stiffness(space)]
    builds["penalty"] = lambda: [assemble_penalty_matrix(space, penalty)]
    builds["all choices"] = lambda: assembly._assemble_choices(
        space, list(assembly.CHOICES), penalty)
    for what, build in builds.items():
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_CHUNK_TRIPLETS", chunk)
            got = recorded(calls, build)
        ((args, kwargs),) = calls
        wants = [listed_csr(space, stream)
                 for stream in whole_streams(*args, **kwargs)]
        assert len(got) == len(wants), what
        for k, (system, want) in enumerate(zip(got, wants)):
            a = system.matrix
            assert a.has_sorted_indices, (what, k)
            assert same_csr(a, want), (what, k)
            tag = assembly.CHOICES[k] if what == "all choices" else what
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
