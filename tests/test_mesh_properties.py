"""Property tests of refinement closure and the intersection list."""

import numpy as np
import pytest

from conftest import flat_grid, perturbed_mesh
from surfdg.geometry import get_surface, make_plane
from surfdg.mesh import (SurfaceMesh, _conormals, _edge_split_points,
                         build_edges, initial_mesh, refine_nonconforming,
                         refine_uniform)

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


# the per-element table of a mesh, with the shape of its rows
TABLE = {"areas": (), "normals": (3,), "pushforward": (2, 3),
         "jacobian_areas": (), "edge_area_ratios": ()}
EDGE_ARRAYS = ("endpoints", "plus", "minus", "lengths", "conormal_plus",
               "conormal_minus")


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk")),
       seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.15),
       nonconforming=st.booleans())
def test_every_mesh_is_built_whole(name, seed, amplitude, nonconforming):
    """A mesh made by the constructor, by ``initial_mesh``, by
    ``refine_uniform`` or by ``refine_nonconforming`` carries its
    intersections and its per-element table, and ``build_edges`` builds
    every one of their arrays again bit for bit."""
    surface = get_surface(name)
    mesh = perturbed_mesh(name, seed, amplitude, nonconforming)
    meshes = [mesh, SurfaceMesh(mesh.vertices, mesh.triangles, mesh.levels,
                                edge_midpoints=mesh.edge_midpoints),
              initial_mesh(surface, "icosahedron"),
              refine_nonconforming(mesh, [0], surface)]
    if mesh.conforming:
        meshes.append(refine_uniform(mesh, surface))
    for m in meshes:
        elements = len(m.triangles)
        for key, row in TABLE.items():
            assert getattr(m, key).shape == (elements,) + row, key
        e = m.edges
        assert len(e) > 0 and m.conforming == (m.levels.min()
                                               == m.levels.max())
        for key in EDGE_ARRAYS:
            assert len(getattr(e, key)) == len(e), key
        again = build_edges(m)
        assert again is not m and again.edges is not e
        assert again.conforming == m.conforming
        pairs = [(getattr(again, k), getattr(m, k)) for k in TABLE]
        pairs += [(getattr(again.edges, k), getattr(e, k))
                  for k in EDGE_ARRAYS]
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


# Reference: the intersection matching and registry update written with
# vertex-pair rows, tuple keys and a dict registry, one Python loop per
# edge or triangle.  The mesh module names an edge by one integer key; the
# property below checks that both give the same mesh, bit for bit.

def _pair_rows(tris):
    return np.sort(np.concatenate(
        [tris[:, (0, 1)], tris[:, (1, 2)], tris[:, (2, 0)]]), axis=1)


def reference_intersections(tris, registry):
    """Rows (i, j, minus, plus): full shared edges in pair order, then each
    coarse edge with its two registered halves."""
    raw = _pair_rows(tris)
    owner = np.tile(np.arange(len(tris)), 3)
    uniq, inv, counts = np.unique(raw, axis=0, return_inverse=True,
                                  return_counts=True)
    inv = inv.ravel()
    order = np.argsort(inv, kind="stable")
    shared = counts == 2
    both = np.sort(owner[order[shared[inv[order]]].reshape(-1, 2)], axis=1)
    rows = [tuple(r) for r in
            np.concatenate([uniq[shared], both], axis=1).tolist()]
    single = ~shared[inv]
    singles = {tuple(k): t for k, t in
               zip(raw[single].tolist(), owner[single].tolist())}
    for key in sorted(singles):
        if key not in registry:
            continue
        mid = registry[key]
        halves = [tuple(sorted(p)) for p in ((key[0], mid), (mid, key[1]))]
        if all(h in singles for h in halves):
            rows += [(*h, *sorted((singles[key], singles[h])))
                     for h in halves]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def reference_closure(levels, rows, marked):
    flags = np.zeros(len(levels), dtype=bool)
    flags[list(marked)] = True
    while True:
        post = levels + flags
        grow = np.zeros_like(flags)
        for _, _, minus, plus in rows:
            grow[minus] |= post[plus] - post[minus] > 1
            grow[plus] |= post[minus] - post[plus] > 1
        grow &= ~flags
        if not grow.any():
            return flags
        flags |= grow


def reference_split(verts, tris, levels, registry, flags, surface):
    registry = dict(registry)
    uniq = np.unique(_pair_rows(tris[flags]), axis=0)
    new = [k for k in map(tuple, uniq.tolist()) if k not in registry]
    ij = np.array(new, dtype=np.int64).reshape(-1, 2)
    registry.update({k: len(verts) + n for n, k in enumerate(new)})
    verts = np.vstack([verts, _edge_split_points(
        surface, verts[ij[:, 0]], verts[ij[:, 1]])])
    out_tris, out_levels = [], []
    for (a, b, c), level, split in zip(tris.tolist(), levels.tolist(), flags):
        if not split:
            out_tris.append((a, b, c))
            out_levels.append(level)
            continue
        ab, bc, ca = (registry[tuple(sorted(p))]
                      for p in ((a, b), (b, c), (c, a)))
        out_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        out_levels += [level + 1] * 4
    return (verts, np.array(out_tris, dtype=np.int64),
            np.array(out_levels, dtype=np.int32), registry)


@settings(max_examples=30, deadline=None)
@given(seed=st.sampled_from(("sphere", "flat")), steps=st.integers(2, 3),
       data=st.data())
def test_integer_edge_keys_match_tuple_reference(seed, steps, data):
    """Random nonconforming markings, closed by the level-gap rule, give
    the same vertices, triangles, levels, intersection arrays and midpoint
    registry as the tuple/dict reference."""
    if seed == "sphere":
        surface = get_surface("sphere")
        mesh = initial_mesh(surface, "icosahedron")
    else:
        surface = make_plane()
        mesh = flat_grid(4)
    verts, tris, levels, registry = (mesh.vertices, mesh.triangles,
                                     mesh.levels, {})
    for _ in range(steps):
        m = len(tris)
        marked = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                    max_size=min(m, 12)))
        flags = reference_closure(
            levels, reference_intersections(tris, registry), marked)
        verts, tris, levels, registry = reference_split(
            verts, tris, levels, registry, flags, surface)
        mesh = refine_nonconforming(mesh, marked, surface)

        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.levels, levels)
        rows = np.array(sorted((*k, v) for k, v in registry.items()),
                        dtype=np.int64)
        assert np.array_equal(mesh.edge_midpoints, rows)
        ref = reference_intersections(tris, registry)
        p0, p1 = verts[ref[:, 0]], verts[ref[:, 1]]
        edges = mesh.edges
        assert np.array_equal(edges.minus, ref[:, 2])
        assert np.array_equal(edges.plus, ref[:, 3])
        assert np.array_equal(edges.endpoints, np.stack([p0, p1], axis=1))
        assert np.array_equal(edges.lengths,
                              np.linalg.norm(p1 - p0, axis=1))
        tv = verts[tris]
        nrm = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
        cent = tv.mean(axis=1)
        plus, minus = ref[:, 3], ref[:, 2]
        assert np.array_equal(edges.conormal_plus,
                              _conormals(nrm[plus], cent[plus], p0, p1))
        assert np.array_equal(edges.conormal_minus,
                              _conormals(nrm[minus], cent[minus], p0, p1))


def reference_conormals(verts, tris, elems, p0, p1):
    """Outward conormals computed per intersection, from an (E, 3, 3)
    gather of the triangles ``elems`` and each row's own cross product and
    centroid."""
    tv = verts[tris[elems]]
    nrm = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    c = np.cross(p1 - p0, nrm)
    c /= np.linalg.norm(c, axis=1)[:, None]
    out = np.einsum("ij,ij->i", c, tv.mean(axis=1) - 0.5 * (p0 + p1))
    c[out > 0.0] *= -1.0
    return c


def reference_planes(mesh):
    """Per-triangle areas 0.5 |n| and unit normals n / |n|, n the area
    vector."""
    v = mesh.triangle_vertices()
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return (0.5 * np.linalg.norm(n, axis=1),
            n / np.linalg.norm(n, axis=1, keepdims=True))


def reference_frames(mesh):
    """Per-triangle pushforwards G^-1 J^T and areas 0.5 sqrt(det G), from
    an (m, 3, 3) gather of the triangle vertices."""
    tv = mesh.triangle_vertices()
    jac = np.stack([tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]], axis=2)
    gram = np.einsum("mda,mdb->mab", jac, jac)
    det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
    inv = np.empty_like(gram)
    inv[:, 0, 0] = gram[:, 1, 1]
    inv[:, 1, 1] = gram[:, 0, 0]
    inv[:, 0, 1] = -gram[:, 0, 1]
    inv[:, 1, 0] = -gram[:, 1, 0]
    inv /= det[:, None, None]
    return np.einsum("mab,mdb->mad", inv, jac), 0.5 * np.sqrt(det)


def reference_penalty_terms(mesh):
    """Per triangle: half the sum of squared edge lengths over the area
    0.5 |n|, from an (m, 3, 3) gather of the triangle vertices."""
    tv = mesh.triangle_vertices()
    e2 = ((np.linalg.norm(tv[:, 1] - tv[:, 0], axis=1) ** 2)
          + (np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1) ** 2)
          + (np.linalg.norm(tv[:, 0] - tv[:, 2], axis=1) ** 2))
    return 0.5 * e2 / reference_planes(mesh)[0]


def planes_ladder(kind):
    """Meshes of a short ladder: the sphere seed, a flat grid and its
    nonconforming refinement, or the nonconforming Dziuk ladder (x1 > 0
    half, then everything)."""
    if kind == "sphere":
        return [initial_mesh(get_surface("sphere"), "icosahedron")]
    if kind == "flat":
        mesh = flat_grid(4)
        return [mesh, refine_nonconforming(mesh, [0, 5, 17], make_plane())]
    surface = get_surface("dziuk")
    mesh = initial_mesh(surface, "icosahedron")
    cent = mesh.triangle_vertices().mean(axis=1)
    meshes = [mesh, refine_nonconforming(
        mesh, np.flatnonzero(cent[:, 0] > 0.0), surface)]
    meshes.append(refine_nonconforming(
        meshes[-1], np.arange(len(meshes[-1].triangles)), surface))
    return meshes


@pytest.mark.parametrize("kind", ("sphere", "flat", "dziuk-nc"))
def test_mesh_planes_match_per_intersection_reference(kind):
    """The conormals read from the planes that ``build_edges`` computes
    once per triangle, and its per-element table (areas, normals,
    pushforwards, Jacobian areas, penalty ratios), are bit for bit those
    of the per-intersection and per-use formulas."""
    for mesh in planes_ladder(kind):
        verts, tris, edges = mesh.vertices, mesh.triangles, mesh.edges
        p0, p1 = edges.endpoints[:, 0], edges.endpoints[:, 1]
        assert np.array_equal(
            edges.conormal_plus,
            reference_conormals(verts, tris, edges.plus, p0, p1))
        assert np.array_equal(
            edges.conormal_minus,
            reference_conormals(verts, tris, edges.minus, p0, p1))
        areas, normals = reference_planes(mesh)
        assert np.array_equal(mesh.areas, areas)
        assert np.array_equal(mesh.normals, normals)
        pushforward, jacobian_areas = reference_frames(mesh)
        assert np.array_equal(mesh.pushforward, pushforward)
        assert np.array_equal(mesh.jacobian_areas, jacobian_areas)
        assert np.array_equal(mesh.edge_area_ratios,
                              reference_penalty_terms(mesh))
    # the flat and Dziuk ladders end with hanging segments
    assert mesh.conforming == (kind == "sphere")
