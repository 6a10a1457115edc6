"""Surface meshes: seeding, refinement, intersection segments, OFF I/O."""

import numpy as np
import pytest

from conftest import flat_grid, flat_pair, traced_bytes
from surfdg.geometry import (eval_phi, get_surface, make_dziuk, make_plane,
                             make_sphere)
from surfdg.mesh import (
    MeshError,
    NonManifoldError,
    SurfaceMesh,
    build_edges,
    conormal,
    initial_mesh,
    mesh_width,
    read_off,
    refine_nonconforming,
    refine_uniform,
    write_off,
)

SURFACES = ("sphere", "dziuk", "enzensberger-stern")


def perimeter_coverage(mesh):
    """Summed incident intersection length and perimeter per element."""
    tv = mesh.triangle_vertices()
    per = (np.linalg.norm(tv[:, 1] - tv[:, 0], axis=1)
           + np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1)
           + np.linalg.norm(tv[:, 0] - tv[:, 2], axis=1))
    cov = np.zeros(len(mesh.triangles))
    np.add.at(cov, mesh.edges.plus, mesh.edges.lengths)
    np.add.at(cov, mesh.edges.minus, mesh.edges.lengths)
    return cov, per


def test_icosahedron_counts():
    m = initial_mesh(make_sphere(), "icosahedron")
    assert len(m.vertices) == 12
    assert len(m.triangles) == 20
    assert len(m.edges) == 30
    assert m.conforming
    # vertices projected onto the unit sphere
    assert np.allclose(np.linalg.norm(m.vertices, axis=1), 1.0, atol=1e-12)


def test_octahedron_euler_characteristic():
    m = initial_mesh(make_dziuk(), "octahedron")
    assert len(m.vertices) - len(m.edges) + len(m.triangles) == 2
    assert np.max(np.abs(eval_phi(make_dziuk(), m.vertices))) <= 1e-8


def test_uniform_refinement_counts():
    sph = make_sphere()
    m = refine_uniform(initial_mesh(sph, "icosahedron"), sph)
    assert len(m.triangles) == 80
    assert len(m.vertices) == 42  # 12 + 30 edge midpoints
    assert len(m.edges) == 120
    assert m.conforming


@pytest.mark.parametrize("name", SURFACES)
def test_refined_vertices_stay_on_surface(name):
    surf = get_surface(name)
    kind = "octahedron" if name == "enzensberger-stern" else "icosahedron"
    scale = 1.25 if name == "enzensberger-stern" else 1.0
    m = initial_mesh(surf, kind, scale=scale)
    for _ in range(3):
        m = refine_uniform(m, surf)
        assert np.max(np.abs(eval_phi(surf, m.vertices))) <= 1e-8


def test_sphere_mesh_width_halves():
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    hs = [mesh_width(m)]
    for _ in range(4):
        m = refine_uniform(m, sph)
        hs.append(mesh_width(m))
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    # the seed-to-first ratio is smaller (1.70) while the geometry settles
    for r in ratios[1:]:
        assert 1.9 <= r <= 2.1


def test_sphere_area_converges_quadratically():
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    defects = [4.0 * np.pi - m.areas.sum()]
    for _ in range(5):
        m = refine_uniform(m, sph)
        defects.append(4.0 * np.pi - m.areas.sum())
    assert defects[-1] < 4e-3
    for i in range(2, len(defects) - 1):
        assert 3.7 <= defects[i] / defects[i + 1] <= 4.3


def test_flat_mark_one_hanging_layout():
    """Quadrisecting one of two flat triangles leaves 5 elements and two
    half-diagonal intersection segments of length sqrt(2)/2."""
    nc = refine_nonconforming(flat_pair(), [0], make_plane())
    assert len(nc.triangles) == 5
    assert not nc.conforming
    diag = sorted(
        float(l) for l, p in zip(nc.edges.lengths, nc.edges.plus) if p == 4)
    assert len(diag) == 2
    assert diag == pytest.approx([np.sqrt(2) / 2] * 2, abs=1e-12)


def test_mark_all_equals_uniform():
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    a = refine_uniform(m, sph)
    b = refine_nonconforming(m, range(len(m.triangles)), sph)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert b.conforming


def test_closure_bounds_level_gap():
    # repeated single-element marking; closure must keep the refinement
    # level difference across any intersection at most one
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    for _ in range(3):
        m = refine_nonconforming(m, [0], sph)
        gap = np.abs(m.levels[m.edges.plus].astype(int)
                     - m.levels[m.edges.minus].astype(int))
        assert gap.max() <= 1
        assert np.max(np.abs(eval_phi(sph, m.vertices))) <= 1e-8


def test_refine_empty_mark_set():
    with pytest.raises(MeshError, match="empty"):
        refine_nonconforming(flat_pair(), [], make_plane())


@pytest.mark.parametrize("marked, named", [
    ([-1], r"element -1 is not an element index in \[0, 20\)"),
    ([1.5], "element 1.5 is not"),
    ([20], "element 20 is not"),
    ([3, 25, -2], "element 25 is not"),
])
def test_refine_rejects_bad_marked_index(marked, named):
    """A negative, out-of-range or non-integer index is refused by name
    instead of wrapping, truncating or escaping as an IndexError."""
    sph = make_sphere()
    with pytest.raises(MeshError, match=named):
        refine_nonconforming(initial_mesh(sph, "icosahedron"), marked, sph)


@pytest.mark.parametrize("nonconforming", [False, True])
def test_registry_rows_sorted_with_one_row_per_new_vertex(nonconforming):
    """The midpoint registry holds rows (i, j, midpoint) with i < j,
    unique and in lexicographic order, and names every vertex added since
    the seed exactly once."""
    sph = make_sphere()
    seed = initial_mesh(sph, "icosahedron")
    m = seed
    for _ in range(3):
        if nonconforming:
            cent = m.triangle_vertices().mean(axis=1)
            m = refine_nonconforming(m, np.flatnonzero(cent[:, 0] > 0.0), sph)
        else:
            m = refine_uniform(m, sph)
    assert not nonconforming or not m.conforming
    reg = m.edge_midpoints
    assert reg.dtype == np.int64 and reg.shape[1] == 3
    assert np.all(reg[:, 0] < reg[:, 1])
    step = np.diff(reg[:, :2], axis=0)
    assert np.all((step[:, 0] > 0) | ((step[:, 0] == 0) & (step[:, 1] > 0)))
    assert np.array_equal(np.sort(reg[:, 2]),
                          np.arange(len(seed.vertices), len(m.vertices)))


def test_build_edges_frees_pairing_temporaries():
    """On the 4-refinement Dziuk mesh, build_edges' traced peak above the
    intersections and per-element table it keeps stays below 1.25 times
    their bytes: the edge pairing's key, owner and sort arrays are freed
    before the conormals are computed."""
    surf = make_dziuk()
    mesh = initial_mesh(surf, "icosahedron")
    for _ in range(4):
        mesh = refine_uniform(mesh, surf)
    built, peak, kept = traced_bytes(lambda: build_edges(mesh))
    assert len(built.edges) == len(mesh.edges)
    assert peak - kept <= 1.25 * kept


def test_uniform_refinement_rejects_hanging_nodes():
    nc = refine_nonconforming(flat_pair(), [0], make_plane())
    with pytest.raises(MeshError, match="conforming"):
        refine_uniform(nc, make_plane())


def test_conormal_unit_triangle():
    tri = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]])
    n = conormal(tri, np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    assert np.allclose(n, (0, -1.0, 0), atol=1e-14)
    n = conormal(tri, np.array([[0.0, 0, 0], [0.0, 1.0, 0]]))
    assert np.allclose(n, (-1.0, 0, 0), atol=1e-14)
    # hypotenuse points away from the right-angle corner
    n = conormal(tri, np.array([[1.0, 0, 0], [0.0, 1.0, 0]]))
    assert np.allclose(n, (1.0, 1.0, 0) / np.sqrt(2), atol=1e-14)


def test_conormal_invariants_on_meshes():
    """Stored conormals are unit, tangent to their element plane, and
    point out of the element through the segment midpoint."""
    sph = make_sphere()
    meshes = [flat_grid(4),
              refine_uniform(initial_mesh(sph, "icosahedron"), sph)]
    for m in meshes:
        tv = m.triangle_vertices()
        planes = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        cents = tv.mean(axis=1)
        for side, elems in (("plus", m.edges.plus), ("minus", m.edges.minus)):
            con = getattr(m.edges, f"conormal_{side}")
            assert np.max(np.abs(np.linalg.norm(con, axis=1) - 1.0)) < 1e-12
            tang = np.einsum("ed,ed->e", con, planes[elems])
            assert np.max(np.abs(tang)) < 1e-12
            mids = m.edges.endpoints.mean(axis=1)
            out = np.einsum("ed,ed->e", con, mids - cents[elems])
            assert out.min() > 0.0


def test_conormals_oppose_flat_and_nearly_oppose_curved():
    flat = flat_grid(4)
    assert np.max(np.abs(flat.edges.conormal_plus
                         + flat.edges.conormal_minus)) < 1e-12
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    defects = []
    for _ in range(3):
        m = refine_uniform(m, sph)
        defects.append(np.max(np.linalg.norm(
            m.edges.conormal_plus + m.edges.conormal_minus, axis=1)))
    assert defects[0] > 1e-3  # genuinely kinked across elements
    for a, b in zip(defects, defects[1:]):
        assert b < 0.7 * a  # O(h) decay


def test_perimeter_coverage():
    """Each element's boundary is covered by its incident intersection
    segments: exactly on conforming and flat nonconforming meshes, up to
    an O(h^2) crack on curved nonconforming ones."""
    sph = make_sphere()
    conf = refine_uniform(initial_mesh(sph, "icosahedron"), sph)
    cov, per = perimeter_coverage(conf)
    assert np.max(np.abs(cov - per)) < 1e-12

    errs = []
    m = initial_mesh(sph, "icosahedron")
    for _ in range(3):
        nc = refine_nonconforming(m, [0], sph)
        cov, per = perimeter_coverage(nc)
        errs.append(np.max(np.abs(cov - per)))
        m = refine_uniform(m, sph)
    for a, b in zip(errs, errs[1:]):
        assert b < a / 3.0


def test_flat_nonconforming_interior_coverage_exact():
    nc = refine_nonconforming(flat_grid(8), [0, 17, 40, 90], make_plane())
    cov, per = perimeter_coverage(nc)
    on_boundary = np.zeros(len(nc.triangles), bool)
    tv = nc.triangle_vertices()
    for k, t in enumerate(tv):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            mid = 0.5 * (t[a] + t[b])
            if min(abs(mid[0]), abs(mid[1]),
                   abs(1 - mid[0]), abs(1 - mid[1])) < 1e-12:
                on_boundary[k] = True
    assert np.max(np.abs((cov - per)[~on_boundary])) < 1e-12


def test_nonmanifold_fan_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0],
                      [0.5, -1, 0], [0.5, 0.5, 1.0]], dtype=float)
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]], dtype=np.int64)
    with pytest.raises(NonManifoldError,
                       match=r"^edge \(0, 1\) shared by 3 triangles$"):
        SurfaceMesh(vertices=verts, triangles=tris,
                    levels=np.zeros(3, np.int32), allow_boundary=True)


def test_boundary_rejected_on_closed_surfaces():
    # a closed-surface mesh with a missing face has boundary edges
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    with pytest.raises(MeshError):
        SurfaceMesh(vertices=m.vertices, triangles=m.triangles[:-1],
                    levels=m.levels[:-1])


def test_off_roundtrip(tmp_path):
    sph = make_sphere()
    m = refine_uniform(initial_mesh(sph, "icosahedron"), sph)
    path = tmp_path / "mesh.off"
    write_off(m, path)
    verts, tris = read_off(path)
    assert np.allclose(verts, m.vertices, atol=0)
    assert np.array_equal(tris, m.triangles)
    # an OFF path can seed a mesh directly
    seeded = initial_mesh(sph, str(path))
    assert len(seeded.triangles) == 80


def test_off_parse_errors(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("OFF\n4 2 0\n0 0 0\n")
    with pytest.raises(MeshError, match=r"bad\.off:3"):
        read_off(p)
    p.write_text("NOFF\n")
    with pytest.raises(MeshError, match="header"):
        read_off(p)
    p.write_text("OFF\n# comment\n1 1 0\n0 0 0\n4 0 0 0 0\n")
    with pytest.raises(MeshError, match="triangular"):
        read_off(p)
