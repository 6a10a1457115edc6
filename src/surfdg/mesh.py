"""Triangulated surface meshes with vertices on an implicit surface.

Meshes are flat-triangle interpolations of a smooth closed surface; every
vertex is projected onto the zero level set.  Supports conforming uniform
refinement and nonconforming (hanging-node) refinement with a level
difference of at most one across any face, plus ASCII OFF input/output.

A mesh builds its intersections and per-element table when it is made, so
none exists without them; refinement returns a new mesh and never mutates
its input.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import LevelSetSurface, eval_phi, grad_phi, project_points

# a triangle with less area than this is considered degenerate
_AREA_FLOOR = 1e-14


class MeshError(RuntimeError):
    """Invalid mesh topology or geometry."""


class NonManifoldError(MeshError):
    """An edge segment is not shared by exactly two triangles."""


@dataclass
class EdgeIntersection:
    """One codimension-one intersection segment between two triangles.

    On conforming meshes this is a full shared edge; on nonconforming
    meshes it is the overlap of two boundary segments (a refined triangle
    edge facing half of an unrefined neighbour edge).  The element with
    the smaller index is the minus side.
    """

    endpoints: np.ndarray  # (2, 3)
    plus_element: int
    minus_element: int
    length: float
    conormal_plus: np.ndarray  # unit, in the plane of the plus triangle
    conormal_minus: np.ndarray


@dataclass(eq=False)
class EdgeSet(Sequence):
    """All intersection segments of a mesh, stored as flat arrays.

    Index access materializes an EdgeIntersection; assembly code reads the
    arrays directly.
    """

    endpoints: np.ndarray  # (E, 2, 3)
    plus: np.ndarray
    minus: np.ndarray
    lengths: np.ndarray
    conormal_plus: np.ndarray
    conormal_minus: np.ndarray
    conforming: bool

    def __len__(self) -> int:
        return self.plus.shape[0]

    def __getitem__(self, i: int) -> EdgeIntersection:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        return EdgeIntersection(
            endpoints=self.endpoints[i],
            plus_element=int(self.plus[i]),
            minus_element=int(self.minus[i]),
            length=float(self.lengths[i]),
            conormal_plus=self.conormal_plus[i],
            conormal_minus=self.conormal_minus[i],
        )


@dataclass
class SurfaceMesh:
    """Flat triangulation of a closed surface, vertices on the surface.

    Construction builds the intersections and the per-element table
    (``_build``), so every mesh carries both, and an invalid triangulation
    is refused where it is made.

    ``edge_midpoints`` holds one row ``(i, j, midpoint)`` per edge ever
    split, ``i < j``, sorted by edge key: the index of the projected
    midpoint vertex created when edge (i, j) was split.  It persists across
    refinements so a hanging vertex and the matching midpoint of a
    later-refined neighbour are the same vertex.
    """

    vertices: np.ndarray  # (n, 3)
    triangles: np.ndarray  # (m, 3) int
    levels: np.ndarray  # (m,) per-triangle refinement level
    edge_midpoints: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.int64))
    # closed surfaces have no boundary; planar test patches opt out
    allow_boundary: bool = False
    # set by _build; per element, jacobian_areas and areas can differ in
    # the last bit, so merging them waits for a re-recorded benchmark
    edges: EdgeSet = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)  # 0.5 |e1 x e2|
    normals: np.ndarray = field(init=False, repr=False)  # unit e1 x e2
    # (m, 2, 3) G^-1 J^T, 0.5 sqrt(det G) and sum |e|^2 / 2|K|
    pushforward: np.ndarray = field(init=False, repr=False)
    jacobian_areas: np.ndarray = field(init=False, repr=False)
    edge_area_ratios: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _build(self)

    @property
    def conforming(self) -> bool:
        return self.edges.conforming

    def triangle_vertices(self):
        """Vertex coordinate array of shape (m, 3, 3)."""
        return self.vertices[self.triangles]


def _edge_vectors(tv):
    """e1 = v1 - v0 and e2 = v2 - v0 of the triangles tv (m, 3, 3)."""
    return tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]


def _element_frames(e1, e2):
    """Pushforwards G^-1 J^T (m, 2, 3) and areas 0.5 sqrt(det G) of the
    triangles with edges e1, e2 (m, 3), where J = [e1 e2], G = J^T J."""
    jac = np.stack([e1, e2], axis=2)
    gram = np.einsum("mda,mdb->mab", jac, jac)
    det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
    if np.any(det <= 0.0):
        raise MeshError("degenerate element")
    inv = np.stack([gram[:, 1, 1], -gram[:, 0, 1], -gram[:, 1, 0],
                    gram[:, 0, 0]], axis=1).reshape(-1, 2, 2)
    inv /= det[:, None, None]
    return np.einsum("mab,mdb->mad", inv, jac), 0.5 * np.sqrt(det)


def conormal(tri_vertices, edge_endpoints) -> np.ndarray:
    """Unit in-plane outward conormal of a triangle boundary segment.

    The result is orthogonal to the segment, lies in the triangle plane,
    and points away from the triangle interior.
    """
    tri = np.asarray(tri_vertices, dtype=float).reshape(1, 3, 3)
    e = np.asarray(edge_endpoints, dtype=float).reshape(2, 3)
    nrm = np.cross(*_edge_vectors(tri))
    if np.linalg.norm(nrm) < 2.0 * _AREA_FLOOR:
        raise MeshError("degenerate triangle")
    return _conormals(nrm, tri.mean(axis=1), e[:1], e[1:])[0]


def _conormals(nrm, cent, p0, p1):
    """Vectorized outward conormals for segments (p0[i], p1[i]) on the
    triangles of area vectors nrm[i] and centroids cent[i]."""
    c = np.cross(p1 - p0, nrm)
    ln = np.linalg.norm(c, axis=1)
    if np.any(ln == 0.0):
        raise MeshError("degenerate edge segment")
    c /= ln[:, None]
    out = np.einsum("ij,ij->i", c, cent - 0.5 * (p0 + p1))
    c[out > 0.0] *= -1.0
    return c


def _edge_keys(i, j):
    """int64 key ``min(i, j) << 32 | max(i, j)`` of each vertex pair (indices
    below 2**32); numeric key order is the lexicographic order of the
    sorted pairs, and ``key >> 32``, ``key & _LOW`` give the pair back."""
    return np.minimum(i, j).astype(np.int64) << 32 | np.maximum(i, j)


_LOW = (1 << 32) - 1


def _find(table, keys):
    """Positions of ``keys`` in the sorted key array ``table``, and whether
    each key is there."""
    pos = np.searchsorted(table, keys)
    return pos, np.append(table, -1)[pos] == keys


def _pair_segments(mesh: SurfaceMesh):
    """Endpoints (E, 2, 3), minus and plus elements of the intersections, and
    whether none is a hanging half.  Shared edges pair up; a leftover edge
    must be a coarse edge split by its registered midpoint into two halves,
    else NonManifoldError.  The temporaries die on return."""
    tris = np.asarray(mesh.triangles)
    # one key per triangle edge, all (0, 1) edges first, then (1, 2), (2, 0)
    raw = _edge_keys(tris, tris[:, (1, 2, 0)]).T.ravel()
    owner = np.tile(np.arange(len(tris), dtype=np.int64), 3)
    uniq, inv, counts = np.unique(raw, return_inverse=True,
                                  return_counts=True)
    if np.any(counts > 2):
        bad = int(uniq[int(np.argmax(counts))])
        raise NonManifoldError(f"edge {(bad >> 32, bad & _LOW)} shared by "
                               f"{int(counts.max())} triangles")
    order = np.argsort(inv, kind="stable")
    shared = counts == 2
    two = order[shared[inv[order]]].reshape(-1, 2)
    both = np.sort(owner[two], axis=1)

    # singletons, in key order: either the coarse side of a hanging pair,
    # a half edge claimed by its coarse partner, or (if allowed) a
    # boundary edge
    single_rows = order[~shared[inv[order]]]
    skeys, sowner = raw[single_rows], owner[single_rows]
    registry = mesh.edge_midpoints
    at, known = _find(_edge_keys(registry[:, 0], registry[:, 1]), skeys)
    coarse = np.flatnonzero(known)
    mid = registry[at[coarse], 2]
    ends = skeys[coarse]
    halves = np.stack([_edge_keys(ends >> 32, mid),
                       _edge_keys(mid, ends & _LOW)], axis=1)
    hpos, hfound = _find(skeys, halves)
    split = hfound.all(axis=1)
    coarse, halves, hpos = coarse[split], halves[split], hpos[split]

    leftovers = np.delete(skeys, np.concatenate([coarse, hpos.ravel()]))
    if leftovers.size and not mesh.allow_boundary:
        first = int(leftovers[0])
        raise NonManifoldError(
            f"{leftovers.size} unmatched boundary segment(s), first "
            f"{(first >> 32, first & _LOW)}; surface must be closed")

    # each coarse edge meets its two halves, first half first
    fine = sowner[hpos].ravel()
    near = np.repeat(sowner[coarse], 2)
    keys = np.concatenate([uniq[shared], halves.ravel()])
    minus = np.concatenate([both[:, 0], np.minimum(near, fine)])
    plus = np.concatenate([both[:, 1], np.maximum(near, fine)])
    endpoints = np.stack([mesh.vertices[keys >> 32],
                          mesh.vertices[keys & _LOW]], axis=1)
    return endpoints, minus, plus, len(halves) == 0


def _build(mesh: SurfaceMesh) -> None:
    """Set the intersections (``_pair_segments``) and the per-element table
    of ``mesh``, all from one gather of the triangle vertices."""
    tv = mesh.triangle_vertices()
    e1, e2 = _edge_vectors(tv)
    nrm = np.cross(e1, e2)
    size = np.linalg.norm(nrm, axis=1)
    areas = 0.5 * size
    if np.any(areas <= _AREA_FLOOR):
        bad = int(np.argmin(areas))
        raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")
    normals = nrm / size[:, None]
    cent = tv.mean(axis=1)
    pushforward, jacobian_areas = _element_frames(e1, e2)
    # |v0 - v2| is |e2| exactly: negation rounds nothing
    ratios = 0.5 * ((np.linalg.norm(e1, axis=1) ** 2)
                    + (np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1) ** 2)
                    + (np.linalg.norm(e2, axis=1) ** 2)) / areas
    del tv, e1, e2, size

    endpoints, minus, plus, conforming = _pair_segments(mesh)
    p0, p1 = endpoints[:, 0], endpoints[:, 1]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    if np.any(lengths <= 0.0):
        raise MeshError("zero-length intersection segment")
    mesh.edges = EdgeSet(endpoints, plus, minus, lengths,
                         _conormals(nrm[plus], cent[plus], p0, p1),
                         _conormals(nrm[minus], cent[minus], p0, p1),
                         conforming)
    mesh.areas, mesh.normals, mesh.pushforward = areas, normals, pushforward
    mesh.jacobian_areas, mesh.edge_area_ratios = jacobian_areas, ratios


def build_edges(mesh: SurfaceMesh) -> SurfaceMesh:
    """A new mesh of the same triangulation, its intersections and
    per-element table built again."""
    return replace(mesh)


def mesh_width(mesh: SurfaceMesh) -> float:
    """Maximum intersection segment length h."""
    return float(mesh.edges.lengths.max())


# golden-ratio icosahedron, outward orientation
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
]) / np.sqrt(1.0 + _PHI**2)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
])

_OCT_VERTS = np.array([
    (1.0, 0, 0), (-1.0, 0, 0), (0, 1.0, 0),
    (0, -1.0, 0), (0, 0, 1.0), (0, 0, -1.0),
])
_OCT_FACES = np.array([
    (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
    (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
])


def read_off(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an ASCII OFF file into (vertices, triangles)."""
    with open(path) as fh:
        lines = fh.readlines()

    def tokens():
        for num, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield num, text

    it = tokens()
    try:
        num, text = next(it)
    except StopIteration:
        raise MeshError(f"{path}: empty OFF file") from None
    if text != "OFF":
        raise MeshError(f"{path}:{num}: expected 'OFF' header, got {text!r}")
    try:
        num, text = next(it)
        nv, nf, _ = (int(tok) for tok in text.split())
    except (StopIteration, ValueError):
        raise MeshError(f"{path}:{num}: malformed counts line") from None
    verts = np.empty((nv, 3))
    for k in range(nv):
        try:
            num, text = next(it)
            verts[k] = [float(tok) for tok in text.split()]
        except (StopIteration, ValueError):
            raise MeshError(f"{path}:{num}: malformed vertex line") from None
    tris = np.empty((nf, 3), dtype=np.int64)
    for k in range(nf):
        try:
            num, text = next(it)
            parts = [int(tok) for tok in text.split()]
        except (StopIteration, ValueError):
            raise MeshError(f"{path}:{num}: malformed face line") from None
        if len(parts) != 4 or parts[0] != 3:
            raise MeshError(f"{path}:{num}: only triangular faces supported")
        tris[k] = parts[1:]
    if tris.size and (tris.min() < 0 or tris.max() >= nv):
        raise MeshError(f"{path}: face references vertex out of range")
    return verts, tris


def write_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh as ASCII OFF (same dialect read_off accepts)."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} "
                 f"{len(mesh.edges)}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def initial_mesh(surface: LevelSetSurface, kind: str = "icosahedron",
                 scale: float = 1.0) -> SurfaceMesh:
    """Seed mesh: platonic solid (or OFF file) with vertices projected
    onto the surface.

    ``scale`` multiplies the seed coordinates before projection; useful
    when the unit-scale seed sits near critical points of the level set.
    """
    if kind == "icosahedron":
        verts, tris = _ICO_VERTS.copy(), _ICO_FACES.copy()
    elif kind == "octahedron":
        verts, tris = _OCT_VERTS.copy(), _OCT_FACES.copy()
    else:
        verts, tris = read_off(kind)
    proj = project_points(surface, verts * scale)
    return SurfaceMesh(vertices=proj.points,
                       triangles=np.asarray(tris, dtype=np.int64),
                       levels=np.zeros(len(tris), dtype=np.int32))


def _edge_split_points(surface: LevelSetSurface, pa: np.ndarray,
                       pb: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """On-surface split point for each edge (pa[i], pb[i]), both on Γ.

    The chord midpoint is moved onto the surface along the averaged
    endpoint normal.  Unlike closest-point projection this stays near
    the geodesic midpoint even when a coarse edge's midpoint lies beyond
    the local reach (where the closest point is ambiguous and can land
    near one endpoint, so the long child edge never shrinks).  Edges
    whose endpoint normals nearly cancel, or whose line search leaves
    the chord neighbourhood, fall back to closest-point projection.
    """
    mid = 0.5 * (pa + pb)
    ga = grad_phi(surface, pa)
    gb = grad_phi(surface, pb)
    na = ga / np.linalg.norm(ga, axis=1, keepdims=True)
    nb = gb / np.linalg.norm(gb, axis=1, keepdims=True)
    nbar = na + nb
    nn = np.linalg.norm(nbar, axis=1)
    ok = nn > 0.5
    nbar[ok] /= nn[ok, None]
    span = np.linalg.norm(pb - pa, axis=1)
    d = np.zeros(len(mid))
    x = mid.copy()
    active = ok.copy()
    for _ in range(50):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        phi = np.atleast_1d(eval_phi(surface, x[idx]))
        g = grad_phi(surface, x[idx])
        gn = np.linalg.norm(g, axis=1)
        # 100x below the projection criterion so steep level sets
        # (|grad phi| ~ 1e2) still give |phi(v)| well under 1e-8
        done = np.abs(phi) <= 0.01 * tol * gn
        active[idx[done]] = False
        live = idx[~done]
        if live.size == 0:
            continue
        slope = np.einsum("ij,ij->i", g[~done], nbar[live])
        bad = np.abs(slope) < 1e-12
        step = -phi[~done] / np.where(bad, 1.0, slope)
        dn = d[live] + step
        runaway = bad | (np.abs(dn) > span[live])
        ok[live[runaway]] = False
        active[live[runaway]] = False
        keep = live[~runaway]
        d[keep] = dn[~runaway]
        x[keep] = mid[keep] + d[keep][:, None] * nbar[keep]
    ok &= ~active  # line search that never met tol is a failure too
    fb = ~ok
    if np.any(fb):
        x[fb] = project_points(surface, mid[fb], tol).points
    return x


def _split(mesh: SurfaceMesh, surface: LevelSetSurface, marked) -> SurfaceMesh:
    """Quadrisect the marked triangles, projecting new midpoints onto the
    surface and reusing any midpoint the registry already knows."""
    midx = np.flatnonzero(marked)
    a, b, c = mesh.triangles[midx].T
    keys = _edge_keys([a, b, c], [b, c, a])  # rows ab, bc, ca

    # register the missing midpoints in key order, keeping rows sorted
    registry = mesh.edge_midpoints
    reg_keys = _edge_keys(registry[:, 0], registry[:, 1])
    uniq = np.unique(keys)
    at, known = _find(reg_keys, uniq)
    new, at = uniq[~known], at[~known]
    lo, hi = new >> 32, new & _LOW
    verts = mesh.vertices
    rows = np.stack([lo, hi, len(verts) + np.arange(len(new))], axis=1)
    verts = np.vstack([verts,
                       _edge_split_points(surface, verts[lo], verts[hi])])
    registry = np.insert(registry, at, rows, axis=0)
    ab, bc, ca = registry[np.searchsorted(np.insert(reg_keys, at, new),
                                          keys), 2]
    # children keep the parent orientation
    children = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                        axis=1).reshape(-1, 4, 3)

    # each parent becomes itself or its four children, in parent order
    counts = np.where(marked, 4, 1)
    new_tris = np.repeat(mesh.triangles, counts, axis=0)
    new_tris[(np.cumsum(counts) - 4)[midx, None] + np.arange(4)] = children
    new_levels = np.repeat(mesh.levels + marked, counts)
    return SurfaceMesh(verts, new_tris, new_levels, edge_midpoints=registry,
                       allow_boundary=mesh.allow_boundary)


def refine_uniform(mesh: SurfaceMesh, surface: LevelSetSurface) -> SurfaceMesh:
    """Quadrisect every triangle; requires a conforming mesh."""
    if not mesh.conforming:
        raise MeshError("uniform refinement requires a conforming mesh")
    marked = np.ones(len(mesh.triangles), dtype=bool)
    return _split(mesh, surface, marked)


def refine_nonconforming(mesh: SurfaceMesh, marked,
                         surface: LevelSetSurface) -> SurfaceMesh:
    """Quadrisect the marked triangles only, leaving hanging nodes.

    Closure marking keeps the refinement-level difference across any
    intersection at most one.  ``marked`` is any sequence, array or set
    of element indices.
    """
    if not isinstance(marked, (Sequence, np.ndarray)):
        marked = list(marked)
    idx = np.asarray(marked)
    if idx.size == 0:
        raise MeshError("marked set is empty")
    m = len(mesh.triangles)
    if idx.dtype.kind in "iu":
        bad = idx[(idx < 0) | (idx >= m)].tolist()
    else:  # name the first non-integer entry, else the first entry
        bad = [x for x in np.asarray(marked, dtype=object).ravel()
               if isinstance(x, bool) or not isinstance(x, (int, np.integer))
               ] or idx.ravel().tolist()
    if bad:
        raise MeshError(
            f"marked element {bad[0]} is not an element index in [0, {m})")
    flags = np.zeros(m, dtype=bool)
    flags[idx] = True
    plus, minus = mesh.edges.plus, mesh.edges.minus
    while True:
        post = mesh.levels + flags
        gap_minus = post[plus] - post[minus] > 1
        gap_plus = post[minus] - post[plus] > 1
        grow = np.zeros_like(flags)
        grow[minus[gap_minus]] = True
        grow[plus[gap_plus]] = True
        grow &= ~flags
        if not grow.any():
            break
        flags |= grow
    return _split(mesh, surface, flags)
