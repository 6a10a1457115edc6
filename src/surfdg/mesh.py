"""Triangulated surface meshes with vertices on an implicit surface.

Meshes are flat-triangle interpolations of a smooth closed surface; every
vertex is projected onto the zero level set.  Supports conforming uniform
refinement and nonconforming (hanging-node) refinement with a level
difference of at most one across any face, plus ASCII OFF input/output.

Meshes are immutable once their edges are built; refinement returns a new
mesh and never mutates its input.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

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


class EdgeSet(Sequence):
    """All intersection segments of a mesh, stored as flat arrays.

    Index access materializes an EdgeIntersection; assembly code reads the
    arrays directly.
    """

    def __init__(self, endpoints, plus, minus, lengths, conormal_plus,
                 conormal_minus, conforming):
        self.endpoints = endpoints
        self.plus = plus
        self.minus = minus
        self.lengths = lengths
        self.conormal_plus = conormal_plus
        self.conormal_minus = conormal_minus
        self.conforming = bool(conforming)

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

    ``edge_midpoints`` maps a sorted vertex-index pair to the index of the
    projected midpoint vertex created when that edge was last split; it
    persists across refinements so a hanging vertex and the matching
    midpoint of a later-refined neighbour are the same vertex.
    """

    vertices: np.ndarray  # (n, 3)
    triangles: np.ndarray  # (m, 3) int
    levels: np.ndarray  # (m,) per-triangle refinement level
    generation: int = 0
    edges: EdgeSet | None = None
    edge_midpoints: dict = field(default_factory=dict)
    # closed surfaces have no boundary; planar test patches opt out
    allow_boundary: bool = False

    @property
    def conforming(self) -> bool:
        if self.edges is None:
            raise MeshError("edges not built; call build_edges first")
        return self.edges.conforming

    def triangle_vertices(self, order=None):
        """Vertex coordinate array of shape (m, 3, 3)."""
        tri = self.triangles if order is None else self.triangles[:, order]
        return self.vertices[tri]


def triangle_areas(mesh: SurfaceMesh) -> np.ndarray:
    v = mesh.triangle_vertices()
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return 0.5 * np.linalg.norm(n, axis=1)


def conormal(tri_vertices, edge_endpoints) -> np.ndarray:
    """Unit in-plane outward conormal of a triangle boundary segment.

    The result is orthogonal to the segment, lies in the triangle plane,
    and points away from the triangle interior.
    """
    tri = np.asarray(tri_vertices, dtype=float).reshape(3, 3)
    e = np.asarray(edge_endpoints, dtype=float).reshape(2, 3)
    nrm = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    if np.linalg.norm(nrm) < 2.0 * _AREA_FLOOR:
        raise MeshError("degenerate triangle")
    return _conormals(tri, np.array([[0, 1, 2]]), np.array([0]),
                      e[:1], e[1:])[0]


def _conormals(verts, tris, elems, p0, p1):
    """Vectorized outward conormals for segments (p0[i], p1[i]) on the
    boundaries of triangles elems[i]."""
    tv = verts[tris[elems]]
    nrm = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    c = np.cross(p1 - p0, nrm)
    ln = np.linalg.norm(c, axis=1)
    if np.any(ln == 0.0):
        raise MeshError("degenerate edge segment")
    c /= ln[:, None]
    out = np.einsum("ij,ij->i", c, tv.mean(axis=1) - 0.5 * (p0 + p1))
    c[out > 0.0] *= -1.0
    return c


def build_edges(mesh: SurfaceMesh) -> SurfaceMesh:
    """Return a mesh with the full intersection list attached.

    Full shared edges pair up directly.  A leftover edge must be a coarse
    edge whose registered midpoint splits it into two refined-neighbour
    halves; anything else (boundary edge, over-shared edge, level gap
    beyond one) is a non-manifold error.
    """
    tris = np.asarray(mesh.triangles)
    areas = triangle_areas(mesh)
    if np.any(areas <= _AREA_FLOOR):
        bad = int(np.argmin(areas))
        raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")

    # one row per directed triangle edge, key sorted so shared edges match
    raw = np.concatenate([tris[:, (0, 1)], tris[:, (1, 2)], tris[:, (2, 0)]])
    raw = np.sort(raw, axis=1)
    owner = np.tile(np.arange(len(tris), dtype=np.int64), 3)
    uniq, inv, counts = np.unique(raw, axis=0, return_inverse=True,
                                  return_counts=True)
    inv = inv.ravel()
    if np.any(counts > 2):
        bad = uniq[int(np.argmax(counts))]
        raise NonManifoldError(
            f"edge {tuple(bad)} shared by {int(counts.max())} triangles")
    order = np.argsort(inv, kind="stable")
    shared = counts == 2
    two = order[shared[inv[order]]].reshape(-1, 2)
    both = np.sort(owner[two], axis=1)
    full = np.concatenate([uniq[shared], both], axis=1)

    # singletons: either the coarse side of a hanging pair, a half edge
    # claimed by its coarse partner, or (if allowed) a boundary edge
    single_rows = order[~shared[inv[order]]]
    singles = {(int(i), int(j)): int(t)
               for (i, j), t in zip(raw[single_rows], owner[single_rows])}
    pairs = []
    consumed = set()
    for key in sorted(singles):
        m = mesh.edge_midpoints.get(key)
        if m is None:
            continue
        halves = []
        for i, j in ((key[0], m), (m, key[1])):
            hkey = (i, j) if i < j else (j, i)
            if hkey not in singles:
                halves = None
                break
            halves.append((hkey, singles[hkey]))
        if halves is None:
            continue
        coarse = singles[key]
        for hkey, fine in halves:
            a, b = sorted((coarse, fine))
            pairs.append((hkey[0], hkey[1], a, b))
            consumed.add(hkey)
        consumed.add(key)
    hanging = len(pairs)

    leftovers = [k for k in singles if k not in consumed]
    if leftovers and not mesh.allow_boundary:
        raise NonManifoldError(
            f"{len(leftovers)} unmatched boundary segment(s), first "
            f"{sorted(leftovers)[0]}; surface must be closed")

    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 4)
    arr = np.concatenate([full, arr], axis=0)
    p0 = mesh.vertices[arr[:, 0]]
    p1 = mesh.vertices[arr[:, 1]]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    if np.any(lengths <= 0.0):
        raise MeshError("zero-length intersection segment")
    edges = EdgeSet(
        endpoints=np.stack([p0, p1], axis=1),
        plus=arr[:, 3].copy(),
        minus=arr[:, 2].copy(),
        lengths=lengths,
        conormal_plus=_conormals(mesh.vertices, tris, arr[:, 3], p0, p1),
        conormal_minus=_conormals(mesh.vertices, tris, arr[:, 2], p0, p1),
        conforming=hanging == 0,
    )
    return SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                       levels=mesh.levels, generation=mesh.generation,
                       edges=edges, edge_midpoints=mesh.edge_midpoints,
                       allow_boundary=mesh.allow_boundary)


def mesh_width(mesh: SurfaceMesh) -> float:
    """Maximum intersection segment length h."""
    if mesh.edges is None:
        raise MeshError("edges not built; call build_edges first")
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
        ne = 0 if mesh.edges is None else len(mesh.edges)
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} {ne}\n")
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
    mesh = SurfaceMesh(vertices=proj.points,
                       triangles=np.asarray(tris, dtype=np.int64),
                       levels=np.zeros(len(tris), dtype=np.int32))
    return build_edges(mesh)


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
    tris = mesh.triangles
    registry = dict(mesh.edge_midpoints)
    midx = np.flatnonzero(marked)

    sub = tris[midx]
    raw = np.concatenate([sub[:, (0, 1)], sub[:, (1, 2)], sub[:, (2, 0)]])
    raw = np.sort(raw, axis=1)
    uniq = np.unique(raw, axis=0)
    keys = [key for key in map(tuple, uniq.tolist()) if key not in registry]
    verts = mesh.vertices
    if keys:
        ij = np.asarray(keys, dtype=np.int64)
        mids = _edge_split_points(surface, verts[ij[:, 0]], verts[ij[:, 1]])
        base = verts.shape[0]
        verts = np.vstack([verts, mids])
        for k, key in enumerate(keys):
            registry[key] = base + k

    a, b, c = sub[:, 0], sub[:, 1], sub[:, 2]
    look = np.empty((3, len(midx)), dtype=np.int64)
    for slot, (i, j) in enumerate(((a, b), (b, c), (c, a))):
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        look[slot] = [registry[key] for key in zip(lo.tolist(), hi.tolist())]
    ab, bc, ca = look
    # children keep the parent orientation
    children = np.stack([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=1)  # (n_marked, 4, 3)

    # interleave kept parents and child quadruples in parent order
    counts = np.where(marked, 4, 1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    new_tris = np.empty((total, 3), dtype=np.int64)
    new_levels = np.empty(total, dtype=np.int32)
    keep = np.flatnonzero(~marked)
    new_tris[offsets[keep]] = tris[keep]
    new_levels[offsets[keep]] = mesh.levels[keep]
    starts = offsets[midx]
    for k in range(4):
        new_tris[starts + k] = children[:, k]
    new_levels[(starts[:, None] + np.arange(4)).ravel()] = \
        np.repeat(mesh.levels[midx] + 1, 4)

    out = SurfaceMesh(vertices=verts,
                      triangles=new_tris,
                      levels=new_levels,
                      generation=mesh.generation + 1,
                      edge_midpoints=registry,
                      allow_boundary=mesh.allow_boundary)
    return build_edges(out)


def refine_uniform(mesh: SurfaceMesh, surface: LevelSetSurface) -> SurfaceMesh:
    """Quadrisect every triangle; requires a conforming mesh."""
    if mesh.edges is None:
        mesh = build_edges(mesh)
    if not mesh.conforming:
        raise MeshError("uniform refinement requires a conforming mesh")
    marked = np.ones(len(mesh.triangles), dtype=bool)
    return _split(mesh, surface, marked)


def refine_nonconforming(mesh: SurfaceMesh, marked,
                         surface: LevelSetSurface) -> SurfaceMesh:
    """Quadrisect the marked triangles only, leaving hanging nodes.

    Closure marking keeps the refinement-level difference across any
    intersection at most one.
    """
    flags = np.zeros(len(mesh.triangles), dtype=bool)
    flags[np.asarray(sorted(marked), dtype=np.int64)] = True
    if not flags.any():
        raise MeshError("marked set is empty")
    if mesh.edges is None:
        mesh = build_edges(mesh)
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
