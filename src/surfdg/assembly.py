"""Interior penalty system assembly on triangulated surfaces.

Builds the DG stiffness-plus-mass matrix with consistency, symmetry and
jump-penalty face terms for the different conormal substitution choices,
and the right-hand side with quadrature points projected onto the smooth
surface.

Face terms are assembled elementwise: every intersection is visited once
and contributes four blocks, with each incident element playing the
"minus" role for its own rows.  Conormal choices:

  1   planar:          (n-, n-, -n-)       generally non-symmetric
  2   analysis:        (n-, n-, n+)        symmetric
  3   average:         (m, m, -m), m = (n- - n+)/|n- - n+|
  4   modified Arnold: (n-, -n+, -n-)      symmetric (modified penalty)
  4T  Arnold with the true penalty: off-diagonal penalty weighted by
      n+ . n- (equals -1 on flat meshes); known not to converge.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import geometry
from .dgspace import DgSpace, _ref_grads, _values, get_quadrature
from .geometry import LevelSetSurface, project_points
from .mesh import EdgeIntersection, MeshError, SurfaceMesh, triangle_areas

CHOICES = ("1", "2", "3", "4", "4T")

# below this, n- and n+ are (anti)parallel and the Choice 3 average
# direction is undefined; fall back to the analysis vectors
_AVG_FLOOR = 1e-12


class PenaltyError(ValueError):
    """Penalty weight does not guarantee stability."""


def normalize_choice(choice) -> str:
    tag = str(choice).strip().upper()
    if tag in CHOICES:
        return tag
    raise ValueError(f"unknown conormal choice {choice!r}; pick from {CHOICES}")


@dataclass
class PenaltyParams:
    """Jump-penalty weights beta_e = omega_e / h_e.

    With ``omega`` unset, omega_e = sigma * (stability lower bound); the
    global mode uses the mesh-wide maximum bound for every intersection,
    the per-edge mode each intersection's own bound.
    """

    sigma: float = 2.0
    mode: str = "global"
    omega: float | None = None

    def __post_init__(self):
        if self.sigma < 1.0:
            raise PenaltyError(f"safety factor {self.sigma} < 1")
        if self.mode not in ("global", "per-edge"):
            raise PenaltyError(f"unknown penalty mode {self.mode!r}")

    def omegas(self, mesh: SurfaceMesh) -> np.ndarray:
        """Per-intersection omega_e, refusing weights at or below the
        stability bound."""
        bounds = penalty_bounds(mesh)
        if self.omega is not None:
            om = np.full(len(bounds), float(self.omega))
        elif self.mode == "global":
            om = np.full(len(bounds), self.sigma * bounds.max())
        else:
            om = self.sigma * bounds
        bad = om <= bounds
        if np.any(bad):
            worst = int(np.argmax(bounds - om))
            raise PenaltyError(
                f"omega {om[worst]:.6g} at intersection {worst} does not "
                f"exceed the stability bound {bounds[worst]:.6g}")
        return om


def _element_penalty_terms(mesh: SurfaceMesh) -> np.ndarray:
    """Per element: half the sum of squared full-edge lengths over area."""
    tv = mesh.triangle_vertices()
    e2 = ((np.linalg.norm(tv[:, 1] - tv[:, 0], axis=1) ** 2)
          + (np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1) ** 2)
          + (np.linalg.norm(tv[:, 0] - tv[:, 2], axis=1) ** 2))
    areas = triangle_areas(mesh)
    if np.any(areas <= 0.0):
        raise MeshError("degenerate element")
    return 0.5 * e2 / areas


def penalty_bounds(mesh: SurfaceMesh) -> np.ndarray:
    """Stability lower bound for omega_e on every intersection."""
    if mesh.edges is None:
        raise MeshError("edges not built")
    term = _element_penalty_terms(mesh)
    return np.maximum(term[mesh.edges.minus], term[mesh.edges.plus])


def penalty_lower_bound(mesh: SurfaceMesh, e: EdgeIntersection) -> float:
    """Stability lower bound for a single intersection: the larger of the
    two incident elements' (sum of squared edge lengths) / (2 area)."""
    term = _element_penalty_terms(mesh)
    return float(max(term[e.minus_element], term[e.plus_element]))


def _check_unit(v, name):
    n = np.linalg.norm(np.asarray(v, dtype=float), axis=-1)
    if np.any(np.abs(n - 1.0) > 1e-8):
        raise ValueError(f"{name} is not unit (|{name}| = {np.max(n)})")


def resolve_conormal_choice(choice, n_minus, n_plus):
    """Table of substitute vectors (n_D^-, n_e^-, n_e^+) for one
    intersection, seen from the element owning n_minus."""
    tag = normalize_choice(choice)
    nm = np.asarray(n_minus, dtype=float)
    npl = np.asarray(n_plus, dtype=float)
    _check_unit(nm, "n_minus")
    _check_unit(npl, "n_plus")
    return tuple(v[0] for v in _resolve_batch(tag, nm.reshape(1, 3),
                                              npl.reshape(1, 3)))


def _resolve_batch(tag, nm, npl):
    """Substitute vectors (n_D^-, n_e^-, n_e^+) of conormal choice ``tag``
    for (E, 3) conormal arrays, seen from the elements owning nm."""
    if tag == "1":
        return nm, nm, -nm
    if tag == "2":
        return nm, nm, npl
    if tag == "3":
        d = 0.5 * (nm - npl)
        ln = np.linalg.norm(d, axis=1)
        flat = ln < _AVG_FLOOR
        safe = np.where(flat, 1.0, ln)
        d = d / safe[:, None]
        nd = np.where(flat[:, None], nm, d)
        ne_m = nd
        ne_p = np.where(flat[:, None], npl, -d)
        return nd, ne_m, ne_p
    return nm, -npl, -nm


@dataclass
class SparseSystem:
    """Assembled CSR matrix (and optionally rhs) over a DgSpace."""

    matrix: sp.csr_matrix
    rhs: np.ndarray | None
    space: DgSpace

    @property
    def row_offsets(self) -> np.ndarray:
        return self.matrix.indptr

    @property
    def column_indices(self) -> np.ndarray:
        return self.matrix.indices

    @property
    def values(self) -> np.ndarray:
        return self.matrix.data


def _quad_degrees(degree: int):
    # flat-element integrands are polynomials of degree <= 2p; the face
    # rules follow the same budget
    return (4, 5) if degree == 1 else (6, 6)


def _volume_block(space: DgSpace, rule) -> np.ndarray:
    """Broken stiffness + mass on every element, shape (m, n, n)."""
    frames = space.frames
    w = rule.weights
    vref = _values(space.degree, rule.points)
    gref = _ref_grads(space.degree, rule.points)
    gphys = np.einsum("qna,mad->mqnd", gref, frames.pushforward)
    mass_ref = np.einsum("q,qi,qj->ij", w, vref, vref)
    return 2.0 * frames.areas[:, None, None] * (
        np.einsum("q,mqid,mqjd->mij", w, gphys, gphys)
        + mass_ref[None, :, :])


class _TripletWriter:
    """COO triplets of ``count`` dense (n, n) element-pair blocks, summed
    into the CSR matrix of a space.

    The float64 values are allocated once, and ``write`` copies one block
    family into the next free slots, so the caller can drop a family as
    soon as it is written.  A family's dof rows and columns follow from its
    element ids alone; ``system`` fills them in place (int32, or int64 when
    the dofs do not fit) once the blocks are written and their inputs are
    gone.
    """

    def __init__(self, space: DgSpace, count: int):
        self.space = space
        self.vals = np.empty(count * space.dofs_per_element ** 2)
        self.end = 0  # values written so far
        self.families = []  # (slots, row element ids, column element ids)

    def write(self, block, row_elems, col_elems):
        """Append block (E, n, n), which couples the dofs of elements
        row_elems (E,) to those of col_elems: entry (e, i, j) goes to row
        row_elems[e] * n + i and column col_elems[e] * n + j."""
        part = slice(self.end, self.end + block.size)
        self.vals[part] = block.ravel()
        self.families.append((part, row_elems, col_elems))
        self.end = part.stop

    def system(self) -> SparseSystem:
        """The CSR matrix of the written blocks; releases the triplets.

        scipy's conversion counts the triplets into rows in written order,
        sorts each row by column with an unstable sort and then sums the
        duplicates in the sorted order, so that order, not the written
        one, fixes the rounding of a summed entry.
        """
        if self.end != len(self.vals):
            raise RuntimeError(
                f"{self.end} of {len(self.vals)} triplets written")
        n, dofs = self.space.dofs_per_element, self.space.total_dofs
        idx = np.int32 if dofs <= np.iinfo(np.int32).max else np.int64
        rows = np.empty(self.end, dtype=idx)
        cols = np.empty(self.end, dtype=idx)
        local = np.arange(n)
        for part, r, c in self.families:
            rows[part].reshape(-1, n, n)[...] = (
                (r * n)[:, None, None] + local[None, :, None])
            cols[part].reshape(-1, n, n)[...] = (
                (c * n)[:, None, None] + local[None, None, :])
        mat = sp.coo_matrix((self.vals, (rows, cols)),
                            shape=(dofs, dofs)).tocsr()
        self.vals, self.families = None, None
        del rows, cols
        # the summed entries are views of buffers as long as the triplets
        mat.data = mat.data.copy()
        mat.indices = mat.indices.copy()
        mat.sort_indices()
        return SparseSystem(matrix=mat, rhs=None, space=self.space)


def _face_weights(space: DgSpace, penalty: PenaltyParams, rule):
    """Penalty weights beta_e (E,) and segment weights |e| w_k (E, k) of
    segment rule ``rule`` on every intersection."""
    om = penalty.omegas(space.mesh)  # refuses a mesh without edges
    edges = space.mesh.edges
    return om / edges.lengths, rule.weights[None, :] * edges.lengths[:, None]


def _face_traces(space: DgSpace, rule, grads: bool):
    """Traces of the minus and of the plus element of every intersection
    at the points of segment rule ``rule``."""
    edges = space.mesh.edges
    x = space.face_points(rule)
    return (space.trace(edges.minus, x, grads),
            space.trace(edges.plus, x, grads))


def assemble_system(space: DgSpace, choice, penalty: PenaltyParams,
                    quadrature: tuple | None = None) -> SparseSystem:
    """Assemble the IP matrix for one conormal choice (matrix only).

    ``quadrature`` optionally overrides the (triangle, segment) rule
    exactness; entries must not change beyond roundoff when raised.
    """
    tag = normalize_choice(choice)
    tri_deg, seg_deg = quadrature or _quad_degrees(space.degree)
    seg_rule = get_quadrature("segment", seg_deg)
    beta, wseg = _face_weights(space, penalty, seg_rule)
    m = len(space.mesh.triangles)
    out = _TripletWriter(space, m + 4 * len(beta))
    elems = np.arange(m)
    out.write(_volume_block(space, get_quadrature("triangle", tri_deg)),
              elems, elems)
    _write_face_blocks(out, tag, beta, wseg,
                       _face_traces(space, seg_rule, grads=True))
    return out.system()


def _write_face_blocks(out: _TripletWriter, tag, beta, wseg, traces):
    """Write the diagonal and the off-diagonal face block of each side of
    every intersection, the minus side first; the traces die on return."""
    edges = out.space.mesh.edges
    minus_tr, plus_tr = traces
    for own, other, n_own, n_other, own_tr, other_tr in (
            (edges.minus, edges.plus, edges.conormal_minus,
             edges.conormal_plus, minus_tr, plus_tr),
            (edges.plus, edges.minus, edges.conormal_plus,
             edges.conormal_minus, plus_tr, minus_tr)):
        n_d, n_e_own, n_e_oth = _resolve_batch(tag, n_own, n_other)
        out.write(_diag_face_block(beta, wseg, own_tr, n_d), own, own)
        # 4T weights the cross mass by beta n+ . n-, the others by -beta
        cross_w = (beta * np.einsum("ed,ed->e", n_own, n_other)
                   if tag == "4T" else -beta)
        out.write(_off_face_block(wseg, own_tr, other_tr, n_e_own, n_e_oth,
                                  cross_w), own, other)


def _diag_face_block(beta, wseg, own_tr, n_d):
    """Face block (E, n, n) coupling the own element to itself."""
    v_r, g_r = own_tr
    dn_d = np.einsum("eknd,ed->ekn", g_r, n_d)
    mass_f = np.einsum("ek,eki,ekj->eij", wseg, v_r, v_r)
    return (-0.5) * (np.einsum("ek,ekj,eki->eij", wseg, v_r, dn_d)
                     + np.einsum("ek,eki,ekj->eij", wseg, v_r, dn_d)) \
        + beta[:, None, None] * mass_f


def _off_face_block(wseg, own_tr, other_tr, n_e_own, n_e_oth, cross_w):
    """Face block (E, n, n) coupling the own element to the other one."""
    (v_r, g_r), (v_n, g_n) = own_tr, other_tr
    dr = np.einsum("eknd,ed->ekn", g_r, n_e_own)
    dn = np.einsum("eknd,ed->ekn", g_n, n_e_oth)
    off = 0.5 * (np.einsum("ek,ekj,eki->eij", wseg, v_n, dr)
                 + np.einsum("ek,eki,ekj->eij", wseg, v_r, dn))
    off += cross_w[:, None, None] * np.einsum("ek,eki,ekj->eij",
                                              wseg, v_r, v_n)
    return off


def assemble_mass_stiffness(space: DgSpace) -> SparseSystem:
    """Volume-only operator (broken stiffness + mass), no face terms."""
    rule = get_quadrature("triangle", _quad_degrees(space.degree)[0])
    m = len(space.mesh.triangles)
    out = _TripletWriter(space, m)
    elems = np.arange(m)
    out.write(_volume_block(space, rule), elems, elems)
    return out.system()


def assemble_penalty_matrix(space: DgSpace, penalty: PenaltyParams
                            ) -> SparseSystem:
    """Jump-penalty part alone: beta (u+ - u-)(v+ - v-) on every
    intersection (the standard penalty of Choices 1 to 4)."""
    seg_rule = get_quadrature("segment", _quad_degrees(space.degree)[1])
    beta, wseg = _face_weights(space, penalty, seg_rule)
    out = _TripletWriter(space, 4 * len(beta))
    edges = space.mesh.edges
    v_minus, v_plus = _face_traces(space, seg_rule, grads=False)
    for own, other, v_r, v_n in ((edges.minus, edges.plus, v_minus, v_plus),
                                 (edges.plus, edges.minus, v_plus, v_minus)):
        out.write(beta[:, None, None] * np.einsum("ek,eki,ekj->eij",
                                                  wseg, v_r, v_r), own, own)
        out.write(-beta[:, None, None] * np.einsum("ek,eki,ekj->eij",
                                                   wseg, v_r, v_n),
                  own, other)
    del v_minus, v_plus, v_r, v_n
    return out.system()


def assemble_rhs(space: DgSpace, surface: LevelSetSurface, f) -> np.ndarray:
    """Right-hand side with f evaluated at projected quadrature points:
    per element int f(xi(x)) phi(x) dA_h.

    The points are projected and f is evaluated in batches of
    ``geometry._LIFT_BATCH``, which bounds the forcing's temporaries; each
    point is handled on its own, so the batching changes no value.
    """
    deg = space.degree
    tri_rule = get_quadrature("triangle", _quad_degrees(deg)[0])
    tv, _, areas, _ = space.frames
    w = tri_rule.weights
    vref = _values(deg, tri_rule.points)
    pts = np.einsum("qk,mkd->mqd", tri_rule.points, tv).reshape(-1, 3)
    fn = getattr(f, "value", f)
    fvals = np.empty(len(pts))
    for start in range(0, len(pts), geometry._LIFT_BATCH):
        part = slice(start, start + geometry._LIFT_BATCH)
        fvals[part] = fn(project_points(surface, pts[part]).points)
    rhs = 2.0 * areas[:, None] * np.einsum(
        "q,mq,qi->mi", w, fvals.reshape(len(areas), -1), vref)
    return rhs.ravel()


def check_symmetry(matrix) -> float:
    """Largest absolute entry of A - A^T."""
    a = matrix.matrix if isinstance(matrix, SparseSystem) else matrix
    diff = (a - a.T).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def write_matrix_market(system, path) -> None:
    """Dump the matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite
    a = system.matrix if isinstance(system, SparseSystem) else system
    mmwrite(path, a)
