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


def _csr_system(space: DgSpace, blocks) -> SparseSystem:
    """Sum element-pair blocks into a CSR matrix.

    ``blocks`` lists (block, row_elems, col_elems) with block (E, n, n)
    coupling the dofs of elements row_elems (E,) to those of col_elems;
    duplicate entries are summed in list order.
    """
    n = space.dofs_per_element
    dofs = np.arange(space.total_dofs).reshape(-1, n)
    rows = [np.repeat(dofs[r], n, axis=1).ravel() for _, r, _ in blocks]
    cols = [np.tile(dofs[c], (1, n)).ravel() for _, _, c in blocks]
    vals = [b.ravel() for b, _, _ in blocks]
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.total_dofs,) * 2).tocsr()
    mat.sort_indices()
    return SparseSystem(matrix=mat, rhs=None, space=space)


def _face_data(space: DgSpace, penalty: PenaltyParams, rule, grads: bool):
    """Penalty weights beta_e (E,), segment weights |e| w_k (E, k), and
    the traces of the minus and of the plus element at the points of
    segment rule ``rule`` on every intersection."""
    om = penalty.omegas(space.mesh)  # refuses a mesh without edges
    edges = space.mesh.edges
    beta = om / edges.lengths
    wseg = rule.weights[None, :] * edges.lengths[:, None]
    x = space.face_points(rule)
    return (beta, wseg, space.trace(edges.minus, x, grads),
            space.trace(edges.plus, x, grads))


def assemble_system(space: DgSpace, choice, penalty: PenaltyParams,
                    quadrature: tuple | None = None) -> SparseSystem:
    """Assemble the IP matrix for one conormal choice (matrix only).

    ``quadrature`` optionally overrides the (triangle, segment) rule
    exactness; entries must not change beyond roundoff when raised.
    """
    tag = normalize_choice(choice)
    tri_deg, seg_deg = quadrature or _quad_degrees(space.degree)
    tri_rule = get_quadrature("triangle", tri_deg)
    beta, wseg, minus_tr, plus_tr = _face_data(
        space, penalty, get_quadrature("segment", seg_deg), grads=True)
    edges = space.mesh.edges

    elems = np.arange(len(space.mesh.triangles))
    blocks = [(_volume_block(space, tri_rule), elems, elems)]

    for own, other, n_own, n_other, (v_r, g_r), (v_n, g_n) in (
            (edges.minus, edges.plus, edges.conormal_minus,
             edges.conormal_plus, minus_tr, plus_tr),
            (edges.plus, edges.minus, edges.conormal_plus,
             edges.conormal_minus, plus_tr, minus_tr)):
        n_d, n_e_own, n_e_oth = _resolve_batch(tag, n_own, n_other)

        dn_d = np.einsum("eknd,ed->ekn", g_r, n_d)
        mass_f = np.einsum("ek,eki,ekj->eij", wseg, v_r, v_r)
        diag = (-0.5) * (np.einsum("ek,ekj,eki->eij", wseg, v_r, dn_d)
                         + np.einsum("ek,eki,ekj->eij", wseg, v_r, dn_d)) \
            + beta[:, None, None] * mass_f
        blocks.append((diag, own, own))

        dr = np.einsum("eknd,ed->ekn", g_r, n_e_own)
        dn = np.einsum("eknd,ed->ekn", g_n, n_e_oth)
        cross_mass = np.einsum("ek,eki,ekj->eij", wseg, v_r, v_n)
        off = 0.5 * (np.einsum("ek,ekj,eki->eij", wseg, v_n, dr)
                     + np.einsum("ek,eki,ekj->eij", wseg, v_r, dn))
        if tag == "4T":
            dot = np.einsum("ed,ed->e", n_own, n_other)
            off += (beta * dot)[:, None, None] * cross_mass
        else:
            off -= beta[:, None, None] * cross_mass
        blocks.append((off, own, other))

    return _csr_system(space, blocks)


def assemble_mass_stiffness(space: DgSpace) -> SparseSystem:
    """Volume-only operator (broken stiffness + mass), no face terms."""
    rule = get_quadrature("triangle", _quad_degrees(space.degree)[0])
    elems = np.arange(len(space.mesh.triangles))
    return _csr_system(space, [(_volume_block(space, rule), elems, elems)])


def assemble_penalty_matrix(space: DgSpace, penalty: PenaltyParams
                            ) -> SparseSystem:
    """Jump-penalty part alone: beta (u+ - u-)(v+ - v-) on every
    intersection (the standard penalty of Choices 1 to 4)."""
    seg_rule = get_quadrature("segment", _quad_degrees(space.degree)[1])
    beta, wseg, v_minus, v_plus = _face_data(space, penalty, seg_rule,
                                             grads=False)
    edges = space.mesh.edges

    blocks = []
    for own, other, v_r, v_n in ((edges.minus, edges.plus, v_minus, v_plus),
                                 (edges.plus, edges.minus, v_plus, v_minus)):
        diag = beta[:, None, None] * np.einsum("ek,eki,ekj->eij",
                                               wseg, v_r, v_r)
        off = -beta[:, None, None] * np.einsum("ek,eki,ekj->eij",
                                               wseg, v_r, v_n)
        blocks += [(diag, own, own), (off, own, other)]
    return _csr_system(space, blocks)


def assemble_rhs(space: DgSpace, surface: LevelSetSurface, f) -> np.ndarray:
    """Right-hand side with f evaluated at projected quadrature points:
    per element int f(xi(x)) phi(x) dA_h."""
    deg = space.degree
    tri_rule = get_quadrature("triangle", _quad_degrees(deg)[0])
    tv, _, areas, _ = space.frames
    w = tri_rule.weights
    vref = _values(deg, tri_rule.points)
    pts = np.einsum("qk,mkd->mqd", tri_rule.points, tv)
    mq = pts.shape[0] * pts.shape[1]
    lifted = project_points(surface, pts.reshape(mq, 3)).points
    fn = getattr(f, "value", f)
    fvals = np.asarray(fn(lifted), dtype=float).reshape(pts.shape[:2])
    rhs = 2.0 * areas[:, None] * np.einsum("q,mq,qi->mi", w, fvals, vref)
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
