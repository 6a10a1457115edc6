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

from . import _pool
from .dgspace import DgSpace, _ref_grads, _values, get_quadrature
from .geometry import LevelSetSurface, project_points
from .mesh import EdgeIntersection, SurfaceMesh

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

    With ``omega`` unset, every omega_e is sigma times the mesh-wide
    maximum of the stability lower bounds.  A given ``omega`` is every
    omega_e, so it refuses a ``sigma`` of its own.
    """

    sigma: float = 2.0
    omega: float | None = None

    def __post_init__(self):
        if self.sigma < 1.0:
            raise PenaltyError(f"safety factor {self.sigma} < 1")
        if not np.isfinite(self.sigma):
            raise PenaltyError(f"safety factor {self.sigma} is not finite")
        if self.omega is None:
            return
        if not np.isfinite(self.omega):
            raise PenaltyError(f"omega {self.omega} is not finite")
        if self.sigma != PenaltyParams.sigma:
            raise PenaltyError(f"omega {self.omega} fixes every weight; "
                               f"sigma {self.sigma!r} would be ignored")

    def omegas(self, mesh: SurfaceMesh) -> np.ndarray:
        """Per-intersection omega_e, refusing weights at or below the
        stability bound."""
        bounds = penalty_bounds(mesh)
        if self.omega is not None:
            om = np.full(len(bounds), float(self.omega))
        else:
            om = np.full(len(bounds), self.sigma * bounds.max())
        bad = om <= bounds
        if np.any(bad):
            worst = int(np.argmax(bounds - om))
            raise PenaltyError(
                f"omega {om[worst]:.6g} at intersection {worst} does not "
                f"exceed the stability bound {bounds[worst]:.6g}")
        return om


def penalty_bounds(mesh: SurfaceMesh) -> np.ndarray:
    """Stability lower bound for omega_e on every intersection."""
    term = mesh.edge_area_ratios
    return np.maximum(term[mesh.edges.minus], term[mesh.edges.plus])


def penalty_lower_bound(mesh: SurfaceMesh, e: EdgeIntersection) -> float:
    """Stability lower bound for a single intersection: the larger of the
    two incident elements' (sum of squared edge lengths) / (2 area)."""
    term = mesh.edge_area_ratios
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
    """Assembled CSR matrix over a DgSpace."""

    matrix: sp.csr_matrix


def _quad_degrees(degree: int):
    # flat-element integrands are polynomials of degree <= 2p; the face
    # rules follow the same budget
    return (4, 5) if degree == 1 else (6, 6)


def _volume_block(space: DgSpace, rule, part=slice(None)) -> np.ndarray:
    """Broken stiffness + mass on the elements ``part``, shape (E, n, n)."""
    tmap, areas = space.mesh.pushforward, space.mesh.jacobian_areas
    w = rule.weights
    vref = _values(space.degree, rule.points)
    gref = _ref_grads(space.degree, rule.points)
    gphys = np.einsum("qna,mad->mqnd", gref, tmap[part])
    mass_ref = np.einsum("q,qi,qj->ij", w, vref, vref)
    return 2.0 * areas[part, None, None] * (
        np.einsum("q,mqid,mqjd->mij", w, gphys, gphys)
        + mass_ref[None, :, :])


def _assemble_by_rows(space: DgSpace, volume, faces, face_rule=None,
                      grads: bool = False) -> SparseSystem:
    """CSR matrix of dense (n, n) element-pair blocks, summed one chunk of
    element rows at a time into arrays preallocated from the pattern.

    ``volume(part)`` gives the diagonal blocks (E, n, n) of the elements
    ``part`` (a slice).  ``faces(ids, minus, own_tr, other_tr)`` gives the
    diagonal and the off-diagonal face block of the intersections ``ids``,
    seen from their minus element (``minus``) or from their plus element,
    with the traces of the own and of the other element at the points of
    ``face_rule`` (``grads`` adds the gradients).  Either may be None.

    A chunk holds the rows of consecutive elements, about
    ``_pool._CHUNK_TRIPLETS`` triplets per usable CPU, and the chunks run
    across those CPUs (``_pool._run_chunks``), each into its own rows of
    ``indices`` and ``data``.  Its blocks are written in the order of
    the whole matrix's block stream: volume, minus-diagonal, minus-off,
    plus-diagonal, plus-off, each in intersection order.  So every row gets
    the same triplet sequence as in one conversion of the whole stream.
    scipy's conversion counts the triplets into rows in written order,
    sorts each row by column with a permutation that depends on that row's
    column sequence alone, and sums the duplicates in the sorted order; so
    the chunks change no entry's rounding.
    """
    n, dofs = space.dofs_per_element, space.total_dofs
    m = len(space.mesh.triangles)
    edges = space.mesh.edges
    elems = np.arange(m)
    pairs = [(elems, elems)] if volume is not None else []
    if faces is not None:
        pairs += [(edges.minus, edges.minus), (edges.minus, edges.plus),
                  (edges.plus, edges.plus), (edges.plus, edges.minus)]
    triplets = n * n * sum(len(rows) for rows, _ in pairs)
    indptr = _row_pointers(m, n, pairs)
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    data = np.empty(indptr[-1])

    chunks = _pool._slices(m, triplets, _pool._CHUNK_TRIPLETS)
    step = chunks[0].stop if chunks else 1  # elements per chunk
    # per side, its intersections grouped by the chunk of their own
    # element, in intersection order within a chunk, and the group bounds
    sides = []
    if faces is not None:
        for own in (edges.minus, edges.plus):
            chunk = own // step
            order = np.argsort(chunk, kind="stable")
            sides.append((order, np.searchsorted(
                chunk[order], np.arange(len(chunks) + 1))))

    def fill(rows):
        lo, hi, k = rows.start, rows.stop, rows.start // step
        sel = [order[bounds[k]:bounds[k + 1]] for order, bounds in sides]
        part = _chunk_csr(_chunk_blocks(space, volume, faces, face_rule,
                                        grads, lo, hi, sel),
                          lo, hi, n, dofs, indptr.dtype)
        a, b = indptr[lo * n], indptr[hi * n]
        if not np.array_equal(part.indptr, indptr[lo * n:hi * n + 1] - a):
            raise RuntimeError(
                f"row chunk {k} (elements {lo} to {hi - 1}): its "
                f"{part.nnz} summed entries do not fill the preallocated "
                f"pattern of {b - a} row by row")
        indices[a:b] = part.indices
        data[a:b] = part.data

    _pool._run_chunks(fill, chunks)
    mat = sp.csr_matrix((data, indices, indptr), shape=(dofs, dofs))
    return SparseSystem(matrix=mat)


def _row_pointers(m: int, n: int, pairs) -> np.ndarray:
    """CSR row pointers of the (n, n) blocks that couple the row elements
    to the column elements of ``pairs`` [(rows, cols)]: one block per
    distinct element pair, so per element row its distinct column elements
    times n entries in each of its n dof rows.  int32 unless the entries
    do not fit."""
    keys = np.concatenate(
        [rows.astype(np.int64) * m + cols for rows, cols in pairs])
    keys.sort()
    distinct = np.empty(len(keys), dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    row_nnz = np.repeat(np.bincount(keys[distinct] // m, minlength=m) * n, n)
    del keys, distinct
    nnz = int(row_nnz.sum())
    idx = np.int32 if max(nnz, m * n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(m * n + 1, dtype=idx)
    np.cumsum(row_nnz, out=indptr[1:])
    return indptr


def _chunk_blocks(space, volume, faces, face_rule, grads, lo, hi,
                  sel) -> list:
    """The blocks (block, row elements, column elements) of the rows of
    elements lo..hi-1 in written order; ``sel`` holds the intersections of
    the minus and of the plus side whose own element lies in lo..hi-1, in
    intersection order.  The traces die on return."""
    blocks = []
    if volume is not None:
        elems = np.arange(lo, hi)
        blocks.append((volume(slice(lo, hi)), elems, elems))
    if faces is None:
        return blocks
    edges = space.mesh.edges
    sel_m, sel_p = sel
    # trace each intersection once: the minus side's, then those of the
    # plus side whose minus element lies in another chunk
    outside = (edges.minus[sel_p] < lo) | (edges.minus[sel_p] >= hi)
    both = np.concatenate([sel_m, sel_p[outside]])
    at_p = np.searchsorted(sel_m, sel_p)
    at_p[outside] = len(sel_m) + np.arange(np.count_nonzero(outside))
    x = space.face_points(face_rule, both)
    tr_m = space.trace(edges.minus[both], x, grads)
    tr_p = space.trace(edges.plus[both], x, grads)
    del x
    for minus, own, other, ids, at, own_tr, other_tr in (
            (True, edges.minus, edges.plus, sel_m, slice(0, len(sel_m)),
             tr_m, tr_p),
            (False, edges.plus, edges.minus, sel_p, at_p, tr_p, tr_m)):
        diag, off = faces(ids, minus, _rows(own_tr, at), _rows(other_tr, at))
        blocks += [(diag, own[ids], own[ids]), (off, own[ids], other[ids])]
    return blocks


def _rows(trace, at):
    """Rows ``at`` of a trace: values, or (values, gradients)."""
    if isinstance(trace, tuple):
        return tuple(t[at] for t in trace)
    return trace[at]


def _chunk_csr(blocks, lo, hi, n, dofs, idx) -> sp.csr_matrix:
    """scipy's CSR conversion of the triplets of ``blocks``, whose row
    elements lie in lo..hi-1, as the rows of those elements; the blocks
    are dropped once copied."""
    count = n * n * sum(len(block) for block, _, _ in blocks)
    vals = np.empty(count)
    rows = np.empty(count, dtype=idx)
    cols = np.empty(count, dtype=idx)
    local = np.arange(n)
    end = 0
    for block, r, c in blocks:
        part = slice(end, end + block.size)
        vals[part] = block.ravel()
        rows[part].reshape(-1, n, n)[...] = (
            ((r - lo) * n)[:, None, None] + local[None, :, None])
        cols[part].reshape(-1, n, n)[...] = (
            (c * n)[:, None, None] + local[None, None, :])
        end = part.stop
    blocks.clear()  # the caller keeps no reference to the list
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=((hi - lo) * n, dofs)).tocsr()


def _face_weights(space: DgSpace, penalty: PenaltyParams, rule):
    """Penalty weights beta_e (E,) and segment weights |e| w_k (E, k) of
    segment rule ``rule`` on every intersection."""
    om = penalty.omegas(space.mesh)  # refuses a mesh without edges
    edges = space.mesh.edges
    return om / edges.lengths, rule.weights[None, :] * edges.lengths[:, None]


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
    tri_rule = get_quadrature("triangle", tri_deg)
    edges = space.mesh.edges

    def faces(ids, minus, own_tr, other_tr):
        n_own, n_other = edges.conormal_minus[ids], edges.conormal_plus[ids]
        if not minus:
            n_own, n_other = n_other, n_own
        n_d, n_e_own, n_e_oth = _resolve_batch(tag, n_own, n_other)
        b, w = beta[ids], wseg[ids]
        # 4T weights the cross mass by beta n+ . n-, the others by -beta
        cross_w = (b * np.einsum("ed,ed->e", n_own, n_other)
                   if tag == "4T" else -b)
        return (_diag_face_block(b, w, own_tr, n_d),
                _off_face_block(w, own_tr, other_tr, n_e_own, n_e_oth,
                                cross_w))

    return _assemble_by_rows(
        space, lambda part: _volume_block(space, tri_rule, part), faces,
        seg_rule, grads=True)


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
    return _assemble_by_rows(
        space, lambda part: _volume_block(space, rule, part), None)


def assemble_penalty_matrix(space: DgSpace, penalty: PenaltyParams
                            ) -> SparseSystem:
    """Jump-penalty part alone: beta (u+ - u-)(v+ - v-) on every
    intersection (the standard penalty of Choices 1 to 4)."""
    seg_rule = get_quadrature("segment", _quad_degrees(space.degree)[1])
    beta, wseg = _face_weights(space, penalty, seg_rule)

    def faces(ids, minus, v_r, v_n):
        b, w = beta[ids][:, None, None], wseg[ids]
        return (b * np.einsum("ek,eki,ekj->eij", w, v_r, v_r),
                -b * np.einsum("ek,eki,ekj->eij", w, v_r, v_n))

    return _assemble_by_rows(space, None, faces, seg_rule)


def assemble_rhs(space: DgSpace, surface: LevelSetSurface, f) -> np.ndarray:
    """Right-hand side with f evaluated at projected quadrature points:
    per element int f(xi(x)) phi(x) dA_h.

    The points are built and projected, and f is evaluated, per chunk of
    elements (``_pool._slices``), which bounds the temporaries, and the
    chunks run across the usable CPUs (``_pool._run_chunks``); each point
    is handled on its own, so the chunks change no value.  So ``f`` and
    the surface's callables may be called from several threads at once.
    """
    mesh = space.mesh
    tri_rule = get_quadrature("triangle", _quad_degrees(space.degree)[0])
    w = tri_rule.weights
    vref = _values(space.degree, tri_rule.points)
    fn = getattr(f, "value", f)
    fvals = np.empty((len(mesh.triangles), len(w)))

    def lift(part):
        pts = space.element_points(tri_rule, part)
        fvals[part] = np.reshape(
            fn(project_points(surface, pts.reshape(-1, 3)).points),
            (-1, len(w)))

    m, q = fvals.shape
    _pool._run_chunks(lift, _pool._slices(m, m * q, _pool._LIFT_BATCH))
    rhs = 2.0 * mesh.jacobian_areas[:, None] * np.einsum(
        "q,mq,qi->mi", w, fvals, vref)
    return rhs.ravel()


def _sparse(matrix) -> sp.csr_matrix:
    """The one float64 CSR form of a solver or symmetry-check input: the
    matrix of a ``SparseSystem``, a dense array or nested lists, or a
    sparse matrix of any format and real dtype.  A float64 CSR matrix is
    returned as the same object, so an assembled matrix is never copied;
    complex input is refused."""
    a = matrix.matrix if isinstance(matrix, SparseSystem) else matrix
    if not sp.issparse(a):
        a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"complex matrix ({a.dtype}) not supported: the "
                         "solvers and the symmetry check take real input")
    if sp.issparse(a) and a.format == "csr" and a.dtype == np.float64:
        return a
    return sp.csr_matrix(a, dtype=np.float64)


def check_symmetry(matrix) -> float:
    """Largest absolute entry of A - A^T.

    A is taken as ``_sparse`` gives it, canonicalized on a copy if its
    rows are unsorted or hold duplicates, and walked in row blocks of
    about ``_pool._CHUNK_TRIPLETS`` stored entries
    (``_pool._row_blocks``): each stored a_ij is compared with the stored
    a_ji, or with 0 where A holds none, looked up by scipy in row j.
    Every entry of the listed difference A - A^T is one of these
    differences up to sign, and the zero differences are the entries it
    drops, so the result is the same float, wherever the rows are cut;
    only one block's lookups are held at a time.
    """
    a = _sparse(matrix)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    indptr = a.indptr
    bounds = _pool._row_blocks(indptr, -(-a.nnz // _pool._CHUNK_TRIPLETS))
    worst = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = slice(indptr[lo], indptr[hi])
        cols = a.indices[part]
        if cols.size:
            own = np.repeat(np.arange(lo, hi, dtype=cols.dtype),
                            np.diff(indptr[lo:hi + 1]))
            d = np.asarray(a[cols, own]).ravel()  # a_ji, 0 where not stored
            del own
            np.subtract(a.data[part], d, out=d)
            # np.maximum keeps a NaN that Python's max would drop
            worst = np.maximum(worst, np.abs(d, out=d).max())
    return float(worst)


def write_matrix_market(system, path) -> None:
    """Dump the matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite
    mmwrite(path, _sparse(system))
