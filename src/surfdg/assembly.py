"""Interior penalty system assembly on triangulated surfaces.

Builds the DG stiffness-plus-mass matrix with consistency, symmetry and
jump-penalty face terms for the different conormal substitution choices,
and the right-hand side with quadrature points projected onto the smooth
surface.

Face terms are assembled elementwise: every intersection is visited once
and contributes four blocks, with each incident element playing the
"minus" role for its own rows.  One row-chunked pass assembles the IP
matrices of several choices (``_assemble_choices``; ``assemble_system``
is its one-choice case): per chunk the volume blocks, the traces and the
face mass products are made once, the conormal terms per choice (a term
that several choices share once), and the matrices share one pattern.
The mass-stiffness and penalty operators are references for tests, each
one conversion of its whole block stream.

scipy.sparse is imported by the functions that make or take a sparse
matrix (``_assemble_choices``, ``_chunk_csr``, ``_sparse``), not with
the module: the rhs, the meshes and the projection need only numpy, so
a process that builds no matrix never loads scipy.  ``_assemble_choices``
makes the first import in the calling thread, before its chunks run in
the pool.

Conormal choices:

  1   planar:          (n-, n-, -n-)       generally non-symmetric
  2   analysis:        (n-, n-, n+)        symmetric
  3   average:         (m, m, -m), m = (n- - n+)/|n- - n+|
  4   modified Arnold: (n-, -n+, -n-)      symmetric (modified penalty)
  4T  Arnold with the true penalty: off-diagonal penalty weighted by
      n+ . n- (equals -1 on flat meshes); known not to converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _resolve_batch(tag, nm, npl, neg=np.negative):
    """Substitute vectors (n_D^-, n_e^-, n_e^+) of conormal choice ``tag``
    for (E, 3) conormal arrays, seen from the elements owning nm; ``neg``
    flips nm or npl."""
    if tag == "1":
        return nm, nm, neg(nm)
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
    return nm, neg(npl), neg(nm)


@dataclass(eq=False)
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


def assemble_system(space: DgSpace, choice, penalty: PenaltyParams
                    ) -> SparseSystem:
    """Assemble the IP matrix for one conormal choice (matrix only)."""
    return _assemble_choices(space, [normalize_choice(choice)], penalty)[0]


def _assemble_choices(space: DgSpace, tags, penalty: PenaltyParams) -> list:
    """The IP matrices of the normalized conormal choices ``tags`` on one
    pattern, summed one chunk of element rows at a time into arrays
    preallocated from the pattern.  Each matrix is, bit for bit, the one
    ``assemble_system`` gives for its choice.

    A chunk holds the rows of consecutive elements, about
    ``_pool._CHUNK_TRIPLETS`` triplets of all choices together per usable
    CPU, so the chunks in flight hold what one choice's chunks would; the
    chunks run across those CPUs (``_pool._run_chunks``), each into its
    own rows of ``indices`` and of every choice's ``data``.  Per chunk the
    volume blocks, the traces and the face mass products are made once
    (``_chunk_faces``), and the conormal terms per choice
    (``_face_blocks``), each term that several choices share once per
    chunk and side; each choice's blocks are written in the order of
    the whole matrix's block stream: volume, minus-diagonal, minus-off,
    plus-diagonal, plus-off, each in intersection order.  So every row
    gets the same triplet sequence as in one conversion of the whole
    stream.  scipy's conversion counts the triplets into rows in written
    order, sorts each row by column with a permutation that depends on
    that row's column sequence alone, and sums the duplicates in the
    sorted order; so the chunks change no entry's rounding, and every
    choice gets the columns of the first.  The matrices share one
    ``indices`` and one ``indptr``, so none may be changed in place.
    """
    # the first import of scipy.sparse is made here, in the calling
    # thread, not by the pooled chunks of ``_chunk_csr``
    import scipy.sparse as sp
    tri_deg, seg_deg = _quad_degrees(space.degree)
    seg_rule = get_quadrature("segment", seg_deg)
    beta, wseg = _face_weights(space, penalty, seg_rule)
    tri_rule = get_quadrature("triangle", tri_deg)
    n, dofs = space.dofs_per_element, space.total_dofs
    m = len(space.mesh.triangles)
    edges = space.mesh.edges
    elems = np.arange(m)
    pairs = [(elems, elems), (edges.minus, edges.minus),
             (edges.minus, edges.plus), (edges.plus, edges.plus),
             (edges.plus, edges.minus)]
    triplets = n * n * sum(len(rows) for rows, _ in pairs)
    indptr = _row_pointers(m, n, pairs)
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    data = [np.empty(indptr[-1]) for _ in tags]

    chunks = _pool._slices(m, triplets * len(tags), _pool._CHUNK_TRIPLETS)
    step = chunks[0].stop if chunks else 1  # elements per chunk
    # per side, its intersections grouped by the chunk of their own
    # element, in intersection order within a chunk, and the group bounds
    sides = []
    for own in (edges.minus, edges.plus):
        chunk = own // step
        order = np.argsort(chunk, kind="stable")
        sides.append((order, np.searchsorted(
            chunk[order], np.arange(len(chunks) + 1))))

    def fill(rows):
        lo, hi, k = rows.start, rows.stop, rows.start // step
        sel = [order[bounds[k]:bounds[k + 1]] for order, bounds in sides]
        a, b = indptr[lo * n], indptr[hi * n]
        where = f"row chunk {k} (elements {lo} to {hi - 1})"
        volume = (_volume_block(space, tri_rule, rows), elems[rows],
                  elems[rows])
        faces = _chunk_faces(space, seg_rule, beta, wseg, lo, hi, sel)
        # the face terms that several choices share; a lone choice shares
        # none, so it keeps none, and its chunk holds only its own terms
        shared = {} if len(tags) > 1 else None
        for out, tag in enumerate(tags):
            blocks = [volume, *_face_blocks(tag, faces, shared)]
            if out == len(tags) - 1:
                # the traces and shared terms die before converting
                volume = faces = shared = None
            part = _chunk_csr(blocks, lo, hi, n, dofs, indptr.dtype)
            if not np.array_equal(part.indptr, indptr[lo * n:hi * n + 1] - a):
                raise RuntimeError(
                    f"{where}: its {part.nnz} summed entries do not fill "
                    f"the preallocated pattern of {b - a} row by row")
            if out == 0:
                indices[a:b] = part.indices
            elif not np.array_equal(part.indices, indices[a:b]):
                raise RuntimeError(f"{where}: the columns of output {out} "
                                   "differ from those of output 0")
            data[out][a:b] = part.data

    _pool._run_chunks(fill, chunks)
    return [SparseSystem(matrix=sp.csr_matrix((d, indices, indptr),
                                              shape=(dofs, dofs)))
            for d in data]


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


def _chunk_faces(space, rule, beta, wseg, lo, hi, sel) -> list:
    """Per side, minus then plus, what the conormal choices share on the
    intersections of ``sel`` (per side, those whose own element lies in
    lo..hi-1, in intersection order): the own and the other elements, the
    traces (values, gradients) of both at the points of segment rule
    ``rule``, the conormals seen from the own element, beta_e, |e| w_k,
    and the face mass (own/own) and cross mass (own/other) products.  The
    traces that no side keeps die on return."""
    edges = space.mesh.edges
    sel_m, sel_p = sel
    # trace each intersection once: the minus side's, then those of the
    # plus side whose minus element lies in another chunk
    outside = (edges.minus[sel_p] < lo) | (edges.minus[sel_p] >= hi)
    both = np.concatenate([sel_m, sel_p[outside]])
    at_p = np.searchsorted(sel_m, sel_p)
    at_p[outside] = len(sel_m) + np.arange(np.count_nonzero(outside))
    x = space.face_points(rule, both)
    tr_m = space.trace(edges.minus[both], x, grads=True)
    tr_p = space.trace(edges.plus[both], x, grads=True)
    del x
    sides = []
    for own, other, n_own, n_other, ids, at, own_tr, other_tr in (
            (edges.minus, edges.plus, edges.conormal_minus,
             edges.conormal_plus, sel_m, slice(0, len(sel_m)), tr_m, tr_p),
            (edges.plus, edges.minus, edges.conormal_plus,
             edges.conormal_minus, sel_p, at_p, tr_p, tr_m)):
        (v_r, g_r), (v_n, g_n) = [(v[at], g[at]) for v, g in (own_tr,
                                                               other_tr)]
        w = wseg[ids]
        sides.append((own[ids], other[ids], (v_r, g_r), (v_n, g_n),
                      n_own[ids], n_other[ids], beta[ids], w,
                      np.einsum("ek,eki,ekj->eij", w, v_r, v_r),
                      np.einsum("ek,eki,ekj->eij", w, v_r, v_n)))
    return sides


def _face_blocks(tag, sides, shared) -> list:
    """The face blocks (block, row elements, column elements) of conormal
    choice ``tag`` from the ``_chunk_faces`` data of both sides: per side
    the diagonal block, coupling the own element to itself, then the
    off-diagonal one, coupling it to the other element.

    ``shared`` is one dict per chunk, empty before its first choice (or
    None, which keeps nothing), that keeps the terms the chunk's choices
    share, per side: the flipped conormals, the diagonal block of each n_D
    array (Choices 1, 2, 4 and 4T all take n_D- = n-), the normal
    derivative of each trace along each conormal array (g- . n- serves
    those diagonals and the off blocks of Choices 1 and 2) and each
    weighted product of a derivative with a trace.  A shared term is the
    expression the choice would evaluate, of the same arrays, so it has
    the same bits."""
    blocks = []
    for s, side in enumerate(sides):
        (own, other, (v_r, g_r), (v_n, g_n), n_own, n_other, b, w, mass_f,
         cross) = side

        def once(kind, vec, fn, *args):
            # fn(*args), made once per side, kind and array ``vec``; the
            # entry keeps ``vec``, so no later array can take its id
            if shared is None:
                return fn(*args)
            key = (s, kind, id(vec))
            if key not in shared:
                shared[key] = (vec, fn(*args))
            return shared[key][1]

        n_d, n_e_own, n_e_oth = _resolve_batch(
            tag, n_own, n_other, lambda v: once("-", v, np.negative, v))
        dn_d = once("g_r", n_d, np.einsum, "eknd,ed->ekn", g_r, n_d)
        diag = once("diag", n_d, _diagonal_block, w, v_r, dn_d, b, mass_f)
        dr = once("g_r", n_e_own, np.einsum, "eknd,ed->ekn", g_r, n_e_own)
        dn = once("g_n", n_e_oth, np.einsum, "eknd,ed->ekn", g_n, n_e_oth)
        off = 0.5 * (
            once("v_n", dr, np.einsum, "ek,ekj,eki->eij", w, v_n, dr)
            + once("v_r", dn, np.einsum, "ek,eki,ekj->eij", w, v_r, dn))
        # 4T weights the cross mass by beta n+ . n-, the others by -beta
        cross_w = (b * np.einsum("ed,ed->e", n_own, n_other)
                   if tag == "4T" else -b)
        off += cross_w[:, None, None] * cross
        blocks += [(diag, own, own), (off, own, other)]
    return blocks


def _diagonal_block(w, v_r, dn_d, b, mass_f) -> np.ndarray:
    """The diagonal face block from the weights |e| w_k, the own trace,
    its derivative along n_D, beta_e and the face mass."""
    return (-0.5) * (np.einsum("ek,ekj,eki->eij", w, v_r, dn_d)
                     + np.einsum("ek,eki,ekj->eij", w, v_r, dn_d)) \
        + b[:, None, None] * mass_f


def _chunk_csr(blocks, lo, hi, n, dofs, idx) -> sp.csr_matrix:
    """scipy's CSR conversion of the triplets of ``blocks``, whose row
    elements lie in lo..hi-1, as the rows of those elements; the blocks
    are dropped once copied."""
    import scipy.sparse as sp
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


def assemble_mass_stiffness(space: DgSpace) -> SparseSystem:
    """Volume-only operator (broken stiffness + mass), no face terms; a
    reference, in one conversion of its whole block stream."""
    rule = get_quadrature("triangle", _quad_degrees(space.degree)[0])
    m = len(space.mesh.triangles)
    elems = np.arange(m)
    return SparseSystem(matrix=_chunk_csr(
        [(_volume_block(space, rule), elems, elems)], 0, m,
        space.dofs_per_element, space.total_dofs, np.int64))


def assemble_penalty_matrix(space: DgSpace, penalty: PenaltyParams
                            ) -> SparseSystem:
    """Jump-penalty part alone: beta (u+ - u-)(v+ - v-) on every
    intersection (the standard penalty of Choices 1 to 4); a reference, in
    one conversion of its whole block stream."""
    seg_rule = get_quadrature("segment", _quad_degrees(space.degree)[1])
    m, ids = len(space.mesh.triangles), np.arange(len(space.mesh.edges))
    blocks = []
    for own, other, *_, b, _w, mass_f, cross in _chunk_faces(
            space, seg_rule, *_face_weights(space, penalty, seg_rule), 0, m,
            (ids, ids)):
        b = b[:, None, None]
        blocks += [(b * mass_f, own, own), (-b * cross, own, other)]
    return SparseSystem(matrix=_chunk_csr(
        blocks, 0, m, space.dofs_per_element, space.total_dofs, np.int64))


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
    import scipy.sparse as sp
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
