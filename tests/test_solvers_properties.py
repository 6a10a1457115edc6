"""Property tests of the Krylov solvers' one input path and their
row-block product."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import dziuk_space, perturbed_mesh, product_spans

from surfdg import _pool, solvers
from surfdg.assembly import CHOICES, PenaltyParams, _sparse, \
    assemble_system, check_symmetry
from surfdg.dgspace import DgSpace

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

FLOATS = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def csr_and_vector(draw):
    """A float CSR matrix with rows of 0-6 stored entries, each column
    index drawn at random (so unsorted, with duplicates) unless the
    matrix is made canonical, its index arrays as int32 or int64, and a
    vector to multiply."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(1, 40))
    counts = draw(st.lists(st.integers(0, 6), min_size=rows, max_size=rows))
    indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    nnz = int(indptr[-1])
    indices = draw(arrays(np.int64, nnz, elements=st.integers(0, cols - 1)))
    data = draw(arrays(np.float64, nnz, elements=FLOATS))
    a = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
    if draw(st.booleans()):
        a.sum_duplicates()  # sorts each row and merges its duplicates
    index = draw(st.sampled_from((np.int32, np.int64)))
    a.indices, a.indptr = a.indices.astype(index), a.indptr.astype(index)
    return a, draw(arrays(np.float64, cols, elements=FLOATS))


@settings(max_examples=200, deadline=None)
@given(case=csr_and_vector(), blocks=st.integers(1, 4))
def test_block_product_equals_scipy_product(case, blocks):
    """Forced to 1-4 row blocks (as many usable CPUs, a floor of one
    stored entry per block; fewer where ``a`` stores fewer entries), the
    product hands ``_pool._run_chunks`` blocks that cover every row once,
    in order, and gives the bits of ``a @ x``."""
    a, x = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "_usable_cpus", lambda: blocks)
        mp.setattr(_pool, "_PRODUCT_FLOOR", 1)
        spans, y = product_spans(solvers._product(a), x)
    assert len(spans) == max(1, min(blocks, a.nnz))
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == a.shape[0]
    assert all(lo <= hi for lo, hi in spans)
    assert y.tobytes() == (a @ x).tobytes()


@st.composite
def integer_system(draw):
    """A dense n x n matrix of small integers, symmetric and strictly
    diagonally dominant (so SPD) unless an upper-triangular part is added,
    and a right-hand side; every form of it then holds the same values
    exactly."""
    n = draw(st.integers(1, 12))
    s = draw(arrays(np.int64, (n, n), elements=st.integers(-3, 3)))
    s *= draw(arrays(np.bool_, (n, n)))
    a = s + s.T
    a += np.diag(np.abs(a).sum(axis=1) + 1)
    if not draw(st.booleans()):
        a += np.triu(draw(arrays(np.int64, (n, n),
                                 elements=st.integers(0, 2))), 1)
    return a.astype(float), draw(arrays(np.float64, n, elements=FLOATS))


def stored(dense, rng, duplicates):
    """``dense`` as a float CSR matrix whose rows hold their entries in a
    random order, each split into two stored entries with ``duplicates``."""
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    if duplicates:  # v = (v - 1) + 1, exact for small integers
        rows, cols = np.tile(rows, 2), np.tile(cols, 2)
        vals = np.concatenate([vals - 1.0, np.ones(len(vals))])
    order = np.lexsort((rng.random(len(rows)), rows))
    n = len(dense)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))


FORMS = {
    "dense": lambda d, rng: d,
    "csc": lambda d, rng: sp.csc_matrix(d),
    "coo": lambda d, rng: sp.coo_matrix(d),
    "int-csr": lambda d, rng: sp.csr_matrix(d.astype(np.int64)),
    "unsorted-csr": lambda d, rng: stored(d, rng, False),
    "duplicate-csr": lambda d, rng: stored(d, rng, True),
}


def outcome(fn, *args, **kwargs):
    """The bits of a solve or a symmetry defect, or the refusal."""
    try:
        out = fn(*args, **kwargs)
    except Exception as e:
        return type(e), str(e)
    if isinstance(out, float):
        return np.float64(out).tobytes()
    return (out.solution.tobytes(), out.iterations,
            np.float64(out.final_relative_residual).tobytes(), out.converged)


@pytest.mark.parametrize("form", FORMS)
@settings(max_examples=60, deadline=None)
@given(case=integer_system(), seed=st.integers(0, 2**32 - 1),
       precond=st.sampled_from(("none", "jacobi")))
def test_other_input_is_its_csr(form, case, seed, precond):
    """Every input form is taken as ``_sparse``'s float64 CSR matrix of
    it: the same values, the input itself where it is float64 CSR already
    (unsorted or with duplicates too), and the bits of ``cg``,
    ``bicgstab`` and ``check_symmetry`` (or their refusal) on that
    matrix.  The defect is the exact one of the integer matrix."""
    dense, b = case
    m = FORMS[form](dense, np.random.default_rng(seed))
    a = _sparse(m)
    assert a.format == "csr" and a.dtype == np.float64
    assert (a is m) == (form in ("unsorted-csr", "duplicate-csr"))
    assert np.array_equal(a.toarray(), dense)
    for solve in (solvers.cg, solvers.bicgstab):
        assert (outcome(solve, m, b, precond=precond)
                == outcome(solve, a, b, precond=precond))
    defect = outcome(check_symmetry, m)
    assert defect == outcome(check_symmetry, a)
    assert defect == np.float64(np.abs(dense - dense.T).max()).tobytes()


def test_only_canonical_square_block_bsr_is_taken_as_itself():
    """A float64 BSR matrix with square blocks in canonical format is
    taken as itself; one with oblong blocks, unsorted block columns or
    integer entries becomes the float64 CSR matrix of its values, with
    the symmetry defect of the dense matrix."""
    dense = np.arange(36.0).reshape(6, 6)
    square = sp.bsr_matrix(dense, blocksize=(3, 3))
    assert square.has_canonical_format and _sparse(square) is square
    swapped = np.array([1, 0, 1, 0], dtype=square.indices.dtype)
    unsorted = sp.bsr_matrix((square.data[[1, 0, 3, 2]], swapped,
                              square.indptr), shape=(6, 6))
    others = (sp.bsr_matrix(dense, blocksize=(2, 3)), unsorted,
              sp.bsr_matrix(dense.astype(np.int64), blocksize=(3, 3)))
    for m in others:
        a = _sparse(m)
        assert a.format == "csr" and a.dtype == np.float64
        assert np.array_equal(a.toarray(), dense)
    for m in (square, *others):
        assert check_symmetry(m) == np.abs(dense - dense.T).max()


def test_complex_input_is_refused():
    """A complex matrix, sparse or dense, is refused by name before any
    solve or check, even with a zero imaginary part."""
    for m in (np.eye(3, dtype=complex), sp.csr_matrix(np.eye(3) * 1j)):
        for call in (lambda: _sparse(m), lambda: check_symmetry(m),
                     lambda: solvers.cg(m, np.ones(3)),
                     lambda: solvers.bicgstab(m, np.ones(3))):
            with pytest.raises(ValueError, match="^complex matrix"):
                call()


def test_assembled_matrix_is_never_copied():
    """An assembled matrix, bare or in its ``SparseSystem``, is taken as
    the same object by the solvers' set-up."""
    system = assemble_system(dziuk_space(1, 1), 2, PenaltyParams())
    assert _sparse(system) is system.matrix
    assert _sparse(system.matrix) is system.matrix
    b = np.ones(system.matrix.shape[0])
    assert solvers._setup(system, b, 1e-10, "jacobi")[0] is system.matrix


def test_dense_input_multiplies_its_csr_conversion(monkeypatch):
    """The solvers take a dense matrix as its CSR conversion, which is
    below the floor at the sizes given densely, so one block; forced
    past the floor, it is split like any CSR matrix, with its bits."""
    dense = np.random.default_rng(2).standard_normal((30, 30))
    b = np.ones(30)
    x = np.random.default_rng(3).standard_normal(30)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 4)
    a, product = solvers._setup(dense, b, 1e-10, None)[:2]
    assert a.format == "csr" and product_spans(product, x)[0] == [(0, 30)]
    monkeypatch.setattr(_pool, "_PRODUCT_FLOOR", 1)
    a, product = solvers._setup(dense, b, 1e-10, None)[:2]
    spans, y = product_spans(product, x)
    assert len(spans) == 4
    assert y.tobytes() == (a @ x).tobytes()


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk")), nonconforming=st.booleans(),
       seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.15),
       choice=st.sampled_from(CHOICES))
def test_p2_blocks_keep_the_bits_of_their_csr_form(name, nonconforming, seed,
                                                   amplitude, choice):
    """A P2 matrix, stored in (6, 6) blocks and taken by ``_sparse`` as
    itself, gives the bits of its CSR form: its product split into 1, 2
    or 3 forced row blocks, its symmetry defect (Choice 1's too), and the
    ``cg`` and ``bicgstab`` solutions or their refusal."""
    space = DgSpace(perturbed_mesh(name, seed, amplitude, nonconforming), 2)
    a = assemble_system(space, choice, PenaltyParams()).matrix
    assert a.format == "bsr" and a.blocksize == (6, 6)
    assert _sparse(a) is a
    csr = a.tocsr()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(a.shape[1])
    for blocks in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_usable_cpus", lambda: blocks)
            mp.setattr(_pool, "_PRODUCT_FLOOR", a.nnz // blocks)
            spans, y = product_spans(solvers._product(a), x)
        assert len(spans) == blocks
        assert spans[-1][1] == a.shape[0] // 6
        assert y.tobytes() == (csr @ x).tobytes()
    assert outcome(check_symmetry, a) == outcome(check_symmetry, csr)
    b = rng.standard_normal(a.shape[0])
    for solve in (solvers.cg, solvers.bicgstab):
        assert (outcome(solve, a, b, precond="jacobi")
                == outcome(solve, csr, b, precond="jacobi"))
