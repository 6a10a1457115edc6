"""Property tests of the row-block product of the Krylov solvers."""

import numpy as np
import pytest
import scipy.sparse as sp

from surfdg import _pool, solvers

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
    """Any split into 1-4 row blocks gives the bits of ``a @ x``: blocks
    of about equal stored entries that cover every row once, in order."""
    a, x = case
    product = solvers._RowBlockProduct(a, blocks)
    bounds = product.bounds
    assert len(bounds) == blocks + 1
    assert bounds[0] == 0 and bounds[-1] == a.shape[0]
    assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))
    assert product(x).tobytes() == (a @ x).tobytes()


@pytest.mark.parametrize("convert", [sp.csc_matrix, sp.coo_matrix,
                                     lambda d: sp.csr_matrix(d, dtype=int)],
                         ids=["csc", "coo", "int-csr"])
def test_other_sparse_input_is_one_block(monkeypatch, convert):
    """A sparse matrix that is not a float CSR one is multiplied by scipy
    as one block, whatever the CPUs and the floor allow."""
    dense = np.random.default_rng(0).integers(-3, 4, (30, 30)).astype(float)
    a = convert(dense)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_pool, "_PRODUCT_FLOOR", 1)
    product = solvers._product(a)
    assert product.bounds == [0, 30]
    x = np.random.default_rng(1).standard_normal(30)
    assert product(x).tobytes() == (a @ x).tobytes()


def test_dense_input_multiplies_its_csr_conversion(monkeypatch):
    """The solvers take a dense matrix as its CSR conversion, which is
    below the floor at the sizes given densely, so one block; forced
    past the floor, it is split like any CSR matrix, with its bits."""
    dense = np.random.default_rng(2).standard_normal((30, 30))
    b = np.ones(30)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 4)
    a, product = solvers._setup(dense, b, None)[:2]
    assert a.format == "csr" and product.bounds == [0, 30]
    monkeypatch.setattr(_pool, "_PRODUCT_FLOOR", 1)
    a, product = solvers._setup(dense, b, None)[:2]
    assert len(product.bounds) == 5
    x = np.random.default_rng(3).standard_normal(30)
    assert product(x).tobytes() == (a @ x).tobytes()
