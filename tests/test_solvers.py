"""CG and BiCGSTAB with true-residual certification."""

import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import dziuk_space, finishes_in_child, product_spans, \
    traced_bytes

from surfdg import _pool, solvers
from surfdg.assembly import PenaltyParams, assemble_rhs, assemble_system
from surfdg.dgspace import DgSpace
from surfdg.geometry import make_sphere
from surfdg.mesh import initial_mesh
from surfdg.problems import make_problem
from surfdg.solvers import (
    BreakdownError,
    IndefiniteSystemError,
    NonSymmetricMatrixError,
    SolverError,
    bicgstab,
    cg,
    jacobi_precondition,
)


def force_blocks(monkeypatch, a, blocks):
    """Make the solvers split every product with ``a`` into ``blocks`` row
    blocks, whatever the CPUs: as many usable CPUs, and a floor of
    stored entries per block that ``a`` meets ``blocks`` times."""
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: blocks)
    monkeypatch.setattr(_pool, "_PRODUCT_FLOOR", a.nnz // blocks)
    spans = product_spans(solvers._product(a), np.zeros(a.shape[1]))[0]
    assert len(spans) == blocks


def tridiagonal(n):
    return sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


def random_spd(n, seed, cond=100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, cond, n)
    return (q * lam) @ q.T, rng.standard_normal(n)


def test_cg_two_by_two():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    rep = cg(a, b)
    assert rep.converged
    assert np.allclose(rep.solution, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)
    assert rep.final_relative_residual <= 1e-10


def test_cg_identity_one_iteration():
    rep = cg(np.eye(5), np.arange(1.0, 6.0))
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, np.arange(1.0, 6.0), atol=1e-14)


def test_cg_zero_rhs_trivial():
    rep = cg(np.eye(4), np.zeros(4))
    assert rep.converged
    assert rep.iterations == 0
    assert np.all(rep.solution == 0.0)


def test_cg_rejects_nonsymmetric():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NonSymmetricMatrixError, match="defect"):
        cg(a, np.ones(2))


def test_cg_choice1_message_names_listed_defect():
    """CG refuses the non-symmetric Choice 1 matrix with the defect of the
    listed difference A - A^T in its message."""
    space = DgSpace(initial_mesh(make_sphere(), "icosahedron"), 1)
    a = assemble_system(space, 1, PenaltyParams()).matrix
    defect = float(np.abs((a - a.T).tocoo().data).max())
    scale = np.abs(a.data).max()
    with pytest.raises(NonSymmetricMatrixError) as err:
        cg(a, np.ones(a.shape[0]))
    assert str(err.value) == (f"matrix not symmetric: defect {defect:.3e} "
                              f"> 1e-10 * {scale:.3e}")


def test_cg_reports_indefiniteness():
    a = np.diag([1.0, -1.0])
    with pytest.raises(IndefiniteSystemError, match="stability bound"):
        cg(a, np.ones(2))


def test_cg_true_residual_certified():
    # seeded sweep; converged reports must satisfy the advertised bound
    for seed in range(8):
        a, b = random_spd(40, seed, cond=1e4)
        rep = cg(a, b, tol=1e-10)
        assert rep.converged
        true_rel = np.linalg.norm(b - a @ rep.solution) / np.linalg.norm(b)
        assert true_rel <= 1e-10
        # report recomputes through the sparse matvec; ulp-level gap only
        assert rep.final_relative_residual == pytest.approx(true_rel, abs=1e-13)


def test_cg_energy_error_monotone():
    """CG is a minimizer in the A-norm, so truncated runs form a
    monotone error sequence (the trajectory is deterministic)."""
    a, b = random_spd(25, 3)
    x_star = np.linalg.solve(a, b)
    errs = []
    for k in range(1, 26):
        xk = cg(a, b, tol=np.finfo(float).tiny, max_iter=k).solution
        e = x_star - xk
        errs.append(float(e @ a @ e))
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev * (1.0 + 1e-10) + 1e-14


def test_cg_max_iter_exhaustion_reports():
    a, b = random_spd(50, 1, cond=1e6)
    rep = cg(a, b, tol=1e-14, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.final_relative_residual > 1e-14


def test_jacobi_speeds_up_diagonal_dominance():
    lam = np.geomspace(1.0, 1e4, 30)
    a = np.diag(lam)
    b = np.ones(30)
    plain = cg(a, b, tol=1e-10)
    pre = cg(a, b, tol=1e-10, precond="jacobi")
    assert pre.converged and plain.converged
    assert pre.iterations <= plain.iterations
    assert pre.iterations == 1  # perfect preconditioner for a diagonal A


def test_jacobi_zero_diagonal():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SolverError, match="diagonal"):
        jacobi_precondition(sp.csr_matrix(a))
    with pytest.raises(SolverError, match="diagonal"):
        bicgstab(a, np.ones(2), precond="jacobi")


def test_setup_errors():
    with pytest.raises(SolverError, match="shape mismatch"):
        cg(np.eye(2), np.ones(3))
    for b in (None, np.ones((2, 1))):  # b is a vector of n entries
        with pytest.raises(SolverError, match="shape mismatch"):
            cg(np.eye(2), b)
    with pytest.raises(TypeError, match="'b'"):  # b is required
        cg(np.eye(2))
    with pytest.raises(SolverError, match="preconditioner"):
        cg(np.eye(2), np.ones(2), precond="ilu")


@pytest.mark.parametrize("solve", [cg, bicgstab], ids=["cg", "bicgstab"])
@pytest.mark.parametrize("operand, value", [("b", np.nan), ("b", np.inf),
                                            ("A", np.nan), ("A", np.inf),
                                            ("A", -np.inf)])
def test_non_finite_operand_refused_before_iterating(solve, operand, value):
    """A single NaN or inf in b or in A is refused by name before the
    first iteration, instead of running all 10 n iterations to a NaN
    residual; a NaN symmetry defect does not slip past CG's check."""
    n = 2000
    a = tridiagonal(n)
    b = np.ones(n)
    if operand == "b":
        b[n // 2] = value
    else:
        a.data[a.indptr[n // 2]] = value  # an off-diagonal entry
    applied = []

    def precond(v):
        applied.append(v)
        return v

    match = "non-finite matrix A" if operand == "A" \
        else "non-finite right-hand side b"
    with pytest.raises(SolverError, match=f"^{match}: "):
        solve(a, b, precond=precond)
    assert not applied  # each solver preconditions before its first step


@pytest.mark.parametrize("solve", [cg, bicgstab], ids=["cg", "bicgstab"])
@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf],
                         ids=["nan", "negative", "zero", "inf"])
def test_tol_not_positive_finite_refused_before_iterating(solve, tol):
    """A ``tol`` that is not a positive finite number is refused by name
    before the first preconditioner call: NaN or a negative one is never
    met (CG used to end in a false indefiniteness, BiCGSTAB in a
    breakdown), 0 runs all 10 n iterations and inf takes the first
    iterate."""
    applied = []

    def precond(v):
        applied.append(v)
        return v

    with pytest.raises(SolverError) as err:
        solve(tridiagonal(2000), np.ones(2000), tol=tol, precond=precond)
    assert type(err.value) is SolverError
    assert str(err.value) == \
        f"tol must be a positive finite number, got {tol!r}"
    assert not applied


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [cg, bicgstab], ids=["cg", "bicgstab"])
def test_overflowing_rhs_norm_refused_by_name(solve):
    """A right-hand side of finite entries whose norm overflows is refused
    as too large, with its largest entry, and without numpy's overflow
    warning (an error here); the norm of a b just below the overflow is
    the plain ``np.linalg.norm(b)``."""
    with pytest.raises(SolverError) as err:
        solve(np.eye(2), [1e200, -3e200])
    assert str(err.value) == (
        "right-hand side b too large: |b| overflows, though every entry "
        "is finite (max |b_i| = 3.000e+200)")
    for big in (1e154, -1.3e154):
        b = np.array([big, 1.0, -2.5])
        bnorm = solvers._setup(np.eye(3), b, 1e-10, None)[4]
        assert bnorm.hex() == np.linalg.norm(b).hex()
        assert solve(np.eye(3), b).converged


def test_bicgstab_nonsymmetric_system():
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    rep = bicgstab(a, np.array([3.0, 3.0]))
    assert rep.converged
    assert np.allclose(rep.solution, [1.0, 1.0], atol=1e-10)


def test_bicgstab_deterministic_breakdown():
    """The rotation matrix with r_hat orthogonal to A r stalls rho; after
    one restart reproduces the same state, the solver must give up."""
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(BreakdownError, match="breakdown"):
        bicgstab(a, np.array([1.0, 0.0]))


def test_solvers_agree_on_spd():
    a, b = random_spd(40, 12)
    x1 = cg(a, b, tol=1e-12).solution
    x2 = bicgstab(a, b, tol=1e-12).solution
    assert np.linalg.norm(x1 - x2) <= 1e-8 * np.linalg.norm(x1)


def test_solvers_consume_assembled_system():
    """Both solvers accept a SparseSystem and its assembled rhs."""
    sph = make_sphere()
    mesh = initial_mesh(sph, "icosahedron")
    space = DgSpace(mesh, 1)
    sys_ = assemble_system(space, 2, PenaltyParams(sigma=2.0))
    b = assemble_rhs(space, sph, lambda x: 7.0 * x[:, 0] * x[:, 1])
    rep_cg = cg(sys_, b, precond="jacobi")
    rep_bi = bicgstab(sys_, b, precond="jacobi")
    assert rep_cg.converged and rep_bi.converged
    gap = np.linalg.norm(rep_cg.solution - rep_bi.solution)
    assert gap <= 1e-8 * np.linalg.norm(rep_cg.solution)


def _dziuk_system(refinements, degree, choice):
    space = dziuk_space(refinements, degree)
    problem = make_problem("dziuk")
    system = assemble_system(space, choice, PenaltyParams())
    return system, assemble_rhs(space, problem.surface, problem.f)


def _textbook_cg(a, b, tol, max_iter, m):
    """The CG loop with a new vector for every update: the reference for
    the in-place loop of ``cg``."""
    bnorm = np.linalg.norm(b)
    x = np.zeros(len(b))
    r = b.copy()
    z = m(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while it < max_iter:
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        it += 1
        if np.linalg.norm(r) <= tol * bnorm:
            true_r = b - a @ x
            rel = np.linalg.norm(true_r) / bnorm
            if rel <= tol:
                return x, it, float(rel)
            r = true_r
        z = m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, it, float(np.linalg.norm(b - a @ x) / bnorm)


def _textbook_bicgstab(a, b, tol, max_iter, m):
    """The BiCGSTAB loop with a new vector for every update (no breakdown
    handling): the reference for the in-place loop of ``bicgstab``."""
    bnorm = np.linalg.norm(b)
    x = np.zeros(len(b))
    r = b.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(len(b))
    p = np.zeros(len(b))
    it = 0
    while it < max_iter:
        rho_new = float(r_hat @ r)
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = m(p)
        v = a @ ph
        alpha = rho / float(r_hat @ v)
        s = r - alpha * v
        it += 1
        if np.linalg.norm(s) <= tol * bnorm:
            x += alpha * ph
            rel = float(np.linalg.norm(b - a @ x) / bnorm)
            if rel <= tol:
                return x, it, rel
            r = b - a @ x
            continue
        sh = m(s)
        t = a @ sh
        omega = float(t @ s) / float(t @ t)
        x += alpha * ph + omega * sh
        r = s - omega * t
        if np.linalg.norm(r) <= tol * bnorm:
            rel = float(np.linalg.norm(b - a @ x) / bnorm)
            if rel <= tol:
                return x, it, rel
            r = b - a @ x
    return x, it, float(np.linalg.norm(b - a @ x) / bnorm)


def split(cases, blocks=(2, 3)):
    """Each case as given (None: the default split), then forced into each
    count of row blocks, with "-<count>-blocks" appended to its id."""
    return ([pytest.param(*case, None, id=name) for name, case in cases]
            + [pytest.param(*case, k, id=f"{name}-{k}-blocks")
               for k in blocks for name, case in cases])


@pytest.mark.parametrize("solve, textbook, choice, blocks", split([
    ("cg-_textbook_cg-2", (cg, _textbook_cg, 2)),
    ("bicgstab-_textbook_bicgstab-1", (bicgstab, _textbook_bicgstab, 1))]))
@pytest.mark.parametrize("precond", ["jacobi", "none"])
def test_solvers_equal_textbook_loops(monkeypatch, solve, textbook, choice,
                                      precond, blocks):
    """On a 3-refinement Dziuk system the in-place loops give the textbook
    loops' solution, iteration count and residual bit for bit, also when
    the preconditioner hands back its argument, and also when every
    product is split into 2 or 3 row blocks (None: the default, one block
    below the floor)."""
    system, b = _dziuk_system(3, 1, choice)
    a = system.matrix
    if blocks:
        force_blocks(monkeypatch, a, blocks)
    m = jacobi_precondition(a) if precond == "jacobi" else (lambda v: v)
    rep = solve(system, b, tol=1e-10, precond=precond)
    x, it, rel = textbook(a, b, 1e-10, 10 * len(b), m)
    assert rep.converged
    assert np.array_equal(rep.solution, x)
    assert (rep.iterations, rep.final_relative_residual) == (it, rel)


@pytest.mark.parametrize("solve, textbook, blocks", split([
    ("cg-_textbook_cg", (cg, _textbook_cg)),
    ("bicgstab-_textbook_bicgstab", (bicgstab, _textbook_bicgstab))]))
def test_restarts_equal_textbook_loops(monkeypatch, solve, textbook, blocks):
    """A tolerance near roundoff sends the solvers through their restarts
    from the true residual; the in-place restarts match the textbook
    ones, also with every product split into 2 or 3 row blocks."""
    for seed in range(3):
        dense, b = random_spd(40, seed, cond=1e4)
        a = sp.csr_matrix(dense)  # the matrix the solvers multiply with
        if blocks:
            force_blocks(monkeypatch, a, blocks)
        rep = solve(a, b, tol=1e-13, max_iter=400)
        x, it, rel = textbook(a, b, 1e-13, 400, lambda v: v)
        assert np.array_equal(rep.solution, x)
        assert (rep.iterations, rep.final_relative_residual) == (it, rel)


@pytest.mark.parametrize("degree, blocks", split(
    [("1", (1,)), ("2", (2,))], blocks=(2,)))
def test_cg_holds_no_matrix_sized_temporary(monkeypatch, degree, blocks):
    """With the symmetry check's chunk at 1/16 of the 4-refinement Dziuk
    matrix, Jacobi-CG peaks at two chunks plus eight vectors: it makes no
    copy of the matrix or of its entries, and keeps only the solution.
    Forced to two row blocks per product (one CPU otherwise), it peaks
    under the same bound, so the split copies no entry either."""
    a = _dziuk_system(4, degree, 2)[0].matrix
    chunk = a.nnz // 16
    monkeypatch.setattr(_pool, "_CHUNK_TRIPLETS", chunk)
    monkeypatch.setattr(_pool, "_PRODUCT_FLOOR", chunk)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: blocks or 1)
    spans = product_spans(solvers._product(a), np.zeros(a.shape[1]))[0]
    assert len(spans) == (blocks or 1)
    b = np.ones(a.shape[0])
    rep, peak, kept = traced_bytes(
        lambda: cg(a, b, max_iter=50, precond="jacobi"))
    assert rep.iterations == 50
    chunk_bytes = chunk * (a.data.itemsize + a.indices.itemsize)
    assert peak <= 2 * chunk_bytes + 8 * b.nbytes
    assert kept == b.nbytes


def test_product_pool_made_once_and_reused(monkeypatch):
    """The first product with two blocks makes the process-wide pool;
    later solves reuse it and its thread."""
    monkeypatch.setattr(_pool, "_shared", None)
    a = tridiagonal(2000)
    b = np.ones(2000)
    force_blocks(monkeypatch, a, 2)
    try:
        assert cg(a, b).converged
        pool = _pool._shared
        threads = threading.active_count()
        assert bicgstab(a, b).converged and cg(a, b).converged
        assert _pool._shared is pool
        assert threading.active_count() == threads
    finally:
        if _pool._shared is not None:
            _pool._shared[1].shutdown(wait=True)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_forked_child_makes_its_own_pool(monkeypatch):
    """A child forked after a split product inherits the pool object but
    not its thread; its own split products make a new pool instead of
    waiting forever on the inherited one."""
    a = tridiagonal(2000)
    b = np.ones(2000)
    force_blocks(monkeypatch, a, 2)
    assert cg(a, b).converged

    def solve_in_child():
        assert cg(a, b).converged

    finishes_in_child(solve_in_child)


@pytest.mark.parametrize("cpus, floor", [(1, 1), (4, None)],
                         ids=["one-cpu", "below-floor"])
def test_one_block_starts_no_thread(monkeypatch, cpus, floor):
    """With one usable CPU, or a matrix below the floor of stored entries
    per block, every product is one block in the calling thread: no pool
    is made and no thread starts."""
    monkeypatch.setattr(_pool, "_shared", None)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    if floor is not None:
        monkeypatch.setattr(_pool, "_PRODUCT_FLOOR", floor)
    a = tridiagonal(2000)
    assert a.nnz < _pool._PRODUCT_FLOOR or cpus == 1
    threads = threading.active_count()
    for solve in (cg, bicgstab):
        assert solve(a, np.ones(2000)).converged
    assert _pool._shared is None
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_split_product_inside_a_pooled_chunk(monkeypatch):
    """A product that two CPUs split into two blocks, called in both
    chunks of a two-worker ``_run_chunks`` stage, one of them on the
    pool's only thread, finishes (in a forked child, given 60 s) with the
    bits of ``A @ v`` in both, and starts no thread beyond the pool's: a
    block queued on the pool from that thread would wait on itself."""
    a = tridiagonal(2000)
    force_blocks(monkeypatch, a, 2)
    v = np.random.default_rng(3).standard_normal(2000)
    expected = (a @ v).tobytes()

    def nested():
        _pool._shared = None
        product = solvers._product(a)
        _pool._run_chunks(lambda k: None, range(2))  # makes the pool
        threads = threading.active_count()
        barrier = threading.Barrier(2, timeout=30)
        seen = {}

        def chunk(k):
            barrier.wait()  # so the two chunks run on two threads at once
            seen[k] = (product(v).tobytes(), threading.get_ident())
        _pool._run_chunks(chunk, range(2))
        assert sorted(seen) == [0, 1]
        assert len({thread for _, thread in seen.values()}) == 2
        assert all(y == expected for y, _ in seen.values())
        assert threading.active_count() == threads

    finishes_in_child(nested)
