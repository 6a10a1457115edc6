"""CG and BiCGSTAB with true-residual certification."""

import os
import sys
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


def force_parts(monkeypatch, n, parts):
    """Make CG split its vector updates of ``n`` entries into ``parts``
    slices: as many usable CPUs, and a floor of entries per slice that
    ``n`` meets ``parts`` times."""
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(_pool, "_VECTOR_FLOOR", n // parts)


def stage_slices(monkeypatch):
    """The slices of every ``_pool._run_chunks`` stage over ``slice``
    items (the CG vector updates; a product's items are row spans), read
    from a spy on it, in call order."""
    seen = []
    run = _pool._run_chunks

    def spy(fn, slices):
        slices = list(slices)
        if slices and isinstance(slices[0], slice):
            seen.append(slices)
        run(fn, slices)
    monkeypatch.setattr(_pool, "_run_chunks", spy)
    return seen


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


@pytest.mark.parametrize("solve", [cg, bicgstab], ids=["cg", "bicgstab"])
@pytest.mark.parametrize("max_iter", [1.5, True, False, -1, np.nan, "3",
                                      np.float64(3.0)],
                         ids=["fraction", "true", "false", "negative", "nan",
                              "string", "float64"])
def test_max_iter_not_a_count_refused_before_iterating(solve, max_iter):
    """A ``max_iter`` that is not a non-negative int (nor a bool) is
    refused by name before the first preconditioner call: 1.5 used to run
    2 iterations and True 1, -1 and NaN to return an unconverged report
    after none, and "3" to raise a raw TypeError."""
    a, b = random_spd(50, 1, cond=1e6)
    applied = []

    def precond(v):
        applied.append(v)
        return v

    with pytest.raises(SolverError) as err:
        solve(a, b, tol=1e-14, max_iter=max_iter, precond=precond)
    assert type(err.value) is SolverError
    assert str(err.value) == \
        f"max_iter must be a non-negative integer, got {max_iter!r}"
    assert not applied


@pytest.mark.parametrize("solve", [cg, bicgstab], ids=["cg", "bicgstab"])
def test_max_iter_counts_are_accepted(solve):
    """0 runs no iteration; a numpy integer counts as its int."""
    a, b = random_spd(50, 1, cond=1e6)
    assert solve(a, b, tol=1e-14, max_iter=0).iterations == 0
    rep = solve(a, b, tol=1e-14, max_iter=np.int64(3))
    assert rep.iterations == solve(a, b, tol=1e-14, max_iter=3).iterations
    assert rep.iterations <= 3


def _nan_from(call):
    """A preconditioner that returns its argument, and NaN everywhere from
    its ``call``-th call (0-based) on."""
    calls = []

    def nan_from(v):
        calls.append(1)
        return v if len(calls) <= call else np.full_like(v, np.nan)
    return nan_from


@pytest.mark.parametrize("solve, call, message", [
    (cg, 0, "non-finite r^T z = nan at iteration 0"),
    (cg, 3, "non-finite r^T z = nan at iteration 3"),
    (bicgstab, 0, "non-finite r_hat^T A ph = nan at iteration 0"),
    (bicgstab, 1, "non-finite t^T t = nan at iteration 1"),
    (bicgstab, 4, "non-finite r_hat^T A ph = nan at iteration 2"),
], ids=["cg-first", "cg-later", "bicgstab-first", "bicgstab-omega",
        "bicgstab-later"])
def test_non_finite_preconditioned_value_refused(solve, call, message):
    """A preconditioner that returns NaN is refused at the first dot
    product that sees it, by name and iteration, instead of running all
    10 n iterations to an unconverged report without a message."""
    a, b = random_spd(50, 1, cond=1e6)
    precond = _nan_from(call)
    with pytest.raises(SolverError) as err:
        solve(a, b, precond=precond)
    assert type(err.value) is SolverError
    assert str(err.value) == (
        f"{message} with preconditioner "
        "_nan_from.<locals>.nan_from")


@pytest.mark.parametrize("solve", [cg, bicgstab], ids=["cg", "bicgstab"])
@pytest.mark.parametrize("shape", [(49,), (50, 1), ()],
                         ids=["short", "column", "scalar"])
def test_misshaped_preconditioned_vector_refused(solve, shape):
    """A preconditioner whose first vector has another shape than its
    argument is refused by name, not by a raw numpy error."""
    a, b = random_spd(50, 1, cond=1e6)

    def misshaped(v):
        return np.ones(shape)

    with pytest.raises(SolverError) as err:
        solve(a, b, precond=misshaped)
    assert type(err.value) is SolverError
    assert str(err.value) == (
        f"preconditioner {misshaped.__qualname__} gave shape {shape} for a "
        "vector of shape (50,) at iteration 0")


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


def _textbook_cg(a, b, tol, max_iter, m, restarts=None):
    """The CG loop with a new vector for every update: the reference for
    the in-place loop of ``cg``; the iterations that restart from the
    true residual are appended to ``restarts``."""
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
            if restarts is not None:
                restarts.append(it)
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


def split_vectors(cases, parts=(2, 3)):
    """The cases of ``split`` with no forced vector parts (None), then
    each CG case with its products and its vector updates forced into
    each count of ``parts``, with "-<count>-parts" appended to its id."""
    return ([pytest.param(*case.values, None, id=case.id)
             for case in split(cases)]
            + [pytest.param(*case, k, k, id=f"{name}-{k}-parts")
               for k in parts for name, case in cases if case[0] is cg])


@pytest.mark.parametrize("solve, textbook, choice, blocks, parts",
                         split_vectors([
                             ("cg-_textbook_cg-2", (cg, _textbook_cg, 2)),
                             ("bicgstab-_textbook_bicgstab-1",
                              (bicgstab, _textbook_bicgstab, 1))]))
@pytest.mark.parametrize("precond", ["jacobi", "none", "callable"])
def test_solvers_equal_textbook_loops(monkeypatch, solve, textbook, choice,
                                      precond, blocks, parts):
    """On a 3-refinement Dziuk system the in-place loops give the textbook
    loops' solution, iteration count and residual bit for bit, also when
    the preconditioner hands back its argument or is a callable (which
    CG applies whole, between its stages), also when every product is
    split into 2 or 3 row blocks (None: the default, one block below the
    floor), and also when CG splits its vector updates into as many
    slices as well."""
    system, b = _dziuk_system(3, 1, choice)
    a = system.matrix
    if blocks:
        force_blocks(monkeypatch, a, blocks)
    if parts:
        force_parts(monkeypatch, len(b), parts)
    stages = stage_slices(monkeypatch)
    m = jacobi_precondition(a) if precond != "none" else (lambda v: v)
    rep = solve(system, b, tol=1e-10,
                precond=m if precond == "callable" else precond)
    x, it, rel = textbook(a, b, 1e-10, 10 * len(b), m)
    assert rep.converged
    assert np.array_equal(rep.solution, x)
    assert (rep.iterations, rep.final_relative_residual) == (it, rel)
    if solve is cg:  # two stages per iteration, the converged last one
        assert len(stages) == 2 * it - 1  # only steps x, r and z
        cut = [range(len(b))[s] for s in stages[0]]
        assert len(cut) == (parts or 1)
        assert [i for part in cut for i in part] == list(range(len(b)))
        assert all(slices == stages[0] for slices in stages)
    else:
        assert not stages


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


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("precond", ["jacobi", "none"])
def test_cg_restarts_keep_their_bits_with_split_vectors(monkeypatch, parts,
                                                        precond):
    """Near roundoff the recurrence residual passes where the true one
    does not, so CG restarts from the true residual; with its products
    and vector updates split into 2 or 3 parts (3 workers on fewer
    cores, under a short thread switch interval) it gives the bits of
    the unsplit loop and of the textbook one."""
    for seed in range(3):
        dense, b = random_spd(40, seed, cond=1e4)
        a = sp.csr_matrix(dense)
        m = jacobi_precondition(a) if precond == "jacobi" else (lambda v: v)
        restarts = []
        x, it, rel = _textbook_cg(a, b, 1e-13, 400, m, restarts)
        assert restarts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_usable_cpus", lambda: 1)
            whole = cg(a, b, tol=1e-13, max_iter=400, precond=precond)
        with pytest.MonkeyPatch.context() as mp:
            force_blocks(mp, a, parts)
            force_parts(mp, len(b), parts)
            stages = stage_slices(mp)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                split_rep = cg(a, b, tol=1e-13, max_iter=400,
                               precond=precond)
            finally:
                sys.setswitchinterval(interval)
        # two stages per iteration, less the second one of a converged
        # last iteration; a restart adds none
        assert len(stages) == 2 * it - split_rep.converged
        assert all(len(slices) == parts for slices in stages)
        for rep in (whole, split_rep):
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
