"""CG and BiCGSTAB with true-residual certification."""

import numpy as np
import pytest

from surfdg.assembly import PenaltyParams, assemble_rhs, assemble_system
from surfdg.dgspace import DgSpace
from surfdg.geometry import make_sphere
from surfdg.mesh import initial_mesh
from surfdg.solvers import (
    BreakdownError,
    IndefiniteSystemError,
    NonSymmetricMatrixError,
    SolverError,
    bicgstab,
    cg,
    jacobi_precondition,
)


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
        xk = cg(a, b, tol=0.0, max_iter=k).solution
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
        jacobi_precondition(__import__("scipy.sparse", fromlist=["csr_matrix"]).csr_matrix(a))
    with pytest.raises(SolverError, match="diagonal"):
        bicgstab(a, np.ones(2), precond="jacobi")


def test_setup_errors():
    with pytest.raises(SolverError, match="shape mismatch"):
        cg(np.eye(2), np.ones(3))
    with pytest.raises(SolverError, match="right-hand side"):
        cg(np.eye(2))
    with pytest.raises(SolverError, match="preconditioner"):
        cg(np.eye(2), np.ones(2), precond="ilu")


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
    """Both solvers accept a SparseSystem and read its rhs."""
    sph = make_sphere()
    mesh = initial_mesh(sph, "icosahedron")
    space = DgSpace(mesh, 1)
    sys_ = assemble_system(space, 2, PenaltyParams(sigma=2.0))
    sys_.rhs = assemble_rhs(space, sph, lambda x: 7.0 * x[:, 0] * x[:, 1])
    rep_cg = cg(sys_, precond="jacobi")
    rep_bi = bicgstab(sys_, precond="jacobi")
    assert rep_cg.converged and rep_bi.converged
    gap = np.linalg.norm(rep_cg.solution - rep_bi.solution)
    assert gap <= 1e-8 * np.linalg.norm(rep_cg.solution)
