"""Krylov solvers for the assembled DG systems.

Hand-rolled CG and BiCGSTAB reference implementations with optional
Jacobi preconditioning.  Both refuse a ``tol`` that is not a positive
finite number, and a NaN or inf in A or b, before iterating.  CG refuses
non-symmetric input and reports
pAp <= 0 as indefiniteness, which in this package almost always means
the jump penalty was forced below its stability bound.  Convergence is
certified against the true residual b - Ax, not the recurrence residual.
Every product with A runs its row blocks through ``_pool._run_chunks``
and gives the bits of ``A @ v``.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from . import _pool
from .assembly import _sparse, check_symmetry

_SYM_RTOL = 1e-10


class SolverError(RuntimeError):
    pass


class NonSymmetricMatrixError(SolverError):
    pass


class IndefiniteSystemError(SolverError):
    pass


class BreakdownError(SolverError):
    pass


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    final_relative_residual: float
    converged: bool


def jacobi_precondition(matrix):
    """v -> v / diag(A), as the entrywise product with 1/diag(A)."""
    d = _sparse(matrix).diagonal()
    if np.any(d == 0.0):
        raise SolverError("zero diagonal entry; Jacobi preconditioner "
                          "undefined")
    inv_diag = 1.0 / d
    return lambda v: inv_diag * v


def _product(a):
    """v -> A v with the bits of ``A @ v``.  A's rows are cut once into
    contiguous blocks of about equal stored entries
    (``_pool._row_blocks``): one per usable CPU, with at least
    ``_pool._PRODUCT_FLOOR`` entries each.  Each product zeroes one
    output vector and hands the blocks to ``_pool._run_chunks``; a block
    runs scipy's ``csr_matvec``, the kernel of ``A @ v``, on the slice
    ``indptr[lo:hi + 1]`` over A's own ``data`` and ``indices`` into its
    slice of the output.  So no entry is copied, and every row keeps its
    one sum in stored order.  ``a`` is a float64 CSR matrix, as
    ``_sparse`` gives every solver input."""
    blocks = max(1, min(_pool._usable_cpus(), a.nnz // _pool._PRODUCT_FLOOR))
    bounds = _pool._row_blocks(a.indptr, blocks)
    spans = list(zip(bounds[:-1], bounds[1:]))

    def product(v):
        y = np.zeros(a.shape[0])

        def rows(span):
            lo, hi = span
            csr_matvec(hi - lo, a.shape[1], a.indptr[lo:hi + 1], a.indices,
                       a.data, v, y[lo:hi])
        _pool._run_chunks(rows, spans)
        return y
    return product


def _setup(system, b, tol, precond):
    # a NaN or negative tol is never met, so CG would end in a false
    # indefiniteness and BiCGSTAB in a breakdown; 0 runs every iteration,
    # and inf takes the first iterate
    if isinstance(tol, bool) or not isinstance(tol, Real) \
            or not 0.0 < tol < np.inf:
        raise SolverError(f"tol must be a positive finite number, got "
                          f"{tol!r}")
    a = _sparse(system)
    b = np.asarray(b, dtype=float)
    if a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise SolverError(f"shape mismatch: A {a.shape}, b {b.shape}")
    # a NaN or inf in either operand would run every iteration to a NaN
    # residual; the largest |a_ij| is found without an |A| copy of the
    # entries, and it is CG's symmetry scale
    with np.errstate(over="ignore"):  # a finite b may overflow its norm
        bnorm = np.linalg.norm(b)
    scale = np.maximum(a.data.max(), -a.data.min()) if a.nnz else 0.0
    if not np.isfinite(scale):
        raise SolverError(f"non-finite matrix A: max |a_ij| = {scale}")
    if not np.isfinite(bnorm):
        bmax = np.maximum(b.max(), -b.min())
        if np.isfinite(bmax):
            raise SolverError(
                f"right-hand side b too large: |b| overflows, though every "
                f"entry is finite (max |b_i| = {bmax:.3e})")
        raise SolverError(f"non-finite right-hand side b: |b| = {bnorm}")
    if precond in (None, "none"):
        m = lambda v: v
    elif precond == "jacobi":
        m = jacobi_precondition(a)
    elif callable(precond):
        m = precond
    else:
        raise SolverError(f"unknown preconditioner {precond!r}")
    return a, _product(a), b, m, bnorm, scale


def cg(system, b, tol: float = 1e-10, max_iter: int | None = None,
       precond="none") -> SolveReport:
    """Preconditioned conjugate gradients; symmetric input only.

    ``tol`` is relative to |b|; ``max_iter`` defaults to 10 n.  The
    returned residual is the true relative residual.
    """
    a, product, b, m, bnorm, scale = _setup(system, b, tol, precond)
    defect = check_symmetry(a)
    if defect > _SYM_RTOL * scale:
        raise NonSymmetricMatrixError(
            f"matrix not symmetric: defect {defect:.3e} > "
            f"{_SYM_RTOL:.0e} * {scale:.3e}")
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n)
    if bnorm == 0.0:
        return SolveReport(x, 0, 0.0, True)
    # the work vectors x, r and p are updated in place, in the operations
    # of x += alpha p, r -= alpha Ap and p = z + beta p; Ap and z are the
    # only vectors made per iteration (z may be r itself)
    r = b.copy()
    z = m(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while it < max_iter:
        ap = product(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteSystemError(
                f"p^T A p = {pap:.3e} <= 0 at iteration {it}; system is "
                "not positive definite (penalty weight below the "
                "stability bound?)")
        alpha = rz / pap
        r -= np.multiply(ap, alpha, out=ap)
        x += np.multiply(p, alpha, out=ap)  # Ap is spent: the scratch
        del ap
        it += 1
        if np.linalg.norm(r) <= tol * bnorm:
            np.subtract(b, product(x), out=r)
            rel = np.linalg.norm(r) / bnorm
            if rel <= tol:
                return SolveReport(x, it, float(rel), True)
            # recurrence drifted; restart from the true residual in r
        z = m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    rel = float(np.linalg.norm(b - product(x)) / bnorm)
    return SolveReport(x, it, rel, rel <= tol)


def bicgstab(system, b, tol: float = 1e-10,
             max_iter: int | None = None, precond="none") -> SolveReport:
    """Preconditioned BiCGSTAB for general square systems.

    A rho or omega breakdown restarts once from the current residual;
    a second breakdown raises BreakdownError.
    """
    _, product, b, m, bnorm, _ = _setup(system, b, tol, precond)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n)
    if bnorm == 0.0:
        return SolveReport(x, 0, 0.0, True)

    # the work vectors x, r, r_hat, p, s and w are updated in place, in
    # the operations of the textbook updates; v = A ph and t = A sh are
    # made per iteration, and ph and sh may be p and s themselves
    restarts = 0
    r = b.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    s = np.empty(n)
    w = np.empty(n)
    it = 0

    def true_residual():
        """r = b - A x, and its norm relative to |b|."""
        np.subtract(b, product(x), out=r)
        return float(np.linalg.norm(r) / bnorm)

    def breakdown(what):
        nonlocal restarts, rho, alpha, omega
        if restarts >= 1:
            raise BreakdownError(
                f"{what} breakdown at iteration {it} after restart")
        restarts += 1
        true_residual()
        r_hat[:] = r
        rho = alpha = omega = 1.0
        v.fill(0.0)
        p.fill(0.0)

    while it < max_iter:
        rho_new = float(r_hat @ r)
        if abs(rho_new) < 1e-300:
            breakdown("rho")
            continue
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        # p = r + beta (p - omega v)
        p -= np.multiply(v, omega, out=w)
        p *= beta
        p += r
        ph = m(p)
        v = product(ph)
        rv = float(r_hat @ v)
        if abs(rv) < 1e-300:
            breakdown("rho")
            continue
        alpha = rho / rv
        np.subtract(r, np.multiply(v, alpha, out=s), out=s)
        it += 1
        if np.linalg.norm(s) <= tol * bnorm:
            x += np.multiply(ph, alpha, out=w)
            rel = true_residual()
            if rel <= tol:
                return SolveReport(x, it, rel, True)
            continue
        sh = m(s)
        t = product(sh)
        tt = float(t @ t)
        if tt == 0.0:
            breakdown("omega")
            continue
        omega = float(t @ s) / tt
        if omega == 0.0:
            breakdown("omega")
            continue
        # x += alpha ph + omega sh, then r = s - omega t; r is spent and
        # serves as the second scratch vector
        np.multiply(ph, alpha, out=w)
        w += np.multiply(sh, omega, out=r)
        x += w
        np.subtract(s, np.multiply(t, omega, out=t), out=r)
        del t
        if np.linalg.norm(r) <= tol * bnorm:
            rel = true_residual()
            if rel <= tol:
                return SolveReport(x, it, rel, True)
    rel = float(np.linalg.norm(b - product(x)) / bnorm)
    return SolveReport(x, it, rel, rel <= tol)
