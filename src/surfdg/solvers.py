"""Krylov solvers for the assembled DG systems.

Hand-rolled CG and BiCGSTAB reference implementations with optional
Jacobi preconditioning.  Both refuse a ``tol`` that is not a positive
finite number, a ``max_iter`` that is not a non-negative int, and a NaN
or inf in A or b, before iterating; a preconditioner whose first vector
has the wrong shape, or whose values make a dot product of the loop NaN
or inf, is refused by name and iteration.  CG refuses non-symmetric
input and reports pAp <= 0 as indefiniteness, which in this package
almost always means the jump penalty was forced below its stability
bound.  Convergence is certified against the true residual b - Ax, not
the recurrence residual.

Every product with A runs its row blocks through ``_pool._run_chunks``
and gives the bits of ``A @ v``.  CG's vector updates run in two fused
stages per iteration, each through ``_pool._run_chunks`` on slices of
the work vectors, in textbook order: r -= alpha Ap, x += alpha p and
z = r / diag(A) (Jacobi), then p = z + beta p, which a converged last
iteration skips.  A vector is cut into one slice per usable CPU, with
at least ``_pool._VECTOR_FLOOR`` entries each
(``_pool._vector_slices``), so only long vectors split.  Every entry is
computed by the same operations whichever slice holds it, and every dot
product and norm stays one whole-vector call, so the split changes no
bit.

scipy's ``csr_matvec`` (P1's CSR matrices) or ``bsr_matvec`` (P2's BSR
matrices) is imported by ``_product``, where a solve first needs it, so
importing this module loads no scipy (see ``assembly``).
"""

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

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


def _inverse_diagonal(a):
    d = a.diagonal()
    if np.any(d == 0.0):
        raise SolverError("zero diagonal entry; Jacobi preconditioner "
                          "undefined")
    return 1.0 / d


def jacobi_precondition(matrix):
    """v -> v / diag(A), as the entrywise product with 1/diag(A)."""
    inv_diag = _inverse_diagonal(_sparse(matrix))
    return lambda v: inv_diag * v


def _product(a):
    """(v, out=None) -> A v with the bits of ``A @ v``, into ``out`` if
    given.  A's rows are cut once into contiguous blocks of about equal
    stored entries (``_pool._row_blocks``): one per usable CPU, with at
    least ``_pool._PRODUCT_FLOOR`` entries each.  Each product hands the
    blocks to ``_pool._run_chunks``; a block zeroes its slice of the
    output and runs the kernel of ``A @ v`` on the slice
    ``indptr[lo:hi + 1]`` over A's own ``data`` and ``indices`` into it:
    scipy's ``csr_matvec`` on CSR rows, its ``bsr_matvec`` on BSR block
    rows.  Both sum each row from 0 in stored (ascending column) order,
    so no entry is copied, every row keeps its one sum, and a BSR matrix
    gives the bits of its CSR form.  ``a`` is a float64 matrix as
    ``_sparse`` gives every solver input."""
    bounds = _pool._row_blocks(a.indptr,
                               _pool._parts(a.nnz, _pool._PRODUCT_FLOOR))
    spans = list(zip(bounds[:-1], bounds[1:]))
    if a.format == "bsr":
        from scipy.sparse._sparsetools import bsr_matvec
        r, c = a.blocksize
        entries = a.data.ravel()

        def kernel(lo, hi, v, y):
            bsr_matvec(hi - lo, a.shape[1] // c, r, c, a.indptr[lo:hi + 1],
                       a.indices, entries, v, y)
    else:
        from scipy.sparse._sparsetools import csr_matvec
        r = 1

        def kernel(lo, hi, v, y):
            csr_matvec(hi - lo, a.shape[1], a.indptr[lo:hi + 1], a.indices,
                       a.data, v, y)

    def product(v, out=None):
        y = np.empty(a.shape[0]) if out is None else out

        def rows(span):
            lo, hi = span
            part = y[lo * r:hi * r]
            part[:] = 0.0
            kernel(lo, hi, v, part)
        _pool._run_chunks(rows, spans)
        return y
    return product


def _name(precond) -> str:
    return getattr(precond, "__qualname__", None) or repr(precond)


def _finite(value: float, what: str, precond, it: int) -> float:
    """``value``, a dot product of the loop, refused by name unless it is
    finite: A and b are, so a NaN or inf there comes from the
    preconditioner, and the loop would run every iteration on it."""
    if not np.isfinite(value):
        raise SolverError(f"non-finite {what} = {value} at iteration {it} "
                          f"with preconditioner {_name(precond)}")
    return value


def _setup(system, b, tol, precond, max_iter=None):
    # a NaN or negative tol is never met, so CG would end in a false
    # indefiniteness and BiCGSTAB in a breakdown; 0 runs every iteration,
    # and inf takes the first iterate
    if isinstance(tol, bool) or not isinstance(tol, Real) \
            or not 0.0 < tol < np.inf:
        raise SolverError(f"tol must be a positive finite number, got "
                          f"{tol!r}")
    # a fraction or a bool would count iterations, a negative or NaN
    # max_iter would run none
    if max_iter is not None and (isinstance(max_iter, bool)
                                 or not isinstance(max_iter, Integral)
                                 or max_iter < 0):
        raise SolverError(f"max_iter must be a non-negative integer, got "
                          f"{max_iter!r}")
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
    inv_diag = None
    if precond in (None, "none"):
        m = lambda v: v
    elif precond == "jacobi":
        inv_diag = _inverse_diagonal(a)
        m = lambda v: inv_diag * v
    elif callable(precond):
        m = precond
    else:
        raise SolverError(f"unknown preconditioner {precond!r}")
    max_iter = 10 * b.shape[0] if max_iter is None else int(max_iter)
    return a, _product(a), b, m, bnorm, scale, max_iter, inv_diag


def _shaped(m, v, precond, it: int):
    """``m(v)``, refused by name unless it has the shape of ``v``; the
    solvers check their first preconditioned vector so."""
    z = m(v)
    if np.shape(z) != v.shape:
        raise SolverError(f"preconditioner {_name(precond)} gave shape "
                          f"{np.shape(z)} for a vector of shape {v.shape} "
                          f"at iteration {it}")
    return z


def cg(system, b, tol: float = 1e-10, max_iter: int | None = None,
       precond="none") -> SolveReport:
    """Preconditioned conjugate gradients; symmetric input only.

    ``tol`` is relative to |b|; ``max_iter`` defaults to 10 n.  The
    returned residual is the true relative residual.
    """
    a, product, b, m, bnorm, scale, max_iter, inv_diag = _setup(
        system, b, tol, precond, max_iter)
    defect = check_symmetry(a)
    if defect > _SYM_RTOL * scale:
        raise NonSymmetricMatrixError(
            f"matrix not symmetric: defect {defect:.3e} > "
            f"{_SYM_RTOL:.0e} * {scale:.3e}")
    n = b.shape[0]
    x = np.zeros(n)
    if bnorm == 0.0:
        return SolveReport(x, 0, 0.0, True)
    # the work vectors x, r, p, Ap and z are made once and updated in
    # place, slice by slice, in two stages per iteration (see the module
    # docstring); a callable preconditioner makes z anew, and without one
    # z is r itself
    r = b.copy()
    z = _shaped(m, r, precond, 0)
    p = z.copy()
    rz = _finite(float(r @ z), "r^T z", precond, 0)
    ap = np.empty(n)
    parts = _pool._vector_slices(n)
    alpha = beta = 0.0

    def update(s):  # r -= alpha Ap, x += alpha p, z = r / diag(A)
        np.subtract(r[s], np.multiply(ap[s], alpha, out=ap[s]), out=r[s])
        # Ap is spent, so it holds alpha p
        np.add(x[s], np.multiply(p[s], alpha, out=ap[s]), out=x[s])
        if inv_diag is not None:
            np.multiply(inv_diag[s], r[s], out=z[s])

    def advance(s):  # p = z + beta p
        np.multiply(p[s], beta, out=p[s])
        np.add(p[s], z[s], out=p[s])

    it = 0
    while it < max_iter:
        product(p, ap)
        pap = _finite(float(p @ ap), "p^T A p", precond, it)
        if pap <= 0.0:
            raise IndefiniteSystemError(
                f"p^T A p = {pap:.3e} <= 0 at iteration {it}; system is "
                "not positive definite (penalty weight below the "
                "stability bound?)")
        alpha = rz / pap
        _pool._run_chunks(update, parts)
        it += 1
        if np.linalg.norm(r) <= tol * bnorm:
            np.subtract(b, product(x, ap), out=r)
            rel = np.linalg.norm(r) / bnorm
            if rel <= tol:
                return SolveReport(x, it, float(rel), True)
            # recurrence drifted; restart from the true residual in r
            if inv_diag is not None:
                np.multiply(inv_diag, r, out=z)
        if inv_diag is None:
            z = m(r)
        rz_new = _finite(float(r @ z), "r^T z", precond, it)
        beta = rz_new / rz
        rz = rz_new
        _pool._run_chunks(advance, parts)
    rel = float(np.linalg.norm(b - product(x, ap)) / bnorm)
    return SolveReport(x, it, rel, rel <= tol)


def bicgstab(system, b, tol: float = 1e-10,
             max_iter: int | None = None, precond="none") -> SolveReport:
    """Preconditioned BiCGSTAB for general square systems.

    A rho or omega breakdown restarts once from the current residual;
    a second breakdown raises BreakdownError.
    """
    _, product, b, m, bnorm, _, max_iter, _ = _setup(system, b, tol,
                                                     precond, max_iter)
    n = b.shape[0]
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
        ph = m(p) if it else _shaped(m, p, precond, it)
        v = product(ph)
        rv = _finite(float(r_hat @ v), "r_hat^T A ph", precond, it)
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
        tt = _finite(float(t @ t), "t^T t", precond, it)
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
