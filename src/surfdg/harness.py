"""Convergence driver: refinement ladders, error norms, EOC tables,
CSV/VTK output and cross-choice comparisons."""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import geometry
from .assembly import (PenaltyParams, assemble_rhs, assemble_system,
                       normalize_choice)
from .dgspace import DgFunction, DgSpace, _ref_grads, _values, get_quadrature
from .mesh import (SurfaceMesh, initial_mesh, mesh_width,
                   refine_nonconforming, refine_uniform)
from .problems import TestProblem, exact_u_on_gammah, make_problem
from .solvers import SolveReport, bicgstab, cg

MARKINGS = ("halfspace-x", "all")


class HarnessError(RuntimeError):
    pass


@dataclass
class RunConfig:
    surface: str = "dziuk"
    choice: object = 2
    degree: int = 1
    refinements: int = 6
    seed: str = "icosahedron"
    seed_scale: float = 1.0
    sigma: float = 2.0
    solver: str = "auto"
    tol: float = 1e-10
    nonconforming: bool = False
    marking: str = "halfspace-x"
    forcing: str | None = None
    output_csv: str | None = None
    output_vtk: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise HarnessError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    def __post_init__(self):
        self.choice = normalize_choice(self.choice)
        # a JSON config hands over strings and bools as they are written
        for name, kind, what in (
                ("degree", Integral, "an integer"),
                ("refinements", Integral, "an integer"),
                ("sigma", Real, "a finite real number"),
                ("seed_scale", Real, "a finite real number")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not -np.inf < value < np.inf):
                raise HarnessError(f"{name} must be {what}, got {value!r}")
        if self.degree not in (1, 2):
            raise HarnessError(f"degree must be 1 or 2, got {self.degree}")
        if self.refinements < 1:
            raise HarnessError("need at least one refinement for an EOC")
        if self.marking not in MARKINGS:
            raise HarnessError(f"unknown marking {self.marking!r}")
        if self.solver not in ("auto", "cg", "bicgstab"):
            raise HarnessError(f"unknown solver {self.solver!r}")
        if not (isinstance(self.tol, (int, float)) and 0 < self.tol < np.inf):
            raise HarnessError(
                f"tol must be a positive finite number, got {self.tol!r}")


@dataclass
class ConvergenceRow:
    elements: int
    h: float
    l2_error: float
    l2_eoc: float | None
    dg_error: float
    dg_eoc: float | None
    solver_converged: bool = True
    solver_iterations: int = 0


@dataclass
class ConvergenceReport:
    rows: list
    metadata: dict = field(default_factory=dict)

    @property
    def l2_errors(self):
        return [r.l2_error for r in self.rows]

    @property
    def dg_errors(self):
        return [r.dg_error for r in self.rows]

    @property
    def hs(self):
        return [r.h for r in self.rows]


def compute_eoc(errors, hs) -> list:
    """eoc_k = ln(e_{k-1}/e_k) / ln(h_{k-1}/h_k); None first and where an
    error of the pair is not positive or h does not shrink."""
    if len(errors) != len(hs):
        raise HarnessError("errors and hs must have equal length")
    if len(errors) < 2:
        raise HarnessError("need at least two levels")
    return [None] + [None if e0 <= 0.0 or e1 <= 0.0 or h1 >= h0
                     else float(np.log(e0 / e1) / np.log(h0 / h1))
                     for e0, e1, h0, h1 in zip(errors, errors[1:], hs, hs[1:])]


class _ErrorReference(NamedTuple):
    """The part of ``compute_errors`` that does not depend on u_h, for
    one problem on one space."""

    problem: TestProblem
    values: np.ndarray  # (m, q) lifted exact values at the triangle points
    gradients: np.ndarray  # (m, q, 3) exact gradients in the element planes
    minus: np.ndarray  # (E, k, n) minus traces at the jump points
    plus: np.ndarray  # (E, k, n) plus traces at the jump points


def _chunks(count: int, points: int) -> list:
    """Slices of ``count`` items of ``points`` points each, about
    ``geometry._LIFT_BATCH`` points (and at least one item) per slice."""
    step = max(1, geometry._LIFT_BATCH // points)
    return [slice(start, start + step) for start in range(0, count, step)]


def _error_reference(space: DgSpace, problem: TestProblem) -> _ErrorReference:
    """The space's error reference, built on first use and rebuilt when
    ``problem`` is not the object it was built for.

    Its arrays are preallocated and filled per chunk of elements or of
    intersections, so the lift's temporaries stay chunk sized; each point
    is handled on its own, so the chunks change no value.
    """
    ref = space.error_reference
    if ref is not None and ref.problem is problem:
        return ref
    space.error_reference = None  # free the stale one before building
    tv, normals = space.frames.vertices, space.mesh.normals
    rule = get_quadrature("triangle", 6)
    m, q = len(tv), len(rule.weights)
    values = np.empty((m, q))
    gradients = np.empty((m, q, 3))
    for part in _chunks(m, q):
        pts = np.einsum("qk,mkd->mqd", rule.points, tv[part])
        val, tang = exact_u_on_gammah(problem, pts.reshape(-1, 3))
        values[part] = val.reshape(-1, q)
        # project the exact surface gradient into the element plane
        grad = gradients[part]
        grad[...] = tang.reshape(-1, q, 3)
        del pts, val, tang
        grad -= np.einsum("mqd,md->mq", grad, normals[part])[:, :, None] \
            * normals[part][:, None, :]
    edges = space.mesh.edges
    seg = get_quadrature("segment", 6)
    minus = np.empty((len(edges), len(seg.weights), space.dofs_per_element))
    plus = np.empty_like(minus)
    for part in _chunks(len(edges), len(seg.weights)):
        x = space.face_points(seg, part)
        minus[part] = space.trace(edges.minus[part], x)
        plus[part] = space.trace(edges.plus[part], x)
    space.error_reference = _ErrorReference(problem, values, gradients,
                                            minus, plus)
    return space.error_reference


def compute_errors(u_h: DgFunction, problem: TestProblem) -> tuple:
    """(L2, DG) errors of u_h against the lifted exact solution.

    Both norms are evaluated on the discrete surface with a degree-6
    triangle rule; the broken-H1 gradient term compares the discrete
    tangential gradient against the exact surface gradient projected
    into the element plane, and the jump term carries weight 1/h_e.
    The exact values, gradients and jump-point traces are kept on the
    space and reused by later calls with the same problem object.

    Each norm's integrand is filled per chunk of elements into one
    (m, q) array and then summed at once, so the sum runs in the order of
    the whole array and the chunks change no bit.
    """
    space = u_h.space
    if space.mesh.edges is None:
        raise HarnessError("mesh edges not built")
    ref = _error_reference(space, problem)
    _, tmap, areas = space.frames
    rule = get_quadrature("triangle", 6)
    w = rule.weights
    m, q = ref.values.shape

    coeff = u_h.coefficients.reshape(m, space.dofs_per_element)
    vref = _values(space.degree, rule.points)
    gref = _ref_grads(space.degree, rule.points)
    chunks = _chunks(m, q)
    integrand = np.empty((m, q))
    for part in chunks:
        diff = np.einsum("mi,qi->mq", coeff[part], vref) - ref.values[part]
        integrand[part] = 2.0 * areas[part, None] * w[None, :] * diff**2
    l2_sq = np.sum(integrand)
    for part in chunks:
        uh_grad = np.einsum("mqa,mad->mqd",
                            np.einsum("mi,qia->mqa", coeff[part], gref),
                            tmap[part])
        gdiff = uh_grad - ref.gradients[part]
        integrand[part] = 2.0 * areas[part, None] * w[None, :] \
            * np.einsum("mqd,mqd->mq", gdiff, gdiff)
    h1_sq = np.sum(integrand)
    del integrand

    # jump seminorm: the lifted exact solution is single valued, so only
    # u_h jumps across intersections
    edges = space.mesh.edges
    seg = get_quadrature("segment", 6)
    jump_sq = np.empty(len(edges))
    for part in _chunks(len(edges), len(seg.weights)):
        jump = (np.einsum("ei,eki->ek", coeff[edges.plus[part]],
                          ref.plus[part])
                - np.einsum("ei,eki->ek", coeff[edges.minus[part]],
                            ref.minus[part]))
        # weights: w_k * |e| per point, then the 1/h_e jump factor
        jump_sq[part] = np.sum(seg.weights[None, :] * jump**2, axis=1)
    star_sq = np.sum(jump_sq)  # lengths cancel: |e| * (1/|e|)
    dg_sq = l2_sq + h1_sq + star_sq
    return float(np.sqrt(l2_sq)), float(np.sqrt(dg_sq))


def compute_l2_error(u_h: DgFunction, problem: TestProblem) -> float:
    return compute_errors(u_h, problem)[0]


def compute_dg_error(u_h: DgFunction, problem: TestProblem) -> float:
    return compute_errors(u_h, problem)[1]


def _solve_level(space, choice, penalty, rhs, solver, tol) -> SolveReport:
    system = assemble_system(space, choice, penalty)
    if solver == "auto":
        solver = "bicgstab" if choice == "1" else "cg"
    fn = cg if solver == "cg" else bicgstab
    return fn(system, rhs, tol=tol, precond="jacobi")


def _marked_halfspace(mesh: SurfaceMesh):
    cent = mesh.triangle_vertices().mean(axis=1)
    return np.flatnonzero(cent[:, 0] > 0.0)


def _build_ladder_step(mesh, surface, cfg: RunConfig, step: int):
    if not cfg.nonconforming:
        return refine_uniform(mesh, surface)
    if cfg.marking == "halfspace-x" and step == 0:
        marked = _marked_halfspace(mesh)
    else:
        marked = np.arange(len(mesh.triangles))
    return refine_nonconforming(mesh, marked, surface)


@contextmanager
def _stage(failed: str):
    """Re-raise any failure inside the block as a HarnessError prefixed
    with ``failed``, which names the stage."""
    try:
        yield
    except Exception as e:
        raise HarnessError(f"{failed}: {e}") from e


def _solve_choices(space, problem, tags, penalty, solver, tol,
                   level) -> dict:
    """rhs, then assemble+solve and errors on ``space`` for every choice
    in ``tags``; maps each tag to (report, u_h, l2, dg)."""
    results = {}
    solve_stage = f"assemble/solve stage failed at level {level}"
    with _stage(solve_stage):
        rhs = assemble_rhs(space, problem.surface, problem.f)
    for tag in tags:
        with _stage(solve_stage):
            report = _solve_level(space, tag, penalty, rhs, solver, tol)
        u_h = DgFunction(space, report.solution)
        with _stage(f"error stage failed at level {level}"):
            l2, dg = compute_errors(u_h, problem)
        results[tag] = (report, u_h, l2, dg)
    return results


def _ladder(cfg: RunConfig, problem: TestProblem, tags, solver: str,
            record) -> dict:
    """Seed, then per level: ``_solve_choices``,
    ``record(mesh, results, seconds)``, refine.

    The last level's results are returned.  Hard failures abort with the
    stage named.
    """
    surface = problem.surface
    penalty = PenaltyParams(sigma=cfg.sigma)
    with _stage("seed stage failed"):
        mesh = initial_mesh(surface, cfg.seed, scale=cfg.seed_scale)
    for level in range(cfg.refinements + 1):
        t0 = time.monotonic()
        results = _solve_choices(DgSpace(mesh, cfg.degree), problem, tags,
                                 penalty, solver, cfg.tol, level)
        record(mesh, results, time.monotonic() - t0)
        if level < cfg.refinements:
            # free this level's space and its caches before the next one
            del results
            with _stage(f"refine stage failed after level {level}"):
                mesh = _build_ladder_step(mesh, surface, cfg, level)
    return results


def run_convergence(config) -> ConvergenceReport:
    """Seed, then per level: assemble, solve, measure, refine.

    Rows cover the seed mesh and every refinement.  A solver that stops
    without reaching tolerance flags its row and the ladder continues;
    hard assembly or projection failures abort with the stage named.
    """
    cfg = config if isinstance(config, RunConfig) else RunConfig.from_dict(
        dict(config))
    problem = make_problem(cfg.surface, forcing_mode=cfg.forcing)

    rows = []
    meta_levels = []

    def record(mesh, results, seconds):
        report, u_h, l2, dg = results[cfg.choice]
        rows.append(ConvergenceRow(
            elements=len(mesh.triangles), h=mesh_width(mesh),
            l2_error=l2, l2_eoc=None, dg_error=dg, dg_eoc=None,
            solver_converged=report.converged,
            solver_iterations=report.iterations))
        meta_levels.append({
            "level": len(meta_levels), "dofs": u_h.space.total_dofs,
            "iterations": report.iterations,
            "residual": report.final_relative_residual,
            "seconds": seconds})

    u_h = _ladder(cfg, problem, [cfg.choice], cfg.solver,
                  record)[cfg.choice][1]

    l2_eocs = compute_eoc([r.l2_error for r in rows], [r.h for r in rows])
    dg_eocs = compute_eoc([r.dg_error for r in rows], [r.h for r in rows])
    for r, le, de in zip(rows, l2_eocs, dg_eocs):
        r.l2_eoc, r.dg_eoc = le, de

    report = ConvergenceReport(rows=rows, metadata={
        "surface": cfg.surface, "choice": cfg.choice, "degree": cfg.degree,
        "sigma": cfg.sigma, "solver": cfg.solver, "tol": cfg.tol,
        "seed": cfg.seed, "seed_scale": cfg.seed_scale,
        "nonconforming": cfg.nonconforming,
        "marking": cfg.marking if cfg.nonconforming else None,
        "forcing": problem.forcing_mode,
        "levels": meta_levels,
        "all_converged": all(r.solver_converged for r in rows)})
    if cfg.output_csv:
        write_csv(report, cfg.output_csv)
    if cfg.output_vtk:
        export_vtk(u_h.space.mesh, u_h, cfg.output_vtk)
    return report


@dataclass
class ChoiceComparison:
    """Per level and choice: error ratios against Choice 2."""

    choices: list
    elements: list
    hs: list
    l2_errors: dict
    dg_errors: dict

    def ratios(self, choice) -> list:
        tag = normalize_choice(choice)
        return [(l / lr, d / dr) for l, d, lr, dr in zip(
            self.l2_errors[tag], self.dg_errors[tag],
            self.l2_errors["2"], self.dg_errors["2"])]


def compare_choices(config, choices) -> ChoiceComparison:
    """Run the same ladder for several conormal choices; Choice 2 is the
    reference and is added when missing.

    The solver is picked per choice (BiCGSTAB for the non-symmetric
    Choice 1, CG otherwise); a single configured solver cannot serve
    both symmetry classes in one comparison, so a configured ``solver``
    is refused, as are the ``output_csv`` and ``output_vtk`` artifacts.
    """
    tags = [normalize_choice(c) for c in choices]
    if len(tags) < 2:
        raise HarnessError("need at least two choices to compare")
    if "2" not in tags:
        tags.append("2")
    cfg = config if isinstance(config, RunConfig) else RunConfig.from_dict(
        dict(config))
    for key in ("solver", "output_csv", "output_vtk"):
        if getattr(cfg, key) != getattr(RunConfig, key):  # not the default
            raise HarnessError(f"compare_choices does not support {key}")
    problem = make_problem(cfg.surface, forcing_mode=cfg.forcing)

    l2 = {t: [] for t in tags}
    dg = {t: [] for t in tags}
    elements, hs = [], []

    def record(mesh, results, _):
        elements.append(len(mesh.triangles))
        hs.append(mesh_width(mesh))
        for tag in tags:
            l2[tag].append(results[tag][2])
            dg[tag].append(results[tag][3])

    _ladder(cfg, problem, tags, "auto", record)
    return ChoiceComparison(choices=tags, elements=elements, hs=hs,
                            l2_errors=l2, dg_errors=dg)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6g}"


def write_csv(report: ConvergenceReport, path) -> None:
    """Six-significant-digit CSV; EOC cells blank where undefined."""
    lines = ["elements,h,l2_error,l2_eoc,dg_error,dg_eoc"]
    for r in report.rows:
        lines.append(",".join([str(r.elements), _fmt(r.h), _fmt(r.l2_error),
                               _fmt(r.l2_eoc), _fmt(r.dg_error),
                               _fmt(r.dg_eoc)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_vtk(mesh: SurfaceMesh, u_h: DgFunction, path) -> None:
    """Legacy ASCII VTK with dof-averaged point data and element means."""
    if u_h.space.mesh is not mesh:
        raise HarnessError("u_h does not live on the given mesh")
    space = u_h.space
    nv = len(mesh.vertices)
    m = len(mesh.triangles)
    coeff = u_h.coefficients.reshape(m, space.dofs_per_element)

    vert_sum = np.zeros(nv)
    vert_cnt = np.zeros(nv)
    for loc in range(3):  # corner dofs only carry vertex values
        np.add.at(vert_sum, mesh.triangles[:, loc], coeff[:, loc])
        np.add.at(vert_cnt, mesh.triangles[:, loc], 1.0)
    point_vals = vert_sum / np.maximum(vert_cnt, 1.0)

    rule = get_quadrature("triangle", 4 if space.degree == 1 else 6)
    vref = _values(space.degree, rule.points)
    # mean = (1/|K|) int u_h = (1/|K|) 2|K| sum w u; areas cancel
    cell_means = 2.0 * np.einsum("q,mi,qi->m", rule.weights, coeff, vref)

    out = ["# vtk DataFile Version 3.0", "surfdg solution", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    out += [f"{p[0]:.16g} {p[1]:.16g} {p[2]:.16g}" for p in mesh.vertices]
    out.append(f"CELLS {m} {4 * m}")
    out += [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
    out.append(f"CELL_TYPES {m}")
    out += ["5"] * m
    out.append(f"POINT_DATA {nv}")
    out += ["SCALARS u double 1", "LOOKUP_TABLE default"]
    out += [f"{v:.16g}" for v in point_vals]
    out.append(f"CELL_DATA {m}")
    out += ["SCALARS u_mean double 1", "LOOKUP_TABLE default"]
    out += [f"{v:.16g}" for v in cell_means]
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def read_vtk_counts(path) -> tuple:
    """Minimal self-parse of our VTK output: (points, cells)."""
    npts = ncells = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("POINTS"):
                npts = int(line.split()[1])
            elif line.startswith("CELLS"):
                ncells = int(line.split()[1])
    if npts is None or ncells is None:
        raise HarnessError(f"not a recognizable VTK file: {path}")
    return npts, ncells
