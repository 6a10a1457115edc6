"""Convergence driver: refinement ladders, error norms, EOC tables,
CSV/VTK output and cross-choice comparisons."""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import _pool
from .assembly import (PenaltyParams, assemble_rhs, assemble_system,
                       normalize_choice)
from .dgspace import DgFunction, DgSpace, _ref_grads, _values, get_quadrature
from .mesh import (SurfaceMesh, initial_mesh, mesh_width,
                   refine_nonconforming, refine_uniform)
from .problems import TestProblem, exact_u_on_gammah, make_problem
from .solvers import SolveReport, bicgstab, cg


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
        # a JSON config hands over strings and bools as they are written;
        # each number must lie above its lower bound and be finite
        for name, kind, low, what in (
                ("degree", Integral, -np.inf, "an integer"),
                ("refinements", Integral, -np.inf, "an integer"),
                ("sigma", Real, -np.inf, "a finite real number"),
                ("seed_scale", Real, -np.inf, "a finite real number"),
                ("tol", Real, 0.0, "a positive finite number")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not low < value < np.inf):
                raise HarnessError(f"{name} must be {what}, got {value!r}")
        # open() would take an int path as a file descriptor
        path = (str, os.PathLike)
        for name, kinds, what in (
                ("nonconforming", (bool, np.bool_), "true or false"),
                ("surface", str, "a string"),
                ("seed", path, "a string or a path"),
                ("output_csv", path + (type(None),), "a path or null"),
                ("output_vtk", path + (type(None),), "a path or null")):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise HarnessError(f"{name} must be {what}, got {value!r}")
        if self.degree not in (1, 2):
            raise HarnessError(f"degree must be 1 or 2, got {self.degree}")
        if self.refinements < 1:
            raise HarnessError("need at least one refinement for an EOC")
        if self.marking != "halfspace-x":
            raise HarnessError(f"unknown marking {self.marking!r}")
        if self.solver not in ("auto", "cg", "bicgstab"):
            raise HarnessError(f"unknown solver {self.solver!r}")


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


def _errors(space: DgSpace, problem: TestProblem, coefficients) -> list:
    """(L2, DG) errors against the lifted exact solution, one pair per
    coefficient vector of ``coefficients`` on ``space``.

    Both norms are evaluated on the discrete surface with a degree-6
    triangle rule; the broken-H1 gradient term compares the discrete
    tangential gradient against the exact surface gradient projected
    into the element plane, and the jump term carries weight 1/h_e.

    One pass over chunks of elements lifts the exact solution to the rule
    points and fills every solution's L2 and H1 (m, q) integrands; one
    pass over chunks of intersections traces the jump points and fills
    every solution's jump terms.  The chunks of each pass run across the
    usable CPUs (``_pool._run_chunks``), each into its own rows.  Each norm
    is then summed over its whole array in the calling thread, so neither
    the chunks nor the other solutions of the call change a bit.
    """
    mesh = space.mesh
    tmap, areas, normals = mesh.pushforward, mesh.jacobian_areas, mesh.normals
    rule = get_quadrature("triangle", 6)
    w = rule.weights
    m, q = len(mesh.triangles), len(w)
    coeffs = [np.reshape(c, (m, space.dofs_per_element))
              for c in coefficients]
    vref = _values(space.degree, rule.points)
    gref = _ref_grads(space.degree, rule.points)
    l2_rows = [np.empty((m, q)) for _ in coeffs]
    h1_rows = [np.empty((m, q)) for _ in coeffs]

    def lift(part):
        pts = space.element_points(rule, part)
        val, tang = exact_u_on_gammah(problem, pts.reshape(-1, 3))
        del pts
        val = val.reshape(-1, q)
        # project the exact surface gradient into the element plane
        grad = tang.reshape(-1, q, 3)
        grad -= np.einsum("mqd,md->mq", grad, normals[part])[:, :, None] \
            * normals[part][:, None, :]
        weight = 2.0 * areas[part, None] * w[None, :]
        for coeff, l2, h1 in zip(coeffs, l2_rows, h1_rows):
            diff = np.einsum("mi,qi->mq", coeff[part], vref) - val
            l2[part] = weight * diff**2
            gdiff = np.einsum("mqa,mad->mqd",
                              np.einsum("mi,qia->mqa", coeff[part], gref),
                              tmap[part])
            gdiff -= grad
            h1[part] = weight * np.einsum("mqd,mqd->mq", gdiff, gdiff)
            del diff, gdiff

    _pool._run_chunks(lift, _pool._slices(m, m * q, _pool._LIFT_BATCH))

    # jump seminorm: the lifted exact solution is single valued, so only
    # u_h jumps across intersections
    edges = mesh.edges
    seg = get_quadrature("segment", 6)
    jump_rows = [np.empty(len(edges)) for _ in coeffs]

    def trace(part):
        x = space.face_points(seg, part)
        minus = space.trace(edges.minus[part], x)
        plus = space.trace(edges.plus[part], x)
        del x
        for coeff, jump_sq in zip(coeffs, jump_rows):
            jump = (np.einsum("ei,eki->ek", coeff[edges.plus[part]], plus)
                    - np.einsum("ei,eki->ek", coeff[edges.minus[part]],
                                minus))
            # weights: w_k * |e| per point, then the 1/h_e jump factor
            jump_sq[part] = np.sum(seg.weights[None, :] * jump**2, axis=1)
            del jump

    e, k = len(edges), len(seg.weights)
    _pool._run_chunks(trace, _pool._slices(e, e * k, _pool._LIFT_BATCH))
    errors = []
    for l2, h1, jump_sq in zip(l2_rows, h1_rows, jump_rows):
        l2_sq = np.sum(l2)
        # lengths cancel in the jump term: |e| * (1/|e|)
        dg_sq = l2_sq + np.sum(h1) + np.sum(jump_sq)
        errors.append((float(np.sqrt(l2_sq)), float(np.sqrt(dg_sq))))
    return errors


def compute_errors(u_h: DgFunction, problem: TestProblem) -> tuple:
    """(L2, DG) errors of u_h against the lifted exact solution; see
    ``_errors``.  Nothing is kept on the space: every call lifts the
    exact solution again."""
    return _errors(u_h.space, problem, [u_h.coefficients])[0]


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
    """Uniform refinement, or the nonconforming "halfspace-x" marking: the
    elements with centroid x > 0 at the first step, then all of them."""
    if not cfg.nonconforming:
        return refine_uniform(mesh, surface)
    marked = (_marked_halfspace(mesh) if step == 0
              else np.arange(len(mesh.triangles)))
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
    """rhs, then assemble+solve on ``space`` for every choice in ``tags``,
    then the errors of all solutions at once; maps each tag to
    (report, u_h, l2, dg).

    The choices run across the usable CPUs (``_pool._run_chunks``, one
    chunk per choice), each into its own place of the reports; the loops
    and products inside a choice then run in its thread, so no bit moves,
    and a failure is the one of the first failing choice in order."""
    with _stage(f"assemble/solve stage failed at level {level}"):
        rhs = assemble_rhs(space, problem.surface, problem.f)
        reports = [None] * len(tags)

        def solve(k):
            reports[k] = _solve_level(space, tags[k], penalty, rhs, solver,
                                      tol)

        _pool._run_chunks(solve, range(len(tags)))
    with _stage(f"error stage failed at level {level}"):
        errors = _errors(space, problem, [r.solution for r in reports])
    return {tag: (report, DgFunction(space, report.solution), l2, dg)
            for tag, report, (l2, dg) in zip(tags, reports, errors)}


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
        if tag not in self.l2_errors:
            raise HarnessError(f"choice {tag} was not compared; compared: "
                               f"{', '.join(self.choices)}")
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
    if isinstance(choices, str):  # "13" would iterate as "1" and "3"
        raise HarnessError(f"choices must be a list of choices, not the "
                           f"string {choices!r}")
    tags = [normalize_choice(c) for c in choices]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise HarnessError(f"choice {tag} is given more than once")
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
