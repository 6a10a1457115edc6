"""One benchmark process: ``worker.py <mode> <workload> <seed>``.

Modes:
  setup   time ``import surfdg``, ``make_problem`` and ``initial_mesh``
  ladder  the same set-up, then the workload's ladder through its user
          entry point (``run_convergence`` or ``compare_choices``), timed
          at the reference machine speed (``calibrate.py``)
  traced  the same ladder through the layer functions, in the order the
          entry point calls them, with a span around each call; then the
          kernel probes, timed outside the ladder span

Prints one JSON object on its last stdout line.  ``surfdg`` must be
importable (the runner puts the checkout's ``src`` on PYTHONPATH).
"""

import json
import os
import platform
import resource
import sys
import time
import traceback
from statistics import median

from spans import Tracer, duration, totals
from workloads import RHS_EXACTNESS, TUBE_WIDTH, WORKLOADS

ERROR_EXACTNESS = 6  # the triangle rule of harness.compute_errors
TUBE_POINTS = 20000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def set_up(wl):
    """Import surfdg and build the workload's problem and seed mesh."""
    import surfdg
    cfg = wl["config"]
    problem = surfdg.make_problem(cfg["surface"],
                                  forcing_mode=cfg.get("forcing"))
    surfdg.initial_mesh(problem.surface, cfg.get("seed", "icosahedron"),
                        scale=cfg.get("seed_scale", 1.0))
    return surfdg


def run_setup(wl) -> dict:
    t0 = time.perf_counter()
    set_up(wl)
    return {"setup_s": time.perf_counter() - t0}


def entry_ops(wl, result) -> list:
    """Per (level, choice) values the entry point's result exposes."""
    ops = []
    if wl["entry"] == "run":
        for level, (row, meta) in enumerate(zip(
                result.rows, result.metadata["levels"])):
            ops.append({"level": level, "choice": wl["choices"][0],
                        "elements": row.elements, "dofs": meta["dofs"],
                        "iterations": meta["iterations"],
                        "converged": row.solver_converged,
                        "l2": row.l2_error, "dg": row.dg_error})
    else:
        for level, elements in enumerate(result.elements):
            for tag in wl["choices"]:
                ops.append({"level": level, "choice": tag,
                            "elements": elements,
                            "l2": result.l2_errors[tag][level],
                            "dg": result.dg_errors[tag][level]})
    return ops


def run_ladder(wl) -> dict:
    """The ladder through its entry point, with the machine's speed
    sampled throughout (``calibrate.Sampler``).  ``ladder_wall_s`` is the
    wall time minus the time spent sampling; ``ladder_s`` is the same
    stretch rescaled to the reference speed."""
    surfdg = set_up(wl)
    from calibrate import Kernel, Sampler, bracket_speed
    kernel = Kernel()
    before = bracket_speed(kernel)
    out = {"ops": [], "error": None}
    with Sampler(kernel) as sampler:
        t0 = time.perf_counter()
        try:
            if wl["entry"] == "run":
                result = surfdg.run_convergence(dict(wl["config"]))
            else:
                result = surfdg.compare_choices(dict(wl["config"]),
                                                wl["choices"])
        except Exception:
            out["error"] = traceback.format_exc(limit=4)
        else:
            out["ops"] = entry_ops(wl, result)
        t1 = time.perf_counter()
    after = bracket_speed(kernel)
    out["ladder_wall_s"] = t1 - t0 - sampler.spent(t0, t1)
    out["ladder_s"] = sampler.normalised(t0, t1, before, after)
    out["speed_samples"] = len(sampler.inside(t0, t1))
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def traced_ladder(wl, tracer) -> tuple:
    """Repeat the entry point's ladder call by call; returns the ops and
    the finest level's objects for the probes."""
    import numpy as np
    from surfdg import (DgFunction, DgSpace, PenaltyParams, RunConfig,
                        assemble_rhs, assemble_system, bicgstab, cg,
                        compute_eoc, compute_errors, initial_mesh,
                        make_problem, mesh_width, refine_nonconforming,
                        refine_uniform)

    cfg = RunConfig(**wl["config"])
    span = tracer.span

    def refine(mesh, level):
        if not cfg.nonconforming:
            return refine_uniform(mesh, surface)
        if cfg.marking == "halfspace-x" and level == 0:
            cent = mesh.triangle_vertices().mean(axis=1)
            marked = np.flatnonzero(cent[:, 0] > 0.0).tolist()
        else:
            marked = list(range(len(mesh.triangles)))
        return refine_nonconforming(mesh, marked, surface)

    ops, rows = [], []
    with span("harness.ladder"):
        with span("problems.make_problem"):
            problem = make_problem(cfg.surface, forcing_mode=cfg.forcing)
        surface = problem.surface
        penalty = PenaltyParams(sigma=cfg.sigma)
        with span("mesh.initial_mesh"):
            mesh = initial_mesh(surface, cfg.seed, scale=cfg.seed_scale)
        for level in range(cfg.refinements + 1):
            with span("harness.level"):
                with span("dgspace.space"):
                    space = DgSpace(mesh, cfg.degree)
                with span("assembly.rhs"):
                    rhs = assemble_rhs(space, surface, problem.f)
                h = mesh_width(mesh)
                for tag in wl["choices"]:
                    with span("assembly.system") as s_sys:
                        system = assemble_system(space, tag, penalty)
                    solver = cfg.solver if wl["entry"] == "run" else "auto"
                    if solver == "auto":
                        solver = "bicgstab" if tag == "1" else "cg"
                    solve = cg if solver == "cg" else bicgstab
                    with span("solvers.solve"):
                        report = solve(system, rhs, tol=cfg.tol,
                                       precond="jacobi")
                    with span("harness.errors"):
                        l2, dg = compute_errors(
                            DgFunction(space, report.solution), problem)
                    if tag == wl["choices"][0]:
                        finest_matrix = system.matrix
                    ops.append({
                        "level": level, "choice": tag,
                        "elements": len(mesh.triangles),
                        "dofs": space.total_dofs,
                        "nnz": int(system.matrix.nnz),
                        "iterations": report.iterations,
                        "converged": report.converged,
                        "residual": report.final_relative_residual,
                        "l2": l2, "dg": dg,
                        "system_s": duration(s_sys)})
                    rows.append((l2, dg, h))
                if level < cfg.refinements:
                    with span("mesh.refine"):
                        mesh = refine(mesh, level)
        if wl["entry"] == "run":
            compute_eoc([r[0] for r in rows], [r[2] for r in rows])
            compute_eoc([r[1] for r in rows], [r[2] for r in rows])
    return ops, problem, mesh, space, finest_matrix


def timed(fn, reps=3, budget=2.0):
    """Median wall time of up to ``reps`` calls, stopping early once
    ``budget`` seconds are spent; returns (seconds, last result)."""
    times, start = [], time.perf_counter()
    while len(times) < reps and (not times
                                 or time.perf_counter() - start < budget):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return median(times), out


def tube_points(surface, n, seed):
    """n seeded points within the test suite's tube width of the surface:
    uniform seeds in [-1.5, 1.5]^3 projected onto it, then pushed off
    along the normal by a uniform offset."""
    import numpy as np
    from surfdg.geometry import eval_phi, grad_phi, project_points
    width = TUBE_WIDTH[surface.name]
    rng = np.random.default_rng(seed)
    base = np.empty((0, 3))
    while len(base) < n:
        proj = project_points(surface, rng.uniform(-1.5, 1.5, (2 * n, 3)))
        ok = np.abs(eval_phi(surface, proj.points)) <= 1e-8
        base = np.vstack([base, proj.points[ok]])
    base = base[:n]
    g = grad_phi(surface, base)
    nu = g / np.linalg.norm(g, axis=1, keepdims=True)
    return base + rng.uniform(-width, width, (n, 1)) * nu


def probes(problem, mesh, space, matrix, seed, tracer) -> dict:
    """Kernel probes on the finest level, each in its own span."""
    import numpy as np
    from surfdg import (build_edges, exact_u_on_gammah, get_quadrature,
                        project_points)
    span = tracer.span
    surface = problem.surface
    tv = mesh.triangle_vertices()

    def rule_points(exactness):
        rule = get_quadrature("triangle", exactness)
        return np.einsum("qk,mkd->mqd", rule.points, tv).reshape(-1, 3)

    m = {}
    with span("probe.mesh.build_edges"):
        m["mesh.build_edges_s"], _ = timed(lambda: build_edges(mesh))
    rhs_pts = rule_points(RHS_EXACTNESS[space.degree])
    with span("probe.geometry.project_points"):
        t, proj = timed(lambda: project_points(surface, rhs_pts))
    m["geometry.project_s"] = t
    m["geometry.project_points_per_s"] = len(rhs_pts) / t
    m["geometry.project_iter_mean"] = float(proj.iterations.mean())
    m["geometry.project_iter_max"] = int(proj.iterations.max())
    m["geometry.project_dropped"] = int(proj.dropped.sum())
    tube = tube_points(surface, TUBE_POINTS, seed)
    with span("probe.geometry.tube"):
        t, _ = timed(lambda: project_points(surface, tube))
    m["geometry.tube_points_per_s"] = len(tube) / t
    with span("probe.problems.forcing"):
        m["problems.forcing_s"], _ = timed(lambda: problem.f(proj.points))
    err_pts = rule_points(ERROR_EXACTNESS)
    with span("probe.problems.exact"):
        m["problems.exact_s"], _ = timed(
            lambda: exact_u_on_gammah(problem, err_pts))
    x = np.ones(matrix.shape[0])
    with span("probe.solvers.matvec"):
        m["solvers.matvec_s"], _ = timed(lambda: matrix @ x, reps=21)
    return m


def run_traced(wl, seed) -> dict:
    tracer = Tracer(ladder="ladder")
    out = {"ops": [], "error": None, "metrics": {}, "spans": tracer.spans}
    try:
        ops, problem, mesh, space, matrix = traced_ladder(wl, tracer)
    except Exception:
        out["error"] = traceback.format_exc(limit=4)
        return out
    ladder = list(tracer.spans)
    tracer.ladder = "probes"
    m = probes(problem, mesh, space, matrix, seed, tracer)

    tot = totals(ladder)

    def total(name, key="total_s"):
        return tot.get(name, {}).get(key, 0.0)

    finest = [op for op in ops if op["level"] == ops[-1]["level"]]
    iterations_total = sum(op["iterations"] for op in ops)
    m.update({
        "mesh.refine_s": total("mesh.refine"),
        "mesh.elements": finest[0]["elements"],
        "mesh.intersections": len(mesh.edges),
        "dgspace.space_s": total("dgspace.space"),
        "dgspace.dofs": space.total_dofs,
        "assembly.rhs_s": total("assembly.rhs"),
        "assembly.system_s": total("assembly.system"),
        "assembly.system_us_per_element": 1e6 * sum(
            op["system_s"] for op in finest)
        / (len(finest) * finest[0]["elements"]),
        "assembly.nnz": sum(op["nnz"] for op in finest),
        "solvers.solve_s": total("solvers.solve"),
        "solvers.iterations": sum(op["iterations"] for op in finest),
        "solvers.iterations_total": iterations_total,
        "solvers.s_per_iteration": total("solvers.solve") / iterations_total,
        "solvers.residual": max(op["residual"] for op in finest),
        "harness.errors_s": total("harness.errors"),
        "harness.level_self_s": total("harness.level", "self_s"),
    })
    root = next(s for s in ladder if s["name"] == "harness.ladder")
    out.update(ops=ops, metrics=m, ladder_s=duration(root))
    return out


def main(argv) -> int:
    mode, name, seed = argv[1], argv[2], int(argv[3])
    wl = WORKLOADS[name]
    if mode == "setup":
        out = run_setup(wl)
    elif mode == "ladder":
        out = run_ladder(wl)
    elif mode == "traced":
        out = run_traced(wl, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
