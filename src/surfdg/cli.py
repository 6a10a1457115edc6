"""Command line interface: convergence runs (with CSV and VTK output),
choice comparisons and projection debugging."""

import argparse
import json
import sys

import numpy as np

from .geometry import (DegenerateGradientError, EvaluationError,
                       ProjectionError, get_surface, project_first_order,
                       project_newton)
from .harness import (HarnessError, RunConfig, compare_choices,
                      run_convergence)
from .mesh import MeshError
from .solvers import SolverError


def _load_config(path) -> RunConfig:
    with open(path) as fh:
        data = json.load(fh)
    return RunConfig.from_dict(data)


def _print_report(report) -> None:
    md = report.metadata
    print(f"surface={md['surface']} choice={md['choice']} "
          f"degree={md['degree']} sigma={md['sigma']} "
          f"forcing={md['forcing']}")
    print(f"{'elements':>9} {'h':>10} {'l2_error':>12} {'l2_eoc':>7} "
          f"{'dg_error':>12} {'dg_eoc':>7} {'iters':>6}")
    for r in report.rows:
        le = "" if r.l2_eoc is None else f"{r.l2_eoc:.2f}"
        de = "" if r.dg_eoc is None else f"{r.dg_eoc:.2f}"
        flag = "" if r.solver_converged else "  [solver did not converge]"
        print(f"{r.elements:9d} {r.h:10.6f} {r.l2_error:12.6g} {le:>7} "
              f"{r.dg_error:12.6g} {de:>7} {r.solver_iterations:6d}{flag}")


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.output_csv:
        cfg.output_csv = args.output_csv
    if args.output_vtk:
        cfg.output_vtk = args.output_vtk
    report = run_convergence(cfg)
    _print_report(report)
    if not report.metadata["all_converged"]:
        print("warning: at least one level did not reach solver tolerance")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    comp = compare_choices(cfg, args.choices)
    print(f"error ratios against Choice 2 on {cfg.surface}")
    header = f"{'elements':>9} {'h':>10}"
    for t in comp.choices:
        header += f" {'l2(' + t + ')/l2(2)':>14} {'dg(' + t + ')/dg(2)':>14}"
    print(header)
    for k in range(len(comp.hs)):
        line = f"{comp.elements[k]:9d} {comp.hs[k]:10.6f}"
        for t in comp.choices:
            l2r, dgr = comp.ratios(t)[k]
            line += f" {l2r:14.6g} {dgr:14.6g}"
        print(line)
    return 0


def _cmd_project(args) -> int:
    surface = get_surface(args.surface)
    x0 = np.array(args.point, dtype=float)
    fn = project_newton if args.method == "newton" else project_first_order
    res = fn(surface, x0, tol=args.tol)
    print(f"surface {args.surface}, seed {x0.tolist()}, method {args.method}")
    print(f"point      {res.point.tolist()}")
    print(f"normal     {res.normal.tolist()}")
    print(f"iterations {res.iterations}")
    print(f"residual   {res.residual:.3e}"
          + ("  (normal check dropped, |phi| certified)"
             if res.normal_check_dropped else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="surfdg",
        description="DG interior penalty solver on implicit surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="convergence study from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-csv")
    p_run.add_argument("--output-vtk")
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="error ratios across conormal choices")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--choices", nargs="+", required=True)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_prj = sub.add_parser("project", help="single-point projection debug")
    p_prj.add_argument("--surface", required=True)
    p_prj.add_argument("--point", nargs=3, type=float, required=True)
    p_prj.add_argument("--method", choices=("first-order", "newton"),
                       default="first-order")
    p_prj.add_argument("--tol", type=float, default=1e-10)
    p_prj.set_defaults(fn=_cmd_project)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HarnessError, SolverError, MeshError, ProjectionError,
            DegenerateGradientError, EvaluationError, OSError, ValueError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
