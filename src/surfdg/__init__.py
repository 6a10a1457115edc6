"""Interior penalty discontinuous Galerkin solver for -lap_G u + u = f on
implicit surfaces, with a convergence benchmark harness."""

from .assembly import (PenaltyError, PenaltyParams, SparseSystem,
                       assemble_rhs, assemble_system, check_symmetry,
                       normalize_choice, penalty_lower_bound,
                       resolve_conormal_choice, write_matrix_market)
from .dgspace import (DgFunction, DgSpace, QuadratureError, QuadratureRule,
                      basis_eval, evaluate, get_quadrature, interpolate,
                      tangential_basis_gradient)
from .geometry import (DegenerateGradientError, EvaluationError,
                       LevelSetSurface, ProjectionError, ProjectionResult,
                       ScalarField3, approx_normal, get_surface, grad_normal,
                       laplace_beltrami_levelset,
                       laplace_beltrami_normal_field, project_first_order,
                       project_newton, project_points, stopping_residual)
from .harness import (ChoiceComparison, ConvergenceReport, ConvergenceRow,
                      RunConfig, compare_choices, compute_eoc,
                      compute_errors, export_vtk, run_convergence,
                      write_csv)
from .mesh import (EdgeIntersection, EdgeSet, MeshError, NonManifoldError,
                   SurfaceMesh, build_edges, conormal, initial_mesh,
                   mesh_width, read_off, refine_nonconforming,
                   refine_uniform, write_off)
from .problems import TestProblem, exact_u_on_gammah, make_problem
from .solvers import (BreakdownError, IndefiniteSystemError,
                      NonSymmetricMatrixError, SolveReport, SolverError,
                      bicgstab, cg, jacobi_precondition)

__version__ = "0.1.0"
