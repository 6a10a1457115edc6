"""Convergence harness: error norms, EOC tables, CSV/VTK artifacts."""

import dataclasses
import weakref
from pathlib import Path

import numpy as np
import pytest

import surfdg.harness as harness
from conftest import flat_grid, traced_bytes
from surfdg import _pool
from surfdg.assembly import PenaltyParams, assemble_rhs, assemble_system
from surfdg.dgspace import DgFunction, DgSpace, get_quadrature, interpolate
from surfdg.geometry import ScalarField3, make_plane, make_sphere
from surfdg.harness import (
    HarnessError,
    ConvergenceReport,
    ConvergenceRow,
    RunConfig,
    compare_choices,
    compute_eoc,
    compute_errors,
    export_vtk,
    read_vtk_counts,
    run_convergence,
    write_csv,
)
from surfdg.mesh import initial_mesh, refine_nonconforming, refine_uniform
from surfdg.problems import TestProblem, make_problem
from surfdg.solvers import bicgstab, cg


def zero_field():
    return ScalarField3(
        value=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def linear_field(a=2.0, b=-3.0):
    return ScalarField3(
        value=lambda x: a * np.asarray(x)[..., 0] + b * np.asarray(x)[..., 1],
        gradient=lambda x: np.broadcast_to(
            np.array([a, b, 0.0]), np.asarray(x).shape).copy())


def plane_problem(field):
    return TestProblem(name="plane", surface=make_plane(), exact_u=field,
                       forcing_mode="analytic",
                       f=lambda p: np.zeros(len(p)))


def sphere_mesh(refinements):
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    for _ in range(refinements):
        m = refine_uniform(m, sph)
    return m


# ------------------------------------------------------------------- eoc


def test_compute_eoc_reference_row():
    eocs = compute_eoc([0.0842372, 0.0268596], [0.353599, 0.176993])
    assert eocs[0] is None
    assert eocs[1] == pytest.approx(1.65, abs=0.005)


def test_compute_eoc_model_sequences():
    hs = [1.0, 0.5, 0.25]
    assert compute_eoc([0.4, 0.2, 0.1], hs)[1:] == pytest.approx([1.0, 1.0])
    assert compute_eoc([0.4, 0.1, 0.025], hs)[1:] == pytest.approx([2.0, 2.0])


def test_compute_eoc_undefined_markers():
    eocs = compute_eoc([0.5, 0.0, 0.1], [1.0, 0.5, 0.25])
    assert eocs == [None, None, None]
    eocs = compute_eoc([0.5, 0.25, -1.0], [1.0, 0.5, 0.25])
    assert eocs[1] == pytest.approx(1.0)
    assert eocs[2] is None


@pytest.mark.filterwarnings("error")
def test_no_eoc_where_h_does_not_shrink():
    """The first halfspace-x step keeps the seed's longest edge, so h does
    not shrink and neither EOC of that level is defined (nor warns)."""
    assert compute_eoc([0.5, 0.25, 0.1], [1.0, 1.0, 2.0]) == [None] * 3
    report = run_convergence({"surface": "sphere", "refinements": 1,
                              "nonconforming": True})
    assert report.hs[1] == report.hs[0]
    assert report.rows[1].l2_eoc is None and report.rows[1].dg_eoc is None


def test_compute_eoc_validation():
    with pytest.raises(HarnessError, match="equal length"):
        compute_eoc([1.0, 0.5], [1.0])
    with pytest.raises(HarnessError, match="two levels"):
        compute_eoc([1.0], [1.0])


# ----------------------------------------------------------- error norms


def test_errors_vanish_for_interpolated_linear_flat():
    """On the plane the closest-point map is the identity, so a linear
    exact solution is reproduced by its P1 interpolant."""
    field = linear_field()
    prob = plane_problem(field)
    space = DgSpace(flat_grid(4), 1)
    u_h = interpolate(space, field.value)
    l2, dg = compute_errors(u_h, prob)
    assert l2 <= 1e-14
    assert dg <= 1e-14


def test_l2_error_zero_solution_sphere():
    # || x1 x2 ||_{L2(S^2)} = sqrt(4 pi / 15), reproduced on the
    # discrete surface up to O(h^2) geometry error
    prob = make_problem("sphere")
    space = DgSpace(sphere_mesh(2), 1)
    zero = DgFunction(space, np.zeros(space.total_dofs))
    l2, _ = compute_errors(zero, prob)
    assert abs(l2 - np.sqrt(4.0 * np.pi / 15.0)) < 0.02  # measured 0.0087


def test_dg_error_of_constant():
    """For e = constant c the jump and gradient parts vanish and the DG
    error collapses to |c| sqrt(area)."""
    mesh = sphere_mesh(2)
    space = DgSpace(mesh, 1)
    c = DgFunction(space, np.full(space.total_dofs, 3.0))
    prob = TestProblem(name="zero", surface=make_sphere(),
                       exact_u=zero_field(), forcing_mode="analytic",
                       f=lambda p: np.zeros(len(p)))
    l2, dg = compute_errors(c, prob)
    expect = 3.0 * np.sqrt(mesh.areas.sum())
    assert dg == pytest.approx(expect, abs=1e-12)
    assert l2 == pytest.approx(expect, abs=1e-12)


def test_dg_error_dominates_l2():
    prob = make_problem("sphere")
    space = DgSpace(sphere_mesh(1), 1)
    rhs = assemble_rhs(space, prob.surface, prob.f)
    system = assemble_system(space, 2, PenaltyParams(sigma=2.0))
    u_h = DgFunction(space, cg(system, rhs, precond="jacobi").solution)
    l2, dg = compute_errors(u_h, prob)
    assert dg >= l2 > 0.0


def test_compute_errors_needs_edges_before_any_work():
    """A mesh without intersections is refused before the exact solution
    is evaluated anywhere."""
    def refuse(x):
        raise AssertionError("exact solution evaluated")

    prob = TestProblem(name="refuse", surface=make_sphere(),
                       exact_u=ScalarField3(value=refuse, gradient=refuse),
                       forcing_mode="analytic", f=refuse)
    space = DgSpace(dataclasses.replace(sphere_mesh(0), edges=None), 1)
    with pytest.raises(HarnessError, match="mesh edges not built"):
        compute_errors(DgFunction(space, np.zeros(space.total_dofs)), prob)


def test_compute_errors_repeat_keeps_nothing():
    """A repeat call returns the same errors, and no call leaves an array
    behind on the space or anywhere else."""
    prob = make_problem("dziuk")
    space = DgSpace(initial_mesh(prob.surface, "icosahedron"), 2)
    u_h = DgFunction(space, np.random.default_rng(1).standard_normal(
        space.total_dofs))
    first, _, kept = traced_bytes(lambda: compute_errors(u_h, prob))
    assert kept == 0
    again, _, kept = traced_bytes(lambda: compute_errors(u_h, prob))
    assert again == first
    assert kept == 0


def test_compute_errors_other_problem_not_stale():
    """A second problem on the same space gets its own errors: they equal
    those on a fresh space, not those of the first."""
    prob = make_problem("sphere")
    x3 = TestProblem(
        name="x3", surface=prob.surface, forcing_mode="analytic", f=prob.f,
        exact_u=ScalarField3(
            value=lambda x: np.asarray(x)[..., 2],
            gradient=lambda x: np.broadcast_to(
                np.array([0.0, 0.0, 1.0]), np.asarray(x).shape).copy()))
    mesh = sphere_mesh(1)
    space = DgSpace(mesh, 1)
    u_h = interpolate(space, lambda p: p[:, 0] * p[:, 1])
    own = compute_errors(u_h, prob)
    other = compute_errors(u_h, x3)
    fresh = DgFunction(DgSpace(mesh, 1), u_h.coefficients)
    assert other == compute_errors(fresh, x3)
    assert other != own
    assert compute_errors(u_h, prob) == own


def _error_mesh(name, nonconforming, refinements):
    prob = make_problem(name)
    surf = prob.surface
    if name == "dziuk":
        mesh = initial_mesh(surf, "icosahedron")
    else:
        mesh = initial_mesh(surf, "octahedron", scale=1.25)
    for _ in range(refinements):
        mesh = refine_uniform(mesh, surf)
    if nonconforming:
        cent = mesh.triangle_vertices().mean(axis=1)
        mesh = refine_nonconforming(mesh, np.flatnonzero(cent[:, 0] > 0.0),
                                    surf)
    return prob, mesh


@pytest.mark.parametrize("name, degree, nonconforming, refinements", [
    ("dziuk", 1, True, 0),
    ("dziuk", 2, True, 0),
    ("enzensberger-stern", 1, False, 2),  # generic-LB forcing
])
def test_error_chunks_do_not_change_values(monkeypatch, name, degree,
                                           nonconforming, refinements):
    """Lifting and integrating per chunk of elements, the last chunk
    holding a single element, gives exactly the one-chunk errors, for one
    solution and for each solution of a batch."""
    prob, mesh = _error_mesh(name, nonconforming, refinements)
    rule_points = len(get_quadrature("triangle", 6).weights)
    space = DgSpace(mesh, degree)
    rng = np.random.default_rng(3)
    batch = [rng.standard_normal(space.total_dofs) for _ in range(3)]

    def errors():
        return (compute_errors(DgFunction(space, batch[0]), prob),
                harness._errors(space, prob, batch))

    m = len(mesh.triangles)
    step = next(b for b in range(2, m) if (m - 1) % b == 0)
    # chunks of ``step`` elements per usable CPU
    monkeypatch.setattr(_pool, "_LIFT_BATCH",
                        step * rule_points * _pool._usable_cpus())
    slices = _pool._slices(m, m * rule_points, _pool._LIFT_BATCH)
    assert len(slices) == (m - 1) // step + 1
    chunked = errors()  # first, so no freed buffer helps it
    monkeypatch.undo()
    assert chunked == errors()
    assert chunked[1][0] == chunked[0]


@pytest.mark.parametrize("degree", [1, 2])
def test_first_errors_call_memory_does_not_grow(monkeypatch, degree):
    """At a fixed chunk size on one CPU, the first error call keeps
    nothing, and its peak above the integrands it must hold (two (m, q)
    arrays and one per-intersection array) does not grow from 4 to 5
    Dziuk refinements: the lift and the traces are built chunk by chunk.
    (With chunks in flight on several threads the peak depends on how
    they overlap; ``test_errors_chunks_in_flight_hold_one_budget`` bounds
    it.)"""
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(_pool, "_LIFT_BATCH", 2048 * 12)
    prob = make_problem("dziuk")
    q = len(get_quadrature("triangle", 6).weights)
    mesh = initial_mesh(prob.surface, "icosahedron")
    above = []
    for level in range(1, 6):
        mesh = refine_uniform(mesh, prob.surface)
        if level < 4:
            continue
        space = DgSpace(mesh, degree)
        u_h = DgFunction(space, np.zeros(space.total_dofs))
        _, peak, kept = traced_bytes(lambda: compute_errors(u_h, prob))
        assert kept == 0
        integrands = 8 * (2 * len(mesh.triangles) * q + len(mesh.edges))
        above.append(peak - integrands)
    assert above[1] <= above[0]


@pytest.mark.parametrize("degree", [1, 2])
def test_errors_chunks_in_flight_hold_one_budget(monkeypatch, degree):
    """With two workers, each chunk gets half the point budget, so the
    error call on the 5-refinement Dziuk mesh peaks above its integrands
    at no more than two such chunks run one after another on one CPU, and
    keeps nothing."""
    prob = make_problem("dziuk")
    q = len(get_quadrature("triangle", 6).weights)
    mesh = initial_mesh(prob.surface, "icosahedron")
    for _ in range(5):
        mesh = refine_uniform(mesh, prob.surface)
    u_h = DgFunction(DgSpace(mesh, degree), np.zeros(
        len(mesh.triangles) * (3 if degree == 1 else 6)))
    integrands = 8 * (2 * len(mesh.triangles) * q + len(mesh.edges))
    peaks = {}
    m = len(mesh.triangles)
    for cpus, batch in ((1, 1024 * 12), (2, 2048 * 12)):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(_pool, "_LIFT_BATCH", batch)
        assert len(_pool._slices(m, m * q, _pool._LIFT_BATCH)) == 20
        _, peak, kept = traced_bytes(lambda: compute_errors(u_h, prob))
        assert kept == 0
        peaks[cpus] = peak - integrands
    assert peaks[2] <= 2 * peaks[1]


# ------------------------------------------------------- run_convergence


def test_run_convergence_report_shape():
    report = run_convergence(RunConfig(surface="dziuk", refinements=1))
    assert len(report.rows) == 2
    assert [r.elements for r in report.rows] == [20, 80]
    assert report.rows[0].l2_eoc is None and report.rows[0].dg_eoc is None
    assert report.rows[1].l2_eoc is not None
    assert report.rows[1].h < report.rows[0].h
    assert all(r.solver_converged for r in report.rows)
    assert all(r.solver_iterations > 0 for r in report.rows)
    md = report.metadata
    assert md["surface"] == "dziuk" and md["choice"] == "2"
    assert md["degree"] == 1 and md["all_converged"]
    assert md["forcing"] == "analytic"
    assert len(md["levels"]) == 2
    assert md["levels"][1]["dofs"] == 240
    assert report.l2_errors[1] < report.l2_errors[0]
    assert report.hs == [r.h for r in report.rows]


def test_run_convergence_accepts_mapping(tmp_path):
    csv = tmp_path / "table.csv"
    report = run_convergence({"surface": "sphere", "refinements": 1,
                              "output_csv": str(csv)})
    assert len(report.rows) == 2
    text = csv.read_text().splitlines()
    assert text[0] == "elements,h,l2_error,l2_eoc,dg_error,dg_eoc"
    assert len(text) == 3


def test_run_convergence_rejects_unknown_keys():
    with pytest.raises(HarnessError, match="unknown config keys"):
        run_convergence({"surface": "sphere", "refinments": 2})


def test_run_convergence_nonconforming_step():
    report = run_convergence(RunConfig(surface="dziuk", refinements=1,
                                       nonconforming=True))
    # only the x1 > 0 half is refined on the first step
    assert 20 < report.rows[1].elements < 80
    assert report.metadata["marking"] == "halfspace-x"
    assert report.metadata["all_converged"]


@pytest.mark.parametrize("entry", [
    run_convergence, lambda cfg: compare_choices(cfg, ["1", "3"])],
    ids=["run_convergence", "compare_choices"])
def test_ladder_failure_names_stage(entry, tmp_path):
    missing = str(tmp_path / "missing.off")
    with pytest.raises(HarnessError, match="seed stage failed"):
        entry({"surface": "sphere", "refinements": 1, "seed": missing})


def test_ladder_frees_each_level_before_the_next(monkeypatch):
    """A level's space is released before the next level's rhs is
    assembled."""
    spaces = []

    def rhs(space, surface, f):
        assert all(ref() is None for ref in spaces)
        spaces.append(weakref.ref(space))
        return assemble_rhs(space, surface, f)

    monkeypatch.setattr(harness, "assemble_rhs", rhs)
    run_convergence({"surface": "sphere", "refinements": 2})
    assert len(spaces) == 3


def test_csv_bytes_deterministic(tmp_path):
    cfg = {"surface": "sphere", "refinements": 1}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_convergence({**cfg, "output_csv": str(p1)})
    run_convergence({**cfg, "output_csv": str(p2)})
    assert p1.read_bytes() == p2.read_bytes()


def test_eoc_stable_under_solver_tolerance():
    base = run_convergence(RunConfig(surface="sphere", refinements=3,
                                     tol=1e-10))
    tight = run_convergence(RunConfig(surface="sphere", refinements=3,
                                      tol=1e-12))
    assert abs(base.rows[-1].l2_eoc - tight.rows[-1].l2_eoc) < 0.05
    assert abs(base.rows[-1].dg_eoc - tight.rows[-1].dg_eoc) < 0.05


# -------------------------------------------------------- choice ratios


def test_compare_choices_reference_is_unity():
    comp = compare_choices(RunConfig(surface="sphere", refinements=1),
                           ["2", "3"])
    for pair in comp.ratios("2"):
        assert pair == (1.0, 1.0)
    assert comp.choices.count("2") == 1


def test_ratios_refuse_a_choice_not_compared():
    comp = harness.ChoiceComparison(
        choices=["3", "2"], elements=[20], hs=[1.0],
        l2_errors={"3": [2.0], "2": [1.0]}, dg_errors={"3": [4.0], "2": [2.0]})
    assert comp.ratios("3") == [(2.0, 2.0)]
    for choice, tag in ((1, "1"), ("4t", "4T")):
        with pytest.raises(HarnessError, match=f"^choice {tag} was not "
                           "compared; compared: 3, 2$"):
            comp.ratios(choice)


@pytest.mark.parametrize("key, value", [("solver", "cg"),
                                        ("output_csv", "table.csv"),
                                        ("output_vtk", "u.vtk")])
def test_compare_choices_rejects_unused_options(key, value, tmp_path):
    if key != "solver":
        value = str(tmp_path / value)
    with pytest.raises(HarnessError, match=key):
        compare_choices({"surface": "sphere", "refinements": 1, key: value},
                        ["1", "3"])
    assert not any(tmp_path.iterdir())


def test_compare_choices_errors_equal_single_choice_runs():
    """Choices whose errors come from one call per level get exactly the
    errors of a ladder run for that choice alone."""
    cfg = {"surface": "dziuk", "refinements": 2, "nonconforming": True}
    comp = compare_choices(cfg, ["1", "2", "3", "4"])
    for tag in ("1", "2", "3", "4"):
        alone = run_convergence({**cfg, "choice": tag})
        assert comp.l2_errors[tag] == alone.l2_errors
        assert comp.dg_errors[tag] == alone.dg_errors


def test_compare_choices_refuses_a_repeated_choice():
    """A choice given twice would fill its error lists twice per level and
    misalign every ratio; 4t and 4T name the same choice."""
    cfg = {"surface": "sphere", "refinements": 2}
    for choices, tag in ((["1", "1"], "1"), (["4t", "3", "4T"], "4T"),
                         (["2", "2"], "2")):
        with pytest.raises(HarnessError,
                           match=f"^choice {tag} is given more than once"):
            compare_choices(cfg, choices)


def test_compare_choices_needs_two():
    with pytest.raises(HarnessError, match="two choices"):
        compare_choices(RunConfig(surface="sphere", refinements=1), ["2"])


def test_flat_choices_solve_identically():
    """On a flat patch every conormal choice assembles the same system,
    so the solved coefficient vectors coincide (ratio table would be 1)."""
    space = DgSpace(flat_grid(4), 1)
    pen = PenaltyParams(sigma=2.0)
    rhs = assemble_rhs(space, make_plane(),
                       lambda x: 1.0 + x[:, 0] - 2.0 * x[:, 1])
    sols = {}
    for choice in ("1", "2", "3", "4"):
        system = assemble_system(space, choice, pen)
        solve = bicgstab if choice == "1" else cg
        sols[choice] = solve(system, rhs, tol=1e-12).solution
    ref = sols["2"]
    for choice in ("1", "3", "4"):
        assert np.linalg.norm(sols[choice] - ref) <= 1e-10 * np.linalg.norm(ref)


def test_compare_choices_dziuk_one_vs_three():
    comp = compare_choices(RunConfig(surface="dziuk", refinements=4),
                           ["1", "3"])
    for tag in ("1", "3"):
        for l2r, dgr in comp.ratios(tag):
            assert np.isfinite(l2r) and l2r > 0
            assert np.isfinite(dgr) and dgr > 0
    # the averaged choice tracks the reference closely; the one-sided
    # choice drifts above it in the DG norm on fine meshes (measured
    # 1.0002 vs 1.015 at the last level)
    assert comp.ratios("3")[-1][1] <= comp.ratios("1")[-1][1]
    assert abs(comp.ratios("3")[-1][1] - 1.0) < 0.01


# ------------------------------------------------------------- artifacts


def test_write_csv_formatting(tmp_path):
    rows = [ConvergenceRow(20, 1.0515, 0.123456789, None, 0.87654321, None),
            ConvergenceRow(80, 0.6180, 0.0268596, 1.6512345, 0.4, 1.0)]
    path = tmp_path / "out.csv"
    write_csv(ConvergenceReport(rows=rows), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "elements,h,l2_error,l2_eoc,dg_error,dg_eoc"
    assert lines[1] == "20,1.0515,0.123457,,0.876543,"
    assert lines[2] == "80,0.618,0.0268596,1.65123,0.4,1"
    # round trip at printed precision
    back = [float(x) for x in lines[2].split(",")]
    assert back[3] == pytest.approx(1.6512345, rel=1e-5)


def test_write_csv_empty_report(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(ConvergenceReport(rows=[]), path)
    assert path.read_text() == "elements,h,l2_error,l2_eoc,dg_error,dg_eoc\n"


def test_export_vtk_icosahedron(tmp_path):
    mesh = sphere_mesh(0)
    space = DgSpace(mesh, 1)
    ones = DgFunction(space, np.ones(space.total_dofs))
    path = tmp_path / "u.vtk"
    export_vtk(mesh, ones, path)
    text = path.read_text()
    assert "POINTS 12 double" in text
    assert "CELLS 20 80" in text
    assert text.count("\n5") >= 20 or "CELL_TYPES 20" in text
    assert read_vtk_counts(path) == (12, 20)
    # constant data: vertex averages are exactly 1, element means equal 1
    # up to quadrature-weight roundoff
    chunks = text.split("LOOKUP_TABLE default\n")
    point_vals = [float(v) for v in chunks[1].split()[:12]]
    cell_vals = [float(v) for v in chunks[2].split()[:20]]
    assert point_vals == [1.0] * 12
    assert np.allclose(cell_vals, 1.0, atol=1e-12)


def test_export_vtk_rejects_foreign_mesh(tmp_path):
    mesh = sphere_mesh(0)
    other = sphere_mesh(0)
    space = DgSpace(other, 1)
    ones = DgFunction(space, np.ones(space.total_dofs))
    with pytest.raises(HarnessError, match="does not live"):
        export_vtk(mesh, ones, tmp_path / "x.vtk")


def test_read_vtk_counts_rejects_garbage(tmp_path):
    path = tmp_path / "not.vtk"
    path.write_text("hello\nworld\n")
    with pytest.raises(HarnessError, match="VTK"):
        read_vtk_counts(path)


# ---------------------------------------------------------- run configs


def test_all_marking_is_refused():
    """The "all" marking, which marked every element at every step and so
    gave the conforming ladder, is an unknown marking."""
    with pytest.raises(HarnessError, match="^unknown marking 'all'$"):
        RunConfig(nonconforming=True, marking="all")


def test_runconfig_validation():
    with pytest.raises(ValueError, match="conormal choice"):
        RunConfig(choice="7")
    with pytest.raises(HarnessError, match="degree"):
        RunConfig(degree=3)
    with pytest.raises(HarnessError, match="refinement"):
        RunConfig(refinements=0)
    with pytest.raises(HarnessError, match="marking"):
        RunConfig(marking="random")
    with pytest.raises(HarnessError, match="solver"):
        RunConfig(solver="gmres")
    # the string "false" is truthy and would select a nonconforming ladder
    for name, bad in (("degree", ("1", 1.0, True, None)),
                      ("refinements", ("1", 1.5, True, False)),
                      ("sigma", ("2", True, None, float("nan"),
                                 float("inf"))),
                      ("seed_scale", ("1", False, float("-inf"))),
                      ("tol", (0.0, -1e-10, float("nan"), float("inf"),
                               "1e-10", True)),
                      ("nonconforming", ("false", "true", 0, 1, None)),
                      # an int path would be opened as a file descriptor
                      ("surface", (5, None, b"dziuk")),
                      ("seed", (3, None, 2.0)),
                      ("output_csv", (97, 2, True)),
                      ("output_vtk", (1, 0.5))):
        for value in bad:
            with pytest.raises(HarnessError, match=f"^{name} must be"):
                RunConfig(**{name: value})
    ok = RunConfig(degree=np.int64(2), refinements=np.int32(3),
                   sigma=3, seed_scale=np.float32(1.5))
    assert (ok.degree, ok.refinements, ok.sigma) == (2, 3, 3)
    assert RunConfig(choice="4t").choice == "4T"
    assert RunConfig(tol=1, nonconforming=np.bool_(True)).tol == 1
    paths = RunConfig(seed=Path("seed.off"), output_csv=Path("table.csv"),
                      output_vtk="solution.vtk")
    assert paths.seed == Path("seed.off") and paths.output_csv is not None
