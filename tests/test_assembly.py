"""IP matrix assembly: penalty bounds, conormal choices, oracles."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dziuk_space, flat_grid, flat_pair, traced_bytes
from surfdg import _pool, assembly
from surfdg.assembly import (
    CHOICES,
    PenaltyError,
    PenaltyParams,
    _quad_degrees,
    assemble_mass_stiffness,
    assemble_penalty_matrix,
    assemble_rhs,
    assemble_system,
    check_symmetry,
    normalize_choice,
    penalty_bounds,
    penalty_lower_bound,
    resolve_conormal_choice,
    write_matrix_market,
)
from surfdg.dgspace import DgFunction, DgSpace, get_quadrature
from surfdg.geometry import make_plane, make_sphere
from surfdg.mesh import (SurfaceMesh, initial_mesh, refine_nonconforming,
                         refine_uniform)
from surfdg.problems import make_problem


def equilateral_pair():
    s3 = np.sqrt(3.0) / 2.0
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.5, s3, 0.0], [0.5, -s3, 0.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3]], dtype=np.int64)
    return SurfaceMesh(vertices=verts, triangles=tris,
                       levels=np.zeros(2, np.int32), allow_boundary=True)


def sphere_mesh(refinements=1):
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    for _ in range(refinements):
        m = refine_uniform(m, sph)
    return m


# ---------------------------------------------------------------- penalty


def test_penalty_lower_bound_equilateral():
    mesh = equilateral_pair()
    got = penalty_lower_bound(mesh, mesh.edges[0])
    assert got == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)


def test_penalty_lower_bound_right_isoceles():
    mesh = flat_pair()
    got = penalty_lower_bound(mesh, mesh.edges[0])
    # (1 + 1 + 2) / (2 * 1/2)
    assert got == pytest.approx(4.0, abs=1e-12)


def test_penalty_bounds_array():
    mesh = sphere_mesh(0)
    b = penalty_bounds(mesh)
    assert b.shape == (len(mesh.edges),)
    assert np.all(b > 0)
    for i in (0, 7, 29):
        assert b[i] == pytest.approx(penalty_lower_bound(mesh, mesh.edges[i]))


def test_penalty_params_validation():
    with pytest.raises(PenaltyError, match="safety factor"):
        PenaltyParams(sigma=0.5)


@pytest.mark.parametrize("kwargs, match", [
    ({"sigma": float("nan")}, "safety factor nan is not finite"),
    ({"sigma": float("inf")}, "safety factor inf is not finite"),
    ({"omega": float("nan")}, "omega nan is not finite"),
    ({"omega": float("inf")}, "omega inf is not finite"),
    ({"omega": 100.0, "sigma": 5.0},
     "omega 100.0 fixes every weight; sigma 5.0 would be ignored")],
    ids=["sigma-nan", "sigma-inf", "omega-nan", "omega-inf", "omega-sigma"])
def test_penalty_params_refuse_non_finite_and_ignored(kwargs, match):
    """A non-finite sigma or omega is refused where it is given, not as a
    NaN matrix at the solve; an omega fixes every weight, so a sigma
    given with it is refused instead of ignored."""
    with pytest.raises(PenaltyError, match=f"^{re.escape(match)}"):
        PenaltyParams(**kwargs)
    # the default sigma, spelt out, is no second setting
    assert PenaltyParams(omega=100.0, sigma=2.0).omega == 100.0


def test_penalty_refuses_bound_violations():
    mesh = flat_pair()
    # the stability bound itself is refused, and anything below it
    with pytest.raises(PenaltyError, match="does not exceed"):
        PenaltyParams(omega=4.0).omegas(mesh)
    with pytest.raises(PenaltyError):
        PenaltyParams(omega=3.9).omegas(mesh)
    om = PenaltyParams(omega=4.0 + 1e-6).omegas(mesh)
    assert np.allclose(om, 4.0 + 1e-6)


def test_penalty_modes():
    mesh = sphere_mesh(0)
    b = penalty_bounds(mesh)
    om_global = PenaltyParams(sigma=2.0).omegas(mesh)
    assert np.allclose(om_global, 2.0 * b.max())


# ------------------------------------------------------- conormal choices


def test_normalize_choice():
    assert normalize_choice(2) == "2"
    assert normalize_choice("4t") == "4T"
    assert normalize_choice(" 3 ") == "3"
    with pytest.raises(ValueError, match="unknown conormal choice"):
        normalize_choice("5")


def test_resolve_conormal_choice_table():
    nm = np.array([0.0, 1.0, 0.0])
    npl = np.array([1.0, 0.0, 0.0])
    d = (nm - npl) / np.sqrt(2.0)

    nd, nem, nep = resolve_conormal_choice(1, nm, npl)
    assert np.allclose([nd, nem, nep], [nm, nm, -nm])
    nd, nem, nep = resolve_conormal_choice(2, nm, npl)
    assert np.allclose([nd, nem, nep], [nm, nm, npl])
    nd, nem, nep = resolve_conormal_choice(3, nm, npl)
    assert np.allclose([nd, nem, nep], [d, d, -d])
    for tag in (4, "4T"):
        nd, nem, nep = resolve_conormal_choice(tag, nm, npl)
        assert np.allclose([nd, nem, nep], [nm, -npl, -nm])


def test_resolve_conormal_choice_average_fallback():
    # parallel conormals have no average direction; fall back to Choice 2
    n = np.array([0.0, 0.0, 1.0])
    nd, nem, nep = resolve_conormal_choice(3, n, n)
    assert np.allclose([nd, nem, nep], [n, n, n])


def test_resolve_conormal_choice_rejects_non_unit():
    with pytest.raises(ValueError, match="not unit"):
        resolve_conormal_choice(2, (0.0, 2.0, 0.0), (1.0, 0.0, 0.0))


# ----------------------------------------------------------- flat oracles


def sympy_flat_pair_oracle(omega=8.0):
    """6x6 IP matrix on the two-triangle unit square, integrated exactly
    from the global bilinear form (volume - consistency + penalty)."""
    import sympy as sym

    x, y, t = sym.symbols("x y t")
    beta = sym.Rational(omega) / sym.sqrt(2)

    def p1_basis(tri2d):
        out = []
        for k in range(3):
            a, b, c = sym.symbols(f"a{k} b{k} c{k}")
            f = a + b * x + c * y
            eqs = [f.subs({x: tri2d[m][0], y: tri2d[m][1]})
                   - (1 if m == k else 0) for m in range(3)]
            out.append(sym.expand(f.subs(sym.solve(eqs, (a, b, c)))))
        return out

    b0 = p1_basis([(0, 0), (1, 0), (1, 1)])
    b1 = p1_basis([(0, 0), (1, 1), (0, 1)])

    def vol_int(elem, expr):
        if elem == 0:
            return sym.integrate(sym.integrate(expr, (y, 0, x)), (x, 0, 1))
        return sym.integrate(sym.integrate(expr, (x, 0, y)), (y, 0, 1))

    def edge_int(expr):
        # diagonal (0,0)-(1,1), ds = sqrt(2) dt
        return sym.integrate(expr.subs({x: t, y: t}) * sym.sqrt(2), (t, 0, 1))

    n_m = (-1 / sym.sqrt(2), 1 / sym.sqrt(2))  # out of element 0
    n_p = (1 / sym.sqrt(2), -1 / sym.sqrt(2))
    basis = [(0, f) for f in b0] + [(1, f) for f in b1]
    zero = sym.Integer(0)

    def entry(ju, iv):
        eu, fu = basis[ju]
        ev, fv = basis[iv]
        val = zero
        if eu == ev:
            val += vol_int(eu, sym.diff(fu, x) * sym.diff(fv, x)
                           + sym.diff(fu, y) * sym.diff(fv, y) + fu * fv)
        up, um = (fu, zero) if eu == 1 else (zero, fu)
        vp, vm = (fv, zero) if ev == 1 else (zero, fv)
        dnu = (sym.diff(fu, x) * (n_p[0] if eu == 1 else n_m[0])
               + sym.diff(fu, y) * (n_p[1] if eu == 1 else n_m[1]))
        dnv = (sym.diff(fv, x) * (n_p[0] if ev == 1 else n_m[0])
               + sym.diff(fv, y) * (n_p[1] if ev == 1 else n_m[1]))
        dnup, dnum = (dnu, zero) if eu == 1 else (zero, dnu)
        dnvp, dnvm = (dnv, zero) if ev == 1 else (zero, dnv)
        val -= edge_int((up - um) * sym.Rational(1, 2) * (dnvp - dnvm)
                        + (vp - vm) * sym.Rational(1, 2) * (dnup - dnum))
        val += edge_int(beta * (up - um) * (vp - vm))
        return val

    return np.array([[float(entry(j, i)) for j in range(6)]
                     for i in range(6)])


def test_flat_pair_matches_symbolic_oracle():
    mesh = flat_pair()
    space = DgSpace(mesh, 1)
    A = assemble_system(space, 2, PenaltyParams(omega=8.0)).matrix.toarray()
    oracle = sympy_flat_pair_oracle(omega=8.0)
    assert np.abs(A - oracle).max() <= 1e-12


@pytest.mark.parametrize("mesh_factory", [flat_pair, lambda: flat_grid(8)])
def test_flat_equivalence_of_choices(mesh_factory):
    """With opposite flat conormals every substitution in the choice table
    collapses to the same matrix."""
    space = DgSpace(mesh_factory(), 1)
    pen = PenaltyParams(sigma=2.0)
    mats = {c: assemble_system(space, c, pen).matrix.toarray()
            for c in ("1", "2", "3", "4", "4T")}
    scale = np.abs(mats["2"]).max()
    for c in ("1", "3", "4"):
        assert np.abs(mats[c] - mats["2"]).max() <= 1e-12 * scale
    # the tangential variant only modifies penalty terms through
    # n_h^+ . n_h^-, which is -1 here
    assert np.abs(mats["4T"] - mats["4"]).max() <= 1e-12 * scale


def test_rhs_constant_forcing_flat():
    mesh = flat_pair()
    rhs = assemble_rhs(DgSpace(mesh, 1), make_plane(), lambda x: np.ones(len(x)))
    # each P1 hat integrates to |K| / 3 = 1/6
    assert np.allclose(rhs, 1.0 / 6.0, atol=1e-14)
    assert rhs.sum() == pytest.approx(1.0, abs=1e-13)  # total area


# ------------------------------------------------- structural properties


def test_curved_symmetry_classes():
    mesh = sphere_mesh(1)
    space = DgSpace(mesh, 1)
    pen = PenaltyParams(sigma=2.0)
    scale = None
    for choice in ("2", "3", "4"):
        sys_ = assemble_system(space, choice, pen)
        scale = np.abs(sys_.matrix.data).max()
        assert check_symmetry(sys_) <= 1e-12 * scale
    defect1 = check_symmetry(assemble_system(space, "1", pen))
    assert defect1 > 1e-8 * scale  # measured ~1e-3 relative


def test_choice2_positive_definite_curved():
    mesh = sphere_mesh(0)
    A = assemble_system(DgSpace(mesh, 1), 2, PenaltyParams(sigma=2.0))
    eigs = np.linalg.eigvalsh(A.matrix.toarray())
    assert eigs.min() > 0


def nonconforming_sphere():
    """Icosahedral sphere with its x1 > 0 half refined once, so half of
    its intersections are hanging segments."""
    sph = make_sphere()
    m = initial_mesh(sph, "icosahedron")
    cent = m.triangle_vertices().mean(axis=1)
    return refine_nonconforming(m, np.flatnonzero(cent[:, 0] > 0.0), sph)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("make_mesh", [lambda: sphere_mesh(0),
                                       nonconforming_sphere],
                         ids=["seed", "nonconforming"])
def test_penalty_scaling_identity(make_mesh, degree):
    """Doubling omega adds exactly one extra copy of the penalty matrix:
    A(2 omega) - A(omega) = P(omega)."""
    mesh = make_mesh()
    space = DgSpace(mesh, degree)
    bound = penalty_bounds(mesh).max()
    om = 2.0 * bound
    a1 = assemble_system(space, 2, PenaltyParams(omega=om)).matrix
    a2 = assemble_system(space, 2, PenaltyParams(omega=2 * om)).matrix
    p = assemble_penalty_matrix(space, PenaltyParams(omega=om)).matrix
    gap = np.abs((a2 - a1 - p).toarray()).max()
    assert gap <= 1e-12 * np.abs(a1.data).max()


def test_quadrature_override_invariance(monkeypatch):
    # P1 integrands are exact under the default budget already; raising
    # the rules must only move entries by roundoff
    mesh = sphere_mesh(0)
    space = DgSpace(mesh, 1)
    pen = PenaltyParams(sigma=2.0)
    a = assemble_system(space, 2, pen).matrix.toarray()
    monkeypatch.setattr(assembly, "_quad_degrees", lambda degree: (6, 6))
    b = assemble_system(space, 2, pen).matrix.toarray()
    assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


def test_continuous_arguments_see_volume_terms_only(square2):
    """Jumps of continuous interpolants vanish, so the IP form reduces to
    mass + stiffness for such pairs."""
    space = DgSpace(square2, 1)
    A = assemble_system(space, 2, PenaltyParams(omega=8.0)).matrix.toarray()
    MS = assemble_mass_stiffness(space).matrix.toarray()
    rng = np.random.default_rng(7)
    for _ in range(5):
        nu = rng.standard_normal(4)
        nv = rng.standard_normal(4)
        u = np.array([nu[0], nu[1], nu[2], nu[0], nu[2], nu[3]])
        v = np.array([nv[0], nv[1], nv[2], nv[0], nv[2], nv[3]])
        assert abs(v @ A @ u - v @ MS @ u) <= 1e-12


def test_mass_stiffness_flat_pair():
    # int over the unit square of 1 via the mass part; stiffness kernel
    # contains the elementwise-constant vector
    space = DgSpace(flat_pair(), 1)
    MS = assemble_mass_stiffness(space).matrix.toarray()
    ones = np.ones(6)
    assert ones @ MS @ ones == pytest.approx(1.0, abs=1e-13)


def test_sparse_system_csr_contract():
    mesh = sphere_mesh(0)
    space = DgSpace(mesh, 1)
    sys_ = assemble_system(space, 2, PenaltyParams(sigma=2.0))
    n = space.total_dofs
    a = sys_.matrix
    assert a.format == "csr" and a.dtype == np.float64
    assert a.shape == (n, n)
    assert a.indptr.shape == (n + 1,)
    assert a.indptr[-1] == len(a.data)
    assert a.indices.max() < n
    # row k of a DG matrix couples at most 4 elements (self + neighbours)
    nnz_per_row = np.diff(a.indptr)
    assert nnz_per_row.max() <= 4 * space.dofs_per_element


def test_matrix_market_roundtrip(tmp_path):
    from scipy.io import mmread

    mesh = flat_pair()
    sys_ = assemble_system(DgSpace(mesh, 1), 2, PenaltyParams(omega=8.0))
    path = tmp_path / "system.mtx"
    write_matrix_market(sys_, path)
    back = mmread(path).toarray()
    assert np.abs(back - sys_.matrix.toarray()).max() <= 1e-14


def test_assembly_p2_smoke():
    mesh = sphere_mesh(0)
    space = DgSpace(mesh, 2)
    sys_ = assemble_system(space, 3, PenaltyParams(sigma=2.0))
    assert sys_.matrix.shape == (120, 120)
    assert check_symmetry(sys_) <= 1e-12 * np.abs(sys_.matrix.data).max()


# ------------------------------------------------------- batches, memory


@pytest.mark.parametrize("name, degree, refinements", [
    ("enzensberger-stern", 1, 2),  # generic-LB forcing
    ("dziuk", 1, 0),  # analytic forcing
    ("dziuk", 2, 1),
])
def test_rhs_batches_do_not_change_values(monkeypatch, name, degree,
                                          refinements):
    """Building and projecting the rhs points and evaluating f per chunk
    of elements, the last chunk holding a single element, gives exactly
    the one-chunk rhs."""
    problem = make_problem(name)
    surf = problem.surface
    if name == "dziuk":
        mesh = initial_mesh(surf, "icosahedron")
    else:
        mesh = initial_mesh(surf, "octahedron", scale=1.25)
    for _ in range(refinements):
        mesh = refine_uniform(mesh, surf)
    space = DgSpace(mesh, degree)
    rule_points = len(get_quadrature("triangle",
                                     _quad_degrees(degree)[0]).weights)
    m = len(mesh.triangles)
    step = next(b for b in range(2, m) if (m - 1) % b == 0)
    # chunks of ``step`` elements per usable CPU
    monkeypatch.setattr(_pool, "_LIFT_BATCH",
                        step * rule_points * _pool._usable_cpus())
    slices = _pool._slices(m, m * rule_points, _pool._LIFT_BATCH)
    assert len(slices) == (m - 1) // step + 1
    batched = assemble_rhs(space, surf, problem.f)
    monkeypatch.undo()
    assert np.array_equal(batched, assemble_rhs(space, surf, problem.f))


def test_rhs_chunks_in_flight_hold_one_budget(monkeypatch):
    """With two workers, each chunk of the generic-LB rhs lift gets half
    the point budget, so the rhs on the 5-refinement Enzensberger-Stern P1
    mesh peaks above its (m, q) forcing values at no more than two such
    chunks run one after another on one CPU, and keeps only the rhs."""
    problem = make_problem("enzensberger-stern")
    surf = problem.surface
    mesh = initial_mesh(surf, "octahedron", scale=1.25)
    for _ in range(5):
        mesh = refine_uniform(mesh, surf)
    space = DgSpace(mesh, 1)
    q = len(get_quadrature("triangle", _quad_degrees(1)[0]).weights)
    m = len(mesh.triangles)
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
        # 20 chunks of the same elements per worker on one and on two CPUs
        monkeypatch.setattr(_pool, "_LIFT_BATCH", cpus * q * -(-m // 20))
        assert len(_pool._slices(m, m * q, _pool._LIFT_BATCH)) == 20
        rhs, peak, kept = traced_bytes(
            lambda: assemble_rhs(space, surf, problem.f))
        assert kept == rhs.nbytes
        peaks[cpus] = peak - 8 * m * q
    assert peaks[2] <= 2 * peaks[1]


def test_meshes_spaces_functions_and_systems_compare_by_identity():
    """``==`` on two meshes built alike, on spaces of two meshes, on
    functions and on systems compares identities, not their arrays (whose
    truth value is ambiguous), and each of them hashes."""
    meshes = [flat_grid(2), flat_grid(2)]
    spaces = [DgSpace(m, 1) for m in meshes]
    funcs = [DgFunction(s, np.zeros(s.total_dofs)) for s in spaces]
    systems = [assemble_system(s, 2, PenaltyParams()) for s in spaces]
    for a, b in (meshes, spaces, funcs, systems):
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2


def _csr_bytes(a):
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


@pytest.mark.parametrize("degree", [1, 2])
def test_assemble_system_memory(monkeypatch, degree):
    """Assembled in 16 row chunks, the 4-refinement Dziuk matrix peaks at
    no more than twice the bytes of the CSR it returns (about one matrix
    plus one chunk), and the call keeps exactly those bytes."""
    space = dziuk_space(4, degree)
    n = space.dofs_per_element
    triplets = n * n * (len(space.mesh.triangles) + 4 * len(space.mesh.edges))
    monkeypatch.setattr(_pool, "_CHUNK_TRIPLETS", triplets // 16)
    chunks = []
    convert = assembly._chunk_csr

    def counted(*args):
        chunks.append(args[1:3])  # lo, hi
        return convert(*args)

    monkeypatch.setattr(assembly, "_chunk_csr", counted)
    system, peak, kept = traced_bytes(
        lambda: assemble_system(space, 2, PenaltyParams()))
    a = system.matrix
    del system
    assert len(chunks) >= 8
    assert peak <= 2 * _csr_bytes(a)
    assert kept == _csr_bytes(a)


@pytest.mark.parametrize("degree", [1, 2])
def test_shared_pass_memory(monkeypatch, degree):
    """With row chunks sized for 16 chunks of one Choice 2 matrix, the
    four-choice pass on the 4-refinement Dziuk mesh peaks, above the bytes
    of the matrices it returns, at no more than the one-choice call peaks
    above its CSR: its chunk budget counts the triplets of every output."""
    space = dziuk_space(4, degree)
    n = space.dofs_per_element
    triplets = n * n * (len(space.mesh.triangles) + 4 * len(space.mesh.edges))
    monkeypatch.setattr(_pool, "_CHUNK_TRIPLETS", triplets // 16)
    chunks = []
    convert = assembly._chunk_csr

    def counted(*args):
        chunks.append(args[1:3])  # lo, hi
        return convert(*args)

    monkeypatch.setattr(assembly, "_chunk_csr", counted)
    one, peak_one, _ = traced_bytes(
        lambda: assemble_system(space, 2, PenaltyParams()))
    assert len(set(chunks)) >= 8
    four, peak_four, kept = traced_bytes(
        lambda: assembly._assemble_choices(space, ["1", "2", "3", "4"],
                                           PenaltyParams()))
    # the outputs share the first one's indices and indptr
    out_bytes = _csr_bytes(four[0].matrix) + sum(
        s.matrix.data.nbytes for s in four[1:])
    assert kept == out_bytes
    assert peak_four - out_bytes <= peak_one - _csr_bytes(one.matrix)


def test_shared_pass_makes_each_shared_face_term_once(monkeypatch):
    """The four-choice pass forms, per chunk and side, one diagonal face
    block per distinct n_D array, not one per choice: Choices 1, 2 and 4
    (n_D- = n-) get the same block, and Choice 3 its own."""
    space = DgSpace(nonconforming_sphere(), 1)
    monkeypatch.setattr(_pool, "_CHUNK_TRIPLETS", 2000)
    chunks = {}  # id of a chunk's face data -> (face data, per side diags)
    face_blocks = assembly._face_blocks

    def spy(tag, sides, *rest):
        blocks = face_blocks(tag, sides, *rest)
        # the face data is kept, so no later chunk's data takes its id
        _, diags = chunks.setdefault(id(sides), (sides, ({}, {})))
        for side, (diag, _, _) in zip(diags, blocks[::2]):
            side[tag] = diag
        return blocks

    monkeypatch.setattr(assembly, "_face_blocks", spy)
    assembly._assemble_choices(space, ["1", "2", "3", "4"], PenaltyParams())
    assert len(chunks) >= 4
    for _, diags in chunks.values():
        for side in diags:
            assert side["1"] is side["2"] is side["4"]
            assert side["3"] is not side["1"]


def test_chunk_off_the_pattern_is_refused(monkeypatch):
    """A row chunk whose summed entries do not fill the preallocated
    pattern raises and names the chunk."""
    space = DgSpace(sphere_mesh(1), 1)
    convert = assembly._chunk_csr

    def drop_last_block(blocks, lo, *rest):
        if lo > 0:
            blocks.pop()
        return convert(blocks, lo, *rest)

    monkeypatch.setattr(_pool, "_CHUNK_TRIPLETS", 2000)
    monkeypatch.setattr(assembly, "_chunk_csr", drop_last_block)
    with pytest.raises(RuntimeError, match=r"row chunk 1 \(elements \d+ to"):
        assemble_system(space, 2, PenaltyParams())


def _listed_defect(a) -> float:
    diff = (a - a.T).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def _random_csr(rng, kind):
    n = int(rng.integers(1, 30))
    a = sp.random(n, n, density=rng.uniform(0.05, 0.6), format="csr",
                  random_state=rng)
    if kind in ("symmetric pattern", "symmetric", "explicit zeros"):
        a = (a + a.T).tocsr()
    if kind == "symmetric pattern":
        a.data = rng.standard_normal(a.nnz)
    elif kind == "explicit zeros":
        a.data[rng.random(a.nnz) < 0.4] = 0.0
    elif kind == "cyclic":  # the rows of A and A^T hold one entry each
        a = sp.csr_matrix((rng.standard_normal(n),
                           ((np.arange(n) + 1) % n, np.arange(n))),
                          shape=(n, n))
    elif kind == "unsorted":
        for i in range(n):
            row = slice(a.indptr[i], a.indptr[i + 1])
            perm = rng.permutation(row.stop - row.start)
            a.indices[row] = a.indices[row][perm]
            a.data[row] = a.data[row][perm]
        a.has_sorted_indices = False
    return a


@pytest.mark.parametrize("seed, kind", enumerate([
    "general", "symmetric pattern", "symmetric", "explicit zeros",
    "cyclic", "unsorted"]))
def test_check_symmetry_equals_listed_difference(monkeypatch, seed, kind):
    """The row-chunk comparison returns, bit for bit, the largest entry of
    the listed difference A - A^T, with the default chunk and with chunks
    of 5 entries, which cross rows."""
    for chunk in (_pool._CHUNK_TRIPLETS, 5):
        monkeypatch.setattr(_pool, "_CHUNK_TRIPLETS", chunk)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a = _random_csr(rng, kind)
            got = check_symmetry(a)
            assert np.float64(got).tobytes() == np.float64(
                _listed_defect(a)).tobytes()


def test_check_symmetry_empty_and_assembled():
    for a in (sp.csr_matrix((0, 0)), sp.csr_matrix((5, 5))):
        assert check_symmetry(a) == 0.0
    space = DgSpace(sphere_mesh(1), 1)
    for choice in CHOICES:
        a = assemble_system(space, choice, PenaltyParams()).matrix
        assert np.float64(check_symmetry(a)).tobytes() == np.float64(
            _listed_defect(a)).tobytes()


def test_check_symmetry_dense():
    """Dense input is checked like the solvers take it, as CSR."""
    assert check_symmetry(np.array([[1.0, 2.0], [3.0, 4.0]])) == 1.0


@pytest.mark.parametrize("degree", [1, 2])
def test_check_symmetry_memory(monkeypatch, degree):
    """With chunks of 1/16 of the 4-refinement Dziuk matrix, the symmetry
    check peaks at no more than twice the bytes of one chunk's entries and
    column indices: it holds no transposed copy."""
    a = assemble_system(dziuk_space(4, degree), 2, PenaltyParams()).matrix
    chunk = a.nnz // 16
    monkeypatch.setattr(_pool, "_CHUNK_TRIPLETS", chunk)
    _, peak, kept = traced_bytes(lambda: check_symmetry(a))
    assert peak <= 2 * chunk * (a.data.itemsize + a.indices.itemsize)
    assert kept == 0
