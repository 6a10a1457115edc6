"""The shared pool: chunked loops across worker threads, bit for bit, with
the serial loop's failures, error state and nesting."""

import hashlib
import os
import sys
import threading
import time

import numpy as np
import pytest
from conftest import finishes_in_child
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfdg import _pool, geometry, harness
from surfdg.assembly import assemble_rhs
from surfdg.dgspace import DgSpace
from surfdg.geometry import ProjectionError, project_points
from surfdg.harness import RunConfig, compare_choices, run_convergence
from surfdg.mesh import initial_mesh, refine_uniform
from surfdg.problems import make_problem


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` makes every chunked loop see ``n`` usable CPUs, on a
    pool made for them; the pool is shut down afterwards."""
    monkeypatch.setattr(_pool, "_shared", None)

    def force(n):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: n)

    yield force
    if _pool._shared is not None:
        _pool._shared[1].shutdown(wait=True)


# the three cutters that ``_pool._slices`` replaced, as they were written
# in the loops; a slice of the first two may end past ``count``
def _old_lift_chunks(count, points, budget, cpus):
    step = max(1, max(1, budget // cpus) // points)
    return [slice(start, start + step) for start in range(0, count, step)]


def _old_projection_batches(n, budget, cpus):
    batch = max(1, budget // cpus)
    return [slice(start, start + batch) for start in range(0, n, batch)]


def _old_assembly_chunks(m, triplets, budget, cpus):
    step = max(1, max(1, budget // cpus) * m // max(triplets, 1))
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _items(slices, count):
    return [range(count)[s] for s in slices]


@settings(max_examples=300, deadline=None)
@given(count=st.integers(0, 400), points=st.integers(1, 30),
       total=st.integers(0, 1 << 16), budget=st.integers(1, 1 << 14),
       cpus=st.integers(1, 5))
@example(count=0, points=6, total=0, budget=1 << 16, cpus=2)
@example(count=7, points=6, total=0, budget=1 << 16, cpus=1)
@example(count=3, points=1, total=3, budget=8, cpus=5)
@example(count=2, points=30, total=60, budget=3, cpus=4)
@example(count=4, points=1, total=2, budget=1, cpus=2)  # budget < CPUs
def test_slices_equal_the_old_cutters(count, points, total, budget, cpus):
    """``_slices`` selects the items of the lift chunks (total = count x
    points), the projection batches (total = count) and the assembly row
    chunks (any total of triplets) as the loops cut them before, also for
    no items, no cost, one CPU and fewer items than CPUs; and its slices
    cover ``range(count)`` once, in order, clipped at ``count``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "_usable_cpus", lambda: cpus)
        cuts = {
            "lift": (_pool._slices(count, count * points, budget),
                     _old_lift_chunks(count, points, budget, cpus)),
            "projection": (_pool._slices(count, count, budget),
                           _old_projection_batches(count, budget, cpus)),
            "assembly": (_pool._slices(count, total, budget),
                         _old_assembly_chunks(count, total, budget, cpus)),
        }
    for what, (new, old) in cuts.items():
        assert _items(new, count) == _items(old, count), what
        assert [i for r in _items(new, count) for i in r] == list(
            range(count)), what
        assert all(0 <= s.start < s.stop <= count for s in new), what


@settings(max_examples=300, deadline=None)
@given(lengths=st.lists(st.integers(0, 4), max_size=40),
       long_row=st.integers(0, 200), at=st.integers(0, 40),
       parts=st.integers(1, 9))
@example(lengths=[], long_row=0, at=0, parts=3)
@example(lengths=[0, 0, 0], long_row=0, at=1, parts=2)
@example(lengths=[1, 1], long_row=50, at=1, parts=4)
def test_row_blocks_cut_at_equal_shares(lengths, long_row, at, parts):
    """``_row_blocks`` gives ``parts`` + 1 nondecreasing bounds from 0 to
    the row count, each block starting at the first row whose entries
    begin at or after its share of them, as the Krylov product cut them
    before; also with empty rows, and with a row longer than a share,
    which leaves empty blocks."""
    lengths = lengths[:at] + [long_row] + lengths[at:]
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    nnz, rows = int(indptr[-1]), len(lengths)
    bounds = _pool._row_blocks(indptr, parts)
    old = np.searchsorted(indptr, nnz * np.arange(1, parts) // parts)
    assert bounds == [0, *old.tolist(), rows]
    assert all(type(b) is int for b in bounds)
    assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))
    for k, b in enumerate(bounds[1:-1], start=1):
        share = nnz * k // parts
        assert indptr[b] >= share and (b == 0 or indptr[b - 1] < share)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5000), floor=st.integers(1, 3000),
       cpus=st.integers(1, 5))
@example(n=0, floor=1, cpus=2)
@example(n=245_760, floor=1 << 16, cpus=2)
@example(n=122_880, floor=1 << 16, cpus=2)
def test_vector_slices_cut_equal_parts_above_the_floor(n, floor, cpus):
    """``_vector_slices`` cuts ``range(n)`` once, in order, into one slice
    per usable CPU, but into no more than leave ``floor`` entries each,
    and into one at least; the slices differ in length by at most one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "_usable_cpus", lambda: cpus)
        mp.setattr(_pool, "_VECTOR_FLOOR", floor)
        cut = _items(_pool._vector_slices(n), n)
    assert len(cut) == max(1, min(cpus, n // floor))
    assert [i for r in cut for i in r] == list(range(n))
    assert max(map(len, cut)) - min(map(len, cut)) <= 1
    assert len(cut) == 1 or min(map(len, cut)) >= floor


def _two_threads():
    """A chunk function whose first two chunks wait for each other, so
    they run on two threads at once."""
    barrier = threading.Barrier(2, timeout=30)

    def meet(k):
        if k < 2:
            barrier.wait()
    return meet


def test_chunks_run_once_each_on_several_threads(workers):
    workers(3)
    meet = _two_threads()
    seen = []

    def chunk(k):
        meet(k)
        seen.append((k, threading.get_ident()))

    _pool._run_chunks(chunk, range(40))
    assert sorted(k for k, _ in seen) == list(range(40))
    assert len({t for _, t in seen}) >= 2


def test_one_cpu_runs_in_order_and_starts_no_thread(workers):
    workers(1)
    threads = threading.active_count()
    seen = []
    _pool._run_chunks(lambda k: seen.append((k, threading.get_ident())),
                      range(10))
    assert seen == [(k, threading.get_ident()) for k in range(10)]
    assert _pool._shared is None
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_numpy_error_state_reaches_pooled_chunks(workers, cpus):
    """A chunk that divides by zero inside the caller's
    ``np.errstate(divide="raise")`` raises FloatingPointError on whichever
    thread it runs, as it does in the serial loop."""
    workers(cpus)
    meet = _two_threads() if cpus > 1 else (lambda k: None)
    raised = {}

    def chunk(k):
        meet(k)
        try:
            np.divide(1.0, np.zeros(1))
        except FloatingPointError:
            raised[k] = threading.get_ident()

    with np.errstate(divide="raise"):
        _pool._run_chunks(chunk, range(8))
        with pytest.raises(FloatingPointError):
            _pool._run_chunks(lambda k: np.divide(1.0, np.zeros(1)),
                              range(8))
    assert sorted(raised) == list(range(8))
    assert len(set(raised.values())) == cpus


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_nested_loops_run_serially_in_their_chunk(workers):
    """A loop inside a chunk runs its chunks in that chunk's thread, also
    in a pool thread, whose pool could otherwise wait on itself."""
    workers(2)

    def nested():
        meet = _two_threads()
        inner = []

        def chunk(k):
            meet(k)
            outer = threading.get_ident()
            _pool._run_chunks(
                lambda j: inner.append(threading.get_ident() == outer),
                range(5))

        _pool._run_chunks(chunk, range(6))
        assert len(inner) == 30 and all(inner)

    finishes_in_child(nested)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_nested_projection_in_rhs_does_not_deadlock(monkeypatch):
    """With two usable CPUs and a one-element rhs chunk whose points span
    two projection batches, the generic-LB Enzensberger-Stern rhs
    finishes (in a forked child, given 60 s) with the serial rhs's
    bits."""
    problem = make_problem("enzensberger-stern")
    surf = problem.surface
    mesh = refine_uniform(initial_mesh(surf, "octahedron", scale=1.25), surf)
    space = DgSpace(mesh, 1)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
    serial = assemble_rhs(space, surf, problem.f)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_pool, "_shared", None)
    monkeypatch.setattr(_pool, "_LIFT_BATCH", 8)  # 4 points per worker
    m = len(mesh.triangles)
    assert _pool._slices(m, m * 6, _pool._LIFT_BATCH)[0] == slice(0, 1)
    batches = []
    project = geometry._project_batch

    def counted(surface, seeds, *args, **kwargs):
        batches.append(len(seeds))
        return project(surface, seeds, *args, **kwargs)

    def rhs():
        geometry._project_batch = counted
        got = assemble_rhs(space, surf, problem.f)
        assert got.tobytes() == serial.tobytes()
        assert 4 in batches  # the rhs projections were split

    finishes_in_child(rhs)


def _failing_batches(monkeypatch, run):
    """Make ``geometry._project_batch`` fail in two places of ``run()``:
    on the first point of the middle batch of its serial order (after a
    pause, so the other one fails first) and on the first point of the
    next batch (at once).  Returns the list that counts the batches in
    flight and the message of the first failure in point order."""
    project = geometry._project_batch
    batches = []

    def record(surface, seeds, *args, **kwargs):
        batches.append(np.array(seeds))
        return project(surface, seeds, *args, **kwargs)

    monkeypatch.setattr(geometry, "_project_batch", record)
    run()
    assert len(batches) >= 5
    mid = len(batches) // 2
    poisons = [batches[mid][0], batches[mid + 1][0]]
    active = [0]
    lock = threading.Lock()

    def failing(surface, seeds, *args, **kwargs):
        hit = [k for k, p in enumerate(poisons)
               if np.any(np.all(np.asarray(seeds) == p, axis=1))]
        with lock:
            active[0] += 1
        try:
            if hit == [0]:
                time.sleep(0.2)
            if hit:
                raise ProjectionError(f"poisoned point {hit[0]}")
            return project(surface, seeds, *args, **kwargs)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(geometry, "_project_batch", failing)
    return active, "poisoned point 0"


@pytest.mark.parametrize("where", ["project_points", "assemble_rhs"])
def test_first_failing_chunk_in_order_is_raised(monkeypatch, workers,
                                                where):
    """A ProjectionError in a middle chunk propagates with 1 and with 3
    workers as the serial loop's: the same type and message, and only
    after every chunk in flight has ended."""
    problem = make_problem("dziuk")
    surf = problem.surface
    mesh = refine_uniform(initial_mesh(surf, "icosahedron"), surf)
    space = DgSpace(mesh, 1)
    seeds = np.random.default_rng(5).uniform(-1.2, 1.2, (600, 3))
    if where == "project_points":
        monkeypatch.setattr(_pool, "_LIFT_BATCH", 60)

        def run():
            return project_points(surf, seeds)
    else:
        monkeypatch.setattr(_pool, "_LIFT_BATCH", 6 * 8)

        def run():
            return assemble_rhs(space, surf, problem.f)
    workers(1)
    active, message = _failing_batches(monkeypatch, run)
    for cpus in (1, 3):
        workers(cpus)
        with pytest.raises(ProjectionError) as info:
            run()
        assert type(info.value) is ProjectionError
        assert str(info.value) == message
        assert active[0] == 0


def _fingerprint(monkeypatch, ladder):
    """sha256 of every rhs, matrix (indptr, indices, data) and solution of
    ``ladder()``, each keyed by (level, choice, call), and the float.hex of
    its errors.  The choices of a level may run at once, so their calls
    come in any order; the key names each call once, the level by its
    element count."""
    prints = {}
    lock = threading.Lock()
    choice_of = {}  # id of an assembled system -> (level, choice)

    def sha(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def wrap(name, key, digest):
        fn = getattr(harness, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            with lock:
                k = key(args, out) + (name,)
                assert k not in prints
                prints[k] = digest(out)
            return out
        monkeypatch.setattr(harness, name, wrapped)

    def system_key(args, system):
        level_choice = (len(args[0].mesh.triangles), args[1])
        choice_of[id(system)] = level_choice
        return level_choice

    wrap("assemble_rhs", lambda args, _: (len(args[0].mesh.triangles), None),
         sha)
    wrap("assemble_system", system_key,
         lambda s: sha(s.matrix.indptr, s.matrix.indices, s.matrix.data))
    for solver in ("cg", "bicgstab"):
        wrap(solver, lambda args, _: choice_of.pop(id(args[0])),
             lambda r: (sha(r.solution), r.iterations,
                        r.final_relative_residual.hex()))
    errors = ladder()
    assert not choice_of  # every assembled system was solved
    return prints, [e.hex() for e in errors]


LADDERS = {
    "dziuk-p1": lambda: run_convergence(RunConfig(
        surface="dziuk", refinements=3)),
    "dziuk-p2": lambda: run_convergence(RunConfig(
        surface="dziuk", degree=2, choice=3, refinements=2)),
    "es-p1": lambda: run_convergence(RunConfig(
        surface="enzensberger-stern", seed="octahedron", seed_scale=1.25,
        refinements=2)),
    "dziuk-compare-nc": lambda: compare_choices(RunConfig(
        surface="dziuk", nonconforming=True, refinements=2),
        ["1", "3", "4"]),
}


def _errors_of(result):
    if hasattr(result, "rows"):
        return result.l2_errors + result.dg_errors
    return [e for tag in result.choices
            for e in result.l2_errors[tag] + result.dg_errors[tag]]


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladders_keep_their_bits_on_1_2_and_3_workers(monkeypatch, name):
    """Small versions of the benchmark ladders, with chunks, product
    blocks and CG vector slices small enough that every stage splits,
    give the same rhs, matrices, solutions, iteration counts, residuals
    and errors, bit for bit, with 1, 2 and 3 workers."""
    prints = []
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_usable_cpus", lambda: cpus)
            mp.setattr(_pool, "_shared", None)
            mp.setattr(_pool, "_LIFT_BATCH", 1 << 11)
            mp.setattr(_pool, "_CHUNK_TRIPLETS", 1 << 12)
            mp.setattr(_pool, "_PRODUCT_FLOOR", 1 << 10)
            mp.setattr(_pool, "_VECTOR_FLOOR", 1 << 6)
            try:
                prints.append(_fingerprint(
                    mp, lambda: _errors_of(LADDERS[name]())))
            finally:
                if _pool._shared is not None:
                    _pool._shared[1].shutdown(wait=True)
    assert len(prints[0][0]) >= 6
    assert prints[1] == prints[0]
    assert prints[2] == prints[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_concurrent_choices_finish_with_the_serial_errors(monkeypatch):
    """A two-refinement nonconforming Dziuk comparison of Choices 1-4, its
    choices run at once on 2 and on 3 workers with products above the
    floor and a short thread switch interval, finishes (in a forked
    child, given 60 s) with the errors of the one-worker run, bit for
    bit; a lost report would leave a choice without errors."""
    def compare():
        return _errors_of(compare_choices(RunConfig(
            surface="dziuk", nonconforming=True, refinements=2),
            ["1", "2", "3", "4"]))

    monkeypatch.setattr(_pool, "_PRODUCT_FLOOR", 1 << 10)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
    serial = compare()

    def concurrent():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (2, 3):
                _pool._usable_cpus = lambda: cpus
                _pool._shared = None
                assert compare() == serial
        finally:
            sys.setswitchinterval(interval)

    finishes_in_child(concurrent)


@pytest.mark.parametrize("cpus", [1, 3])
def test_first_failing_choice_in_order_is_raised(monkeypatch, workers, cpus):
    """Choice 1 failing after a pause and Choice 3 failing at once end the
    comparison with Choice 1's failure, named by its stage, with 1 and
    with 3 workers; with 3, the two run at once, so Choice 3 fails
    first."""
    assemble = harness.assemble_system
    meet = _two_threads() if cpus > 1 else (lambda k: None)
    called = []

    def failing(space, choice, penalty):
        called.append(choice)
        if choice in ("1", "3"):
            meet(0)
        if choice == "1":
            time.sleep(0.2)
            raise RuntimeError("choice 1 poisoned")
        if choice == "3":
            raise RuntimeError("choice 3 poisoned")
        return assemble(space, choice, penalty)

    monkeypatch.setattr(harness, "assemble_system", failing)
    workers(cpus)
    with pytest.raises(harness.HarnessError) as info:
        compare_choices(RunConfig(surface="sphere", refinements=1),
                        ["1", "3", "4"])
    assert str(info.value) == ("assemble/solve stage failed at level 0: "
                               "choice 1 poisoned")
    if cpus == 1:
        assert called == ["1"]
    else:
        assert {"1", "3"} <= set(called)
