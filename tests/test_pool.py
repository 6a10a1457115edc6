"""The shared pool: chunked loops across worker threads, bit for bit, with
the serial loop's failures, error state and nesting."""

import hashlib
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from surfdg import _pool, assembly, geometry, harness
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


def _finishes_in_child(target, timeout=60):
    """Run ``target`` in a forked child, so that a deadlock fails the test
    after ``timeout`` seconds instead of hanging the suite; the child must
    exit cleanly (a failed assert exits with code 1)."""
    child = multiprocessing.get_context("fork").Process(target=target)
    child.start()
    child.join(timeout=timeout)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join(timeout=10)
    assert not hung and child.exitcode == 0


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

    _finishes_in_child(nested)


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
    monkeypatch.setattr(geometry, "_LIFT_BATCH", 8)  # 4 points per worker
    assert geometry._chunks(len(mesh.triangles), 6)[0] == slice(0, 1)
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

    _finishes_in_child(rhs)


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
        monkeypatch.setattr(geometry, "_LIFT_BATCH", 60)

        def run():
            return project_points(surf, seeds)
    else:
        monkeypatch.setattr(geometry, "_LIFT_BATCH", 6 * 8)

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
    ``ladder()``, in call order, and the float.hex of its errors."""
    prints = []

    def sha(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def wrap(name, digest):
        fn = getattr(harness, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            prints.append((name, digest(out)))
            return out
        monkeypatch.setattr(harness, name, wrapped)

    wrap("assemble_rhs", sha)
    wrap("assemble_system", lambda s: sha(s.matrix.indptr, s.matrix.indices,
                                          s.matrix.data))
    for solver in ("cg", "bicgstab"):
        wrap(solver, lambda r: (sha(r.solution), r.iterations,
                                r.final_relative_residual.hex()))
    errors = ladder()
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
    """Small versions of the benchmark ladders, with chunks and product
    blocks small enough that every stage splits, give the same rhs,
    matrices, solutions, iteration counts, residuals and errors, bit for
    bit, with 1, 2 and 3 workers."""
    prints = []
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_usable_cpus", lambda: cpus)
            mp.setattr(_pool, "_shared", None)
            mp.setattr(geometry, "_LIFT_BATCH", 1 << 11)
            mp.setattr(assembly, "_CHUNK_TRIPLETS", 1 << 12)
            mp.setattr(_pool, "_PRODUCT_FLOOR", 1 << 10)
            try:
                prints.append(_fingerprint(
                    mp, lambda: _errors_of(LADDERS[name]())))
            finally:
                if _pool._shared is not None:
                    _pool._shared[1].shutdown(wait=True)
    assert len(prints[0][0]) >= 6
    assert prints[1] == prints[0]
    assert prints[2] == prints[0]
