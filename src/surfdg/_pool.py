"""How the package cuts its work, and the one process-wide thread pool
that runs the pieces.

The chunked loops (the rhs, the matrix rows, the errors and the point
projection) take their slices from ``_slices``, the Krylov products and
the symmetry check their row blocks from ``_row_blocks``, and the CG
vector updates their slices from ``_vector_slices``.  Every chunk
writes only its own slice of an output, and every sum over a whole array
stays one call in the calling thread, so the split changes no bit.
``_run_chunks`` is the one way into the pool: the chunked loops, the
compared choices of a level, the row blocks of a product and the CG
vector updates all go through it, so the hand-out and the nesting rule
live here alone.
"""

import contextvars
import os
import threading

import numpy as np

# points per lift chunk or projection batch on one CPU.  Traced on one CPU
# with 32,768 points, a projection holds about 360 bytes of temporaries per
# point and the generic-LB forcing, with its stencil projections, about
# 570, so a chunk of the rhs lift holds about 19 MB
_LIFT_BATCH = 1 << 15
# triplets per row chunk of an assembly on one CPU, and stored entries per
# row block of the symmetry check: the temporaries beyond the matrix.  One
# assembly chunk holds about 18 MB per 2^18 triplets (traced, P1), 10 MB
# of them the traces and face products of ``assembly._chunk_faces``
_CHUNK_TRIPLETS = 1 << 17
# stored entries per row block below which a Krylov product is not split
_PRODUCT_FLOOR = 1 << 18
# entries per slice below which a CG vector update is not split: on two
# CPUs a split paid at 245,760 entries, not at 122,880 or 61,440
_VECTOR_FLOOR = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _parts(size: int, floor: int) -> int:
    """How many pieces to cut work of ``size`` into: one per usable CPU,
    but no more than leave ``floor`` per piece, and at least one."""
    return max(1, min(_usable_cpus(), size // floor))


def _vector_slices(n: int) -> list:
    """Equal consecutive slices of ``n`` vector entries: one per usable
    CPU, with at least ``_VECTOR_FLOOR`` entries each, and at least one."""
    parts = _parts(n, _VECTOR_FLOOR)
    return [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _slices(count: int, total: int, budget: int) -> list:
    """Consecutive slices of ``count`` items that together cost ``total``
    (points, triplets), each of as many items as cost about ``budget``
    shared by the usable CPUs, and at least one; so the chunks in flight
    together cost what one chunk costs on one CPU."""
    per_worker = max(1, budget // _usable_cpus())
    step = max(1, per_worker * count // max(total, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _row_blocks(indptr, parts: int) -> list:
    """Bounds [0, ..., rows] of ``parts`` row blocks of about equal
    stored entries, from CSR row pointers (or BSR block row pointers, a
    row then being a block row): block k starts at the first row whose
    entries begin at or after k / parts of them.  A row longer than a
    share leaves empty blocks (equal bounds)."""
    cuts = np.searchsorted(indptr,
                           int(indptr[-1]) * np.arange(1, parts) // parts)
    return [0, *map(int, cuts), len(indptr) - 1]


# the threads that run every chunk but the calling thread's share; made on
# the first parallel stage, which also imports concurrent.futures, and
# again in a forked child, which inherits the executor but not its threads
_shared = None  # (pid, executor)
_shared_lock = threading.Lock()


def _executor():
    global _shared
    from concurrent.futures import ThreadPoolExecutor
    with _shared_lock:
        if _shared is None or _shared[0] != os.getpid():
            _shared = (os.getpid(), ThreadPoolExecutor(
                max_workers=max(1, _usable_cpus() - 1),
                thread_name_prefix="surfdg-pool"))
        return _shared[1]


# true while a chunk of a parallel stage runs: in the calling thread and
# in the pooled chunks, whose contexts are copies of the caller's; a loop
# inside a chunk then runs serially, so no pool thread waits on work queued
# behind it
_in_stage = contextvars.ContextVar("surfdg_in_stage", default=False)

_malloc_trim = None  # glibc's malloc_trim, False where there is none


def _trim() -> None:
    """Hand the pool threads' freed heap pages back to the system, where
    glibc provides ``malloc_trim``; a thread's malloc arena keeps them
    otherwise, and the process's peak resident size grows with it."""
    global _malloc_trim
    if _malloc_trim is None:
        try:
            import ctypes
            _malloc_trim = ctypes.CDLL(None).malloc_trim
        except (AttributeError, OSError, TypeError):
            _malloc_trim = False
    if _malloc_trim:
        _malloc_trim(0)


def _run_chunks(fn, slices) -> None:
    """``fn(s)`` for every ``s`` of ``slices``; each call must write only
    its own part of the outputs.

    With two or more usable CPUs and slices, outside the chunk of another
    stage, the chunks are handed out in slice order to the calling thread
    and the pool's threads, at most one per usable CPU at a time.  Each
    pooled chunk runs in a copy of the caller's context, so numpy's error
    state reaches it.  A failing chunk stops the hand-out; once every
    chunk in flight has ended, the exception of the first failing chunk in
    slice order is raised.  Every chunk before it has run by then, so it
    is the exception the serial loop raises.  Otherwise the chunks run in
    order in the calling thread.
    """
    slices = list(slices)
    workers = min(_usable_cpus(), len(slices))
    if workers < 2 or _in_stage.get():
        for s in slices:
            fn(s)
        return
    lock = threading.Lock()
    handed = 0
    failures = {}  # slice position -> exception

    def take():
        nonlocal handed
        with lock:
            if failures or handed == len(slices):
                return None
            handed += 1
            return handed - 1

    def run(context):
        while (k := take()) is not None:
            try:
                if context is None:
                    fn(slices[k])
                else:
                    context.copy().run(fn, slices[k])
            except BaseException as e:
                with lock:
                    failures[k] = e

    token = _in_stage.set(True)
    futures = []
    try:
        context = contextvars.copy_context()
        for _ in range(workers - 1):
            futures.append(_executor().submit(run, context))
        run(None)
    finally:
        for future in futures:
            future.result()
        _in_stage.reset(token)
        _trim()
    if failures:
        raise failures[min(failures)]
