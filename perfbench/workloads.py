"""Benchmark workloads and the seed reference they are checked against.

A workload is one refinement ladder at a fixed depth, run through a user
entry point of ``surfdg.harness``.  The ladders are deterministic; the
benchmark seed only drives the random tube points of the projection probe
in a traced run.  This module imports neither numpy nor surfdg, so the
set-up timer in a worker starts before either is loaded.
"""

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# entry: "run" calls run_convergence, "compare" calls compare_choices with
# `choices`; `config` is passed to RunConfig unchanged.
WORKLOADS = {
    # criterion 1: the Jacobi-CG solve dominates (about half the ladder)
    "dziuk-p1": {
        "entry": "run", "choices": ["2"],
        "config": {"surface": "dziuk", "choice": 2, "degree": 1,
                   "refinements": 6},
    },
    # criterion 3 cut to 6 refinements: the generic-LB forcing dominates
    "es-p1": {
        "entry": "run", "choices": ["2"],
        "config": {"surface": "enzensberger-stern", "choice": 2,
                   "degree": 1, "refinements": 6, "seed": "octahedron",
                   "seed_scale": 1.25},
    },
    # criterion 5 cut to 5 refinements: the only P2 path
    "dziuk-p2": {
        "entry": "run", "choices": ["3"],
        "config": {"surface": "dziuk", "choice": 3, "degree": 2,
                   "refinements": 5},
    },
    # the only nonconforming ladder, BiCGSTAB solve and multi-choice level
    "dziuk-compare-nc": {
        "entry": "compare", "choices": ["1", "2", "3", "4"],
        "config": {"surface": "dziuk", "degree": 1, "refinements": 5,
                   "nonconforming": True, "marking": "halfspace-x"},
    },
    # tiny ladders for the benchmark's own smoke check, not in BENCHMARK.json
    "smoke-run": {
        "entry": "run", "choices": ["2"],
        "config": {"surface": "sphere", "choice": 2, "degree": 1,
                   "refinements": 2},
    },
    "smoke-compare": {
        "entry": "compare", "choices": ["1", "2", "3", "4"],
        "config": {"surface": "sphere", "degree": 1, "refinements": 2,
                   "nonconforming": True, "marking": "halfspace-x"},
    },
}

# normal offsets of the tube-point probe, the widths used by the test
# suite's tube sampler (tests/conftest.py)
TUBE_WIDTH = {"sphere": 0.2, "dziuk": 0.05, "enzensberger-stern": 0.01}

# triangle-rule exactness of assembly.assemble_rhs per polynomial degree
RHS_EXACTNESS = {1: 4, 2: 6}

COUNT_KEYS = ("elements", "dofs", "nnz", "iterations")
ERROR_KEYS = ("l2", "dg")


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_op(op: dict, ref: dict, rtol: float) -> list:
    """Mismatches of one (level, choice) operation against its reference.

    Counts must match exactly and errors within ``rtol``.  A key the
    entry point does not report (missing from ``op``) is not checked; an
    unconverged solve is always a mismatch.
    """
    bad = []
    if op.get("converged") is False:
        bad.append("solver did not converge")
    for key in COUNT_KEYS:
        if op.get(key) is not None and op[key] != ref[key]:
            bad.append(f"{key} {op[key]} != {ref[key]}")
    for key in ERROR_KEYS:
        if op.get(key) is None:
            continue
        if not abs(op[key] - ref[key]) <= rtol * abs(ref[key]):
            bad.append(f"{key} {op[key]!r} off {ref[key]!r} by more than "
                       f"{rtol:g} relative")
    return bad


def check_ops(ops: list, refs: list, rtol: float) -> dict:
    """Failed operations of a ladder: {(level, choice): [reasons]}.

    Every reference operation counts as attempted; one the ladder never
    reached (it raised earlier) counts as failed.
    """
    seen = {(op["level"], op["choice"]): op for op in ops}
    failures = {}
    for ref in refs:
        key = (ref["level"], ref["choice"])
        op = seen.get(key)
        bad = ["not reached"] if op is None else check_op(op, ref, rtol)
        if bad:
            failures[key] = bad
    return failures
