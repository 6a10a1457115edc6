"""surfdg benchmark: whole refinement ladders, end to end and per layer.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --report [--seed N]
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py --record-reference

Run from anywhere inside a checkout whose ``src/surfdg`` is the code under
test.  Every ladder runs in a fresh worker process (``worker.py``) with
BLAS capped at one thread, one process at a time.

With ``--trace 0`` the workload's ladder runs through its user entry point
until ``--seconds`` would be exceeded (at least once) and the end-to-end
metrics are the medians over those ladders.  Ladder and set-up times are
given at a fixed reference machine speed (``calibrate.py``), because the
speed of the shared machines drifts by more than the metrics' bounds.  With ``--trace 1`` one
untraced and one traced ladder run, and the per-layer metrics come from
the traced one.  The last stdout line is the JSON result; the spans of a
traced run are written to ``perfbench/out/``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calibrate import Kernel, bracket_speed, rescale
from spans import children_of, duration, nesting_errors, self_time, totals
from workloads import WORKLOADS, check_ops, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BENCH_WORKLOADS = ("dziuk-p1", "es-p1", "dziuk-p2", "dziuk-compare-nc")
SMOKE_WORKLOADS = ("smoke-run", "smoke-compare")
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0  # a workload run must end within 180 s
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END_UNITS = {"ladder_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "mesh.refine_s": "s",
    "mesh.build_edges_s": "s",
    "mesh.elements": "count",
    "mesh.intersections": "count",
    "geometry.project_s": "s",
    "geometry.project_points_per_s": "1/s",
    "geometry.project_iter_mean": "count",
    "geometry.project_iter_max": "count",
    "geometry.project_dropped": "count",
    "geometry.tube_points_per_s": "1/s",
    "problems.forcing_s": "s",
    "problems.exact_s": "s",
    "dgspace.space_s": "s",
    "dgspace.dofs": "count",
    "assembly.rhs_s": "s",
    "assembly.system_s": "s",
    "assembly.system_us_per_element": "us",
    "assembly.nnz": "count",
    "solvers.solve_s": "s",
    "solvers.iterations": "count",
    "solvers.iterations_total": "count",
    "solvers.s_per_iteration": "s",
    "solvers.residual": "ratio",
    "solvers.matvec_s": "s",
    "harness.errors_s": "s",
    "harness.level_self_s": "s",
    "harness.trace_overhead_s": "s",
}

# span names of the traced ladder grouped by the layer call they time;
# the rhs (projection and forcing inside) and the matrix are kept apart
SHARE_GROUPS = {
    "mesh": ("mesh.initial_mesh", "mesh.refine"),
    "problems": ("problems.make_problem",),
    "dgspace": ("dgspace.space",),
    "assembly.rhs": ("assembly.rhs",),
    "assembly.system": ("assembly.system",),
    "solvers": ("solvers.solve",),
    "harness.errors": ("harness.errors",),
}


class BenchError(RuntimeError):
    """A worker crashed or timed out; the run has no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def spawn(mode, name, seed=0, timeout=RUN_DEADLINE_S) -> dict:
    """Run one worker process to completion and return its JSON output."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, name, str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {name} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {name} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def op_failures(out, refs, rtol) -> dict:
    """A ladder that raised reports no operations, so all of them fail;
    the first failure carries the traceback."""
    failures = check_ops(out["ops"], refs, rtol)
    if out["error"] and failures:
        next(iter(failures.values())).append(out["error"])
    return failures


def measure_setup(name, kernel, deadline) -> tuple:
    """One set-up worker, bracketed by kernel readings in this process;
    returns (seconds at the reference speed, wall seconds)."""
    before = bracket_speed(kernel)
    wall = spawn("setup", name,
                 timeout=deadline - time.perf_counter())["setup_s"]
    return rescale(wall, before, bracket_speed(kernel)), wall


def measure_untraced(name, seconds, refs, rtol, deadline) -> dict:
    """Ladders through the entry point until ``seconds`` would be
    exceeded (at least one), then SETUP_SAMPLES set-up-only workers."""
    ladders, failures = [], {}
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        out = spawn("ladder", name, timeout=deadline - t)
        ladders.append(out)
        for key, why in op_failures(out, refs, rtol).items():
            failures[(len(ladders),) + key] = why
        wall = time.perf_counter() - t
        if out["error"] or time.perf_counter() - start + wall > seconds:
            break
    kernel = Kernel()
    setups = [measure_setup(name, kernel, deadline)
              for _ in range(SETUP_SAMPLES)]
    return {
        "ladders": ladders, "failures": failures,
        "attempted": len(refs) * len(ladders), "failed": len(failures),
        "env": ladders[0]["env"],
        "metrics": {
            "ladder_s": median(out["ladder_s"] for out in ladders),
            "setup_s": median(s for s, _ in setups),
            "peak_rss_mb": median(out["peak_rss_mb"] for out in ladders),
        },
        "samples": {
            "ladder_s": [out["ladder_s"] for out in ladders],
            "ladder_wall_s": [out["ladder_wall_s"] for out in ladders],
            "speed_samples": [out["speed_samples"] for out in ladders],
            "setup_s": [s for s, _ in setups],
            "setup_wall_s": [w for _, w in setups]},
    }


def measure_traced(name, seed, refs, rtol, deadline) -> dict:
    """One untraced and one traced ladder; per-layer metrics from the
    traced one, whose errors must equal the untraced ones bit for bit."""
    plain = spawn("ladder", name, timeout=deadline - time.perf_counter())
    traced = spawn("traced", name, seed,
                   timeout=deadline - time.perf_counter())
    if traced["error"]:
        raise BenchError(f"traced ladder for {name} raised:\n"
                         f"{traced['error']}")
    failures = {("untraced",) + k: v
                for k, v in op_failures(plain, refs, rtol).items()}
    traced_failures = op_failures(traced, refs, rtol)
    plain_ops = {(op["level"], op["choice"]): op for op in plain["ops"]}
    for op in traced["ops"]:
        key = (op["level"], op["choice"])
        other = plain_ops.get(key)
        if other and (op["l2"], op["dg"]) != (other["l2"], other["dg"]):
            traced_failures.setdefault(key, []).append(
                f"errors ({op['l2']!r}, {op['dg']!r}) differ from the "
                f"untraced ({other['l2']!r}, {other['dg']!r})")
    failures.update({("traced",) + k: v for k, v in traced_failures.items()})
    nesting = nesting_errors(traced["spans"])
    metrics = dict(traced["metrics"])
    metrics["harness.trace_overhead_s"] = (traced["ladder_s"]
                                           - plain["ladder_wall_s"])
    return {
        "plain": plain, "traced": traced, "failures": failures,
        "nesting": nesting, "attempted": 2 * len(refs),
        "failed": len(failures), "env": traced["env"], "metrics": metrics,
    }


def layer_shares(spans) -> dict:
    """Seconds and share of the traced ladder's time per SHARE_GROUPS
    entry, plus the harness glue (level and ladder self time), so the
    shares add up to one."""
    ladder = [s for s in spans if s["ladder"] == "ladder"]
    tot = totals(ladder)
    ladder_s = tot["harness.ladder"]["total_s"]
    out = {group: sum(tot.get(n, {}).get("total_s", 0.0) for n in names)
           for group, names in SHARE_GROUPS.items()}
    out["harness.glue"] = sum(tot[n]["self_s"]
                              for n in ("harness.level", "harness.ladder"))
    return {group: (sec, sec / ladder_s) for group, sec in out.items()}


def write_spans(name, seed, res) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-spans.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "env": res["env"],
                   "untraced_ladder_wall_s": res["plain"]["ladder_wall_s"],
                   "ops": res["traced"]["ops"],
                   "spans": res["traced"]["spans"]}, fh, indent=1)
    return path


def format_env(env) -> str:
    return (f"env nproc={env['nproc']} python={env['python']} "
            f"numpy={env['numpy']} scipy={env['scipy']} "
            f"blas_threads={BLAS_THREADS}")


def is_correct(res) -> bool:
    return res["failed"] == 0 and not res.get("nesting")


def result_line(res, units) -> dict:
    return {"correct": is_correct(res), "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": res["metrics"][k], "unit": u}
                        for k, u in units.items()}}


def print_failures(res) -> None:
    for key, why in list(res["failures"].items())[:10]:
        print(f"FAILED {key}: {'; '.join(why)}")
    for msg in res.get("nesting", [])[:10]:
        print(f"SPAN NESTING: {msg}")


def run_workload(args) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    ref = load_reference()
    refs = ref["workloads"][args.workload]
    rtol = ref["error_rtol"]
    if args.trace:
        res = measure_traced(args.workload, args.seed, refs, rtol, deadline)
        units = PER_LAYER_UNITS
        print(f"spans: {write_spans(args.workload, args.seed, res)}")
    else:
        res = measure_untraced(args.workload, args.seconds, refs, rtol,
                               deadline)
        units = END_TO_END_UNITS
        print(f"samples: {json.dumps(res['samples'])}")
    print(format_env(res["env"]))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"fail_ratio {res['failed']}/{res['attempted']}")
    print_failures(res)
    print(json.dumps(result_line(res, units)))
    return 0


def run_report(args) -> int:
    """Every metric of every workload by name and unit, and each layer's
    share of the traced ladder's time."""
    ref = load_reference()
    rtol = ref["error_rtol"]
    report = {}
    for name in BENCH_WORKLOADS:
        refs = ref["workloads"][name]
        far = time.perf_counter() + 10 * RUN_DEADLINE_S
        plain = measure_untraced(name, args.seconds, refs, rtol, far)
        traced = measure_traced(name, args.seed, refs, rtol, far)
        write_spans(name, args.seed, traced)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        shares = layer_shares(traced["traced"]["spans"])
        print(f"== {name}  ({format_env(plain['env'])})")
        metrics = {"fail_ratio": (failed / attempted, "ratio")}
        metrics.update({k: (plain["metrics"][k], u)
                        for k, u in END_TO_END_UNITS.items()})
        metrics.update({k: (traced["metrics"][k], u)
                        for k, u in PER_LAYER_UNITS.items()})
        for k, (v, u) in metrics.items():
            print(f"  {k:32s} {v:14.6g} {u}")
        finest = [op for op in traced["traced"]["ops"]
                  if op["level"] == traced["traced"]["ops"][-1]["level"]]
        for op in finest:
            print(f"  finest choice {op['choice']}: iterations "
                  f"{op['iterations']}, nnz {op['nnz']}, residual "
                  f"{op['residual']:.3g}")
        for layer, (sec, share) in shares.items():
            print(f"  share {layer:16s} {sec:9.3f} s  {100 * share:5.1f}% "
                  f"of the traced ladder")
        print_failures(plain)
        print_failures(traced)
        report[name] = {"env": plain["env"],
                        "metrics": {k: {"value": v, "unit": u}
                                    for k, (v, u) in metrics.items()},
                        "shares": {k: v[1] for k, v in shares.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-seed{args.seed}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


def run_smoke(args) -> int:
    """Check the benchmark's own code on tiny sphere ladders."""
    problems = []
    ref = load_reference()
    rtol = ref["error_rtol"]
    far = time.perf_counter() + 10 * RUN_DEADLINE_S
    for name in SMOKE_WORKLOADS:
        refs = ref["workloads"][name]
        plain = measure_untraced(name, 0, refs, rtol, far)
        traced = measure_traced(name, args.seed, refs, rtol, far)
        for res in (plain, traced):
            if res["failed"] or res["attempted"] == 0:
                problems.append(f"{name}: {res['failed']}/"
                                f"{res['attempted']} failed "
                                f"{list(res['failures'].values())[:3]}")
        problems += [f"{name}: {m}" for m in traced["nesting"]]
        spans = [s for s in traced["traced"]["spans"]
                 if s["ladder"] == "ladder"]
        levels = sum(s["name"] == "harness.level" for s in spans)
        if levels != WORKLOADS[name]["config"]["refinements"] + 1:
            problems.append(f"{name}: {levels} level spans")
        # over a tree of non-overlapping children the self times add up
        # to the root's duration
        kids = children_of(spans)
        root = next(s for s in spans if s["parent"] is None)
        covered = sum(self_time(s, kids[s["id"]]) for s in spans)
        if abs(covered - duration(root)) > 1e-9 * duration(root):
            problems.append(f"{name}: self times sum to {covered!r}, root "
                            f"lasts {duration(root)!r}")
        # a deliberately wrong reference value must count as a failure
        wrong = [dict(r) for r in refs]
        wrong[-1]["l2"] *= 1.0 + 10.0 * rtol
        bad = measure_untraced(name, 0, wrong, rtol, far)
        if bad["failed"] != 1 or is_correct(bad):
            problems.append(f"{name}: wrong reference gave "
                            f"{bad['failed']} failures")
        wrong = [dict(r) for r in refs]
        wrong[0]["nnz"] += 1
        bad = measure_traced(name, args.seed, wrong, rtol, far)
        if bad["failed"] != 1:
            problems.append(f"{name}: wrong nnz gave {bad['failed']} "
                            "failures")

    synthetic = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 5.0},
            {"start": 7.0, "end": 8.0}, {"start": 9.5, "end": 11.0}]
    if self_time(synthetic, kids) != 4.5:
        problems.append(f"self time {self_time(synthetic, kids)} != 4.5")
    outside = [{"id": 0, "name": "a", "parent": None, "ladder": "x",
                "start": 0.0, "end": 1.0},
               {"id": 1, "name": "b", "parent": 0, "ladder": "x",
                "start": 0.5, "end": 1.5}]
    if not nesting_errors(outside):
        problems.append("a child outside its parent went unnoticed")

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for key, units in (("end_to_end", END_TO_END_UNITS),
                       ("per_layer", PER_LAYER_UNITS)):
        got = {m["name"]: m["unit"] for m in declared[key]}
        if got != units:
            problems.append(f"BENCHMARK.json {key} differs from the "
                            f"emitted metrics: {got} vs {units}")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


def run_record(args) -> int:
    """Write reference.json from the current code; run at the seed
    commit only."""
    ref = load_reference()
    far = time.perf_counter() + 10 * RUN_DEADLINE_S
    recorded = {}
    for name in BENCH_WORKLOADS + SMOKE_WORKLOADS:
        plain = spawn("ladder", name, timeout=far - time.perf_counter())
        traced = spawn("traced", name, timeout=far - time.perf_counter())
        if plain["error"] or traced["error"]:
            raise BenchError(f"{name}: {plain['error'] or traced['error']}")
        recorded[name] = [
            {k: op[k] for k in ("level", "choice", "elements", "dofs", "nnz",
                                "iterations", "l2", "dg")}
            for op in traced["ops"]]
        for a, b in zip(plain["ops"], traced["ops"]):
            if (a["l2"], a["dg"]) != (b["l2"], b["dg"]):
                raise BenchError(f"{name}: traced errors differ")
        print(f"recorded {name}: {len(recorded[name])} operations")
    ref["env"] = traced["env"]
    ref["blas_threads"] = int(BLAS_THREADS)
    ref["workloads"] = recorded
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "surfdg" / "__init__.py").is_file():
        print(f"no surfdg package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.report:
            return run_report(args)
        if args.smoke:
            return run_smoke(args)
        if args.record_reference:
            return run_record(args)
        if args.workload is None:
            ap.error("--workload is required")
        return run_workload(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
