"""What a fresh interpreter loads: the set-up path (problems, seed meshes,
refinement, projection, ``surfdg project``) runs on numpy alone, and the
first assembly loads scipy.sparse."""

import os
import subprocess
import sys
from pathlib import Path

import surfdg

SCRIPT = """
import contextlib, io, sys

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

import surfdg
assert "concurrent.futures" not in sys.modules, "import surfdg"
assert not scipy_modules(), ("import surfdg", scipy_modules())

from surfdg import (DgSpace, PenaltyParams, assemble_system, initial_mesh,
                    make_problem, project_points, refine_uniform)
from surfdg.cli import main

problems = {name: make_problem(name)
            for name in ("sphere", "dziuk", "enzensberger-stern")}
seed = initial_mesh(problems["dziuk"].surface)
initial_mesh(problems["enzensberger-stern"].surface, "octahedron",
             scale=1.25)
fine = refine_uniform(seed, problems["dziuk"].surface)
project_points(problems["sphere"].surface, fine.vertices * 1.1)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["project", "--surface", "dziuk", "--point", "1.1", "0",
                 "0"]) == 0
assert not scipy_modules(), ("set-up", scipy_modules())

assemble_system(DgSpace(seed, 1), "2", PenaltyParams())
assert "scipy.sparse" in sys.modules, "assemble_system"
print("ok")
"""


def test_set_up_and_project_load_no_scipy():
    """Runs in a fresh interpreter, since this one has scipy loaded."""
    src = str(Path(surfdg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
