"""Property tests of the error norms on perturbed seed meshes."""

import numpy as np
import pytest

from conftest import perturbed_mesh
from surfdg import _pool, harness
from surfdg.dgspace import DgFunction, DgSpace
from surfdg.harness import compute_errors
from surfdg.problems import make_problem

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(("sphere", "dziuk")), degree=st.sampled_from((1, 2)),
       nonconforming=st.booleans(), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.0, 0.15), solutions=st.integers(1, 4),
       batch=st.integers(1, 1 << 10))
def test_batched_errors_equal_lone_calls(name, degree, nonconforming, seed,
                                         amplitude, solutions, batch):
    """Each solution's (L2, DG) errors from one ``_errors`` call over
    several solutions, lifted in chunks of about ``batch`` points (down
    to one element per chunk), equal bit for bit those of a lone
    ``compute_errors`` call with the default chunks."""
    mesh = perturbed_mesh(name, seed, amplitude, nonconforming)
    problem = make_problem(name)
    space = DgSpace(mesh, degree)
    rng = np.random.default_rng(seed)
    coefficients = [rng.standard_normal(space.total_dofs)
                    for _ in range(solutions)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "_LIFT_BATCH", batch)
        batched = harness._errors(space, problem, coefficients)
    assert len(batched) == solutions
    for coeff, errors in zip(coefficients, batched):
        lone = compute_errors(DgFunction(space, coeff), problem)
        assert [e.hex() for e in errors] == [e.hex() for e in lone]
