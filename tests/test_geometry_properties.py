"""Property tests of the batched closest-point projection."""

import numpy as np
import pytest

from conftest import tube_points
from surfdg.geometry import (_project_batch, eval_phi, get_surface, grad_phi,
                             project_newton, project_points, stopping_residual)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SURFACES = ("sphere", "dziuk", "enzensberger-stern")
FIELDS = ("points", "iterations", "residuals", "dropped", "gradients")


def _projection_seeds(surf, kind, n, seed):
    if kind == "tube":
        return tube_points(surf, n=n, seed=seed)
    # far seeds in a shell that keeps clear of the critical points inside
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * rng.uniform(0.4, 1.5 * np.sqrt(3.0), (n, 1))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(SURFACES), kind=st.sampled_from(("tube", "far")),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), data=st.data())
def test_project_points_is_per_point(name, kind, seed, n, data):
    """Each seed is projected on its own: a permutation or a split of the
    batch gives the same outputs, and the reported residuals are the
    documented criteria recomputed at the returned points."""
    surf = get_surface(name)
    seeds = _projection_seeds(surf, kind, n, seed)
    whole = project_points(surf, seeds)

    perm = np.array(data.draw(st.permutations(range(n))), dtype=int)
    shuffled = project_points(surf, seeds[perm])
    cut = data.draw(st.integers(0, n))
    parts = [project_points(surf, seeds[:cut]), project_points(surf, seeds[cut:])]
    for f in FIELDS:
        assert np.array_equal(getattr(shuffled, f), getattr(whole, f)[perm])
        joined = np.concatenate([getattr(p, f) for p in parts])
        assert np.array_equal(joined, getattr(whole, f))

    x, drop = whole.points, whole.dropped
    assert np.array_equal(whole.gradients, grad_phi(surf, x))
    kept = ~drop
    assert np.array_equal(whole.residuals[kept],
                          stopping_residual(surf, x[kept], seeds[kept]))
    phi_res = (np.abs(eval_phi(surf, x[drop]))
               / np.linalg.norm(grad_phi(surf, x[drop]), axis=1))
    assert np.array_equal(whole.residuals[drop], phi_res)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(SURFACES), kind=st.sampled_from(("tube", "far")),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), data=st.data())
def test_newton_batch_is_per_point(name, kind, seed, n, data):
    """The Newton step of the batch loop keeps each seed on its own: a
    permutation or a split of the batch gives the same outputs, and each
    row is exactly what ``project_newton`` returns for that seed."""
    surf = get_surface(name)
    seeds = _projection_seeds(surf, kind, n, seed)

    def newton(x):
        return _project_batch(surf, x, 1e-10, 100, newton=True)

    whole = newton(seeds)
    perm = np.array(data.draw(st.permutations(range(n))), dtype=int)
    shuffled = newton(seeds[perm])
    cut = data.draw(st.integers(0, n))
    parts = [newton(seeds[:cut]), newton(seeds[cut:])]
    for f in FIELDS:
        assert np.array_equal(getattr(shuffled, f), getattr(whole, f)[perm])
        joined = np.concatenate([getattr(p, f) for p in parts])
        assert np.array_equal(joined, getattr(whole, f))

    for i, x0 in enumerate(seeds):
        one = project_newton(surf, x0)
        assert np.array_equal(one.point, whole.points[i])
        assert one.iterations == whole.iterations[i]
        assert one.residual == whole.residuals[i]
        assert one.normal_check_dropped == whole.dropped[i]
