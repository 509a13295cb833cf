"""Metamorphic checks: point labels and the order of the two sets are
arbitrary, so neither may change the answer.

Relabeling the points of either set permutes the rows or columns of the
optimal assignment matrix, and swapping the two sets transposes it.  Each
case builds models a (default Delaunay edges, zero unary), b and c on a
planted problem of 4-6 points per set and compares the relabeled or
swapped instance's answers with the original's, mapped: the exhaustive
oracle's and ADGM's discrete answer.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from adgm.constraints import as_matrix, as_vector
from adgm.discretize import brute_force_optimum
from adgm.harness import generate_synthetic
from adgm.models import build_model
from adgm.solver import energy, solve

SEEDS = range(4)
KINDS = ("rows", "cols", "swap")
# With fewer points in the first set, block 1 (the one discretized) carries
# the exactly-one side in one order and the at-most-one side in the other.
_SWAP_MOVES_ADGM = {("b", 0), ("b", 1)}


@cache
def _points(seed):
    """A planted problem of 4-5 inliers and up to 6 points in the second
    set, and one relabeling of each set."""
    rng = np.random.default_rng(seed)
    inliers = int(rng.integers(4, 6))
    points1, points2, _ = generate_synthetic(
        inliers, int(rng.integers(0, 7 - inliers)), 0.02, seed=seed
    )
    return points1, points2, rng.permutation(len(points1)), rng.permutation(len(points2))


@cache
def _answers(model, seed, kind):
    """``(instance, oracle assignment, oracle energy, ADGM discrete)`` of
    the case's original (``kind=None``) or transformed instance."""
    points1, points2, perm1, perm2 = _points(seed)
    if kind == "rows":
        points1 = points1[perm1]
    elif kind == "cols":
        points2 = points2[perm2]
    elif kind == "swap":
        points1, points2 = points2, points1
    instance = build_model(model, points1, points2)
    x, best = brute_force_optimum(instance)
    return instance, x, best, solve(instance).discrete


def _mapped(model, seed, kind, x):
    """Where the original's assignment ``x`` lands in the transformed case."""
    points1, points2, perm1, perm2 = _points(seed)
    matrix = as_matrix(x, len(points1), len(points2))
    if kind == "rows":
        return as_vector(matrix[perm1])
    if kind == "cols":
        return as_vector(matrix[:, perm2])
    return as_vector(matrix.T)


def _cases(expected_failures=frozenset()):
    for model in ("a", "b", "c"):
        for seed in SEEDS:
            for kind in KINDS:
                marks = ()
                if (model, seed, kind) in expected_failures:
                    marks = pytest.mark.xfail(
                        strict=True,
                        reason=f"seed {seed}: swapping the sets moves ADGM's model-{model} answer",
                    )
                yield pytest.param(model, seed, kind, marks=marks, id=f"{model}-{seed}-{kind}")


@pytest.mark.parametrize("model, seed, kind", _cases())
def test_oracle_optimum_follows_the_relabeling(model, seed, kind):
    _, x, best, _ = _answers(model, seed, None)
    instance, y, other_best, _ = _answers(model, seed, kind)
    assert other_best == pytest.approx(best, rel=1e-12, abs=0.0)
    mapped = _mapped(model, seed, kind, x)
    if not np.array_equal(y, mapped):
        # Only a tie may pick another assignment.
        assert energy(instance, mapped) == pytest.approx(other_best, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "model, seed, kind", _cases({(m, s, "swap") for m, s in _SWAP_MOVES_ADGM})
)
def test_adgm_answer_follows_the_relabeling(model, seed, kind):
    discrete = _answers(model, seed, None)[3]
    assert np.array_equal(_answers(model, seed, kind)[3], _mapped(model, seed, kind, discrete))
