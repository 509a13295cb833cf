import re
import warnings

import numpy as np
import pytest

import oracles

from adgm.constraints import (
    ConstraintSpec,
    SideMode,
    SimplexMode,
    _project_rows,
    as_matrix,
    as_vector,
    assignment_index,
    feasibility,
    project_colwise,
    project_rowwise,
    project_simplex,
)
from adgm.solver import Sense, Variant


# -- spec and vector layout ----------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec(3, 2)  # 3 rows cannot each match exactly once in 2 cols
    with pytest.raises(ValueError):
        ConstraintSpec(2, 3, SideMode.AT_MOST_ONE, SideMode.EXACTLY_ONE)
    spec = ConstraintSpec(2, 3, SideMode.EXACTLY_ONE, SideMode.AT_MOST_ONE)
    assert spec.n == 6
    with pytest.raises(ValueError):
        ConstraintSpec(2, 3)  # default exactly-one columns need n2 <= n1


def test_injective_spec():
    spec = ConstraintSpec.injective(3, 5)
    assert spec.row_mode is SideMode.EXACTLY_ONE
    assert spec.col_mode is SideMode.AT_MOST_ONE
    spec = ConstraintSpec.injective(5, 3)
    assert spec.row_mode is SideMode.AT_MOST_ONE
    assert spec.col_mode is SideMode.EXACTLY_ONE
    spec = ConstraintSpec.injective(4, 4)
    assert spec.row_mode is spec.col_mode is SideMode.EXACTLY_ONE


def test_side_mode_parse():
    assert SideMode.parse("exactly-one") is SideMode.EXACTLY_ONE
    assert SideMode.parse("AT_MOST_ONE") is SideMode.AT_MOST_ONE
    for text in ("sometimes", "unconstrained"):
        with pytest.raises(ValueError, match=f"unknown side mode '{text}'"):
            SideMode.parse(text)


@pytest.mark.parametrize(
    "enum, noun", [(SideMode, "side mode"), (Sense, "sense"), (Variant, "variant")]
)
def test_every_enum_parses_loose_spellings_and_names_itself_on_refusal(enum, noun):
    for member in enum:
        for text in (
            member.value,
            member.value.upper(),
            member.value.title(),
            f"  {member.value}\t",
            member.value.replace("-", "_"),
            f" {member.value.upper().replace('-', '_')} ",
        ):
            assert enum.parse(text) is member
    for text in ("x", "", "adgm", "exactly one", "minimise"):
        with pytest.raises(ValueError, match=f"^unknown {noun} {re.escape(repr(text))}$"):
            enum.parse(text)


def test_assignment_index_column_major():
    assert assignment_index(1, 0, 2) == 1
    assert assignment_index(0, 1, 2) == 2
    assert np.array_equal(assignment_index(np.array([0, 1]), np.array([1, 1]), 2), [2, 3])


def test_matrix_vector_round_trip():
    vector = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    matrix = as_matrix(vector, 2, 3)
    # column-major: consecutive vector entries run down a column
    assert np.array_equal(matrix, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    assert np.array_equal(as_vector(matrix), vector)
    assert matrix[1, 2] == vector[assignment_index(1, 2, 2)]


# -- simplex projection ----------------------------------------------------


def test_simplex_pinned_cases():
    assert np.allclose(
        project_simplex(np.array([0.2, 0.3]), SimplexMode.SUM_AT_MOST_ONE), [0.2, 0.3]
    )
    assert np.allclose(
        project_simplex(np.array([2.0, 0.0]), SimplexMode.SUM_EQUALS_ONE), [1.0, 0.0]
    )
    assert np.allclose(
        project_simplex(np.array([0.6, 0.6]), SimplexMode.SUM_AT_MOST_ONE), [0.5, 0.5]
    )


def test_simplex_rejects_empty():
    with pytest.raises(ValueError):
        project_simplex(np.array([]), SimplexMode.SUM_EQUALS_ONE)


@pytest.mark.parametrize("equality", [True, False])
def test_simplex_matches_kkt_oracle(equality):
    rng = np.random.default_rng(11)
    mode = SimplexMode.SUM_EQUALS_ONE if equality else SimplexMode.SUM_AT_MOST_ONE
    for _ in range(200):
        v = rng.normal(0.0, 2.0, int(rng.integers(1, 11)))
        got = project_simplex(v, mode)
        expected = oracles.kkt_simplex_projection(v, equality)
        assert np.allclose(got, expected, atol=1e-8)


def test_simplex_equality_output_is_a_distribution():
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.normal(0, 3, int(rng.integers(1, 15)))
        got = project_simplex(v, SimplexMode.SUM_EQUALS_ONE)
        assert got.min() >= 0.0
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_simplex_idempotent_and_nonexpansive():
    rng = np.random.default_rng(13)
    for mode in SimplexMode:
        for _ in range(50):
            a = rng.normal(0, 2, 8)
            b = rng.normal(0, 2, 8)
            pa, pb = project_simplex(a, mode), project_simplex(b, mode)
            assert np.allclose(project_simplex(pa, mode), pa, atol=1e-12)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


@pytest.mark.parametrize(
    "v, on_simplex, inside_simplex",
    [
        ([3e16, 1e16, -2e16], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1e300, 1e300], [0.5, 0.5], [0.5, 0.5]),
        ([-1e17, -1e17, -3e17], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]),
        # csum - 1 rounds down by a unit here, so a support is found with
        # theta one unit off: the unshifted threshold gave [2, 0, 0].
        (
            [1.2648906559317066e16, 2.749002012896436e15, 8.690245140446312e15],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ),
    ],
)
def test_simplex_projection_of_huge_entries(v, on_simplex, inside_simplex):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        equal = project_simplex(np.array(v), SimplexMode.SUM_EQUALS_ONE)
        at_most = project_simplex(np.array(v), SimplexMode.SUM_AT_MOST_ONE)
    assert np.array_equal(equal, on_simplex)
    assert np.array_equal(at_most, inside_simplex)


def test_simplex_projection_stays_on_the_simplex_at_every_scale():
    # Distinct entries this large lie far more than 1 apart, so the whole
    # mass goes to the largest one.
    rng = np.random.default_rng(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in range(16, 301, 4):
            for _ in range(10):
                v = rng.normal(0.0, 1.0, int(rng.integers(1, 9))) * 10.0**exponent
                got = project_simplex(v, SimplexMode.SUM_EQUALS_ONE)
                assert np.array_equal(got, np.arange(v.size) == v.argmax())


def test_simplex_projection_of_large_close_entries_sums_to_one():
    for v in ([1e15 + 0.125, 1e15], [1e12 + 0.3, 1e12 + 0.2, 1e12]):
        got = project_simplex(np.array(v), SimplexMode.SUM_EQUALS_ONE)
        assert got.min() >= 0.0
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def _adversarial_rows(rng, r, m):
    """Random rows with ties, signed zeros, subnormals, or already on the
    simplex, in C or Fortran layout."""
    kind = int(rng.integers(4))
    if kind == 0:
        rows = rng.integers(-3, 4, (r, m)) / 4.0
    elif kind == 1:
        rows = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, -1.0], (r, m))
    elif kind == 2:
        rows = rng.choice([5e-324, -5e-324, 1e-310, -1e-310, 0.0, -0.0, 1.0], (r, m))
    else:
        rows = rng.dirichlet(np.ones(m), r)
        rows[rng.random((r, m)) < 0.3] = 0.0
        rows[:, 0] += 0.5
        rows /= rows.sum(axis=1, keepdims=True)
    return np.asfortranarray(rows) if rng.random() < 0.5 else rows


@pytest.mark.parametrize("exact", [True, False])
def test_row_projection_is_bit_identical_to_the_reference_kernel(exact):
    rng = np.random.default_rng(20)
    for _ in range(400):
        r, m = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        rows = _adversarial_rows(rng, r, m) if rng.random() < 0.7 else rng.normal(0, 1, (r, m))
        got = _project_rows(rows, exact)
        expected = oracles.sort_threshold_reference(rows, exact)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), rows


def test_at_most_one_projection_keeps_inside_rows_and_projects_the_rest():
    rng = np.random.default_rng(21)
    mixed = 0
    for _ in range(100):
        rows = rng.uniform(-0.2, 0.6, (5, 4))
        inside = np.maximum(rows, 0.0).sum(axis=1) <= 1.0
        mixed += inside.any() and not inside.all()
        got = _project_rows(rows, False)
        expected = oracles.sort_threshold_reference(rows, False)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(got[inside], np.maximum(rows[inside], 0.0))
    assert mixed > 50


# -- row/column projections -------------------------------------------------


def test_project_rowwise_single_row():
    spec = ConstraintSpec(1, 2, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    assert np.allclose(project_rowwise(np.array([0.6, 0.6]), spec), [0.5, 0.5])


def test_project_colwise_single_col():
    spec = ConstraintSpec(2, 1, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    assert np.allclose(project_colwise(np.array([0.6, 0.6]), spec), [0.5, 0.5])


def test_projection_idempotent_on_feasible_points():
    spec = ConstraintSpec.injective(3, 4)
    x = as_vector(np.eye(3, 4))
    assert np.allclose(project_rowwise(x, spec), x, atol=1e-12)
    assert np.allclose(project_colwise(x, spec), x, atol=1e-12)


def test_project_rowwise_matches_per_row_oracle():
    rng = np.random.default_rng(15)
    for row_mode, equality in (
        (SideMode.EXACTLY_ONE, True),
        (SideMode.AT_MOST_ONE, False),
    ):
        spec = ConstraintSpec(3, 4, row_mode, SideMode.AT_MOST_ONE)
        for _ in range(25):
            x = rng.normal(0, 1, 12)
            got = as_matrix(project_rowwise(x, spec), 3, 4)
            for i, row in enumerate(as_matrix(x, 3, 4)):
                assert np.allclose(
                    got[i], oracles.kkt_simplex_projection(row, equality), atol=1e-8
                )


def test_project_colwise_matches_per_col_oracle():
    rng = np.random.default_rng(16)
    spec = ConstraintSpec(4, 3, SideMode.AT_MOST_ONE, SideMode.EXACTLY_ONE)
    for _ in range(25):
        x = rng.normal(0, 1, 12)
        got = as_matrix(project_colwise(x, spec), 4, 3)
        for j in range(3):
            assert np.allclose(
                got[:, j],
                oracles.kkt_simplex_projection(as_matrix(x, 4, 3)[:, j], True),
                atol=1e-8,
            )


def test_projection_outputs_are_feasible_for_their_set():
    rng = np.random.default_rng(17)
    spec = ConstraintSpec.injective(4, 5)
    for _ in range(30):
        x = rng.normal(0, 2, 20)
        rows = as_matrix(project_rowwise(x, spec), 4, 5)
        assert rows.min() >= 0
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        cols = as_matrix(project_colwise(x, spec), 4, 5)
        assert cols.min() >= 0
        assert np.all(cols.sum(axis=0) <= 1.0 + 1e-12)


def test_size_mismatch_rejected():
    spec = ConstraintSpec(2, 2)
    with pytest.raises(ValueError):
        project_rowwise(np.ones(3), spec)
    with pytest.raises(ValueError):
        project_colwise(np.ones(5), spec)


# -- feasibility -------------------------------------------------------------


def test_feasibility_identity_hard():
    spec = ConstraintSpec(3, 3)
    report = feasibility(as_vector(np.eye(3)), spec, hard=True)
    assert report.feasible
    assert report.max_violation == 0.0


def test_feasibility_half_matrix_soft():
    spec = ConstraintSpec(2, 2, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    x = np.full(4, 0.5)
    assert feasibility(x, spec).feasible
    assert not feasibility(x, spec, hard=True).feasible


def test_feasibility_all_ones_violates():
    spec = ConstraintSpec(2, 2, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    report = feasibility(np.ones(4), spec)
    assert not report.feasible
    assert report.max_violation == pytest.approx(1.0)


def test_rowwise_and_colwise_feasibility_intersection():
    # a Birkhoff point (convex mix of permutation matrices) satisfies both
    # one-sided constraint sets, so the full soft check must accept it
    rng = np.random.default_rng(18)
    spec = ConstraintSpec(3, 3)
    eye = np.eye(3)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(4))
        perms = [eye[rng.permutation(3)] for _ in range(4)]
        mix = sum(w * p for w, p in zip(weights, perms))
        assert np.allclose(mix.sum(axis=1), 1.0) and np.allclose(mix.sum(axis=0), 1.0)
        assert feasibility(as_vector(mix), spec).feasible
    # rows alone are not enough: fix rows, overload one column
    bad = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    assert np.allclose(bad.sum(axis=1), 1.0)
    assert not feasibility(as_vector(bad), spec).feasible
