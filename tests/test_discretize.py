import itertools
import sys

import numpy as np
import pytest

import oracles
from helpers import dense_random_instance, random_instance, random_sparse_tensor, run_fresh

from adgm import discretize
from adgm import tensor as tensor_module
from adgm.constraints import ConstraintSpec, SideMode, as_matrix, as_vector, feasibility
from adgm.discretize import BruteForceLimits, brute_force_optimum, hungarian
from adgm.errors import OracleRefusalError
from adgm.solver import MatchingInstance, Sense
from adgm.tensor import SparseTensor


def matched_profit(profit, x):
    matrix = as_matrix(x, *profit.shape)
    return float((profit * matrix).sum())


def best_permutation_profit(profit):
    n = profit.shape[0]
    return max(
        float(profit[np.arange(n), perm].sum())
        for perm in itertools.permutations(range(n))
    )


# -- hungarian ---------------------------------------------------------------


def test_hungarian_identity():
    profit = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = hungarian(profit, ConstraintSpec(2, 2))
    assert np.array_equal(as_matrix(x, 2, 2), np.eye(2))
    assert matched_profit(profit, x) == 2.0


def test_hungarian_prefers_empty_over_negative():
    profit = np.array([[-5.0]])
    spec = ConstraintSpec(1, 1, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    x = hungarian(profit, spec)
    assert np.array_equal(x, [0.0])
    assert matched_profit(profit, x) == 0.0


def test_hungarian_must_match_when_exactly_one():
    profit = np.array([[-5.0]])
    x = hungarian(profit, ConstraintSpec(1, 1))
    assert np.array_equal(x, [1.0])


def test_hungarian_matches_permutation_enumeration():
    rng = np.random.default_rng(40)
    for _ in range(50):
        profit = rng.normal(0.0, 1.0, (5, 5))
        x = hungarian(profit, ConstraintSpec(5, 5))
        assert matched_profit(profit, x) == pytest.approx(
            best_permutation_profit(profit), abs=1e-12
        )


def test_hungarian_rectangular_exactly_one_rows():
    rng = np.random.default_rng(41)
    spec = ConstraintSpec.injective(3, 5)
    for _ in range(25):
        profit = rng.normal(0.0, 1.0, (3, 5))
        x = hungarian(profit, spec)
        matrix = as_matrix(x, 3, 5)
        assert np.array_equal(matrix.sum(axis=1), np.ones(3))
        best = max(
            float(profit[np.arange(3), list(cols)].sum())
            for cols in itertools.permutations(range(5), 3)
        )
        assert matched_profit(profit, x) == pytest.approx(best, abs=1e-12)


def test_hungarian_occlusion_drops_unprofitable_rows():
    rng = np.random.default_rng(42)
    spec = ConstraintSpec(4, 4, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    for _ in range(25):
        profit = rng.normal(0.0, 1.0, (4, 4))
        x = hungarian(profit, spec)
        got = matched_profit(profit, x)
        best = oracles.lp_feasible_maximum(profit, spec.row_mode, spec.col_mode)
        assert got == pytest.approx(best, abs=1e-9)
        assert feasibility(x, spec, hard=True).feasible


def test_hungarian_beats_random_feasible_assignments():
    rng = np.random.default_rng(43)
    profit = rng.normal(0.0, 1.0, (6, 6))
    spec = ConstraintSpec(6, 6)
    best = matched_profit(profit, hungarian(profit, spec))
    for _ in range(1000):
        perm = rng.permutation(6)
        assert best >= float(profit[np.arange(6), perm].sum()) - 1e-12


def test_hungarian_validates_input():
    with pytest.raises(ValueError):
        hungarian(np.zeros((2, 3)), ConstraintSpec(2, 2))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]), ConstraintSpec(2, 2))


# -- brute force ----------------------------------------------------------------


def test_brute_force_prefers_empty_for_costly_match():
    spec = ConstraintSpec(1, 1, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    tensor = SparseTensor.from_entries(1, 1, {(0,): 2.0})
    inst = MatchingInstance(1, 1, (tensor,), spec)
    x, value = brute_force_optimum(inst)
    assert np.array_equal(x, [0.0])
    assert value == 0.0


def test_brute_force_tie_break_is_lexicographic():
    spec = ConstraintSpec(2, 2)
    inst = MatchingInstance(2, 2, (SparseTensor.empty(1, 4),), spec)
    x, value = brute_force_optimum(inst)
    # both perfect matchings score 0; the lexicographically smallest
    # assignment vector is the anti-diagonal (0,1,1,0), not the identity
    assert np.array_equal(x, [0.0, 1.0, 1.0, 0.0])
    assert value == 0.0


def test_brute_force_matches_independent_enumeration():
    rng = np.random.default_rng(44)
    for sense in (Sense.MINIMIZE, Sense.MAXIMIZE):
        for _ in range(5):
            inst = random_instance(rng, 4, 4, max_order=2, sense=sense,
                                   spec=ConstraintSpec(4, 4))
            got_x, got_e = brute_force_optimum(inst)
            exp_x, exp_e = oracles.exhaustive_optimum(inst)
            assert np.array_equal(got_x, exp_x)
            assert got_e == pytest.approx(exp_e, rel=1e-12, abs=1e-12)


def test_brute_force_occlusion_matches_independent_enumeration():
    rng = np.random.default_rng(45)
    spec = ConstraintSpec(3, 4, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    for _ in range(5):
        inst = random_instance(rng, 3, 4, max_order=2, sense=Sense.MAXIMIZE, spec=spec)
        got_x, got_e = brute_force_optimum(inst)
        exp_x, exp_e = oracles.exhaustive_optimum(inst)
        assert np.array_equal(got_x, exp_x)
        assert got_e == pytest.approx(exp_e, rel=1e-12, abs=1e-12)


def test_brute_force_deterministic():
    rng = np.random.default_rng(46)
    inst = dense_random_instance(rng, 3, 3)
    first = brute_force_optimum(inst)
    second = brute_force_optimum(inst)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_brute_force_refusals_name_the_limit():
    rng = np.random.default_rng(47)
    big = dense_random_instance(rng, 8, 8)
    with pytest.raises(OracleRefusalError):
        brute_force_optimum(big)
    occluded = random_instance(
        rng, 6, 6, spec=ConstraintSpec(6, 6, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    )
    with pytest.raises(OracleRefusalError):
        brute_force_optimum(occluded)
    # generous explicit limits lift the refusal
    x, _ = brute_force_optimum(occluded, BruteForceLimits(max_occluded=6))
    assert feasibility(x, occluded.spec, hard=True).feasible


def test_brute_force_agrees_with_hungarian_on_unary_instances():
    # for pure order-1 potentials the two must find the same optimum, also
    # on integer profits where many assignments tie
    rng = np.random.default_rng(48)
    for row_mode, col_mode, n1, n2 in SIDE_MODES:
        spec = ConstraintSpec(n1, n2, row_mode, col_mode)
        for trial in range(20):
            if trial % 2:
                values = rng.integers(-2, 3, n1 * n2).astype(np.float64)
            else:
                values = rng.normal(0.0, 1.0, n1 * n2)
            tensor = SparseTensor(1, n1 * n2, np.arange(n1 * n2)[:, None], values)
            inst = MatchingInstance(n1, n2, (tensor,), spec, Sense.MAXIMIZE)
            _, best = brute_force_optimum(inst)
            x = hungarian(as_matrix(values, n1, n2), spec)
            assert feasibility(x, spec, hard=True).feasible
            assert float(values @ x) == pytest.approx(best, abs=1e-12)


# -- batched scoring against per-candidate scoring -------------------------------

EXACT, SOFT = SideMode.EXACTLY_ONE, SideMode.AT_MOST_ONE
# One shape per side-mode branch of the enumeration.
SIDE_MODES = [
    (EXACT, EXACT, 4, 4),
    (EXACT, SOFT, 3, 5),
    (SOFT, EXACT, 5, 3),
    (SOFT, SOFT, 4, 4),
]


def assert_same_optimum(inst):
    """The batched oracle must equal per-candidate ``energy`` scoring bit
    for bit: same assignment, same float."""
    got_x, got_e = brute_force_optimum(inst)
    exp_x, exp_e = oracles.exhaustive_optimum(inst)
    assert np.array_equal(got_x, exp_x)
    assert got_e == exp_e


def record_batch_sizes(monkeypatch):
    """Rebind the candidate stream to one that records each batch's size."""
    sizes = []
    original = discretize._candidate_batches

    def recording(spec, batch):
        for selected in original(spec, batch):
            sizes.append(selected.shape[0])
            yield selected

    monkeypatch.setattr(discretize, "_candidate_batches", recording)
    return sizes


@pytest.mark.parametrize("sense", [Sense.MINIMIZE, Sense.MAXIMIZE])
@pytest.mark.parametrize("row_mode, col_mode, n1, n2", SIDE_MODES)
def test_batched_oracle_equals_per_candidate_scoring(row_mode, col_mode, n1, n2, sense):
    rng = np.random.default_rng(49)
    spec = ConstraintSpec(n1, n2, row_mode, col_mode)
    n = spec.n
    for max_order in (1, 2, 3):
        for _ in range(3):
            assert_same_optimum(
                random_instance(rng, n1, n2, max_order=max_order, sense=sense, spec=spec)
            )
    # empty slots between and around a filled one
    pairwise = random_sparse_tensor(rng, 2, n, 3 * n)
    empty_slots = (SparseTensor.empty(1, n), pairwise, SparseTensor.empty(3, n))
    assert_same_optimum(MatchingInstance(n1, n2, empty_slots, spec, sense))


def test_batched_oracle_dense_third_order_scores_one_candidate_per_batch(monkeypatch):
    # n = 33: the dense order-3 tensor holds 33^3 = 35937 entries, more than
    # the batch budget, so each batch holds a single candidate.
    rng = np.random.default_rng(50)
    n1, n2 = 3, 11
    n = n1 * n2
    assert n**3 > discretize._BATCH_FLOATS
    cube = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1)
    potentials = (
        random_sparse_tensor(rng, 1, n, n),
        SparseTensor.empty(2, n),
        SparseTensor(3, n, cube.reshape(-1, 3), rng.normal(0.0, 1.0, n**3)),
    )
    inst = MatchingInstance(
        n1, n2, potentials, ConstraintSpec.injective(n1, n2), Sense.MAXIMIZE
    )
    sizes = record_batch_sizes(monkeypatch)
    assert_same_optimum(inst)
    assert set(sizes) == {1} and len(sizes) == 11 * 10 * 9


@pytest.mark.parametrize("per_batch", [1, 7])
@pytest.mark.parametrize("row_mode, col_mode, n1, n2", SIDE_MODES)
def test_tie_break_holds_across_batch_boundaries(monkeypatch, per_batch, row_mode, col_mode, n1, n2):
    spec = ConstraintSpec(n1, n2, row_mode, col_mode)
    n = spec.n
    monkeypatch.setattr(discretize, "_BATCH_FLOATS", per_batch * n)
    sizes = record_batch_sizes(monkeypatch)
    # every candidate ties at energy 0
    assert_same_optimum(MatchingInstance(n1, n2, (SparseTensor.empty(1, n),), spec))
    assert max(sizes) == per_batch
    # integer potentials: many ties at the optimum, spread over batches
    rng = np.random.default_rng(51)
    for sense in (Sense.MINIMIZE, Sense.MAXIMIZE):
        unary = SparseTensor(1, n, np.arange(n)[:, None], rng.integers(1, 3, n).astype(float))
        inst = MatchingInstance(n1, n2, (unary,), spec, sense)
        assert_same_optimum(inst)


def test_a_dense_pairwise_tensor_gives_the_oracle_its_entries_once(monkeypatch):
    # A tensor held as a dense array makes its entries on each access, so
    # the oracle reads them once per call, not once per batch.
    inst = dense_random_instance(np.random.default_rng(53), 4, 4)
    assert inst.potentials[1]._dense is not None
    expected = brute_force_optimum(inst)
    monkeypatch.setattr(discretize, "_BATCH_FLOATS", 3 * inst.n**2)
    sizes = record_batch_sizes(monkeypatch)
    reads = []
    for name in ("_dense_indices", "_dense_values"):

        def counted(dense, name=name, make=getattr(tensor_module, name)):
            reads.append(name)
            return make(dense)

        monkeypatch.setattr(tensor_module, name, counted)
    got = brute_force_optimum(inst)
    assert len(sizes) > 1 and sorted(reads) == ["_dense_indices", "_dense_values"]
    assert got[0].tobytes() == expected[0].tobytes() and got[1] == expected[1]


def test_refusals_raise_before_any_candidate_is_scored(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a candidate was enumerated or scored")

    monkeypatch.setattr(discretize, "_candidate_batches", never)
    monkeypatch.setattr(discretize, "_batch_energies", never)
    rng = np.random.default_rng(52)
    with pytest.raises(OracleRefusalError, match="injective"):
        brute_force_optimum(dense_random_instance(rng, 8, 8))
    occluded = ConstraintSpec(6, 6, SideMode.AT_MOST_ONE, SideMode.AT_MOST_ONE)
    with pytest.raises(OracleRefusalError, match="occlusion"):
        brute_force_optimum(random_instance(rng, 6, 6, spec=occluded))
    with pytest.raises(OracleRefusalError, match="cap"):
        brute_force_optimum(
            random_instance(rng, 4, 4), BruteForceLimits(max_candidates=23)
        )


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux minor page faults")
def test_repeated_oracle_calls_fault_in_few_pages():
    # Without scipy's import on the heap, every freed batch temporary went
    # back to the system and its pages faulted in again: ~31,600 minor
    # faults per call on this instance.  Reused buffers keep it to ~100.
    code = (
        "import resource\n"
        "from adgm import brute_force_optimum, build_model, generate_synthetic\n"
        "p1, p2, _ = generate_synthetic(6, 2, 0.02, seed=1)\n"
        "inst = build_model('a', p1, p2)\n"
        "brute_force_optimum(inst)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "brute_force_optimum(inst)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    assert int(run_fresh(code)) < 1000
