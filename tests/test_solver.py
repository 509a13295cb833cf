import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from helpers import dense_random_instance, operator_builds, random_instance, random_state

from adgm import solver
from adgm.constraints import ConstraintSpec, as_vector, feasibility
from adgm.discretize import brute_force_optimum
from adgm.errors import ConfigurationError
from adgm.harness import Transform, generate_synthetic
from adgm.models import build_pairwise_c, build_third_order
from adgm.solver import (
    MatchingInstance,
    Sense,
    SolverConfig,
    SolverState,
    Variant,
    adapt_penalty,
    energy,
    projection_target,
    residual,
    solve,
    to_minimization,
    update_multipliers,
)
from adgm.tensor import SparseTensor


def unary_instance(values, spec, sense=Sense.MINIMIZE):
    n = spec.n
    tensor = SparseTensor(1, n, np.arange(n)[:, None], np.asarray(values, dtype=float))
    return MatchingInstance(spec.n1, spec.n2, (tensor,), spec, sense)


# -- configuration and instance validation --------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho0=0.0),
        dict(rho0=-1.0),
        dict(beta=1.0),
        dict(t1=10, t2=20),
        dict(t2=0),
        dict(eps=0.0),
        dict(max_iter=0),
        dict(t1=300.5),
        dict(t2=2.5),
        dict(max_iter=2.5),
        dict(max_iter="50"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SolverConfig(**kwargs).validate()


def test_variant_parse():
    assert Variant.parse("adgm1") is Variant.ADGM1
    assert Variant.parse("ADGM2") is Variant.ADGM2
    with pytest.raises(ValueError):
        Variant.parse("adgm3")


def test_config_counts_are_integers():
    with pytest.raises(ConfigurationError, match=re.escape("t1 must be an integer, got 300.5")):
        SolverConfig(t1=300.5)
    config = SolverConfig(t1=np.int64(20), t2=np.int32(5), max_iter=np.int64(30))
    assert (config.t1, config.t2, config.max_iter) == (20, 5, 30)


def test_instance_validation():
    spec = ConstraintSpec(2, 2)
    good = SparseTensor.empty(1, 4)
    with pytest.raises(ValueError):
        MatchingInstance(2, 2, (SparseTensor.empty(1, 5),), spec)
    with pytest.raises(ValueError):
        MatchingInstance(2, 2, (SparseTensor.empty(2, 4),), spec)
    with pytest.raises(ValueError):
        MatchingInstance(2, 2, (good,), ConstraintSpec(3, 3))
    with pytest.raises(ValueError):
        MatchingInstance(2, 2, (good,), spec, ground_truth=np.full(4, 0.5))
    with pytest.raises(ValueError, match="n1 and n2 must be >= 1"):
        MatchingInstance(0, 2, (good,), spec)
    with pytest.raises(ValueError, match="at least an order-1 potential slot"):
        MatchingInstance(2, 2, (), spec)
    with pytest.raises(TypeError, match="potentials must be SparseTensor instances"):
        MatchingInstance(2, 2, (np.zeros(4),), spec)
    for truth in (np.ones(3), np.zeros(5), np.zeros((2, 2))):
        with pytest.raises(ValueError, match=re.escape("ground_truth must have shape (4,)")):
            MatchingInstance(2, 2, (good,), spec, ground_truth=truth)


# -- energy ---------------------------------------------------------------


def test_energy_empty_potentials_is_zero():
    spec = ConstraintSpec(2, 2)
    inst = MatchingInstance(2, 2, (SparseTensor.empty(1, 4), SparseTensor.empty(2, 4)), spec)
    assert energy(inst, np.random.default_rng(0).random(4)) == 0.0


def test_energy_unary_basis_vector():
    spec = ConstraintSpec(1, 1)
    inst = MatchingInstance(1, 1, (SparseTensor.from_entries(1, 1, {(0,): 5.0}),), spec)
    assert energy(inst, np.array([1.0])) == 5.0


def test_energy_matches_dense_enumeration():
    rng = np.random.default_rng(20)
    inst = random_instance(rng, 2, 2, max_order=3)
    dense = [oracles.dense_tensor(t) for t in inst.potentials]
    for _ in range(10):
        x = rng.normal(0, 1, inst.n)
        expected = sum(
            oracles.dense_multilinear_form(d, [x] * (k + 1)) for k, d in enumerate(dense)
        )
        assert energy(inst, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_energy_validates_shape():
    spec = ConstraintSpec(2, 2)
    inst = MatchingInstance(2, 2, (SparseTensor.empty(1, 4),), spec)
    with pytest.raises(ValueError):
        energy(inst, np.ones(5))


# -- constraint sets of the blocks ------------------------------------------


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_odd_blocks_project_on_rows_and_even_blocks_on_columns(monkeypatch, order, variant):
    calls = []
    for name in ("project_rowwise", "project_colwise"):

        def spy(x, spec, name=name, project=getattr(solver, name)):
            calls.append(name)
            return project(x, spec)

        monkeypatch.setattr(solver, name, spy)
    inst = random_instance(np.random.default_rng(order), 2, 3, max_order=order)
    result = solve(inst, SolverConfig(variant=variant, max_iter=4))
    sweep = ["project_rowwise", "project_colwise", "project_rowwise", "project_colwise"]
    assert result.iterations >= 1
    assert calls == sweep[:order] * result.iterations


# -- projection targets ------------------------------------------------------


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_target_collapses_without_potentials(variant):
    rng = np.random.default_rng(21)
    spec = ConstraintSpec(2, 2)
    inst = MatchingInstance(
        2, 2, (SparseTensor.empty(1, 4), SparseTensor.empty(2, 4)), spec
    )
    state = SolverState(
        blocks=[rng.random(4), rng.random(4)],
        prev_blocks=[np.zeros(4), np.zeros(4)],
        multipliers=[np.zeros(4)],
        rho=1.0,
    )
    # with zero potentials and zero multipliers, each block's best reply
    # is simply the other block
    assert np.allclose(projection_target(variant, 1, state, inst), state.blocks[1])
    state.blocks[0] = rng.random(4)
    assert np.allclose(projection_target(variant, 2, state, inst), state.blocks[0])


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
@pytest.mark.parametrize(
    "shape,order", [((2, 2), 2), ((2, 2), 3), ((3, 3), 3), ((2, 2), 4)]
)
def test_target_matches_lagrangian_minimizer(variant, shape, order):
    rng = np.random.default_rng(22)
    inst = random_instance(rng, *shape, max_order=order, spec=ConstraintSpec(*shape))
    dense = [oracles.dense_tensor(t) for t in inst.potentials]
    for _ in range(5):
        state = random_state(rng, inst)
        for d in range(1, order + 1):
            got = projection_target(variant, d, state, inst)
            expected = oracles.projection_target_oracle(
                dense, state.blocks, state.multipliers, state.rho, variant, d
            )
            assert np.allclose(got, expected, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_lagrangian_gradient_vanishes_at_target(variant):
    rng = np.random.default_rng(23)
    inst = random_instance(rng, 2, 2, max_order=3, spec=ConstraintSpec(2, 2))
    dense = [oracles.dense_tensor(t) for t in inst.potentials]
    state = random_state(rng, inst)
    for d in (1, 2, 3):
        target = projection_target(variant, d, state, inst)
        probe = [b.copy() for b in state.blocks]
        probe[d - 1] = target
        grad = oracles.lagrangian_block_gradient(
            dense, probe, state.multipliers, state.rho, variant, d
        )
        assert np.linalg.norm(grad) < 1e-6


# -- residual ----------------------------------------------------------------


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_residual_zero_when_stationary(variant):
    x = np.random.default_rng(24).random(6)
    state = SolverState(
        blocks=[x.copy(), x.copy(), x.copy()],
        prev_blocks=[x.copy(), x.copy(), x.copy()],
        multipliers=[np.zeros(6), np.zeros(6)],
        rho=1.0,
    )
    assert residual(state, variant) == 0.0


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_residual_unit_gap(variant):
    e0 = np.zeros(4)
    e0[0] = 1.0
    x2 = np.random.default_rng(25).random(4)
    x1 = x2 + e0
    state = SolverState(
        blocks=[x1, x2],
        prev_blocks=[x1.copy(), x2.copy()],
        multipliers=[np.zeros(4)],
        rho=1.0,
    )
    assert residual(state, variant) == pytest.approx(1.0)


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_residual_matches_stacked_matrix_oracle(variant):
    rng = np.random.default_rng(26)
    for order in (2, 3, 4):
        inst = random_instance(rng, 2, 3, max_order=order)
        for _ in range(5):
            state = random_state(rng, inst)
            assert residual(state, variant) == pytest.approx(
                oracles.stacked_residual(state.blocks, state.prev_blocks, variant),
                rel=1e-12,
            )


# -- multiplier updates -------------------------------------------------------


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_multipliers_fixed_at_consensus(variant):
    x = np.random.default_rng(27).random(4)
    state = SolverState(
        blocks=[x.copy(), x.copy(), x.copy()],
        prev_blocks=[x.copy(), x.copy(), x.copy()],
        multipliers=[np.full(4, 0.7), np.full(4, -0.2)],
        rho=3.0,
    )
    update_multipliers(state, variant, 3.0)
    assert np.array_equal(state.multipliers[0], np.full(4, 0.7))
    assert np.array_equal(state.multipliers[1], np.full(4, -0.2))


def test_multiplier_step_pinned():
    e0 = np.zeros(4)
    e0[0] = 1.0
    x2 = np.array([0.25, 0.5, 0.75, 0.125])  # dyadic, so x2 + e0 - x2 is exact
    state = SolverState(
        blocks=[x2 + e0, x2.copy()],
        prev_blocks=[np.zeros(4), np.zeros(4)],
        multipliers=[np.zeros(4)],
        rho=2.0,
    )
    update_multipliers(state, Variant.ADGM1, 2.0)
    assert np.array_equal(state.multipliers[0], 2.0 * e0)


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_multiplier_update_matches_gap_formula(variant):
    rng = np.random.default_rng(29)
    inst = random_instance(rng, 2, 2, max_order=3)
    state = random_state(rng, inst, rho=1.7)
    before = [y.copy() for y in state.multipliers]
    gaps = oracles.constraint_gaps(state.blocks, variant)
    update_multipliers(state, variant, 1.7)
    for y0, y1, gap in zip(before, state.multipliers, gaps):
        assert np.allclose(y1, y0 + 1.7 * gap, rtol=1e-12, atol=1e-15)


# -- one coupling table ----------------------------------------------------------


def _negated(instance):
    """The same potentials negated, as a minimization instance."""
    potentials = tuple(
        SparseTensor(t.order, t.dim, t.indices, -t.values) for t in instance.potentials
    )
    return replace(instance, potentials=potentials, sense=Sense.MINIMIZE)


def _copy(state):
    return SolverState(
        blocks=[b.copy() for b in state.blocks],
        prev_blocks=[b.copy() for b in state.prev_blocks],
        multipliers=[y.copy() for y in state.multipliers],
        rho=state.rho,
    )


@pytest.mark.parametrize("sense", [Sense.MINIMIZE, Sense.MAXIMIZE])
@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_step_is_byte_identical_to_the_per_variant_reference(variant, D, sense):
    # D = 4 and 5 give ADGM1's first block 3 and 4 couplings and ADGM2
    # two and three middle blocks.
    rng = np.random.default_rng(40 + D)
    inst = random_instance(rng, 2, 3, max_order=D, sense=sense)
    reference = _negated(inst) if sense is Sense.MAXIMIZE else inst
    for _ in range(5):
        state = random_state(rng, inst)
        for d in range(1, D + 1):
            got = projection_target(variant, d, state, inst)
            want = oracles.per_variant_projection_target(variant, d, state, reference)
            assert got.tobytes() == want.tobytes()
        got = np.float64(residual(state, variant))
        want = np.float64(oracles.per_variant_residual(state, variant))
        assert got.tobytes() == want.tobytes()
        ours, theirs = _copy(state), _copy(state)
        update_multipliers(ours, variant, state.rho)
        oracles.per_variant_update_multipliers(theirs, variant, state.rho)
        assert [y.tobytes() for y in ours.multipliers] == [
            y.tobytes() for y in theirs.multipliers
        ]


@pytest.mark.parametrize("kind", ["unary", "pairwise", "third"])
@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_maximize_solve_is_the_negated_minimize_solve(variant, kind):
    rng = np.random.default_rng(41)
    if kind == "unary":  # D = 2 on a single order-1 potential
        spec = ConstraintSpec.injective(2, 3)
        inst = unary_instance(rng.normal(0.0, 1.0, 6), spec, Sense.MAXIMIZE)
    elif kind == "pairwise":
        inst = dense_random_instance(rng, 3, 3, sense=Sense.MAXIMIZE)
    else:
        inst = random_instance(rng, 2, 3, max_order=3, sense=Sense.MAXIMIZE)
    mirror = _negated(inst)
    config = SolverConfig(variant=variant, t1=20, t2=5, max_iter=300)
    got, want = solve(inst, config), solve(mirror, config)
    for name in ("continuous", "discrete", "residual_trace"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.rho_increases == want.rho_increases
    assert got.energy_continuous == -want.energy_continuous
    assert got.energy_discrete == -want.energy_discrete
    # Each block's step reads the sense from the instance it is given.
    D = max(2, inst.order)
    state = SolverState(
        blocks=[rng.random(inst.n) for _ in range(D)],
        prev_blocks=[rng.random(inst.n) for _ in range(D)],
        multipliers=[rng.normal(0.0, 1.0, inst.n) for _ in range(D - 1)],
        rho=1.3,
    )
    for d in range(1, D + 1):
        assert (
            projection_target(variant, d, state, inst).tobytes()
            == projection_target(variant, d, state, mirror).tobytes()
        )


def test_two_solves_of_one_instance_build_each_operator_once(monkeypatch):
    p1, p2, _ = generate_synthetic(5, 1, 0.02, seed=3)
    inst = build_third_order(p1, p2, knn=20, triangle_budget=30, seed=0)
    assert inst.sense is Sense.MAXIMIZE
    third = inst.potentials[2]
    values = third.values.copy()
    values[0] = np.nextafter(values[0], np.inf)
    nudged = SparseTensor(3, third.dim, third.indices, values)
    nudged = replace(inst, potentials=inst.potentials[:2] + (nudged,))
    # The supersymmetric tensor shares one half operator among its three
    # modes; one ulp off symmetry, they share its index columns.
    for instance, expected in ((inst, ["half"]), (nudged, ["columns"])):
        built = operator_builds(monkeypatch)
        for variant in (Variant.ADGM1, Variant.ADGM2):
            solve(instance, SolverConfig(variant=variant, max_iter=5))
        assert built == expected
        monkeypatch.undo()


@pytest.mark.parametrize("variant", [Variant.ADGM1, Variant.ADGM2])
def test_a_model_c_solve_builds_one_operator(monkeypatch, variant):
    p1, p2, _ = generate_synthetic(5, 2, 0.02, seed=3)
    inst = build_pairwise_c(p1, p2)
    pair = inst.potentials[1]
    values = pair.values.copy()
    values[0] = np.nextafter(values[0], np.inf)
    nudged = SparseTensor(2, pair.dim, pair.indices, values)
    nudged = replace(inst, potentials=(inst.potentials[0], nudged))
    # The symmetric pairwise tensor's dense array is the one operator of
    # both its modes; one ulp off symmetry, mode 1 has its own transposed
    # copy.  Neither caches index columns.
    for instance, expected in ((inst, 1), (nudged, 2)):
        built = operator_builds(monkeypatch)
        solve(instance, SolverConfig(variant=variant, max_iter=5))
        monkeypatch.undo()
        assert built == []
        cache = instance.potentials[1]._contract_cache
        assert "columns" not in cache
        assert len({id(cache[m]) for m in (1, 2)}) == expected


def test_first_model_c_solve_peaks_below_one_and_a_half_tensors():
    # cli_pairwise's size: 20+5 points, a 228k-entry pairwise tensor.
    p1, p2, _ = generate_synthetic(20, 5, 0.02, Transform(rotation=0.3), seed=1)
    inst = build_pairwise_c(p1, p2)
    tracemalloc.start()
    try:
        solve(inst, SolverConfig(max_iter=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pair = inst.potentials[1]
    assert pair.nnz == 228_000
    assert peak < 1.5 * (pair.indices.nbytes + pair.values.nbytes)


def test_first_model_c_solve_peaks_below_half_a_coordinate_tensor():
    # The tensor's dense array is the operator of both modes, and the
    # energy holds one values-sized buffer.
    p1, p2, _ = generate_synthetic(20, 5, 0.02, Transform(rotation=0.3), seed=1)
    inst = build_pairwise_c(p1, p2)
    tracemalloc.start()
    try:
        solve(inst, SolverConfig(max_iter=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pair = inst.potentials[1]
    assert pair.nnz == 228_000 and pair._dense is not None
    assert peak < 0.5 * (pair.indices.nbytes + pair.values.nbytes)


def test_first_third_order_solve_peaks_below_four_fifths_of_the_tensor():
    # third_order's size: 10+5 points, a 216k-entry order-3 tensor.  The
    # first solve checks the tensor's symmetry and builds its half operator.
    p1, p2, _ = generate_synthetic(10, 5, 0.02, Transform(rotation=0.3), seed=1)
    inst = build_third_order(p1, p2, knn=300, triangle_budget=5000, seed=1)
    tracemalloc.start()
    try:
        solve(inst, SolverConfig(max_iter=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    third = inst.potentials[2]
    assert third.nnz == 216_000
    assert peak < 0.8 * (third.indices.nbytes + third.values.nbytes)


# -- adaptive penalty ----------------------------------------------------------


def drive_penalty(residuals, config, rho0=1.0):
    state = SolverState(blocks=[], prev_blocks=[], multipliers=[], rho=rho0)
    rhos = []
    for k, r in enumerate(residuals, start=1):
        state.iteration = k
        state.residual_history.append(r)
        adapt_penalty(state, config)
        rhos.append(state.rho)
    return state, rhos


def test_penalty_untouched_while_improving():
    config = SolverConfig()
    state, rhos = drive_penalty([1.0 / k for k in range(1, 1001)], config)
    assert state.rho == 1.0
    assert state.rho_increases == []
    assert rhos == [1.0] * 1000


def test_penalty_schedule_for_constant_residual():
    config = SolverConfig()  # t1=300, t2=50, beta=2
    state, rhos = drive_penalty([1.0] * 440, config)
    assert state.rho_increases == [350, 400]
    assert state.rho == 4.0  # two doublings
    assert rhos[348] == 1.0 and rhos[349] == 2.0
    assert rhos[398] == 2.0 and rhos[399] == 4.0


def test_penalty_resumes_holding_when_residual_improves_again():
    residuals = [1.0] * 370 + [0.4 * 0.999**k for k in range(330)]
    state, rhos = drive_penalty(residuals, SolverConfig())
    assert state.rho_increases == [350]
    assert state.rho == 2.0
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))  # never decreases


def test_penalty_respects_custom_window():
    config = SolverConfig(t1=10, t2=5)
    state, _ = drive_penalty([1.0] * 25, config)
    assert state.rho_increases == [15, 20, 25]
    assert state.rho == 8.0


def _residual_sequence(rng, length):
    """Residuals mixing runs that hold, improve, tie and go NaN."""
    out = []
    while len(out) < length:
        run = int(rng.integers(1, 12))
        kind = rng.integers(4)
        if kind == 0:  # constant
            out += [float(rng.choice([0.5, 1.0, 2.0]))] * run
        elif kind == 1:  # improving
            out += list(float(rng.uniform(0.1, 2.0)) * 0.9 ** np.arange(run))
        elif kind == 2:  # within the improvement tolerance of the last value
            last = out[-1] if out else 1.0
            out += [last - float(rng.choice([0.0, 5e-13, 2e-12]))] * run
        else:
            out += [float("nan")] * run
    return out[:length]


@pytest.mark.parametrize("seed", range(20))
def test_penalty_schedule_matches_the_stored_check_reference(seed):
    rng = np.random.default_rng(500 + seed)
    t2 = int(rng.integers(1, 8))
    t1 = t2 + int(rng.integers(0, 12))
    config = SolverConfig(t1=t1, t2=t2, beta=float(rng.uniform(1.1, 4.0)))
    ours = SolverState(blocks=[], prev_blocks=[], multipliers=[], rho=0.3)
    theirs = SolverState(blocks=[], prev_blocks=[], multipliers=[], rho=0.3)
    reference = oracles.StoredCheckPenaltySchedule()
    for k, r in enumerate(_residual_sequence(rng, 200), start=1):
        for state in (ours, theirs):
            state.iteration = k
            state.residual_history.append(r)
        adapt_penalty(ours, config)
        reference(theirs, config)
        assert ours.rho == theirs.rho
        assert ours.rho_increases == theirs.rho_increases
        assert ours.best_residual_since_increase == theirs.best_residual_since_increase
        assert ours.best_at_prev_check == theirs.best_at_prev_check


def test_penalty_checks_resume_when_a_call_skips_t1():
    # The stored-check schedule waited for iteration t1 forever.
    config = SolverConfig(t1=10, t2=5)
    state = SolverState(blocks=[], prev_blocks=[], multipliers=[], rho=1.0)
    for k in range(11, 31):
        state.iteration = k
        state.residual_history.append(1.0)
        adapt_penalty(state, config)
    assert state.rho_increases == [20, 25, 30]


# -- end-to-end solve -----------------------------------------------------------


def test_solve_one_by_one_pinned():
    inst = unary_instance([-3.0], ConstraintSpec(1, 1))
    result = solve(inst)
    assert np.array_equal(result.discrete, [1.0])
    assert result.energy_discrete == -3.0
    assert result.converged


def test_solve_identical_point_sets_model_c():
    rng = np.random.default_rng(30)
    points = rng.random((3, 2))
    inst = build_pairwise_c(points, points)
    result = solve(inst)
    best_x, best_e = brute_force_optimum(inst)
    assert np.array_equal(result.discrete, as_vector(np.eye(3)))
    assert result.energy_discrete == pytest.approx(best_e, abs=1e-12)
    assert np.array_equal(result.discrete, best_x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_variants_identical_for_pairwise(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, 3, 4, max_order=2)
    config = dict(eps=1e-12, max_iter=60)
    r1 = solve(inst, SolverConfig(variant=Variant.ADGM1, **config))
    r2 = solve(inst, SolverConfig(variant=Variant.ADGM2, **config))
    assert np.array_equal(r1.continuous, r2.continuous)
    assert np.array_equal(r1.residual_trace, r2.residual_trace)
    assert np.array_equal(r1.discrete, r2.discrete)


def test_solve_converged_run_satisfies_residual_bound():
    rng = np.random.default_rng(31)
    points1 = rng.random((5, 2))
    points2 = rng.random((6, 2))
    inst = build_pairwise_c(points1, points2)
    result = solve(inst)
    assert result.converged
    eps = 1e-6 * inst.n
    assert result.residual_trace[-1] <= eps
    assert result.iterations == len(result.residual_trace)
    # the returned continuous block was projected onto the rowwise set last
    report = feasibility(result.continuous, inst.spec)
    row_sums = result.continuous.reshape(inst.n1, inst.n2, order="F").sum(axis=1)
    assert np.allclose(row_sums, 1.0, atol=1e-9)
    assert result.continuous.min() >= 0.0
    del report


def test_solve_discrete_output_is_hard_feasible():
    rng = np.random.default_rng(32)
    for _ in range(5):
        inst = random_instance(rng, 3, 5, max_order=2)
        result = solve(inst, SolverConfig(max_iter=200))
        report = feasibility(result.discrete, inst.spec, hard=True)
        assert report.feasible
        assert result.energy_discrete == pytest.approx(
            energy(inst, result.discrete), rel=1e-12, abs=1e-12
        )


def test_solve_rho_trace_increases_by_beta_steps():
    rng = np.random.default_rng(33)
    inst = random_instance(rng, 3, 3, max_order=2, nnz=40)
    config = SolverConfig(eps=1e-30, max_iter=800, beta=2.0)
    result = solve(inst, config, collect_trace=True)
    rhos = [row[2] for row in result.trace]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    distinct = sorted(set(rhos))
    for lo, hi in zip(distinct, distinct[1:]):
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)
    assert result.rho_final == pytest.approx(
        distinct[0] * 2.0 ** len(result.rho_increases), rel=1e-12
    )
    assert len(result.trace) == result.iterations


def test_solve_reports_native_sense_for_maximize():
    rng = np.random.default_rng(34)
    inst = dense_random_instance(rng, 2, 2, sense=Sense.MAXIMIZE)
    result = solve(inst, SolverConfig(max_iter=500))
    # energies are reported against the original (maximization) potentials
    assert result.energy_discrete == pytest.approx(energy(inst, result.discrete))
    best_x, best_e = brute_force_optimum(inst)
    assert result.energy_discrete <= best_e + 1e-9
    del best_x


def test_solve_rejects_bad_config_before_iterating():
    inst = unary_instance([-3.0], ConstraintSpec(1, 1))
    with pytest.raises(ConfigurationError):
        solve(inst, SolverConfig(beta=1.0))


def test_solve_unary_only_matches_brute_force():
    rng = np.random.default_rng(35)
    spec = ConstraintSpec.injective(2, 3)
    inst = unary_instance(rng.normal(0, 1, 6), spec)
    result = solve(inst)
    best_x, best_e = brute_force_optimum(inst)
    assert result.energy_discrete == pytest.approx(best_e, abs=1e-12)
    assert np.array_equal(result.discrete, best_x)


# -- sense conversion -----------------------------------------------------------


def test_to_minimization_pinned_values():
    # value mapping with max 3: 1, 3, 2, 0 -> 2, 0, 1, 3.  Zero-valued
    # entries are never stored (canonicalization drops them), so the 0
    # input cell is absent to begin with and the mapped-to-0 cell is
    # dropped from the converted storage.
    spec = ConstraintSpec(2, 2)
    inst = unary_instance([1.0, 3.0, 2.0, 0.0], spec, sense=Sense.MAXIMIZE)
    assert dict(inst.potentials[0].items()) == {(0,): 1.0, (1,): 3.0, (2,): 2.0}
    converted, v_max = to_minimization(inst)
    assert v_max == 3.0
    assert converted.sense is Sense.MINIMIZE
    assert dict(converted.potentials[0].items()) == {(0,): 2.0, (2,): 1.0}
    # the mapped values of the stored entries are exactly v_max - v
    for idx, value in inst.potentials[0].items():
        assert energy(converted, np.eye(4)[idx[0]]) == 3.0 - value


def test_to_minimization_refuses_potentials_wider_than_the_float_range():
    # v_max - v overflows for the pairwise entry -1e308 when v_max is the
    # unary 1e308: the refusal names the instance's range, not the tensor
    # it would build, and no overflow warning comes first.
    spec = ConstraintSpec(2, 2)
    unary = SparseTensor(1, 4, [[0], [2]], [1e308, -1.0])
    pair = SparseTensor(2, 4, [[0, 3], [1, 2]], [4.0, -1e308])
    inst = MatchingInstance(2, 2, (unary, pair), spec, Sense.MAXIMIZE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range.*must be finite"):
            to_minimization(inst)


def test_to_minimization_equal_entries_become_zero():
    spec = ConstraintSpec(2, 2)
    inst = unary_instance([2.0, 2.0, 2.0, 2.0], spec, sense=Sense.MAXIMIZE)
    converted, v_max = to_minimization(inst)
    assert v_max == 2.0
    assert converted.potentials[0].nnz == 0  # all entries cancel to zero


def test_to_minimization_shares_the_indices_of_entries_it_keeps():
    spec = ConstraintSpec(2, 2)
    unary = SparseTensor(1, 4, [[0], [2], [3]], [1.0, 2.0, 0.5])
    pair = SparseTensor(2, 4, [[0, 3], [1, 2]], [4.0, 1.0])
    inst = MatchingInstance(2, 2, (unary, pair), spec, Sense.MAXIMIZE)
    converted, v_max = to_minimization(inst)
    assert v_max == 4.0
    # No unary entry becomes zero, so its canonical, read-only indices are
    # taken as they are; the pairwise maximum becomes zero and is dropped.
    assert converted.potentials[0].indices is unary.indices
    assert dict(converted.potentials[0].items()) == {(0,): 3.0, (2,): 2.0, (3,): 3.5}
    assert dict(converted.potentials[1].items()) == {(1, 2): 3.0}


def test_to_minimization_warns_on_minimize():
    inst = unary_instance([-3.0], ConstraintSpec(1, 1))
    with pytest.warns(UserWarning):
        converted, v_max = to_minimization(inst)
    assert converted is inst
    assert v_max == 0.0


def test_to_minimization_preserves_full_permutation_ranking():
    rng = np.random.default_rng(36)
    for _ in range(5):
        inst = dense_random_instance(rng, 4, 4, sense=Sense.MAXIMIZE)
        converted, _ = to_minimization(inst)
        best_max = oracles.exhaustive_optimum(inst)
        best_min = oracles.exhaustive_optimum(converted)
        assert np.array_equal(best_max[0], best_min[0])
