"""Property tests, on inputs drawn by hypothesis.

An order-2 tensor at least half full is held as one dense array.  Most
properties here compare such tensors, and the coordinate tensors the same
rule leaves alone, with ``oracles.CooTensor``, the coordinate-form
reference, bit for bit; one compares the pulls of tensors of orders 1-4
with the per-mode CSR reference.  The last two take the exhaustive oracle
as ground truth on instances small enough to enumerate: it must find the
optimum that per-candidate scoring finds, and no solve may beat it.  The
draws are derandomized and nothing is written to disk, so every run of
the same set of test modules checks the same examples.  Hypothesis also draws literals from the source it has loaded,
so running this module alone can check other examples than the whole
suite does.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles

from adgm.constraints import ConstraintSpec, SideMode, feasibility
from adgm.discretize import brute_force_optimum
from adgm.io import tensor_from_lines, tensor_to_lines
from adgm.solver import (
    MatchingInstance,
    Sense,
    SolverConfig,
    Variant,
    energy,
    solve,
    to_minimization,
)
from adgm.tensor import SparseTensor, multilinear_form, partial_contraction

_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# Potentials of every sign and size: both zeros, subnormals and extremes.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _pairwise(draw):
    """``(n1, n2, indices, values)``: order-2 entries over ``n1 * n2``
    indices with about, exactly or at least half of the cells stored,
    symmetric or not, some indices absent, explicit +-0.0 values, and
    repeated index pairs (some cancelling) in any order."""
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dim = n1 * n2
    cells = dim * dim
    half = (cells + 1) // 2
    count = draw(
        st.one_of(
            st.sampled_from([half - 1, half, cells]),
            st.integers(half, cells),
            st.integers(0, cells),
        )
    )
    chosen = draw(st.permutations(range(cells)))[:count]
    grid = np.zeros((dim, dim))
    grid.flat[chosen] = draw(st.lists(_VALUES, min_size=count, max_size=count))
    stored = np.zeros((dim, dim), dtype=bool)
    stored.flat[chosen] = True
    if draw(st.booleans()):
        near = np.arange(dim)
        stored |= stored.T
        grid = np.where(near[:, None] <= near, grid, grid.T)
    indices, values = np.argwhere(stored), grid[stored]
    repeats = draw(
        st.lists(st.tuples(st.integers(0, cells), st.sampled_from(["cancel", "other"]), _VALUES),
                 max_size=4)
    )
    for k, kind, value in repeats:
        if values.size:
            k %= values.size
            extra = -values[k] if kind == "cancel" else value
            indices = np.vstack((indices, indices[k]))
            values = np.append(values, extra)
    order = np.array(draw(st.permutations(range(values.size))), dtype=np.intp)
    return n1, n2, indices[order], values[order]


def _work(draw, dim):
    """A closed-mode vector: finite, mostly +-0.0, or with an inf or NaN."""
    kind = draw(st.sampled_from(["finite", "sparse", "non-finite"]))
    finite = st.floats(-1e3, 1e3)
    if kind == "sparse":
        finite = st.one_of(st.sampled_from([0.0, -0.0]), finite)
    x = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    if kind == "sparse":
        x[draw(st.lists(st.integers(0, dim - 1), max_size=dim))] = 0.0
    if kind == "non-finite":
        x[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return x


def _tensors(case):
    """The tensor of the drawn entries and its reference.  Repeated entries
    whose sum overflows make no tensor, as no tensor holds an inf: such a
    draw is checked to be refused, then rejected."""
    n1, n2, indices, values = case
    dim = n1 * n2
    ref = oracles.CooTensor(2, dim, indices, values)
    if not np.all(np.isfinite(ref.values)):
        with pytest.raises(ValueError, match="must be finite"):
            SparseTensor(2, dim, indices, values)
        reject()
    return SparseTensor(2, dim, indices, values), ref


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_float(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _held_by_the_rule(tensor):
    # Dense exactly when at least half of the cells are stored.
    dim = tensor.dim
    assert (tensor._dense is not None) == (tensor.order == 2 and 0 < dim * dim <= 2 * tensor.nnz)


@_SETTINGS
@given(_pairwise())
def test_entries_are_the_reference_entries(case):
    tensor, ref = _tensors(case)
    assert tensor.nnz == ref.nnz
    _held_by_the_rule(tensor)
    for got, want in ((tensor.indices, ref.indices), (tensor.values, ref.values)):
        _same_array(got, want)
        assert got.flags.c_contiguous and got.flags.owndata and not got.flags.writeable


@_SETTINGS
@given(_pairwise(), st.data())
def test_pulls_are_the_reference_pulls(case, data):
    tensor, ref = _tensors(case)
    for open_mode in (1, 2, 1):
        work = _work(data.draw, tensor.dim)
        left, right = ([work], []) if open_mode == 2 else ([], [work])
        with np.errstate(over="ignore", invalid="ignore"):
            got = partial_contraction(tensor, open_mode, left, right)
            want = oracles.per_mode_partial_contraction(ref, open_mode, left, right)
        _same_array(got, want)


@st.composite
def _coordinate(draw):
    """``(order, dim, indices, values)``: distinct entries of order 1-4 in
    any order, over a grid that they fill sparsely or at least half."""
    order = draw(st.integers(1, 4))
    dim = draw(st.integers(1, (9, 6, 4, 3)[order - 1]))
    cells = dim**order
    half = (cells + 1) // 2
    count = draw(st.one_of(st.integers(1, half), st.integers(half, cells), st.just(cells)))
    chosen = draw(st.permutations(range(cells)))[:count]
    indices = np.stack(np.unravel_index(chosen, (dim,) * order), axis=1)
    values = np.array(draw(st.lists(_VALUES, min_size=count, max_size=count)))
    return order, dim, indices, values


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_coordinate(), st.data())
def test_coordinate_pulls_are_the_per_mode_reference_pulls(case, data):
    order, dim, indices, values = case
    tensor = SparseTensor(order, dim, indices, values)
    for open_mode in range(1, order + 1):
        vectors = [_work(data.draw, dim) for _ in range(order - 1)]
        left, right = vectors[: open_mode - 1], vectors[open_mode - 1 :]
        with np.errstate(over="ignore", invalid="ignore"):
            got = partial_contraction(tensor, open_mode, left, right)
            if tensor._half_operator() is None:
                want = oracles.per_mode_partial_contraction(tensor, open_mode, left, right)
            else:
                # Exactly supersymmetric, as every order-3 tensor over one
                # index is: the half operator serves the pull.
                want = oracles.half_operator_partial_contraction(tensor, left, right)
        _same_array(got, want)


@_SETTINGS
@given(_pairwise(), st.data())
def test_forms_and_energies_are_the_reference_sums(case, data):
    tensor, ref = _tensors(case)
    n1, n2 = case[:2]
    x, y = _work(data.draw, tensor.dim), _work(data.draw, tensor.dim)
    instance = MatchingInstance(
        n1, n2, (SparseTensor.empty(1, tensor.dim), tensor), ConstraintSpec.injective(n1, n2), Sense.MINIMIZE
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _same_float(multilinear_form(tensor, [x, y]), ref.form([x, y]))
        # energy adds each potential's form to an int 0.
        _same_float(energy(instance, x), 0 + 0.0 + ref.form([x, x]))


@_SETTINGS
@given(_pairwise(), st.data())
def test_equality_is_equality_of_the_reference_entries(case, data):
    tensor, ref = _tensors(case)
    again = SparseTensor(2, ref.dim, ref.indices, ref.values)
    assert tensor == again and again == tensor
    assert tensor != SparseTensor(2, ref.dim + 1, ref.indices, ref.values)
    if ref.nnz:
        k = data.draw(st.integers(0, ref.nnz - 1))
        nudged = ref.values.copy()
        nudged[k] = np.nextafter(nudged[k], 0.0)
        assert tensor != SparseTensor(2, ref.dim, ref.indices, nudged)
        moved = ref.indices.copy()
        moved[k] = data.draw(st.tuples(*[st.integers(0, ref.dim - 1)] * 2))
        want = oracles.CooTensor(2, ref.dim, moved, ref.values)
        same = (want.indices.tobytes(), want.values.tobytes()) == (
            ref.indices.tobytes(),
            ref.values.tobytes(),
        )
        assert (tensor == SparseTensor(2, ref.dim, moved, ref.values)) == same


@_SETTINGS
@given(_pairwise())
def test_to_minimization_gives_the_reference_tensor(case):
    tensor, ref = _tensors(case)
    n1, n2 = case[:2]
    instance = MatchingInstance(
        n1, n2, (SparseTensor.empty(1, tensor.dim), tensor), ConstraintSpec.injective(n1, n2), Sense.MAXIMIZE
    )
    want_max = float(ref.values.max()) if ref.nnz else 0.0
    with np.errstate(over="ignore"):
        overflows = not np.all(np.isfinite(want_max - ref.values))
    if overflows:
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            to_minimization(instance)
        return
    converted, v_max = to_minimization(instance)
    _same_float(v_max, want_max)
    got, want = converted.potentials[1], ref.minimized(want_max)
    _held_by_the_rule(got)
    _same_array(got.indices, want.indices)
    _same_array(got.values, want.values)


@_SETTINGS
@given(_pairwise())
def test_text_is_the_reference_text(case):
    tensor, ref = _tensors(case)
    lines = tensor_to_lines(tensor)
    assert lines == oracles.linewise_tensor_lines(ref)
    read = tensor_from_lines(lines)
    _held_by_the_rule(read)
    _same_array(read.indices, ref.indices)
    _same_array(read.values, ref.values)


# Potentials of a matching instance: integers, which tie, and moderate
# floats, both zeros included.
_POTENTIALS = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))


def _specs(n1, n2):
    """Every side-constraint spec that ``n1 x n2`` allows: a side is matched
    exactly once only when it is not the larger one."""
    modes = (SideMode.EXACTLY_ONE, SideMode.AT_MOST_ONE)
    return [
        ConstraintSpec(n1, n2, rows, cols)
        for rows in modes
        for cols in modes
        if not (rows is SideMode.EXACTLY_ONE and n1 > n2)
        and not (cols is SideMode.EXACTLY_ONE and n2 > n1)
    ]


@st.composite
def _small_instances(draw):
    """An instance of at most 4 x 4 points with potentials of orders 1-3,
    each sparse (repeated indices included) or, for order 2, storing at
    least half of its cells, in either sense under any spec."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = n1 * n2
    potentials = []
    for order in range(1, draw(st.integers(1, 3)) + 1):
        cells = n**order
        if order == 2 and draw(st.booleans()):
            count = draw(st.integers((cells + 1) // 2, cells))
            chosen = draw(st.permutations(range(cells)))[:count]
        else:
            chosen = draw(st.lists(st.integers(0, cells - 1), max_size=3 * n))
        indices = np.stack(np.unravel_index(np.array(chosen, dtype=np.intp), (n,) * order), axis=1)
        values = draw(st.lists(_POTENTIALS, min_size=len(chosen), max_size=len(chosen)))
        potentials.append(SparseTensor(order, n, indices, values))
    spec = draw(st.sampled_from(_specs(n1, n2)))
    return MatchingInstance(n1, n2, tuple(potentials), spec, draw(st.sampled_from(Sense)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_small_instances())
def test_the_oracle_finds_the_optimum_of_per_candidate_scoring(instance):
    got_x, got_energy = brute_force_optimum(instance)
    want_x, want_energy = oracles.exhaustive_optimum(instance)
    _same_array(got_x, want_x)
    _same_float(got_energy, want_energy)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_small_instances())
def test_no_solve_beats_the_oracle(instance):
    _, best = brute_force_optimum(instance)
    for variant in Variant:
        result = solve(instance, SolverConfig(variant=variant))
        x = result.discrete
        assert np.all((x == 0.0) | (x == 1.0))
        assert feasibility(x, instance.spec, hard=True).max_violation == 0.0
        _same_float(energy(instance, x), result.energy_discrete)
        if instance.sense is Sense.MAXIMIZE:
            assert result.energy_discrete <= best
        else:
            assert result.energy_discrete >= best
